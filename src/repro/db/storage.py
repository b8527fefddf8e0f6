"""Durable storage for a data set: save/load an EnergyDatabase.

The paper lists "data acquisition, processing, **storage**, analysis and
visualization" as the pipeline stages.  This module gives the embedded
engine a durable on-disk format:

- ``customers.csv`` — the customer table (human-readable interchange);
- ``readings.npz`` — the dense hourly matrix (compressed numpy, ~10x
  smaller and ~100x faster to load than CSV at fleet scale);
- ``meta.json`` — format version and shape metadata, checked on load.

``save_database`` / ``load_database`` round-trip exactly, including NaN
cells.  Older saves also name a spatial index in ``meta.json``; the
loader ignores that key (every database runs the R-tree index).

Crash safety: a save stages every file in a hidden temp sibling
directory and renames it into place only once complete, so a crash (or
injected fault) mid-save can never leave a readable-but-torn data set —
readers either see the old complete state or the new complete state.
Loads cross-check the metadata against both payload files and raise
:class:`StorageError` with a precise message on any disagreement.

Both paths retry transient I/O errors under a
:class:`~repro.resilience.retry.RetryPolicy` (pass ``retry=None`` to
fail fast) and declare ``storage.*`` fault-injection sites for chaos
runs (see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.data.loader import load_customers, save_customers
from repro.data.timeseries import SeriesSet
from repro.db.engine import EnergyDatabase
from repro.resilience.faults import fault_bytes, fault_point
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy

FORMAT_VERSION = 1

CUSTOMERS_FILE = "customers.csv"
READINGS_FILE = "readings.npz"
META_FILE = "meta.json"

# Metadata keys a loadable data set must carry, beyond the version.
REQUIRED_META_KEYS = ("n_customers", "n_steps")


class StorageError(ValueError):
    """Raised when a stored data set is missing, corrupt or incompatible."""


def _stage_dir(directory: Path) -> Path:
    """The hidden temp sibling a save stages into (same filesystem, so
    the final rename is atomic)."""
    return directory.parent / f".{directory.name}.staging"


def _save_once(db: EnergyDatabase, directory: Path) -> Path:
    staging = _stage_dir(directory)
    if staging.exists():
        shutil.rmtree(staging)  # leftover from a previous crashed save
    staging.mkdir(parents=True)
    try:
        fault_point("storage.save.customers")
        customers = [db.customer(cid) for cid in db.customer_ids]
        save_customers(customers, staging / CUSTOMERS_FILE)
        fault_point("storage.save.readings")
        np.savez_compressed(
            staging / READINGS_FILE,
            customer_ids=db.readings.customer_ids,
            matrix=db.readings.matrix,
            start_hour=np.int64(db.readings.start_hour),
        )
        meta = {
            "format_version": FORMAT_VERSION,
            "n_customers": len(db),
            "n_steps": db.readings.n_steps,
            "start_hour": db.readings.start_hour,
        }
        payload = fault_bytes(
            "storage.save.meta", json.dumps(meta, indent=2).encode("utf-8")
        )
        (staging / META_FILE).write_bytes(payload)
        # Publish: the complete staged tree replaces the target in one
        # rename (plus a backup dance when overwriting an old save).
        if directory.exists():
            backup = directory.parent / f".{directory.name}.old"
            if backup.exists():
                shutil.rmtree(backup)
            os.replace(directory, backup)
            os.replace(staging, directory)
            shutil.rmtree(backup)
        else:
            directory.parent.mkdir(parents=True, exist_ok=True)
            os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return directory


def save_database(
    db: EnergyDatabase,
    directory: str | Path,
    retry: RetryPolicy | None = DEFAULT_POLICY,
) -> Path:
    """Write a database to a directory (created if needed); returns it.

    The write is atomic at the directory level: files are staged in a
    temp sibling and renamed into place only once all three are
    complete, so readers never observe a partially-updated data set.
    Transient ``OSError``s are retried under ``retry`` (pass ``None``
    to disable).
    """
    directory = Path(directory)
    if retry is None:
        return _save_once(db, directory)
    return retry.call(lambda: _save_once(db, directory), site="storage.save")


def _load_once(directory: Path) -> EnergyDatabase:
    meta_path = directory / META_FILE
    fault_point("storage.load.meta")
    if not meta_path.exists():
        raise StorageError(f"{directory} does not contain {META_FILE}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"{meta_path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise StorageError(f"{meta_path} must hold a JSON object, got {meta!r}")
    if meta.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported format version {meta.get('format_version')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    missing = [key for key in REQUIRED_META_KEYS if key not in meta]
    if missing:
        raise StorageError(
            f"{meta_path} is missing required key(s) {', '.join(missing)} — "
            "the metadata was truncated or written by a broken save"
        )
    for key in REQUIRED_META_KEYS:
        if not isinstance(meta[key], int) or meta[key] < 0:
            raise StorageError(
                f"{meta_path}: {key} must be a non-negative integer, "
                f"got {meta[key]!r}"
            )
    for name in (CUSTOMERS_FILE, READINGS_FILE):
        if not (directory / name).exists():
            raise StorageError(f"{directory} is missing {name}")
    fault_point("storage.load.customers")
    try:
        customers = load_customers(directory / CUSTOMERS_FILE)
    except ValueError as exc:
        raise StorageError(
            f"{directory / CUSTOMERS_FILE} is unreadable: {exc}"
        ) from exc
    fault_point("storage.load.readings")
    try:
        with np.load(directory / READINGS_FILE) as payload:
            readings = SeriesSet(
                customer_ids=payload["customer_ids"].tolist(),
                start_hour=int(payload["start_hour"]),
                matrix=payload["matrix"],
            )
    except (OSError, KeyError, ValueError) as exc:
        if isinstance(exc, StorageError):
            raise
        raise StorageError(
            f"{directory / READINGS_FILE} is unreadable or truncated: {exc}"
        ) from exc
    if readings.n_customers != meta["n_customers"] or (
        readings.n_steps != meta["n_steps"]
    ):
        raise StorageError(
            f"stored readings shape ({readings.n_customers}, "
            f"{readings.n_steps}) disagrees with metadata "
            f"({meta['n_customers']}, {meta['n_steps']})"
        )
    # Cross-check the two payload files against each other, not just the
    # metadata: a torn save could leave a fresh customer table beside old
    # readings (or vice versa).
    if len(customers) != readings.n_customers:
        raise StorageError(
            f"{CUSTOMERS_FILE} lists {len(customers)} customers but "
            f"{READINGS_FILE} holds readings for {readings.n_customers} — "
            "the data set is torn"
        )
    csv_ids = {c.customer_id for c in customers}
    npz_ids = {int(cid) for cid in readings.customer_ids}
    if csv_ids != npz_ids:
        strays = sorted(csv_ids.symmetric_difference(npz_ids))[:5]
        raise StorageError(
            f"{CUSTOMERS_FILE} and {READINGS_FILE} cover different customer "
            f"ids (e.g. {strays}) — the data set is torn"
        )
    return EnergyDatabase(customers, readings)


def load_database(
    directory: str | Path,
    retry: RetryPolicy | None = DEFAULT_POLICY,
) -> EnergyDatabase:
    """Load a database saved by :func:`save_database`.

    Transient ``OSError``s are retried under ``retry`` (pass ``None`` to
    disable); corrupt or inconsistent data raises immediately.

    Raises
    ------
    StorageError
        If files are missing, the version is unknown, the metadata is
        incomplete, or the payload files disagree with the metadata or
        each other.
    """
    directory = Path(directory)
    if retry is None:
        return _load_once(directory)
    return retry.call(lambda: _load_once(directory), site="storage.load")


# ----------------------------------------------------------------------
# tenant namespaces
# ----------------------------------------------------------------------
def tenant_directory(root: str | Path, tenant_id: str) -> Path:
    """The per-tenant data directory under a storage root.

    The tenant id is validated against the tenancy alphabet before being
    used as a path component, so a hostile id can never escape the root.
    """
    from repro.tenancy import validate_tenant_id  # local: avoid cycle

    return Path(root) / validate_tenant_id(tenant_id)


def save_tenant_database(
    db: EnergyDatabase,
    root: str | Path,
    tenant_id: str,
    retry: RetryPolicy | None = DEFAULT_POLICY,
) -> Path:
    """Save one tenant's database under ``root/<tenant_id>/``.

    Each tenant directory is written with the same staged atomic rename
    as :func:`save_database`, so tenants never see each other's partial
    writes — or data."""
    return save_database(db, tenant_directory(root, tenant_id), retry=retry)


def load_tenant_database(
    root: str | Path,
    tenant_id: str,
    retry: RetryPolicy | None = DEFAULT_POLICY,
) -> EnergyDatabase:
    """Load one tenant's database from ``root/<tenant_id>/``."""
    return load_database(tenant_directory(root, tenant_id), retry=retry)


def list_tenant_databases(root: str | Path) -> list[str]:
    """Tenant ids with a loadable data set under ``root``, sorted."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.is_dir() and (entry / META_FILE).exists()
    )
