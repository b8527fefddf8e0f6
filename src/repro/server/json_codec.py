"""JSON encoding that understands the project's types.

numpy scalars/arrays, dataclass-like objects with ``to_record``, enums and
the model result objects all serialise transparently; NaN/inf are mapped to
``null`` so the output is strict JSON any client can parse.

A *frozen* array — read-only and owning its memory, as the session's
density and embedding caches hold — is encoded once: its text is kept
for as long as the array lives and spliced into every later payload that
carries it, bare or as a top-level value of a dict.
"""

from __future__ import annotations

import enum
import json
import math
import weakref
from typing import Any

import numpy as np


def _plain_tolist(array: np.ndarray) -> bool:
    """Whether ``array.tolist()`` is already JSON-safe: bool and integer
    arrays, and float arrays of at most double precision with no NaN/inf
    (``tolist`` turns those into plain Python ``bool``/``int``/``float``,
    so walking them element by element would change nothing)."""
    kind = array.dtype.kind
    if kind in ("b", "i", "u"):
        return True
    return (
        kind == "f"
        and array.dtype.itemsize <= 8
        and bool(np.isfinite(array).all())
    )


def _sanitize(value: Any) -> Any:
    """Recursively convert to plain JSON-safe Python values."""
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        out = float(value)
        return out if math.isfinite(out) else None
    if isinstance(value, np.ndarray):
        # A 0-d array's tolist() is a scalar, which sanitizes as one.
        items = value.tolist()
        return items if _plain_tolist(value) else _sanitize(items)
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_sanitize(v) for v in value]
    if hasattr(value, "to_record"):
        return _sanitize(value.to_record())
    raise TypeError(f"cannot serialise {type(value).__name__} to JSON")


def _encode(value: Any) -> str:
    return json.dumps(_sanitize(value), allow_nan=False, separators=(",", ":"))


# Encoded text of frozen arrays, keyed on ``id``: each entry is dropped by
# a ``weakref.finalize`` on its array, so it lives exactly as long as the
# array (and its id cannot be reused while the entry exists).  Threads
# racing on one array both encode it and store the same text, so no lock.
_ENCODED: dict[int, str] = {}


def _frozen(value: Any) -> bool:
    """Whether ``value``'s contents can never change: a read-only ndarray
    that owns its memory.  A read-only *view* is excluded — its base may
    be written through another view."""
    return (
        isinstance(value, np.ndarray)
        and not value.flags.writeable
        and value.base is None
    )


def _frozen_text(array: np.ndarray) -> str:
    key = id(array)
    text = _ENCODED.get(key)
    if text is None:
        text = _encode(array)
        _ENCODED[key] = text
        weakref.finalize(array, _ENCODED.pop, key, None)
    return text


def dumps(value: Any) -> str:
    """Serialise to strict JSON text (no NaN literals).

    A frozen array (read-only, owning its memory), passed bare or as a
    top-level value of a dict, is encoded once per array lifetime; the
    output bytes are the same either way.  Thawing a frozen array and
    writing into it is not supported: its memoised text would go stale.

    Raises
    ------
    TypeError
        For unsupported object types.
    """
    if _frozen(value):
        return _frozen_text(value)
    if isinstance(value, dict) and any(_frozen(v) for v in value.values()):
        # Same key coercion (and collision rule) as ``_sanitize``.
        items = {str(k): v for k, v in value.items()}
        return "{" + ",".join(
            json.dumps(k) + ":" + (_frozen_text(v) if _frozen(v) else _encode(v))
            for k, v in items.items()
        ) + "}"
    return _encode(value)


def loads(text: str | bytes) -> Any:
    """Parse JSON text; thin wrapper kept for symmetry."""
    return json.loads(text)
