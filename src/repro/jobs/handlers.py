"""Job handlers: the heavy operations the async service runs.

Each handler is a plain function ``(job, session, ctx) -> (bytes,
content_type)`` executing one job kind against the owning tenant's
session.  Handlers report progress and honour cancellation exclusively
through the :class:`JobContext` the worker hands them; the embedding
handler additionally checkpoints the t-SNE descent so a crashed worker
resumes bit-identically (see :mod:`repro.jobs.checkpoint`).

The registered kinds are the three operations the paper's interactive
loop cannot afford synchronously at production scale:

- ``embed`` — t-SNE / landmark t-SNE / MDS over the tenant's features,
  stored as a deterministic npz (coords + objective + trace);
- ``render`` — a dashboard page (``format=html``) or the view-A map SVG
  (``format=svg``);
- ``export`` — the tenant's hourly readings as bulk CSV, streamed block
  by block with a cancellation point between blocks.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.params import EmbedParams
from repro.core.pipeline import VapSession
from repro.core.reduction.tsne import tsne
from repro.data.generator.city import CityLayout
from repro.data.timeseries import HourWindow
from repro.resilience.faults import fault_point

from repro.jobs.artifacts import deterministic_npz
from repro.jobs.checkpoint import load_checkpoint, save_checkpoint
from repro.jobs.model import CancelToken, Job

#: Descent iterations between checkpoints (a multiple of the Barnes–Hut
#: ``_REPLAN_EVERY`` cadence, which bit-identical resume requires).
DEFAULT_CHECKPOINT_EVERY = 100

NPZ_CONTENT_TYPE = "application/vnd.numpy.npz"

_EXPORT_BLOCK_ROWS = 256


@dataclass(slots=True)
class JobContext:
    """What a handler may touch while running one job.

    ``report(progress, message)`` is the only progress channel (the
    service clamps it monotonic); ``token`` is the job's cancellation
    deadline (already bound on the worker thread — explicit checks are
    only needed in handler-level loops); ``checkpoint_path`` is the
    job's durable checkpoint file.
    """

    token: CancelToken
    report: Callable[[float, str], None]
    checkpoint_path: Path
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    layout: CityLayout | None = None
    on_checkpoint: Callable[[int], None] | None = None


def _embed_fingerprint(key: tuple, feats: np.ndarray) -> str:
    """Stable identity of an embedding computation: its
    :meth:`~repro.core.params.EmbedParams.key` plus a digest of the
    exact feature matrix — a checkpoint from different data or from
    settings that change the result must never be resumed, while one
    from settings that do not (such as an unread ``seed``) may."""
    feat_digest = hashlib.sha256(
        np.ascontiguousarray(feats).tobytes()
    ).hexdigest()
    return json.dumps(
        {"key": key, "features_sha256": feat_digest, "shape": list(feats.shape)},
        sort_keys=True,
    )


def run_embed(job: Job, session: VapSession, ctx: JobContext) -> tuple[bytes, str]:
    """Compute an embedding asynchronously, checkpointing the descent.

    Accepts the same parameters as ``GET /api/embedding`` (parsed by
    :meth:`~repro.core.params.EmbedParams.parse`) and produces
    coordinates bit-identical to the synchronous
    :meth:`~repro.core.pipeline.VapSession.embed` for the same
    parameters.  Checkpoints fire every ``checkpoint_every`` iterations
    (t-SNE engines only); on restart the handler resumes from the last
    fingerprint-matching checkpoint.
    """
    params = EmbedParams.parse(job.params)
    ctx.report(0.02, "extracting features")
    feats = session.features()
    n_iter = params.n_iter

    if params.method == "tsne":
        fingerprint = _embed_fingerprint(params.key(len(feats)), feats)
        resume = load_checkpoint(ctx.checkpoint_path, fingerprint)
        if resume is not None:
            ctx.report(
                max(0.05, 0.05 + 0.9 * resume.iteration / n_iter),
                f"resuming from checkpoint at iteration {resume.iteration}",
            )
            if ctx.on_checkpoint is not None:
                ctx.on_checkpoint(resume.iteration)

        def checkpoint_fn(cp) -> None:
            ctx.token.check("t-SNE checkpoint")
            save_checkpoint(ctx.checkpoint_path, cp, fingerprint)
            if ctx.on_checkpoint is not None:
                ctx.on_checkpoint(cp.iteration)
            # Chaos site: armed plans kill the worker *after* the
            # checkpoint is durable, so the resumed run must replay the
            # remaining iterations bit-identically.
            fault_point("jobs.worker.crash")
            ctx.report(
                0.05 + 0.9 * cp.iteration / n_iter,
                f"iteration {cp.iteration}/{n_iter}",
            )

        result = tsne(
            feats,
            checkpoint_every=ctx.checkpoint_every,
            checkpoint_fn=checkpoint_fn,
            resume_from=resume,
            **params.tsne_options(),
        )
        coords = result.embedding
        objective = result.kl_divergence
        trace = result.kl_trace
    else:
        # MDS runs have no iterative checkpoint; compute through the
        # session (single-flight cached) like the synchronous endpoint.
        info, _ = session.embed_spec(params)
        coords = info.coords
        objective = info.objective
        trace = []
    ctx.report(0.97, "serializing artifact")
    data = deterministic_npz(
        {
            "coords": np.asarray(coords, dtype=np.float64),
            "objective": np.float64(objective),
            "kl_trace": np.asarray(trace, dtype=np.float64),
            "customer_ids": np.asarray(
                session.series.customer_ids, dtype=np.int64
            ),
        }
    )
    return data, NPZ_CONTENT_TYPE


def _window_param(
    params: dict, prefix: str, default: HourWindow
) -> HourWindow:
    start = params.get(f"{prefix}_start")
    end = params.get(f"{prefix}_end")
    if start is None and end is None:
        return default
    if start is None or end is None:
        raise ValueError(
            f"give both {prefix}_start and {prefix}_end, or neither"
        )
    start, end = int(start), int(end)
    if end < start:
        raise ValueError(f"{prefix}_end must not precede {prefix}_start")
    return HourWindow(start, end)


def run_render(job: Job, session: VapSession, ctx: JobContext) -> tuple[bytes, str]:
    """Render the dashboard page (``format=html``, default) or the
    view-A map SVG (``format=svg``) for two shift windows."""
    from repro.viz.dashboard import render_dashboard, render_map_view

    params = dict(job.params)
    fmt = str(params.get("format", "html"))
    if fmt not in ("html", "svg"):
        raise ValueError(f"unknown render format {fmt!r}; use html or svg")
    span = session.db.time_span
    week = 7 * 24
    t1 = _window_param(
        params, "t1",
        HourWindow(span.start_hour, min(span.start_hour + week, span.end_hour)),
    )
    t2 = _window_param(
        params, "t2",
        HourWindow(max(span.end_hour - week, span.start_hour), span.end_hour),
    )
    ctx.report(0.1, f"rendering {fmt} for windows {t1} vs {t2}")
    if fmt == "svg":
        doc = render_map_view(session, t1, t2, layout=ctx.layout)
        return doc.render_document().encode("utf-8"), "image/svg+xml"
    page = render_dashboard(
        session, t1, t2, layout=ctx.layout,
        title=str(params.get("title", "VAP dashboard")),
    )
    return page.encode("utf-8"), "text/html; charset=utf-8"


def run_export(job: Job, session: VapSession, ctx: JobContext) -> tuple[bytes, str]:
    """Bulk CSV export of the tenant's hourly readings (wide format: one
    row per customer), with a cancellation point between row blocks."""
    params = dict(job.params)
    series = session.series
    span = session.db.time_span
    start = int(params.get("start", span.start_hour))
    end = int(params.get("end", span.end_hour))
    if end < start:
        raise ValueError("end must not precede start")
    sliced = series.slice_hours(start, end)
    matrix = np.asarray(sliced.matrix)
    n = matrix.shape[0]
    out = io.StringIO()
    out.write(
        "customer_id," + ",".join(f"h{h}" for h in sliced.hours) + "\r\n"
    )
    for block_start in range(0, n, _EXPORT_BLOCK_ROWS):
        ctx.token.check(f"export block at row {block_start}")
        block_end = min(block_start + _EXPORT_BLOCK_ROWS, n)
        for i in range(block_start, block_end):
            row = matrix[i]
            out.write(str(int(sliced.customer_ids[i])))
            out.write(",")
            out.write(",".join("" if np.isnan(v) else repr(float(v)) for v in row))
            out.write("\r\n")
        ctx.report(
            0.05 + 0.9 * block_end / max(n, 1),
            f"exported {block_end}/{n} customers",
        )
    return out.getvalue().encode("utf-8"), "text/csv; charset=utf-8"


HANDLERS: dict[str, Callable[[Job, VapSession, JobContext], tuple[bytes, str]]] = {
    "embed": run_embed,
    "render": run_render,
    "export": run_export,
}

JOB_KINDS = tuple(sorted(HANDLERS))
