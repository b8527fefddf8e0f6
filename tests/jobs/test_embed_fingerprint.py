"""Embedding checkpoints are fingerprinted by the embed cache key.

A checkpoint is refused across a result-changing option
(``perplexity``) or other features.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.jobs.handlers import JobContext, run_embed
from repro.jobs.model import CancelToken, Job
from repro.obs import MetricsRegistry
from repro.resilience import faults

PARAMS = {"method": "tsne", "n_iter": 60, "perplexity": 8}


def _run(session, params, path, crash=False):
    """Run the embed handler against checkpoint ``path``; returns the
    artifact bytes (None when the armed crash fired) and the progress
    messages."""
    messages = []
    ctx = JobContext(
        token=CancelToken(threading.Event()),
        report=lambda progress, message: messages.append(message),
        checkpoint_path=path,
        checkpoint_every=20,
    )
    job = Job(job_id="j", tenant="acme", kind="embed", params=dict(params))
    if not crash:
        with faults.disarmed():
            data, _ = run_embed(job, session, ctx)
        return data, messages
    plan = faults.FaultPlan.parse("jobs.worker.crash=error:1.0", seed=1)
    with faults.injected(plan, metrics=MetricsRegistry()):
        with pytest.raises(faults.InjectedFault):
            run_embed(job, session, ctx)
    return None, messages


def _resumed(messages) -> bool:
    return any(m.startswith("resuming from checkpoint") for m in messages)


@pytest.fixture(scope="module")
def session(jobs_city):
    return VapSession.from_city(jobs_city, metrics=MetricsRegistry())


def test_checkpoint_refused_across_perplexity(session, tmp_path):
    path = tmp_path / "cp.npz"
    _run(session, PARAMS, path, crash=True)
    other = dict(PARAMS, perplexity=5)
    clean, _ = _run(session, other, tmp_path / "clean.npz")
    data, messages = _run(session, other, path)
    assert not _resumed(messages)
    assert data == clean


def test_checkpoint_refused_across_features(session, jobs_city, tmp_path):
    path = tmp_path / "cp.npz"
    _run(session, PARAMS, path, crash=True)
    other_city = generate_city(
        CityConfig(n_customers=jobs_city.config.n_customers, n_days=7, seed=12)
    )
    other = VapSession.from_city(other_city, metrics=MetricsRegistry())
    clean, _ = _run(other, PARAMS, tmp_path / "clean.npz")
    data, messages = _run(other, PARAMS, path)
    assert not _resumed(messages)
    assert data == clean
