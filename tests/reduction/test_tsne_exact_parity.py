"""Exact t-SNE gradient and objective against the dense reference formulas.

The workspace kernel builds ``1 + d²`` from one augmented GEMM, clips it
at 1, and gets the row sums and ``coeff @ y`` from one matmul; the oracle
in ``tsne_oracle.py`` is the original ``(diag(rowsum) - coeff) @ y``
formula.  Both exaggeration phases and four layouts are covered: the PCA
init scale, an O(10) spread, a far-apart layout where the ``_P_MIN``
floor on q is active, and coincident points whose expanded d² rounds
below zero.
"""

import threading

import numpy as np
import pytest

from repro.bench.perf import _blob_data, _knn_label_recall
from repro.core.reduction.distances import pairwise_distances
from repro.core.reduction.tsne import (
    _P_MIN,
    _ExactWorkspace,
    joint_probabilities,
    tsne,
)

from tests.reduction.tsne_oracle import exact_gradient, kl, oracle_tsne, q_matrix

EXAGGERATION = 12.0


@pytest.fixture(scope="module")
def bench_city():
    """Clustered 24-D features plus labels, the regime view C embeds."""
    return _blob_data(300, seed=3)


@pytest.fixture(scope="module")
def joint(bench_city):
    feats, _ = bench_city
    return joint_probabilities(pairwise_distances(feats, metric="euclidean"), 30.0)


def _layout(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    if kind == "init":
        y = rng.normal(0.0, 1e-4, size=(n, 2))
    elif kind == "spread":
        y = rng.normal(0.0, 10.0, size=(n, 2))
    elif kind == "far":
        # A unit-scale core plus outliers ~1e5 away: their kernel/Z sits
        # far below _P_MIN, so the floor on q decides their terms.
        y = rng.normal(0.0, 1.0, size=(n, 2))
        y[:30] = rng.normal(0.0, 1e5, size=(30, 2))
    else:  # "coincident": n / 10 sites, 10 identical points each
        y = np.repeat(rng.normal(0.0, 3.0, size=(n // 10, 2)), 10, axis=0)
    return y


def _row_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(
        (np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)).max()
    )


CASES = ("init", "spread", "far", "coincident")


class TestStepParity:
    @pytest.mark.parametrize("phase", ["exaggerated", "plain"])
    @pytest.mark.parametrize("case", CASES)
    def test_gradient_matches_oracle(self, joint, case, phase):
        y = _layout(case, joint.shape[0])
        p = joint * EXAGGERATION if phase == "exaggerated" else joint
        got = _ExactWorkspace(joint, 2).gradient(y, p)
        assert _row_rel_err(got, exact_gradient(y, p)) <= 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_kl_matches_oracle(self, joint, case):
        y = _layout(case, joint.shape[0])
        want = kl(joint, q_matrix(y)[0])
        assert _ExactWorkspace(joint, 2).kl(y) == pytest.approx(want, rel=1e-10)

    def test_workspace_is_reusable_across_steps(self, joint):
        workspace = _ExactWorkspace(joint, 2)
        for case in CASES:
            y = _layout(case, joint.shape[0])
            assert _row_rel_err(
                workspace.gradient(y, joint), exact_gradient(y, joint)
            ) <= 1e-12
            assert workspace.kl(y) == pytest.approx(
                kl(joint, q_matrix(y)[0]), rel=1e-10
            )

    def test_far_case_exercises_the_q_floor(self, joint):
        _, kernel = q_matrix(_layout("far", joint.shape[0]))
        off_diag = ~np.eye(kernel.shape[0], dtype=bool)
        assert (kernel[off_diag] / kernel.sum() < _P_MIN).sum() > 100

    def test_coincident_kernel_is_clipped_at_one(self, joint):
        y = _layout("coincident", joint.shape[0])
        same = (y[:, None, :] == y[None, :, :]).all(axis=2)
        np.fill_diagonal(same, False)
        workspace = _ExactWorkspace(joint, 2)
        workspace.gradient(y, joint)
        # Precondition: the augmented GEMM rounds some exact d² = 0 below
        # zero, i.e. 1 + d² below one.
        expanded = workspace.left @ workspace.right.T
        assert (expanded[same] < 1.0).any()
        # 1 / (1 + d²) never exceeds one; the clipped pairs sit exactly on it.
        assert workspace.kernel.max() == 1.0


class TestRunParity:
    @pytest.fixture(scope="class")
    def runs(self, bench_city):
        feats, _ = bench_city
        kwargs = dict(metric="euclidean", n_iter=500, seed=0, method="exact")
        return tsne(feats, **kwargs), oracle_tsne(feats, **kwargs)

    def test_final_kl_within_5_percent(self, runs):
        fast, oracle = runs
        assert fast.kl_divergence == pytest.approx(oracle.kl_divergence, rel=0.05)

    def test_knn_label_recall_matches(self, runs, bench_city):
        _, labels = bench_city
        fast, oracle = runs
        assert abs(
            _knn_label_recall(fast.embedding, labels)
            - _knn_label_recall(oracle.embedding, labels)
        ) <= 0.03

    def test_trace_and_final_kl_match_oracle_objective(self, runs, joint):
        fast, _ = runs
        want = kl(joint, q_matrix(fast.embedding)[0])
        assert fast.kl_divergence == pytest.approx(want, rel=1e-10)
        # The last trace sample is taken at the final iterate.
        assert fast.kl_trace[-1] == pytest.approx(want, rel=1e-10)


class TestWorkspaceIsPerCall:
    def test_concurrent_runs_match_serial_bytes(self, bench_city):
        feats, _ = bench_city
        kwargs = dict(
            metric="euclidean", n_iter=120, init="random", method="exact"
        )
        serial = {seed: tsne(feats, seed=seed, **kwargs) for seed in (1, 2)}
        threaded: dict = {}
        barrier = threading.Barrier(2)

        def run(seed: int) -> None:
            barrier.wait()
            threaded[seed] = tsne(feats, seed=seed, **kwargs)

        threads = [threading.Thread(target=run, args=(s,)) for s in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seed, result in serial.items():
            assert threaded[seed].embedding.tobytes() == result.embedding.tobytes()
            assert threaded[seed].kl_trace == result.kl_trace
