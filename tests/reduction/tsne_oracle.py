"""Dense reference for the exact t-SNE gradient in ``repro.core.reduction.tsne``.

``q_matrix``/``exact_gradient``/``kl`` are the original allocation-heavy
formulas: Q from the expanded squared distances clipped at zero, the
gradient as ``(diag(rowsum) - coeff) @ y``, and KL over a boolean
off-diagonal mask.  :class:`OracleWorkspace` wraps them in the
``_ExactWorkspace`` interface, and :func:`oracle_tsne` runs
:func:`~repro.core.reduction.tsne.tsne` with it in place of the
workspace, so a parity test compares whole descents, not only one step.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np

from repro.core.reduction.tsne import _P_MIN, TSNEResult

# The package re-exports the ``tsne`` function under the module's name.
tsne_module = importlib.import_module("repro.core.reduction.tsne")


def q_matrix(embedding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t similarities Q (paper Eq. 2) and the unnormalised kernel."""
    sq = (embedding**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embedding @ embedding.T)
    np.clip(d2, 0.0, None, out=d2)
    kernel = 1.0 / (1.0 + d2)
    np.fill_diagonal(kernel, 0.0)
    total = kernel.sum()
    q = np.clip(kernel / max(total, _P_MIN), _P_MIN, None)
    return q, kernel


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(P || Q), the paper's Eq. 1 (diagonal contributes nothing)."""
    mask = ~np.eye(p.shape[0], dtype=bool)
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def exact_gradient(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """4 * sum_j (p_ij - q_ij) * kernel_ij * (y_i - y_j), densely."""
    q, kernel = q_matrix(y)
    coeff = (p - q) * kernel
    return 4.0 * ((np.diag(coeff.sum(axis=1)) - coeff) @ y)


class OracleWorkspace:
    """``_ExactWorkspace`` stand-in computed with the formulas above."""

    def __init__(self, p: np.ndarray, n_components: int) -> None:
        self.p = p

    def gradient(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return exact_gradient(y, p)

    def kl(self, y: np.ndarray) -> float:
        return kl(self.p, q_matrix(y)[0])


def oracle_tsne(*args, **kwargs) -> TSNEResult:
    """``tsne(*args, **kwargs)`` with the dense reference gradient and KL."""
    with mock.patch.object(tsne_module, "_ExactWorkspace", OracleWorkspace):
        return tsne_module.tsne(*args, **kwargs)
