"""Operation specs: one frozen dataclass per operation's options.

A spec owns its options' defaults, their validation (``ValueError``,
which the API answers with a 400 naming the field), their parsing from
an HTTP query or a job's JSON params, and the cache key.  The key holds
exactly the options that change the result, each resolved the way the
kernel resolves it, so two requests share one cached run when — and
only when — their outputs would be byte-identical.

Validation runs in ``__post_init__``, before any cache lookup: an
invalid option is a 400 even when a request with an equal key is
already cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.reduction.distances import METRICS
from repro.core.reduction.dtw import MAX_DTW_ROWS, MAX_DTW_ROWS_CEILING
from repro.core.reduction.tsne import (
    DEFAULT_LANDMARKS,
    MAX_LANDMARKS,
    TSNE_METHODS,
    clamp_perplexity,
    resolve_engine,
)
from repro.preprocess.features import FeatureKind

EMBED_METHODS = ("tsne", "mds", "mds_classical")

# How each embed request option parses, in the order they are checked;
# ``feature_kind`` is not a request option.
_EMBED_OPTIONS = {
    "method": str,
    "metric": str,
    "perplexity": float,
    "n_iter": int,
    "seed": int,
    "tsne_method": str,
    "theta": float,
    "n_landmarks": int,
    "dtw_max_rows": int,
}


def parse_option(name: str, kind: type, value: object) -> object:
    """Request option ``name`` — a query string or a JSON value — as
    ``kind`` (``str``, ``int`` or ``float``).

    Raises
    ------
    ValueError
        Naming the parameter, when the value does not parse or is a
        non-finite float.
    """
    if kind is str:
        return str(value)
    if kind is int:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                return int(value)
            except ValueError:
                pass
        raise ValueError(f"parameter {name!r} must be an integer")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"parameter {name!r} must be a number") from None
    # "nan"/"inf" parse as floats but poison every downstream kernel (a
    # NaN bandwidth slips past > 0 guards and yields a 200 full of NaNs).
    if not math.isfinite(number):
        raise ValueError(f"parameter {name!r} must be a finite number")
    return number


@dataclass(frozen=True, slots=True)
class EmbedParams:
    """The options of one view-C embedding (t-SNE or MDS).

    ``feature_kind=None`` means the session's default folding; the
    session fills it in before keying.

    Raises
    ------
    ValueError
        For any out-of-range option, whichever engine would run.
    """

    method: str = "tsne"
    metric: str = "pearson"
    feature_kind: FeatureKind | None = None
    perplexity: float = 30.0
    n_iter: int = 500
    seed: int = 0
    tsne_method: str = "auto"
    theta: float = 0.5
    n_landmarks: int | None = None
    dtw_max_rows: int | None = None

    def __post_init__(self) -> None:
        if self.method not in EMBED_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; pick one of {EMBED_METHODS}"
            )
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; pick one of {METRICS}"
            )
        if not (math.isfinite(self.perplexity) and self.perplexity > 1.0):
            raise ValueError(
                f"perplexity must be a finite number > 1, got {self.perplexity}"
            )
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be positive, got {self.n_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tsne_method not in TSNE_METHODS:
            raise ValueError(
                f"tsne_method must be one of {TSNE_METHODS}, "
                f"got {self.tsne_method!r}"
            )
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        if self.n_landmarks is not None and not (
            4 <= self.n_landmarks <= MAX_LANDMARKS
        ):
            raise ValueError(
                f"n_landmarks must be in [4, {MAX_LANDMARKS}], "
                f"got {self.n_landmarks}"
            )
        if self.dtw_max_rows is not None and not (
            1 <= self.dtw_max_rows <= MAX_DTW_ROWS_CEILING
        ):
            raise ValueError(
                f"dtw_max_rows must be in [1, {MAX_DTW_ROWS_CEILING}], "
                f"got {self.dtw_max_rows}"
            )

    @classmethod
    def parse(cls, params: Mapping[str, object]) -> "EmbedParams":
        """The spec from an HTTP query (string values) or a job's JSON
        params.

        Absent (or JSON ``null``) options keep their defaults and
        unknown keys are ignored; ``feature_kind`` is not a request
        option, so the session default always applies.

        Raises
        ------
        ValueError
            Naming the first option that does not parse or is out of
            range.
        """
        options = {
            name: parse_option(name, kind, params[name])
            for name, kind in _EMBED_OPTIONS.items()
            if params.get(name) is not None
        }
        return cls(**options)

    def key(self, n_rows: int) -> tuple[tuple[str, object], ...]:
        """The cache key of this embedding over ``n_rows`` rows: the
        resolved engine plus the options it reads, each resolved the way
        the kernel resolves it.

        - always ``method``, ``metric`` and ``feature_kind``;
        - t-SNE adds the engine (``auto`` resolved by ``n_rows``),
          ``n_iter`` and the perplexity — clamped for exact and
          Barnes–Hut, raw for landmark, whose clamp depends on the
          sampled landmark count;
        - ``theta`` only for Barnes–Hut and landmark;
        - ``n_landmarks`` (default resolved, capped at ``n_rows`` like
          the selection) and ``seed`` only for landmark — PCA init makes
          every other engine seed-free;
        - ``dtw_max_rows`` (default resolved) only for ``metric="dtw"``,
          where it decides whether the run is admitted at all.
        """
        kind = None if self.feature_kind is None else self.feature_kind.value
        key: list[tuple[str, object]] = [
            ("method", self.method),
            ("metric", self.metric),
            ("feature_kind", kind),
        ]
        if self.method == "tsne":
            engine = resolve_engine(self.tsne_method, n_rows)
            perplexity = (
                float(self.perplexity) if engine == "landmark"
                else clamp_perplexity(self.perplexity, n_rows)
            )
            key += [
                ("engine", engine),
                ("n_iter", int(self.n_iter)),
                ("perplexity", perplexity),
            ]
            if engine != "exact":
                key.append(("theta", float(self.theta)))
            if engine == "landmark":
                landmarks = (
                    DEFAULT_LANDMARKS if self.n_landmarks is None
                    else int(self.n_landmarks)
                )
                key += [
                    ("n_landmarks", min(landmarks, n_rows)),
                    ("seed", int(self.seed)),
                ]
        if self.metric == "dtw":
            key.append((
                "dtw_max_rows",
                MAX_DTW_ROWS if self.dtw_max_rows is None
                else int(self.dtw_max_rows),
            ))
        return tuple(key)

    def tsne_options(self) -> dict[str, object]:
        """Keyword arguments for :func:`~repro.core.reduction.tsne.tsne`."""
        return {
            "metric": self.metric,
            "perplexity": self.perplexity,
            "n_iter": self.n_iter,
            "seed": self.seed,
            "method": self.tsne_method,
            "theta": self.theta,
            "n_landmarks": self.n_landmarks,
            "dtw_max_rows": self.dtw_max_rows,
        }
