"""Tests for canonical templates and selection operators."""

import numpy as np
import pytest

from repro.core.patterns.canonical import (
    CANONICAL_PATTERNS,
    PATTERN_BY_ARCHETYPE,
    day_correlation,
    month_correlation,
)
from repro.core.patterns.selection import (
    KnnSelection,
    LassoSelection,
    RadiusSelection,
    RectSelection,
    SelectionSession,
)
from repro.data.meter import CustomerType


class TestCanonical:
    def test_six_patterns_defined(self):
        assert len(CANONICAL_PATTERNS) == 6
        assert set(PATTERN_BY_ARCHETYPE) == set(CustomerType)

    def test_templates_are_unit_normalised(self):
        for pattern in CANONICAL_PATTERNS:
            for template in (pattern.day_template, pattern.month_template):
                if template is None:
                    continue
                assert template.mean() == pytest.approx(0.0, abs=1e-12)
                assert np.linalg.norm(template) == pytest.approx(1.0)

    def test_level_bands_are_quantiles(self):
        for pattern in CANONICAL_PATTERNS:
            low, high = pattern.level_band
            assert 0.0 <= low <= high <= 1.0

    def test_day_correlation_self_match(self):
        bimodal = PATTERN_BY_ARCHETYPE[CustomerType.BIMODAL]
        assert day_correlation(bimodal.day_template, bimodal) == pytest.approx(1.0)

    def test_day_correlation_none_template(self):
        idle = PATTERN_BY_ARCHETYPE[CustomerType.IDLE]
        assert day_correlation(np.ones(24), idle) == 0.0

    def test_day_correlation_wrong_shape(self):
        bimodal = PATTERN_BY_ARCHETYPE[CustomerType.BIMODAL]
        with pytest.raises(ValueError, match="24"):
            day_correlation(np.ones(12), bimodal)

    def test_early_bird_template_beats_evening_profile(self):
        early = PATTERN_BY_ARCHETYPE[CustomerType.EARLY_BIRD]
        morning_profile = np.exp(-0.5 * ((np.arange(24) - 6) / 1.2) ** 2)
        evening_profile = np.exp(-0.5 * ((np.arange(24) - 20) / 1.2) ** 2)
        assert day_correlation(morning_profile, early) > day_correlation(
            evening_profile, early
        )

    def test_month_correlation_partial_year(self):
        bimodal = PATTERN_BY_ARCHETYPE[CustomerType.BIMODAL]
        # First 6 months of the template correlate with themselves.
        partial = bimodal.month_template[:6]
        assert month_correlation(partial, bimodal) > 0.99

    def test_month_correlation_degenerate(self):
        bimodal = PATTERN_BY_ARCHETYPE[CustomerType.BIMODAL]
        assert month_correlation(np.ones(2), bimodal) == 0.0
        assert month_correlation(np.full(12, 5.0), bimodal) == 0.0

    def test_interpretations_nonempty(self):
        for pattern in CANONICAL_PATTERNS:
            assert pattern.title and pattern.interpretation


@pytest.fixture()
def embedding():
    """A 5x5 grid of points (x = col, y = row)."""
    xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
    return np.column_stack([xs.ravel(), ys.ravel()])


class TestSelectors:
    def test_rect(self, embedding):
        idx = RectSelection(1.0, 1.0, 2.0, 3.0).apply(embedding)
        # Columns 1-2, rows 1-3 => 2 * 3 points.
        assert idx.size == 6

    def test_rect_validation(self):
        with pytest.raises(ValueError):
            RectSelection(2.0, 0.0, 1.0, 1.0)

    def test_radius(self, embedding):
        idx = RadiusSelection(2.0, 2.0, 1.0).apply(embedding)
        assert idx.size == 5  # centre + 4 orthogonal neighbours

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            RadiusSelection(0, 0, -1.0)

    def test_knn(self, embedding):
        idx = KnnSelection(0.1, 0.1, 3).apply(embedding)
        assert idx.size == 3
        assert 0 in idx  # the origin point is nearest

    def test_knn_caps_at_n(self, embedding):
        assert KnnSelection(0, 0, 99).apply(embedding).size == 25

    def test_lasso(self, embedding):
        lasso = LassoSelection([(-0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (-0.5, 1.5)])
        idx = lasso.apply(embedding)
        assert idx.size == 4  # the 2x2 corner block

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: RectSelection(v, 0.0, 1.0, 1.0), "x_min"),
            (lambda v: RectSelection(0.0, 0.0, 1.0, v), "y_max"),
            (lambda v: RadiusSelection(v, 0.0, 1.0), "x"),
            (lambda v: RadiusSelection(0.0, 0.0, v), "radius"),
            (lambda v: KnnSelection(0.0, v, 3), "y"),
            (
                lambda v: LassoSelection([(0, 0), (1, 0), (v, 1), (0, 1)]),
                "lasso vertex 2",
            ),
        ],
    )
    def test_nan_geometry_names_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build(float("nan"))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_centres_and_vertices_rejected(self, value):
        for build in (
            lambda: RadiusSelection(value, 0.0, 1.0),
            lambda: KnnSelection(0.0, value, 3),
            lambda: LassoSelection([(0, 0), (value, 0), (1, 1)]),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                build()

    def test_infinite_bounds_and_radius_stay_valid(self, embedding):
        inf = float("inf")
        assert RectSelection(-inf, -inf, inf, inf).apply(embedding).size == 25
        assert RectSelection(2.0, -inf, inf, 0.0).apply(embedding).size == 3
        assert RadiusSelection(0.0, 0.0, inf).apply(embedding).size == 25

    def test_selectors_validate_embedding_shape(self):
        with pytest.raises(ValueError, match="\\(n, 2\\)"):
            RectSelection(0, 0, 1, 1).apply(np.ones((3, 3)))


class TestSelectionSession:
    def test_named_selection_lifecycle(self, embedding):
        session = SelectionSession(embedding=embedding)
        idx = session.select("corner", RectSelection(0, 0, 1, 1))
        assert session.get("corner").tolist() == idx.tolist()
        session.drop("corner")
        with pytest.raises(KeyError):
            session.get("corner")

    def test_empty_name_rejected(self, embedding):
        session = SelectionSession(embedding=embedding)
        with pytest.raises(ValueError):
            session.select("", RectSelection(0, 0, 1, 1))

    def test_combine_union_intersection_difference(self, embedding):
        session = SelectionSession(embedding=embedding)
        session.select("a", RectSelection(0, 0, 1, 4))  # cols 0-1: 10 pts
        session.select("b", RectSelection(1, 0, 2, 4))  # cols 1-2: 10 pts
        assert session.combine("u", "a", "b", "union").size == 15
        assert session.combine("i", "a", "b", "intersection").size == 5
        assert session.combine("d", "a", "b", "difference").size == 5

    def test_combine_unknown_how(self, embedding):
        session = SelectionSession(embedding=embedding)
        session.select("a", RectSelection(0, 0, 1, 1))
        session.select("b", RectSelection(0, 0, 1, 1))
        with pytest.raises(ValueError, match="how"):
            session.combine("x", "a", "b", "xor")

    def test_coverage(self, embedding):
        session = SelectionSession(embedding=embedding)
        assert session.coverage() == 0.0
        session.select("all", RectSelection(-1, -1, 5, 5))
        assert session.coverage() == 1.0

    def test_overlap_matrix(self, embedding):
        session = SelectionSession(embedding=embedding)
        session.select("a", RectSelection(0, 0, 1, 4))
        session.select("b", RectSelection(1, 0, 2, 4))
        names, overlap = session.overlap_matrix()
        assert names == ["a", "b"]
        np.testing.assert_allclose(np.diag(overlap), 1.0)
        assert overlap[0, 1] == pytest.approx(5 / 15)
