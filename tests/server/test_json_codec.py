"""ndarray encoding: the fast paths against the per-element walk.

``json_codec`` formats a float array (bare or a top-level dict value) with
orjson and rewrites its notation to ``repr``'s; nested arrays it hands to
``json.dumps`` via ``tolist()`` when that is already JSON-safe, and walks
the rest element by element.  The reference below is that walk, written
out independently, and every fast path must emit byte-identical JSON.

A frozen array (read-only, owning its memory) is encoded once and its text
reused while it lives; every encoding of it must still match the
reference, and nothing else may be memoised.
"""

import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.params import EmbedParams
from repro.core.patterns.selection import RectSelection
from repro.data.timeseries import HourWindow
from repro.server import TestClient, VapApp, json_codec

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308]


def per_element(value):
    """The reference encoding: walk ``tolist()`` output one element at a
    time, mapping NaN/inf to ``None``."""
    if isinstance(value, list):
        return [per_element(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def reference_dumps(array: np.ndarray) -> str:
    return json.dumps(
        per_element(array.tolist()), allow_nan=False, separators=(",", ":")
    )


SHAPES = npst.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)


def float_arrays(dtype, width):
    elements = st.one_of(
        st.floats(width=width, allow_nan=True, allow_infinity=True),
        st.sampled_from(
            [float(np.array(x, dtype=dtype)) for x in EDGE_FLOATS]
        ),
    )
    return npst.arrays(dtype, SHAPES, elements=elements)


def finite_float_arrays(dtype, width):
    return npst.arrays(
        dtype,
        SHAPES,
        elements=st.floats(width=width, allow_nan=False, allow_infinity=False),
    )


ARRAYS = st.one_of(
    float_arrays(np.float64, 64),
    float_arrays(np.float32, 32),
    finite_float_arrays(np.float64, 64),
    finite_float_arrays(np.float32, 32),
    npst.arrays(np.int64, SHAPES),
    npst.arrays(np.int32, SHAPES),
    npst.arrays(np.uint64, SHAPES),
    npst.arrays(np.bool_, SHAPES),
)


def frozen_copy(array: np.ndarray) -> np.ndarray:
    """A read-only copy that owns its memory: the codec memoises it."""
    frozen = array.copy()
    frozen.flags.writeable = False
    return frozen


class TestArrayEncoding:
    # Each array goes in as generated and as a frozen copy, whose second
    # encoding is served from the memo.
    @settings(max_examples=300, deadline=None)
    @given(ARRAYS)
    def test_matches_per_element_reference(self, array):
        expected = reference_dumps(array)
        for value in (array, frozen_copy(array)):
            for _ in range(2):
                assert json_codec.dumps(value) == expected

    @settings(max_examples=100, deadline=None)
    @given(ARRAYS)
    def test_matches_reference_nested_in_a_payload(self, array):
        expected = '{"n":1,"values":' + reference_dumps(array) + ',"x":[null]}'
        for value in (array, frozen_copy(array)):
            for _ in range(2):
                payload = {"n": 1, "values": value, "x": [math.nan]}
                assert json_codec.dumps(payload) == expected

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_edge_values(self, dtype):
        array = np.array(EDGE_FLOATS, dtype=dtype)
        assert json_codec.dumps(array) == reference_dumps(array)
        assert json_codec.dumps(array[3:]) == reference_dumps(array[3:])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_arrays(self, shape):
        array = np.zeros(shape)
        assert json_codec.dumps(array) == reference_dumps(array)

    def test_longdouble_still_walked(self):
        array = np.array([1.5, np.nan], dtype=np.longdouble)
        assert json_codec.dumps(array) == "[1.5,null]"


class TestEncodeOnce:
    def test_only_frozen_owned_arrays_are_memoised(self):
        writable = np.arange(6.0)
        view = frozen_copy(np.arange(6.0).reshape(2, 3))[1]
        assert not view.flags.writeable and view.base is not None
        frozen = frozen_copy(writable)
        for array in (writable, view, frozen):
            json_codec.dumps(array)
            json_codec.dumps({"values": array})
        assert id(writable) not in json_codec._ENCODED
        assert id(view) not in json_codec._ENCODED
        assert json_codec._ENCODED[id(frozen)] == "[0.0,1.0,2.0,3.0,4.0,5.0]"

    def test_entry_dies_with_its_array(self):
        frozen = frozen_copy(np.linspace(0.0, 1.0, 5))
        json_codec.dumps({"values": frozen})
        key = id(frozen)
        assert key in json_codec._ENCODED
        del frozen
        gc.collect()
        assert key not in json_codec._ENCODED


class TestZeroDimensional:
    def test_finite_scalar(self):
        assert json_codec.dumps(np.array(1.5)) == "1.5"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_is_null(self, value, dtype):
        assert json_codec.dumps(np.array(value, dtype=dtype)) == "null"

    def test_int_bool_and_object(self):
        assert json_codec.dumps(np.array(7)) == "7"
        assert json_codec.dumps(np.array(True)) == "true"
        assert json_codec.dumps(np.array(math.nan, dtype=object)) == "null"

    def test_inside_a_payload(self):
        text = json_codec.dumps({"a": np.array(2.0), "b": [np.array(np.nan)]})
        assert json_codec.loads(text) == {"a": 2.0, "b": [None]}


def assert_matches_reference(array: np.ndarray) -> None:
    """Compare token by token first, so a failure names the value."""
    got, want = json_codec.dumps(array), reference_dumps(array)
    if got != want:
        pairs = zip(re.split(r"[\[\],]+", got), re.split(r"[\[\],]+", want))
        assert [p for p in pairs if p[0] != p[1]][:5] == []
        assert got == want


class TestFormatterOracle:
    """orjson's digits, rewritten to ``repr`` notation, against ``json.dumps``
    over every exponent, precision and layout."""

    def test_seeded_sweep_of_bit_patterns(self):
        # Random bit patterns: both signs, every exponent, NaN and inf.
        rng = np.random.default_rng(20_201)
        for _ in range(10):
            bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
            values = bits.view(np.float64)
            assert_matches_reference(values)
            with np.errstate(over="ignore", invalid="ignore"):
                assert_matches_reference(values[:25_000].astype(np.float32))
                assert_matches_reference(values[:25_000].astype(np.float16))

    def test_seeded_sweep_of_notation_bands(self):
        # Uniform mantissas over the decades where the notations differ,
        # raw and rounded to a few decimals (short digit strings).
        rng = np.random.default_rng(20_202)
        scale = 10.0 ** rng.integers(-12, 24, size=200_000)
        values = rng.uniform(-1.0, 1.0, size=200_000) * scale
        assert_matches_reference(values)
        assert_matches_reference(np.round(values, 6))
        assert_matches_reference(np.floor(values * 1e3) / 1e3)

    @pytest.mark.parametrize("boundary", [1e-5, 1e-4, 1e15, 1e16])
    def test_decade_boundaries(self, boundary):
        around = np.array(
            [np.nextafter(boundary, 0.0), boundary, np.nextafter(boundary, np.inf)]
        )
        assert_matches_reference(np.concatenate((around, -around)))

    def test_extremes(self):
        big = np.finfo(np.float64).max
        array = np.array([5e-324, -5e-324, big, -big, 0.0, -0.0, 1e22, -1e22])
        assert_matches_reference(array)

    @pytest.mark.parametrize("value", [1e-07, 3e-05, 1e16, -2.5e-05, 123.0])
    def test_zero_dimensional_in_each_band(self, value):
        array = np.array(value)
        assert json_codec.dumps(array) == json.dumps(value)
        assert json_codec.dumps(frozen_copy(array)) == json.dumps(value)
        payload = {"v": array, "w": [array]}
        assert json_codec.dumps(payload) == json.dumps(
            {"v": value, "w": [value]}, separators=(",", ":")
        )

    def test_transposed_and_strided_views(self):
        rng = np.random.default_rng(20_203)
        base = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-8, 18, (40, 30))
        base[::7, ::5] = np.nan
        for view in (base.T, base[::3, ::-2], base[5:, 1], base.T[::-1, ::4]):
            assert not view.flags.c_contiguous or view.ndim == 1
            assert_matches_reference(view)
            assert_matches_reference(view.astype(np.float32))


def stdlib_body(body: bytes, **arrays: np.ndarray) -> bytes:
    """``body`` re-encoded by the stdlib, with each named array spliced in
    through the per-element reference under its own key."""
    payload = json.loads(body)
    for key, array in arrays.items():
        assert key in payload
        payload[key] = per_element(array.tolist())
    text = json.dumps(payload, allow_nan=False, separators=(",", ":"))
    return text.encode("utf-8")


class TestApiBodies:
    """Each float-array body equals the stdlib encoding of the session's
    own arrays, byte for byte."""

    @pytest.fixture(scope="class")
    def client(self, small_session, small_city):
        return TestClient(VapApp(small_session, layout=small_city.layout))

    @pytest.mark.parametrize("method", ["exact", "binned"])
    def test_density(self, client, small_session, method):
        response = client.get(f"/api/density?t_start=48&t_end=60&kde_method={method}")
        assert response.ok
        grid = small_session.density(HourWindow(48, 60), method=method)
        assert response.body == stdlib_body(response.body, values=grid.values)

    def test_readings_with_nan_gaps(self, client, small_session):
        db = small_session.db
        row = int(np.flatnonzero(np.isnan(db.readings.matrix).any(axis=1))[0])
        customer_id = db.customer_ids[row]
        response = client.get(f"/api/customers/{customer_id}/readings")
        assert response.ok
        values = db.readings_for([customer_id], db.time_span).matrix[0]
        assert np.isnan(values).any()
        assert b"null" in response.body
        assert response.body == stdlib_body(response.body, values=values)

    def test_rect_selection(self, client, small_session):
        geometry = {"x_min": -40.0, "y_min": -40.0, "x_max": 40.0, "y_max": 40.0}
        response = client.post("/api/selection", json={"type": "rect", **geometry})
        assert response.ok
        coords = small_session.embed(method="tsne").coords
        indices = RectSelection(*geometry.values()).apply(coords)
        assert indices.size
        profile = small_session.profile_of(indices)
        assert response.body == stdlib_body(
            response.body, indices=indices, profile=profile
        )

    def test_embedding(self, client, small_session):
        response = client.get("/api/embedding?n_iter=60")
        assert response.ok
        coords = small_session.embed_spec(EmbedParams.parse({"n_iter": "60"})).coords
        assert response.body == stdlib_body(response.body, points=coords)
