"""ndarray encoding: the ``tolist`` fast path against the per-element walk.

``json_codec`` hands bool, integer and all-finite float arrays straight to
``json.dumps`` via ``tolist()``; only arrays holding NaN/inf (or objects)
are walked element by element.  The reference below is that walk, written
out independently, and the fast path must emit byte-identical JSON.

A frozen array (read-only, owning its memory) is encoded once and its text
reused while it lives; every encoding of it must still match the
reference, and nothing else may be memoised.
"""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.server import json_codec

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
