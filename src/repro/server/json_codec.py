"""JSON encoding that understands the project's types.

numpy scalars/arrays, dataclass-like objects with ``to_record``, enums and
the model result objects all serialise transparently; NaN/inf are mapped to
``null`` so the output is strict JSON any client can parse.

A float array of at most double precision, bare or as a top-level value
of a dict, is formatted in C by orjson and its number notation rewritten
to Python's ``repr`` (see ``_float_text``), so the text equals what
``json.dumps`` writes, byte for byte, at a fraction of the cost.

A *frozen* array — read-only and owning its memory, as the session's
density and embedding caches hold — is encoded once: its text is kept
for as long as the array lives and spliced into every later payload that
carries it, bare or as a top-level value of a dict.
"""

from __future__ import annotations

import enum
import json
import math
import re
import weakref
from typing import Any

import numpy as np
import orjson


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


def _float_array(value: Any) -> bool:
    """Whether ``value`` is a float array whose ``tolist()`` yields Python
    floats: at most double precision (longdouble yields numpy scalars)."""
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind == "f"
        and value.dtype.itemsize <= 8
    )


_E, _MINUS, _PLUS, _ZERO, _NINE = b"e-+09"
_PLUS_ZERO = np.array([_PLUS, _ZERO], dtype=np.uint8)
# orjson writes decimal exponent -5 out in full (``0.0000123``) where
# ``repr`` switches to scientific notation (``1.23e-05``).  The lookbehind
# keeps the match at the start of a number (``10.00001`` is left alone).
_EXPONENT_MINUS_5 = re.compile(rb"(?<![0-9])0\.0000([1-9])([0-9]*)")


def _scientific_minus_5(match: re.Match[bytes]) -> bytes:
    lead, rest = match.groups()
    return lead + (b"." + rest if rest else b"") + b"e-05"


def _float_text(array: np.ndarray) -> str:
    """A float array as JSON text, byte-identical to ``json.dumps`` of its
    ``tolist()`` with NaN/inf as ``null``.

    orjson prints the same shortest round-trip digits as ``repr`` and
    writes NaN/inf as ``null``; only the notation differs, in three ways:
    a positive exponent has no ``+`` (``1e16`` for ``1e+16``), a one-digit
    exponent is not padded (``6.3e-8`` for ``6.3e-08``), and exponent -5
    is written out (``0.0000123`` for ``1.23e-05``).
    """
    raw = orjson.dumps(array.tolist())
    # The text holds only numbers, commas, brackets and null, so every
    # ``e`` is an exponent marker.  The sentinel gives the exponent that
    # ends a 0-d text a byte to look ahead at.
    buf = np.frombuffer(raw + b"]", dtype=np.uint8)
    marks = np.flatnonzero(buf == _E)
    if marks.size:
        negative = buf[marks + 1] == _MINUS
        first = marks + 1 + negative
        after = buf[first + 1]
        single = (after < _ZERO) | (after > _NINE)
        plus, pad = marks[~negative] + 1, first[single]
        # Stable insertion: where both land at one index, ``+`` goes first.
        raw = np.insert(
            buf,
            np.concatenate((plus, pad)),
            np.repeat(_PLUS_ZERO, (plus.size, pad.size)),
        )[:-1].tobytes()
    if b"0.0000" in raw:
        raw = _EXPONENT_MINUS_5.sub(_scientific_minus_5, raw)
    return raw.decode("ascii")


def _fresh_text(value: Any) -> str:
    """Encode ``value`` now (no memo), a float array through orjson."""
    return _float_text(value) if _float_array(value) else _encode(value)


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
        text = _fresh_text(array)
        _ENCODED[key] = text
        weakref.finalize(array, _ENCODED.pop, key, None)
    return text


def _value_text(value: Any) -> str:
    return _frozen_text(value) if _frozen(value) else _fresh_text(value)


def dumps(value: Any) -> str:
    """Serialise to strict JSON text (no NaN literals).

    A float array (at most double precision), passed bare or as a
    top-level value of a dict, is formatted by ``_float_text``; a frozen
    array (read-only, owning its memory) in those places is encoded once
    per array lifetime.  The output bytes are the same as the generic
    walk's either way.  Thawing a frozen array and writing into it is not
    supported: its memoised text would go stale.

    Raises
    ------
    TypeError
        For unsupported object types.
    """
    if isinstance(value, dict) and any(
        _frozen(v) or _float_array(v) for v in value.values()
    ):
        # Same key coercion (and collision rule) as ``_sanitize``.
        items = {str(k): v for k, v in value.items()}
        return "{" + ",".join(
            json.dumps(k) + ":" + _value_text(v) for k, v in items.items()
        ) + "}"
    return _value_text(value)


def loads(text: str | bytes) -> Any:
    """Parse JSON text; thin wrapper kept for symmetry."""
    return json.loads(text)
