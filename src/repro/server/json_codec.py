"""JSON encoding that understands the project's types.

numpy scalars/arrays, dataclass-like objects with ``to_record``, enums and
the model result objects all serialise transparently; NaN/inf are mapped to
``null`` so the output is strict JSON any client can parse.
"""

from __future__ import annotations

import enum
import json
import math
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


def dumps(value: Any) -> str:
    """Serialise to strict JSON text (no NaN literals).

    Raises
    ------
    TypeError
        For unsupported object types.
    """
    return json.dumps(_sanitize(value), allow_nan=False, separators=(",", ":"))


def loads(text: str | bytes) -> Any:
    """Parse JSON text; thin wrapper kept for symmetry."""
    return json.loads(text)
