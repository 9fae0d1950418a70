"""Numeric arrays stored in a JSON document as packed little-endian bytes.

A packed array is ``{"dtype": "<f8", "shape": [2, 3], "data": "..."}``:
the dtype and shape as numpy's ``.npy`` header records them (NEP 1), and
the array's bytes in C order, base64-encoded. Every field that holds one
has a single fixed dtype, ``FLOAT`` or ``INT``, so a round trip gives back
every bit, -0.0 and subnormals included.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from .errors import DataError

FLOAT = "<f8"
INT = "<i4"
_FIELDS = ("dtype", "shape", "data")


def pack(values, dtype: str) -> dict:
    """``values`` as a packed array of ``dtype``."""
    array = np.asarray(values, dtype=dtype)
    data = base64.b64encode(array.tobytes(order="C")).decode("ascii")
    return {"dtype": dtype, "shape": list(array.shape), "data": data}


def unpack(doc, dtype: str, what: str, ndim: int | None = None) -> np.ndarray:
    """The read-only array a packed array of ``dtype`` holds.

    ``ndim``, when given, is the number of axes the field must have. A
    float array must hold only finite values.

    Raises:
        DataError: naming ``what``, for a document that is not a packed
            array, another dtype, a shape of the wrong number of axes or
            whose product is not the value count, data that is not strict
            base64 or not a whole number of values, or a value that is
            not finite.
    """
    if not isinstance(doc, dict) or sorted(doc) != sorted(_FIELDS):
        raise DataError(f"{what} must be a packed array with the fields {', '.join(_FIELDS)}")
    if doc["dtype"] != dtype:
        raise DataError(f"{what} has dtype {doc['dtype']!r}, expected {dtype!r}")
    shape = doc["shape"]
    if (
        not isinstance(shape, list)
        or not all(type(n) is int and n >= 0 for n in shape)
        or (ndim is not None and len(shape) != ndim)
    ):
        count = "" if ndim is None else f"{ndim} "
        raise DataError(f"{what} has shape {shape!r}; expected a list of {count}whole numbers")
    try:
        raw = base64.b64decode(doc["data"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise DataError(f"{what} data is not strict base64") from None
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise DataError(
            f"{what} holds {len(raw)} bytes, not a whole number of {itemsize}-byte values"
        )
    count = len(raw) // itemsize
    if math.prod(shape) != count:
        raise DataError(f"{what} has shape {shape} but holds {count} values")
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise DataError(f"{what} holds a value that is not finite")
    return array
