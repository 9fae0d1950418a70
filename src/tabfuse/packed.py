"""Numeric arrays stored in a JSON document as packed little-endian bytes.

A packed array is ``{"dtype": "<f8", "shape": [2, 3], "data": "..."}``:
the dtype and shape as numpy's ``.npy`` header records them (NEP 1), and
the array's bytes in C order, base64-encoded. Every field that holds one
has a single fixed dtype, ``FLOAT`` or ``INT``, so a round trip gives back
every bit, -0.0 and subnormals included.

Every object of the bundle and schema formats, a packed array included,
is read through ``fields``: exactly the fields the format defines. ``digest``
hashes a document as the bundle's fingerprints do.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math

import numpy as np

from .errors import DataError

FLOAT = "<f8"
INT = "<i4"


def digest(doc) -> str:
    """sha256 of the canonical JSON of ``doc``: sorted keys, compact separators."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fields(doc, names: tuple[str, ...], what: str) -> tuple:
    """The values of exactly the fields ``names`` of the object ``doc``, in that order.

    A ``doc`` that is not an object, or has any other field or lacks one of
    ``names``, is a DataError naming ``what``.
    """
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be an object")
    unknown = sorted(set(doc) - set(names))
    missing = [name for name in names if name not in doc]
    if unknown or missing:
        raise DataError(f"{what} fields: unknown {unknown}, missing {missing}")
    return tuple(doc[name] for name in names)


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
    stored, shape, data = fields(doc, ("dtype", "shape", "data"), f"{what} packed array")
    if stored != dtype:
        raise DataError(f"{what} has dtype {stored!r}, expected {dtype!r}")
    if (
        not isinstance(shape, list)
        or not all(type(n) is int and n >= 0 for n in shape)
        or (ndim is not None and len(shape) != ndim)
    ):
        count = "" if ndim is None else f"{ndim} "
        raise DataError(f"{what} has shape {shape!r}; expected a list of {count}whole numbers")
    try:
        raw = base64.b64decode(data, validate=True)
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
