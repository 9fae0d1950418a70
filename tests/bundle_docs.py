"""Read and edit bundle documents in tests, from the format's definition alone.

A packed array is ``{"dtype", "shape", "data"}`` with base64 little-endian
bytes, and a bundle's ``fingerprint`` is the sha256 of the canonical JSON
(sorted keys, no spaces) of every other top-level field. These helpers do
not call the package, so a test that uses them also checks the format.
"""

import base64
import hashlib
import json

import numpy as np


def fingerprint(doc: dict) -> str:
    rest = {name: value for name, value in doc.items() if name != "fingerprint"}
    canonical = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def refingerprint(doc: dict) -> dict:
    """Recompute ``doc``'s fingerprint, where it has one, so an edit reaches the deeper checks."""
    if isinstance(doc, dict) and "fingerprint" in doc:
        doc["fingerprint"] = fingerprint(doc)
    return doc


def write_doc(path, doc):
    path.write_text(json.dumps(refingerprint(doc)))


def unpacked(packed: dict) -> np.ndarray:
    """A writable copy of the array ``packed`` holds."""
    raw = base64.b64decode(packed["data"], validate=True)
    return np.frombuffer(raw, dtype=packed["dtype"]).reshape(packed["shape"]).copy()


def pack(values, dtype: str = "<f8") -> dict:
    array = np.asarray(values, dtype=dtype)
    data = base64.b64encode(array.tobytes()).decode("ascii")
    return {"dtype": dtype, "shape": list(array.shape), "data": data}


def edit_packed(packed: dict, edit):
    """Apply ``edit`` to the array ``packed`` holds, in place, and store the result.

    ``edit`` changes the array it is given or returns a new one.
    """
    array = unpacked(packed)
    result = edit(array)
    packed.update(pack(array if result is None else result, packed["dtype"]))
