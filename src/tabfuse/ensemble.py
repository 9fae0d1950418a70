"""Soft voting: the equal-weight average of member class-probability matrices."""

from __future__ import annotations

import numpy as np

from .errors import DataError


def soft_vote(member_probas) -> np.ndarray:
    """Average of member probability matrices.

    Args:
        member_probas: sequence of M arrays, each (B, K), rows summing to 1.

    Returns:
        (B, K) array: the members' running sum divided by M, so it is
        bit-identical to sum(members) / M.

    Raises:
        DataError: no members or inconsistent shapes.
    """
    members = [np.asarray(p, dtype=np.float64) for p in member_probas]
    if not members:
        raise DataError("soft_vote needs at least one member")
    shape = members[0].shape
    if len(shape) != 2:
        raise DataError("member probabilities must be 2-d (rows, classes)")
    for i, p in enumerate(members):
        if p.shape != shape:
            raise DataError(
                f"member {i} has shape {p.shape}, expected {shape}"
            )
    out = np.zeros(shape, dtype=np.float64)
    for p in members:
        out += p
    out /= len(members)
    return out
