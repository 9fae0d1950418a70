import numpy as np
import pytest

from tabfuse.ensemble import soft_vote
from tabfuse.errors import DataError


def random_members(rng, m, rows, classes):
    out = []
    for _ in range(m):
        raw = rng.uniform(0.01, 1.0, size=(rows, classes))
        out.append(raw / raw.sum(axis=1, keepdims=True))
    return out


class TestSoftVote:
    def test_two_member_hand_average(self):
        a = np.array([[0.6, 0.4]])
        b = np.array([[0.4, 0.6]])
        assert np.array_equal(soft_vote([a, b]), [[0.5, 0.5]])

    def test_single_member_is_identity(self):
        rng = np.random.default_rng(0)
        (p,) = random_members(rng, 1, 5, 3)
        assert np.array_equal(soft_vote([p]), p)

    def test_uniform_matches_running_mean_bitwise(self):
        rng = np.random.default_rng(2)
        members = random_members(rng, 5, 7, 4)
        expected = np.zeros((7, 4))
        for p in members:
            expected += 1.0 * p
        expected /= 5.0
        assert np.array_equal(soft_vote(members), expected)

    def test_rows_still_sum_to_one(self):
        rng = np.random.default_rng(3)
        members = random_members(rng, 4, 20, 5)
        out = soft_vote(members)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(out >= 0.0)


class TestSoftVoteValidation:
    def test_no_members(self):
        with pytest.raises(DataError, match="at least one member"):
            soft_vote([])

    def test_non_2d_members(self):
        with pytest.raises(DataError, match="2-d"):
            soft_vote([np.array([0.5, 0.5])])

    def test_shape_mismatch(self):
        a = np.full((2, 2), 0.5)
        b = np.full((3, 2), 0.5)
        with pytest.raises(DataError, match="member 1"):
            soft_vote([a, b])
