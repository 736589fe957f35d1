"""Bitwise parity of repro.utils.scatter vs the np.add.at idiom.

The row scatters outside the verify layer go through
:func:`~repro.utils.scatter.scatter_rows` instead of ``np.add.at``.
The replacement is only sound because bincount and add.at both
accumulate duplicate indices in input order, so float64 sums come out
bit-identical — these tests pin that contract down on adversarial index
patterns.
"""

import numpy as np
import pytest

from repro.utils.scatter import scatter_rows


def _add_at_rows(index, rows, length):
    out = np.zeros((length, rows.shape[1]), dtype=np.float64)
    np.add.at(out, index, rows)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_scatter_rows_bitwise_parity(seed):
    rng = np.random.default_rng(seed)
    n, length, h = 200, 17, 4
    index = rng.integers(0, length, size=n)
    # Wide magnitude spread: catches any reordering of the accumulation,
    # since float addition is not associative.
    rows = rng.standard_normal((n, h)) * 10.0 ** rng.integers(-8, 8, size=(n, h))
    expected = _add_at_rows(index, rows, length)
    assert scatter_rows(index, rows, length).tobytes() == expected.tobytes()


def test_scatter_all_duplicates_single_bucket():
    # Every update lands on one server: pure accumulation-order test.
    rng = np.random.default_rng(42)
    rows = rng.standard_normal((64, 3))
    index = np.zeros(64, dtype=np.int64)
    expected = _add_at_rows(index, rows, 5)
    got = scatter_rows(index, rows, 5)
    assert got.tobytes() == expected.tobytes()
    assert np.all(got[1:] == 0.0)


def test_scatter_empty_inputs():
    assert scatter_rows(
        np.empty(0, dtype=np.int64), np.empty((0, 3)), 7
    ).tobytes() == np.zeros((7, 3)).tobytes()


def test_scatter_rows_rejects_1d_rows():
    with pytest.raises(ValueError, match="2-D"):
        scatter_rows(np.array([0, 1]), np.array([1.0, 2.0]), 3)


def test_scatter_truncates_to_length():
    # bincount can return more than ``length`` buckets when index never
    # reaches length-1 is irrelevant — but minlength padding must not
    # leak extra rows when index stays small.
    index = np.array([0, 0, 1])
    rows = np.ones((3, 2))
    out = scatter_rows(index, rows, 2)
    assert out.shape == (2, 2)
