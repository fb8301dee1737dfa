"""Exact linear algebra: solve, singular and malformed systems."""

from fractions import Fraction

import pytest

from nodalcurves import PowerSeries
from nodalcurves.linalg import SingularMatrixError, solve

F = Fraction

# the first column has a zero on top, so elimination must swap rows
SWAP = [[0, 2, 1], [1, 1, 0], [2, 0, 3]]


def test_solve_with_a_row_swap():
    assert solve(SWAP, [F(7), F(3), F(11)]) == [1, 2, 3]
    assert solve(SWAP, [F(1), F(0), F(0)]) == [F(-3, 8), F(3, 8), F(1, 4)]


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [F(1), F(2)])


def test_solve_non_square_raises():
    with pytest.raises(ValueError):
        solve([[1, 2, 3], [4, 5, 6]], [F(1), F(2)])


def test_solve_with_series_right_hand_sides():
    rhs = [
        PowerSeries.of([1, F(1, 2), 3], "x"),
        PowerSeries.of([0, -2, F(7, 3)], "x"),
        PowerSeries.of([5, 0, -1], "x"),
    ]
    x = solve(SWAP, rhs)
    for n in range(3):
        column = solve(SWAP, [s.coeff(n) for s in rhs])
        assert [s.coeff(n) for s in x] == column
    assert all(s.var == "x" for s in x)
