"""Small exact linear algebra over the rationals: solve.

Gaussian elimination with pivot search.  The matrix stays in
fractions.Fraction, so there is no conditioning to worry about, only
singularity.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    """The system has no unique solution."""


def solve(matrix, rhs) -> list:
    """Solve matrix * x = rhs exactly; raises SingularMatrixError if singular.

    The matrix is coerced to Fraction.  The right-hand side entries are used
    as given: any exact values with +, -, and * and / by a Fraction, such as
    Fractions or PowerSeries (which solves every coefficient at once)."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    b = list(rhs)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("linear algebra needs a square system")
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"singular matrix (no pivot in column {col})")
        m[col], m[pivot] = m[pivot], m[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
            b[r] -= factor * b[col]
    x = [None] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x
