"""A fixed reference job that measures how fast the shared host runs right now.

The machine the benchmark runs on is shared with other tenants; their load
moves the speed of memory-heavy Python by tens of percent over minutes.
This job does the same kinds of work as the measured workloads, without
calling into nodalcurves: a memoised recursion over tuple keys with
big-integer values (like the Severi table) and exact Fraction series
arithmetic (like the series and quasimodular layers).  It never changes
with the program, so the ratio of its time now to ``NOMINAL_S`` is the
host's slowdown, and dividing a job time by that ratio removes most of it.
"""

from __future__ import annotations

from fractions import Fraction

# The mean time of ``run()`` on the host the baseline was recorded on
# (2 vCPU x86_64 virtual machine, Python 3.11).  Only ratios to it matter:
# it cancels when two commits are compared.
NOMINAL_S = 0.25


def memo_recursion(width: int) -> int:
    table: dict[tuple[int, int, int], int] = {}

    def entry(d: int, k: int, t: int) -> int:
        key = (d, k, t)
        value = table.get(key)
        if value is not None:
            return value
        if d == 0 or k == 0:
            value = d + k + t + 1
        else:
            value = 3 * entry(d - 1, k, t) + entry(d, k - 1, t // 2) - entry(d - 1, k - 1, t)
        table[key] = value
        return value

    for t in range(width):
        entry(60, 60, t)
    return len(table)


def series_inverse(order: int) -> list[Fraction]:
    """1 / (sum x^k / (k+1)) through x^order, by the triangular recurrence."""
    a = [Fraction(1, k + 1) for k in range(order)]
    b = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for i in range(1, order):
        b[i] = -sum((a[j] * b[i - j] for j in range(1, i + 1)), Fraction(0))
    return b


def run() -> None:
    memo_recursion(80)
    series_inverse(150)
