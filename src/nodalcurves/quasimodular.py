"""Exact q-expansions of the quasimodular ingredients G2, DG2, D2G2, Delta.

G2 is the weight-two Eisenstein series -1/24 + sum_{n>0} sigma_1(n) q^n,
D is the operator q*d/dq, and Delta(q) = q * prod_{k>0} (1 - q^k)^24 is the
discriminant cusp form.  Everything here is a formal q-series with rational
coefficients; no analytic structure in tau is used.

G2, DG2 and D2G2 are read off a divisor-sum sieve.  Every power
P^e = prod_{k>0} (1 - q^k)^e, for any integer e, is series.power_numerators
fed Euler's pentagonal theorem, P = sum_j (-1)^j q^(j(3j-1)/2) over all
integers j: past its constant term P has only about sqrt(8n/3) nonzero
terms through q^n (17 through q^122), and Miller's power recurrence runs
over those terms only, in integers.  Delta is q * P^24, and each
coefficient becomes a Fraction once, when the series is built.
Divisions by powers of q are explicit coefficient shifts with a valuation
check, never formal series division, so a missing leading term fails loudly.

The closed-form generating function for a generic K3 surface with a
primitive class of Euler characteristic chi is

    (DG2/q)^chi / (Delta * D2G2 / q^2) = (DG2/q)^chi * P^-24 / (D2G2/q),

which this module expands to any order.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .record import Record
from .series import PowerSeries, SeriesError, power_numerators

FORMS_FORMAT_VERSION = "forms-1"


def _divisor_sums(order: int) -> list[int]:
    """[0, sigma_1(1), ..., sigma_1(order)], from one sieve over the divisors."""
    if order < 0:
        raise SeriesError("order must be nonnegative")
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        for n in range(d, order + 1, d):
            sigma[n] += d
    return sigma


def eisenstein_g2(order: int) -> PowerSeries:
    """G2 = -1/24 + sum_{n>0} sigma_1(n) q^n through the given order."""
    coeffs = _divisor_sums(order)
    coeffs[0] = Fraction(-1, 24)
    return PowerSeries.of(coeffs, "q")


def dg2(order: int) -> PowerSeries:
    """DG2 = sum n*sigma_1(n) q^n."""
    return PowerSeries.of([n * s for n, s in enumerate(_divisor_sums(order))], "q")


def d2g2(order: int) -> PowerSeries:
    """D2G2 = sum n^2*sigma_1(n) q^n."""
    return PowerSeries.of([n * n * s for n, s in enumerate(_divisor_sums(order))], "q")


def eta_power(e: int, order: int) -> PowerSeries:
    """P^e = prod_{k>0} (1 - q^k)^e through q^order, for any integer e, from the power kernel."""
    if order < 0:
        raise SeriesError("order must be nonnegative")
    # Euler's pentagonal theorem: P's nonzero terms sit at the pentagonal
    # numbers k = j(3j -+ 1)/2, with sign (-1)^j; k >= j^2, so j <= isqrt(order)
    signs = {j * (3 * j + s) // 2: (-1) ** j for j in range(isqrt(order) + 1) for s in (-1, 1)}
    return PowerSeries.of(power_numerators([signs.get(k, 0) for k in range(order + 1)], e, 1), "q")


def discriminant_delta(order: int) -> PowerSeries:
    """Delta = q * P^24, from the eta-power kernel."""
    if order < 1:
        raise SeriesError("Delta needs order >= 1")
    return eta_power(24, order - 1).shift_up(1)


def dg2_over_q(order: int) -> PowerSeries:
    """DG2/q as an exact coefficient shift: 1 + 6q + 12q^2 + ..."""
    return dg2(order + 1).shift_down(1)


def _d2g2_over_q(order: int) -> PowerSeries:
    """D2G2/q as an exact coefficient shift: 1 + 12q + 36q^2 + ..."""
    return d2g2(order + 1).shift_down(1)


def delta_d2g2_over_q2(order: int) -> PowerSeries:
    """(Delta * D2G2)/q^2 = P^24 * (D2G2/q), the unit-constant-term denominator of the K3 form."""
    return eta_power(24, order) * _d2g2_over_q(order)


def k3_generating(chi: int, order: int) -> PowerSeries:
    """Nodal-curve generating series of a generic primitive K3 class,
    (DG2/q)^chi * P^-24 / (D2G2/q).

    chi is the Euler characteristic of the class; negative values are allowed
    since the expression is formal.
    """
    if order < 0:
        raise SeriesError("order must be nonnegative")
    return dg2_over_q(order) ** chi * eta_power(-24, order) / _d2g2_over_q(order)


class FormCatalog(Record):
    """The four q-expansions used throughout, bundled at a common order."""

    __slots__ = _fields = ("order", "g2", "dg2", "d2g2", "delta")

    def __init__(
        self, order: int, g2: PowerSeries, dg2: PowerSeries, d2g2: PowerSeries, delta: PowerSeries
    ):
        self._set(order, g2, dg2, d2g2, delta)
        # D multiplies coefficient n by n; each pair is compared through their
        # common order, cross-multiplied in integers
        for f, df in ((self.g2, self.dg2), (self.dg2, self.d2g2)):
            for n, (c, dc) in enumerate(zip(f.coeffs, df.coeffs)):
                if n * c.numerator * dc.denominator != dc.numerator * c.denominator:
                    raise SeriesError("derivative chain G2 -> DG2 -> D2G2 is inconsistent")
        if self.delta.coeff(0) != 0 or self.delta.coeff(1) != 1:
            raise SeriesError("Delta must have valuation exactly one with leading coefficient one")

    @staticmethod
    def build(order: int) -> FormCatalog:
        return FormCatalog(
            order=order,
            g2=eisenstein_g2(order),
            dg2=dg2(order),
            d2g2=d2g2(order),
            delta=discriminant_delta(order),
        )

    def to_json_dict(self) -> dict:
        return {
            "format": FORMS_FORMAT_VERSION,
            "order": self.order,
            "g2": self.g2.to_json_dict(),
            "dg2": self.dg2.to_json_dict(),
            "d2g2": self.d2g2.to_json_dict(),
            "delta": self.delta.to_json_dict(),
        }
