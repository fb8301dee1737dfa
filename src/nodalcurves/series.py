"""Exact truncated formal power series over the rationals.

A series is a coefficient vector c[0..M] of fractions together with its
truncation order M; it represents sum c[n]*t^n + O(t^(M+1)).  All arithmetic
is exact.  Binary operations truncate the result to the smaller order of the
two operands, so pipelines that mix precisions degrade gracefully instead of
erroring, and equality compares coefficients through the common truncation
order.

Coefficients are fractions.Fraction values, hence always in lowest terms
with positive denominator.  Series are immutable after construction and all
operations are pure: no operation changes an operand.

Two integer kernels carry the arithmetic.  Each operand is written once as
integer numerators over the lcm of its denominators; * runs the convolution
_product_numerators and / the division recurrence _quotient_numerators over
Python ints, building one Fraction per output coefficient.  log is written
with /, revert with / and the convolution, so each product and quotient has
one code path; exp keeps its own recurrence.  pow is the one power routine
(** is the same method): an integral exponent is binary powering that starts
from f, any other is exp(e * log f) (Brent and Kung, Fast algorithms for
manipulating formal power series, J. ACM 1978).

The variable tag ("q", "x", ...) is documentation only; it is carried along
but never consulted by the arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .record import Record


class SeriesError(ValueError):
    """Domain error raised by power series operations."""


class NonUnitDivisorError(SeriesError):
    """Division by a series whose constant term is zero."""


class NormalizationError(SeriesError):
    """A transcendental operation's precondition on the constant term failed."""


class ValuationError(SeriesError):
    """A shift or substitution requires leading coefficients to vanish."""


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


def _numerators(coeffs, m: int) -> tuple[list[int], int]:
    """Integer numerators of coeffs[0..m] over the lcm of their denominators."""
    head = coeffs[: m + 1]
    den = lcm(*(c.denominator for c in head))
    return [c.numerator * (den // c.denominator) for c in head], den


def _product_numerators(a: list[int], b: list[int]) -> list[int]:
    """[t^n](a*b) for n < len(a), for integer a and b of equal length."""
    m = len(a) - 1
    b = b[::-1]  # b[m - j] is now b_j, so [t^n] pairs a with b[m-n:]
    return [sum(map(mul, a, b[m - n :])) for n in range(m + 1)]


def _quotient_numerators(f: list[int], g: list[int]) -> list[int]:
    """num[n] = g[0]^(n+1) * [t^n](f/g) for integer f and g of equal length.

    From f = g*h: num[n] = f[n]*g0^n - sum_{k=1..n} g[k]*g0^(k-1) * num[n-k],
    all in integers; g[0] must be nonzero.
    """
    g0 = g[0]
    scaled = [gk * g0 ** (k - 1) for k, gk in enumerate(g) if k]  # g[k]*g0^(k-1)
    num = []
    power = 1  # g0^n
    for fn in f:
        num.append(fn * power - sum(map(mul, scaled, reversed(num))))
        power *= g0
    return num


_VAR_SWAP = {"q": "x", "x": "q"}


class PowerSeries(Record):
    """A truncated formal power series with exact rational coefficients."""

    __slots__ = _fields = ("coeffs", "var")

    def __init__(self, coeffs: tuple[Fraction, ...], var: str = "q"):
        if len(coeffs) == 0:
            raise SeriesError("a series needs at least its constant term")
        # set directly, not through _set: every series operation builds one
        object.__setattr__(self, "coeffs", tuple(map(_fraction, coeffs)))
        object.__setattr__(self, "var", var)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def of(values, var: str = "q") -> PowerSeries:
        return PowerSeries(tuple(values), var)

    @staticmethod
    def zero(order: int, var: str = "q") -> PowerSeries:
        return PowerSeries.constant(0, order, var)

    @staticmethod
    def one(order: int, var: str = "q") -> PowerSeries:
        return PowerSeries.constant(1, order, var)

    @staticmethod
    def identity(order: int, var: str = "x") -> PowerSeries:
        """The series t itself, at the given truncation order (order >= 1)."""
        if order < 1:
            raise SeriesError("identity series needs truncation order >= 1")
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[1] = Fraction(1)
        return PowerSeries(tuple(coeffs), var)

    @staticmethod
    def constant(value, order: int, var: str = "q") -> PowerSeries:
        if order < 0:
            raise SeriesError("truncation order must be nonnegative")
        return PowerSeries((_fraction(value),) + (Fraction(0),) * order, var)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def coeff(self, n: int) -> Fraction:
        if n < 0 or n > self.order:
            raise SeriesError(f"coefficient {n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return self.coeffs[: m + 1] == other.coeffs[: m + 1]

    __hash__ = None  # equality through the common order is not hash-compatible

    def __repr__(self) -> str:
        return f"PowerSeries({self.pretty()})"

    def pretty(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            m = min(self.order, other.order)
            return PowerSeries(
                tuple(self.coeffs[n] + other.coeffs[n] for n in range(m + 1)), self.var
            )
        s = _fraction(other)
        return PowerSeries((self.coeffs[0] + s,) + self.coeffs[1:], self.var)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -_fraction(other))

    def __rsub__(self, other):
        return (-self) + _fraction(other)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            m = min(self.order, other.order)
            a, da = _numerators(self.coeffs, m)
            b, db = _numerators(other.coeffs, m)
            den = da * db
            return PowerSeries(
                tuple(Fraction(x, den) for x in _product_numerators(a, b)), self.var
            )
        s = _fraction(other)
        return PowerSeries(tuple(c * s for c in self.coeffs), self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """f/g for g with nonzero constant term.

        With f = F/df and g = G/dg over integer numerators, the division
        kernel gives num[n] = G0^(n+1) * [t^n](F/G), so the quotient's
        coefficient n is num[n]*dg / (df*G0^(n+1)).
        """
        if isinstance(other, PowerSeries):
            m = min(self.order, other.order)
            if other.coeffs[0] == 0:
                raise NonUnitDivisorError("non-unit divisor: constant term is zero")
            f, df = _numerators(self.coeffs, m)
            g, dg = _numerators(other.coeffs, m)
            num = _quotient_numerators(f, g)
            out, den = [], df
            for x in num:
                den *= g[0]
                out.append(Fraction(x * dg, den))
            return PowerSeries(tuple(out), self.var)
        s = _fraction(other)
        if s == 0:
            raise ZeroDivisionError("division of a series by zero")
        return PowerSeries(tuple(c / s for c in self.coeffs), self.var)

    def __rtruediv__(self, other):
        return PowerSeries.constant(other, self.order, self.var) / self

    # ------------------------------------------------------------------
    # transcendental operations
    # ------------------------------------------------------------------

    def exp(self) -> PowerSeries:
        """exp(f) for f with zero constant term, exact through the order."""
        f = self.coeffs
        if f[0] != 0:
            raise NormalizationError(
                f"normalization error: exp needs constant term 0, got {f[0]}"
            )
        m = self.order
        out = [Fraction(0)] * (m + 1)
        out[0] = Fraction(1)
        # n*E_n = sum_{k=1..n} k*f_k*E_{n-k}, from E' = f'E
        for n in range(1, m + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if f[k] != 0:
                    acc += k * f[k] * out[n - k]
            out[n] = acc / n
        return PowerSeries(tuple(out), self.var)

    def log(self) -> PowerSeries:
        """log(f) for f with constant term one, as the integral of f'/f.

        Coefficient n of log f is [t^n](t*f'/f) / n, and t*f'/f is
        f.diff_d() / f, so log runs on the division kernel through /.
        """
        f = self.coeffs
        if f[0] != 1:
            raise NormalizationError(
                f"normalization error: log needs constant term 1, got {f[0]}"
            )
        q = (self.diff_d() / self).coeffs  # q[0] = 0
        return PowerSeries((q[0],) + tuple(c / n for n, c in enumerate(q[1:], 1)), self.var)

    def pow(self, e) -> PowerSeries:
        """f**e for rational e; the one power routine, also bound as **.

        An integral e is binary powering, for any constant term; it starts
        from f itself, so f**1 is f and f**0 is one at f's order and
        variable.  A negative e inverts the power, so the division raises
        NonUnitDivisorError for a zero constant term.  Any other e is
        exp(e * log f), so log raises NormalizationError unless the
        constant term is one.
        """
        e = _fraction(e)
        if e.denominator != 1:
            return (self.log() * e).exp()
        n = abs(e.numerator)
        if n == 0:
            return PowerSeries.one(self.order, self.var)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                break
            base = base * base
        return 1 / result if e < 0 else result

    __pow__ = pow

    # ------------------------------------------------------------------
    # composition, reversion, differential operator, shifts
    # ------------------------------------------------------------------

    def compose(self, inner: PowerSeries) -> PowerSeries:
        """Substitute inner (with zero constant term) into this series."""
        if inner.coeffs[0] != 0:
            raise ValuationError(
                f"composition needs inner constant term 0, got {inner.coeffs[0]}"
            )
        m = min(self.order, inner.order)
        g = PowerSeries(inner.coeffs[: m + 1], inner.var)
        acc = PowerSeries.constant(self.coeffs[m], m, inner.var)
        for n in range(m - 1, -1, -1):
            acc = acc * g + self.coeffs[n]
        return acc

    def revert(self) -> PowerSeries:
        """Compositional inverse of a series with valuation exactly one.

        Lagrange inversion: [t^n] h = [t^(n-1)] (t/g)^n / n.  t/g is
        1 / (g/t), taken with /, and written once as integer numerators p
        over d.  The running power (t/g)^n is kept as integer numerators
        over d^n and raised with the convolution * runs on, so one Fraction
        is built per output coefficient.
        """
        g = self.coeffs
        if g[0] != 0:
            raise ValuationError("reversion needs zero constant term")
        m = self.order
        if m < 1 or g[1] == 0:
            raise ValuationError("reversion needs a nonzero linear coefficient")
        p, d = _numerators((1 / PowerSeries(g[1:], self.var)).coeffs, m - 1)
        power, den, h = p, d, [Fraction(0)]
        for n in range(1, m + 1):
            h.append(Fraction(power[n - 1], n * den))
            if n < m:
                power = _product_numerators(power, p)
                den *= d
        return PowerSeries(tuple(h), _VAR_SWAP.get(self.var, self.var))

    def diff_d(self) -> PowerSeries:
        """The operator t*d/dt: multiplies coefficient n by n."""
        return PowerSeries(
            tuple(Fraction(n) * c for n, c in enumerate(self.coeffs)), self.var
        )

    def shift_down(self, k: int) -> PowerSeries:
        """Exact division by t^k; the first k coefficients must vanish."""
        if k < 0:
            raise SeriesError("shift amount must be nonnegative")
        if k == 0:
            return self
        if k > self.order:
            raise ValuationError(f"cannot shift down by {k}: order is {self.order}")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValuationError(
                f"cannot shift down by {k}: valuation is {self.valuation()}"
            )
        return PowerSeries(self.coeffs[k:], self.var)

    def shift_up(self, k: int) -> PowerSeries:
        """Multiplication by t^k; raises the truncation order by k."""
        if k < 0:
            raise SeriesError("shift amount must be nonnegative")
        return PowerSeries((Fraction(0),) * k + self.coeffs, self.var)

    def truncate(self, order: int) -> PowerSeries:
        if order < 0:
            raise SeriesError("truncation order must be nonnegative")
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1], self.var)

    # ------------------------------------------------------------------
    # serialization: coefficients as "p/q" strings plus the order
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [str(c) for c in self.coeffs],
            "order": self.order,
            "var": self.var,
        }
