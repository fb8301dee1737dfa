"""Universal nodal-curve series: the multiplicative fit and its consequences.

The count of r-nodal curves in a suitably ample linear system is a degree-r
universal polynomial T_r in the four numbers (L^2, L.K, c1^2, c2), and the
full generating series multiplies across those numbers:

    sum_r T_r(v) x^r = A1^(L^2) * A2^(L.K) * A3^(c1^2) * A4^(c2).

Taking logs makes this a linear system in the four unknown log-series, so
exact plane Severi degrees for two degrees plus the closed-form K3 series
for two primitive squares determine log A1..A4 by one 4x4 rational solve
whose right-hand sides are the four input log-series (the four input
vectors must be a basis).
The K3 input lives in the variable q with x = DG2(q); it is pulled back
through the compositional inverse of DG2.

From the fitted log-series everything else follows symbolically: the
polynomials T_r, evaluation on any vector, the q-side series B1, B2 of the
Gottsche-Yau-Zaslow product

    sum_r T_r(v) DG2^r = (DG2/q)^chi(L) * B1^(K^2) * B2^(L.K)
                         / (Delta * D2G2 / q^2)^(chi(O)/2),

and two residual identities that cross-check the plane recursion against
the quasimodular closed forms: writing a_i for log A_i composed with DG2,

    exp(2*a1) = DG2/q    and    exp(4*a1 - 24*a4) = Delta * D2G2 / q^2.

Nonzero residuals signal an inconsistency between the Severi data and the
K3 forms and are reported, never silently accepted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .cobordism import PairClass, k3_primitive, plane
from .quasimodular import d2g2, delta_d2g2_over_q2, dg2, dg2_over_q, k3_generating
from .record import Record
from .series import PowerSeries
from .severi import SeveriTable, check_threshold, p2_series


class FitConfigError(ValueError):
    """The fit configuration cannot produce a well-posed linear system."""


class FitConfig(Record):
    """Inputs of the multiplicative fit.

    Two plane degrees and two primitive K3 squares; the degrees must honor
    the bound d >= max(1, r) for every fitted order r (see check_threshold).
    """

    __slots__ = _fields = ("order", "d1", "d2", "s1", "s2")

    def __init__(self, order: int, d1: int = 9, d2: int = 10, s1: int = 2, s2: int = 4):
        self._set(order, d1, d2, s1, s2)
        if self.order < 0:
            raise FitConfigError("order must be nonnegative")
        if self.d1 == self.d2:
            raise FitConfigError("plane degrees must be distinct")
        for s in (self.s1, self.s2):
            if s <= 0 or s % 2 != 0:
                raise FitConfigError("K3 squares must be positive and even")
        if self.s1 == self.s2:
            raise FitConfigError("K3 squares must be distinct, else the system is singular")
        for d in (self.d1, self.d2):
            check_threshold(d, self.order)

    def basis(self) -> tuple[PairClass, PairClass, PairClass, PairClass]:
        return (plane(self.d1), plane(self.d2), k3_primitive(self.s1), k3_primitive(self.s2))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "degrees": [self.d1, self.d2],
            "k3_squares": [self.s1, self.s2],
            # the bound has no override; the key keeps schema-1 documents byte-identical
            "unsafe": False,
        }


def default_config(order: int) -> FitConfig:
    """Degrees max(9, 5r - 1) and one more: (9, 10) up to order two, (14, 15) at three."""
    d1 = max(9, 5 * order - 1)
    return FitConfig(order=order, d1=d1, d2=d1 + 1)


class MultiplicativeFit(Record):
    """The four log-series and their exponentials, tied to their inputs."""

    # no __slots__: the cached polynomials live in the instance __dict__
    _fields = ("config", "log_a", "a")

    def __init__(
        self,
        config: FitConfig,
        log_a: tuple[PowerSeries, PowerSeries, PowerSeries, PowerSeries],
        a: tuple[PowerSeries, PowerSeries, PowerSeries, PowerSeries],
    ):
        self._set(config, log_a, a)

    @property
    def order(self) -> int:
        return self.config.order

    @cached_property
    def polynomials(self) -> tuple[UniversalPolynomial, ...]:
        """T_0..T_order, read off one set of partial products (see universal_T)."""
        m = self.order
        # powers[i][k] = (L_i/x)^k / k! through x^(m-k); L_i has no constant term,
        # so prod_i L_i^(e_i) / e_i! is x^|e| times a product of these
        powers = []
        for log_series in self.log_a:
            row = [PowerSeries.one(m, log_series.var)]
            if m:
                over_x = log_series.shift_down(1)
                for k in range(1, m + 1):
                    row.append(row[-1].truncate(m - k) * over_x / k)
            powers.append(row)

        def times(p: PowerSeries, i: int, e: int, low: int) -> PowerSeries:
            """p * powers[i][e] through x^(m - low - e), where x^low is p's shift."""
            return p.truncate(m - low - e) * powers[i][e] if e else p

        terms = [[] for _ in range(m + 1)]  # per r, in lexicographic order of the exponents
        for e0 in range(m + 1):
            for e1 in range(m + 1 - e0):
                p01 = times(powers[0][e0], 1, e1, e0)
                for e2 in range(m + 1 - e0 - e1):
                    p012 = times(p01, 2, e2, e0 + e1)
                    low = e0 + e1 + e2
                    for e3 in range(m + 1 - low):
                        for r, c in enumerate(times(p012, 3, e3, low).coeffs, low + e3):
                            if c:
                                terms[r].append(((e0, e1, e2, e3), c))
        return tuple(UniversalPolynomial(r=r, terms=tuple(t)) for r, t in enumerate(terms))


def k3_series_in_x(s: int, order: int) -> PowerSeries:
    """The K3 closed form pulled back from q to x through the inverse of DG2."""
    chi = 2 + s // 2
    return k3_generating(chi, order).compose(dg2(max(order, 1)).revert())


def fit_A(config: FitConfig, table: SeveriTable) -> MultiplicativeFit:
    """Solve for log A1..A4 from two plane degrees and two K3 squares."""
    matrix = [v.as_tuple() for v in config.basis()]
    inputs = [
        p2_series(config.d1, config.order, table).log(),
        p2_series(config.d2, config.order, table).log(),
        k3_series_in_x(config.s1, config.order).log(),
        k3_series_in_x(config.s2, config.order).log(),
    ]
    log_a = tuple(linalg.solve(matrix, inputs))
    return MultiplicativeFit(config=config, log_a=log_a, a=tuple(s.exp() for s in log_a))


def evaluate(v: PairClass, fit: MultiplicativeFit, order: int | None = None) -> PowerSeries:
    """The series A1^(L^2) A2^(LK) A3^(c1^2) A4^(c2) for the given vector."""
    m = fit.order if order is None else order
    if m > fit.order:
        raise FitConfigError(f"order {m} exceeds fit order {fit.order}")
    exponent = PowerSeries.zero(m, "x")
    for weight, log_series in zip(v.as_tuple(), fit.log_a):
        if weight:
            exponent = exponent + log_series.truncate(m) * weight
    return exponent.exp()


# ----------------------------------------------------------------------
# the universal polynomials T_r
# ----------------------------------------------------------------------

Exponents = tuple[int, int, int, int]


class UniversalPolynomial(Record):
    """T_r as an exact polynomial in the four formal variables
    (L^2, LK, c1^2, c2); every monomial has total degree at most r."""

    __slots__ = _fields = ("r", "terms")

    def __init__(self, r: int, terms: tuple[tuple[Exponents, Fraction], ...]):
        self._set(r, terms)
        for exps, _ in self.terms:
            if sum(exps) > self.r:
                raise AssertionError(
                    f"T_{self.r} produced a monomial of total degree {sum(exps)}"
                )

    def evaluate(self, v: PairClass) -> Fraction:
        total = Fraction(0)
        values = v.as_tuple()
        for exps, c in self.terms:
            acc = c
            for value, e in zip(values, exps):
                acc *= Fraction(value) ** e
            total += acc
        return total

    def to_json_list(self) -> list:
        return [{"exponents": list(e), "coeff": str(c)} for e, c in self.terms]


def universal_T(r: int, fit: MultiplicativeFit) -> UniversalPolynomial:
    """Extract T_r: the x^r coefficient of exp(sum_i y_i log A_i) with the
    four weights y_i kept as formal variables.

    exp(sum_i y_i L_i) = prod_i sum_k y_i^k L_i^k / k!, so the coefficient of
    y^e is [x^r] prod_i L_i^(e_i) / e_i!.  The partial products are built
    once per fit, at the fit's order, and every T_r is read off them."""
    if r > fit.order:
        raise FitConfigError(f"T_{r} needs fit order >= {r}, have {fit.order}")
    return fit.polynomials[r]


# ----------------------------------------------------------------------
# the q-side product and its residual checks
# ----------------------------------------------------------------------


class GYZResiduals(Record):
    """Differences between fitted exponentials and the quasimodular closed forms.

    dg2_identity is exp(2*a1) - DG2/q and delta_identity is
    exp(4*a1 - 24*a4) - Delta*D2G2/q^2; both must vanish identically when the
    Severi data and the K3 forms are consistent.
    """

    __slots__ = _fields = ("dg2_identity", "delta_identity")

    def __init__(self, dg2_identity: PowerSeries, delta_identity: PowerSeries):
        self._set(dg2_identity, delta_identity)

    @property
    def ok(self) -> bool:
        return self.dg2_identity.is_zero() and self.delta_identity.is_zero()


class GYZFit(Record):
    """B1, B2 from the fit plus the closed forms B3, B4 and residual report."""

    __slots__ = _fields = ("q_order", "b1", "b2", "b3", "b4", "residuals")

    def __init__(
        self,
        q_order: int,
        b1: PowerSeries,
        b2: PowerSeries,
        b3: PowerSeries,
        b4: PowerSeries,
        residuals: GYZResiduals,
    ):
        self._set(q_order, b1, b2, b3, b4, residuals)


def fit_B(fit: MultiplicativeFit, q_order: int | None = None) -> GYZFit:
    """Assemble B1, B2 and the residual identities from a multiplicative fit.

    With a_i = log A_i composed with DG2 the exponent change of variables
    (Noether and Riemann-Roch) gives B2 = exp(a1 + a2), B1 = exp(a3 - a4),
    B3 = exp(2*a1) and B4^2 = exp(4*a1 - 24*a4); B3 and B4 are stored as
    their quasimodular closed forms and the exponentials enter the residuals.
    """
    m = fit.order if q_order is None else q_order
    if m > fit.order:
        raise FitConfigError(f"q-order {m} exceeds fit order {fit.order}")
    inner = dg2(max(m, 1))
    a_hat = [s.compose(inner).truncate(m) for s in fit.log_a]
    b2 = (a_hat[0] + a_hat[1]).exp()
    b1 = (a_hat[2] - a_hat[3]).exp()
    b3 = dg2_over_q(m)
    fixed = delta_d2g2_over_q2(m)
    b4 = fixed.pow(Fraction(1, 2))
    residuals = GYZResiduals(
        dg2_identity=(a_hat[0] * 2).exp() - b3,
        delta_identity=(a_hat[0] * 4 - a_hat[3] * 24).exp() - fixed,
    )
    return GYZFit(q_order=m, b1=b1, b2=b2, b3=b3, b4=b4, residuals=residuals)


def check_genus_series(r: int, order: int):
    """Enforce r >= 0 and order >= 1, which genus_series needs whatever the fit."""
    if r < 0:
        raise ValueError("negative powers of DG2 leave the power series ring")
    if order < 1:
        raise ValueError("the product has positive valuation; order must be >= 1")


def genus_series(
    r: int,
    Ksq: int,
    m: int,
    chiO: int,
    order: int,
    gyz: GYZFit | None = None,
) -> PowerSeries:
    """The fixed-genus product B1^Ksq * B2^m * DG2^r * D2G2 / (Delta*D2G2/q^2)^(chiO/2).

    B1 and B2 only enter with nonzero exponent, so a fit is required exactly
    when Ksq or m is nonzero.
    """
    check_genus_series(r, order)
    result = d2g2(order)
    if r:
        result = result * dg2(order) ** r
    if Ksq or m:
        if gyz is None:
            raise ValueError("nonzero Ksq or m exponents need a fitted GYZFit")
        if gyz.q_order < order:
            raise ValueError(f"fit q-order {gyz.q_order} is below requested order {order}")
        if Ksq:
            result = result * gyz.b1.truncate(order) ** Ksq
        if m:
            result = result * gyz.b2.truncate(order) ** m
    if chiO:
        result = result / delta_d2g2_over_q2(order).pow(Fraction(chiO, 2))
    return result


# ----------------------------------------------------------------------
# held-out validation
# ----------------------------------------------------------------------


class ValidationReport(Record):
    __slots__ = _fields = ("d", "order", "match", "first_mismatch")

    def __init__(
        self,
        d: int,
        order: int,
        match: bool,
        first_mismatch: tuple[int, Fraction, int] | None = None,
    ):
        self._set(d, order, match, first_mismatch)

    def to_json_dict(self) -> dict:
        doc = {"d": self.d, "order": self.order, "match": self.match}
        if self.first_mismatch is not None:
            r, predicted, actual = self.first_mismatch
            doc["first_mismatch"] = {
                "r": r,
                "predicted": str(predicted),
                "actual": str(actual),
            }
        return doc


def validate_p2(
    d: int, fit: MultiplicativeFit, order: int, table: SeveriTable
) -> ValidationReport:
    """Compare the fitted series against freshly computed Severi degrees.

    The held-out degree must honor the ampleness bound d >= r, checked before
    any Severi work."""
    check_threshold(d, order)
    predicted = evaluate(plane(d), fit, order)
    actual = p2_series(d, order, table)
    for n in range(order + 1):
        if predicted.coeff(n) != actual.coeff(n):
            return ValidationReport(d, order, False, (n, predicted.coeff(n), int(actual.coeff(n))))
    return ValidationReport(d, order, True)
