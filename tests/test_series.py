"""Power series ring, transcendental operations, composition and reversion."""

import hashlib
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, example, given, settings

from nodalcurves import (
    FormCatalog,
    NonUnitDivisorError,
    NormalizationError,
    PowerSeries,
    SeriesError,
    ValuationError,
    dg2,
    genus_series,
)
from nodalcurves.series import power_numerators

F = Fraction


def series(*coeffs, var="q"):
    return PowerSeries.of(coeffs, var)


# ----------------------------------------------------------------------
# pinned examples
# ----------------------------------------------------------------------


def test_add():
    assert series(1, 1) + series(0, 1) == series(1, 2)


def test_mul():
    assert series(1, 1, 0) * series(1, -1, 0) == series(1, 0, -1)


def test_div_geometric():
    one = PowerSeries.one(3)
    q = PowerSeries.identity(3, "q")
    assert one / (one - q) == series(1, 1, 1, 1)


def test_div_requires_unit():
    with pytest.raises(NonUnitDivisorError, match="non-unit divisor"):
        PowerSeries.one(2) / PowerSeries.identity(2)


def test_log():
    assert (1 + PowerSeries.identity(3, "q")).log() == series(0, 1, F(-1, 2), F(1, 3))


def test_exp_log_roundtrip_example():
    f = 1 + PowerSeries.identity(4, "q")
    assert f.log().exp() == f


def test_pow_binomial():
    f = 1 + PowerSeries.identity(2, "q")
    assert f.pow(F(1, 2)) == series(1, F(1, 2), F(-1, 8))


def test_normalization_errors_name_the_constant_term():
    with pytest.raises(NormalizationError, match="got 1"):
        PowerSeries.one(2).exp()
    with pytest.raises(NormalizationError, match="got 0"):
        PowerSeries.zero(2).log()
    with pytest.raises(NormalizationError):
        PowerSeries.of([2, 1, 1]).pow(F(1, 2))


def test_compose_monomials():
    outer = series(0, 1, 1, 0, 0, var="x")  # x + x^2
    inner = series(0, 0, 1, 0, 0)  # q^2
    assert outer.compose(inner) == series(0, 0, 1, 0, 1)


def test_compose_geometric():
    one = PowerSeries.one(3)
    q = PowerSeries.identity(3, "q")
    geo = one / (one - q)
    assert geo.compose(q) == series(1, 1, 1, 1)


def test_compose_square_of_dg2():
    # x^2 at DG2 = q + 6q^2 + 12q^3 + 28q^4, squared by hand
    dg2 = series(0, 1, 6, 12, 28)
    outer = series(0, 0, 1, 0, 0, var="x")
    assert outer.compose(dg2) == series(0, 0, 1, 12, 60)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValuationError):
        PowerSeries.one(2).compose(PowerSeries.one(2))


def test_revert_identity():
    q = PowerSeries.identity(4, "q")
    assert q.revert() == PowerSeries.identity(4, "x")


def test_revert_example():
    g = series(0, 1, 1, 0, 0)  # q + q^2
    assert g.revert() == series(0, 1, -1, 2, -5, var="x")


def test_revert_at_order_one_keeps_the_variable_rules():
    inverse = series(0, 3).revert()
    assert inverse.coeffs == (F(0), F(1, 3)) and inverse.var == "x"
    assert series(0, 3, 1, var="t").revert().var == "t"


def test_revert_preconditions():
    with pytest.raises(ValuationError):
        PowerSeries.one(3).revert()
    with pytest.raises(ValuationError):
        series(0, 0, 1).revert()


def test_diff_d():
    assert PowerSeries.one(3).diff_d().is_zero()
    cubed = series(0, 0, 0, 1)
    assert cubed.diff_d() == series(0, 0, 0, 3)


def test_shift_down_checks_valuation():
    assert series(0, 0, 1, 2).shift_down(2) == series(1, 2)
    with pytest.raises(ValuationError):
        series(0, 1, 0).shift_down(2)


def test_shift_up_raises_order():
    f = series(1, 2)
    assert f.shift_up(2).coeffs == (F(0), F(0), F(1), F(2))
    assert f.shift_up(2).order == 3


def test_mixed_orders_truncate_to_minimum():
    long = PowerSeries.one(5)
    short = PowerSeries.one(2)
    assert (long + short).order == 2
    assert (long * short).order == 2


def test_equality_through_common_order():
    assert series(1, 2, 3) == series(1, 2)
    assert series(1, 2, 3) != series(1, 5)


def test_scalar_arithmetic():
    q = PowerSeries.identity(2, "q")
    assert 1 + q == series(1, 1, 0)
    assert q * 3 == series(0, 3, 0)
    assert (1 - q).coeffs == (F(1), F(-1), F(0))
    assert (q / 2).coeffs == (F(0), F(1, 2), F(0))


def test_integer_powers():
    q = PowerSeries.identity(4, "q")
    assert (1 + q) ** 3 == series(1, 3, 3, 1, 0)
    assert q**2 == series(0, 0, 1, 0, 0)
    assert (1 + q) ** -1 == series(1, -1, 1, -1, 1)
    with pytest.raises(NonUnitDivisorError):
        q**-1


def test_json_roundtrip_is_bit_exact():
    f = series(F(-1, 24), F(3, 7), 0, F(22, 7))
    doc = f.to_json_dict()
    assert doc["coeffs"] == ["-1/24", "3/7", "0", "22/7"]
    assert doc["order"] == 3
    assert doc["var"] == "q"


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

coeffs_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def series_st(order=5, head=None):
    size = order + 1
    body = st.lists(coeffs_st, min_size=size, max_size=size)
    if head is None:
        return body.map(PowerSeries.of)
    return body.map(lambda cs: PowerSeries.of([F(head)] + cs[1:]))


unit_st = series_st(head=1)
novalue_st = series_st(head=0)
reversible_st = st.tuples(
    st.lists(coeffs_st, min_size=4, max_size=4),
    st.fractions(min_value=F(1, 3), max_value=3, max_denominator=6),
).map(lambda t: PowerSeries.of([F(0), t[1] if t[1] != 0 else F(1)] + t[0][2:]))


@given(series_st(), series_st(), series_st())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(series_st(), series_st(head=1))
def test_div_inverts_mul(f, g):
    assert (f * g) / g == f


@given(novalue_st)
def test_exp_then_log(f):
    assert f.exp().log() == f


@given(unit_st)
def test_log_then_exp(f):
    assert f.log().exp() == f


@given(
    unit_st,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_pow_additivity(f, a, b):
    assert f.pow(a) * f.pow(b) == f.pow(a + b)


@given(reversible_st)
def test_revert_is_two_sided_inverse(g):
    h = g.revert()
    identity = PowerSeries.identity(g.order, "q")
    assert g.compose(h) == identity
    assert h.compose(g) == identity


@given(series_st(), series_st())
def test_diff_d_leibniz(f, g):
    assert (f * g).diff_d() == f.diff_d() * g + f * g.diff_d()


@given(unit_st, st.integers(min_value=-3, max_value=6))
def test_integer_and_rational_pow_paths_agree(f, n):
    # the power kernel at an integral exponent against exp(n log f)
    assert f**n == (f.log() * n).exp()


# ----------------------------------------------------------------------
# integer kernels against plain-Fraction reference loops
# ----------------------------------------------------------------------


def reference_mul(a, b):
    m = min(len(a), len(b)) - 1
    return [sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(m + 1)]


def reference_div(f, g):
    m = min(len(f), len(g)) - 1
    out = []
    for n in range(m + 1):
        acc = f[n] - sum((g[k] * out[n - k] for k in range(1, n + 1)), F(0))
        out.append(acc / g[0])
    return out


def reference_log(f):
    # n*f_n = sum_{k=1..n} k*L_k*f_{n-k}, from f' = L'f
    out = [F(0)]
    for n in range(1, len(f)):
        acc = n * f[n] - sum((k * out[k] * f[n - k] for k in range(1, n)), F(0))
        out.append(acc / n)
    return out


# zeros, negatives and denominators up to 30, at orders 0..8
rational_st = st.one_of(
    st.just(F(0)), st.fractions(min_value=-30, max_value=30, max_denominator=30)
)
nonzero_st = rational_st.filter(lambda c: c != 0)
coeff_lists_st = st.lists(rational_st, min_size=1, max_size=9)
var_st = st.sampled_from(["q", "x", "t"])


def exact(s: PowerSeries) -> list:
    assert all(type(c) is Fraction for c in s.coeffs)
    return list(s.coeffs)


@given(coeff_lists_st, coeff_lists_st, var_st)
def test_mul_kernel_matches_reference(a, b, var):
    product = PowerSeries.of(a, var) * PowerSeries.of(b, "q")
    assert exact(product) == reference_mul(a, b)
    assert product.var == var


@given(coeff_lists_st, nonzero_st, coeff_lists_st, var_st)
def test_div_kernel_matches_reference(f, g0, g_tail, var):
    g = [g0] + g_tail
    quotient = PowerSeries.of(f, var) / PowerSeries.of(g, "q")
    assert exact(quotient) == reference_div(f, g)
    assert quotient.var == var


@given(coeff_lists_st, var_st)
@example(  # order 40, denominators up to 30 with lcm 776,363,187,600
    [F((-1) ** k * (k % 7 + 1), (k * 11) % 29 + 2) for k in range(41)], "x"
)
def test_log_kernel_matches_reference(tail, var):
    f = [F(1)] + tail[1:]
    log = PowerSeries.of(f, var).log()
    assert exact(log) == reference_log(f)
    assert log.var == var and log.order == len(f) - 1


def test_log_matches_its_three_pass_definition():
    # log f runs one integer pass; its definition is t*f'/f = f.diff_d() / f,
    # then coefficient n divided by n, at every order 0..30
    import random

    rng = random.Random(18)
    for order in range(31):
        tail = [F(rng.randint(-40, 40), rng.randint(1, 24)) for _ in range(order)]
        f = PowerSeries.of([F(1)] + tail, "x")
        q = (f.diff_d() / f).coeffs
        assert exact(f.log()) == [q[0]] + [c / n for n, c in enumerate(q[1:], 1)]


def test_log_at_order_zero_is_the_zero_series():
    log = PowerSeries.one(0, "x").log()
    assert log.coeffs == (F(0),) and log.var == "x"


def test_div_by_constant_term_outside_unit():
    f = series(1, 0, 0, 0)
    g = series(F(-3, 2), 1, 0, 0)
    assert (f / g).coeffs == (F(-2, 3), F(-4, 9), F(-8, 27), F(-16, 81))


# ----------------------------------------------------------------------
# q-side pins at order 60, recorded before the integer kernels
# ----------------------------------------------------------------------


def digest(s: PowerSeries) -> str:
    return hashlib.sha256(",".join(map(str, s.coeffs)).encode()).hexdigest()


def test_genus_series_order_sixty_is_pinned():
    s = genus_series(0, 0, 0, 2, 60)
    assert [str(c) for c in s.coeffs[:6]] == ["0", "1", "24", "324", "3200", "25650"]
    assert s.coeffs[60] == 133401459043236863797304544000
    assert digest(s) == "bd27b2ccacdfb64e6f7184787f98b13f07209c5018136e3c46bfedd1d46087f9"


def test_form_catalog_order_sixty_is_pinned():
    catalog = FormCatalog.build(60)
    pins = {
        "g2": "3e3420f30a471091c6ed0d29dd28bffdf439773279ef30657d72010a46fc4dab",
        "dg2": "c300af06eacfe88cbad4cddfad82352a8cb4c9ac1bea3335071ac55f89db88d1",
        "d2g2": "5b1edf323963bd5fd36e8dc3b7781d6348ee99ce71d9fef8c870d68f8a63fd70",
        "delta": "c3b81785485b0302ec3abc70eddb9539c43d941cbd31ed829c8f02fc73d3234d",
    }
    assert {name: digest(getattr(catalog, name)) for name in pins} == pins
    assert catalog.delta.coeffs[60] == -1791659520


# ----------------------------------------------------------------------
# one power routine, one constant constructor
# ----------------------------------------------------------------------


def product_power(f: PowerSeries, n: int) -> PowerSeries:
    """f^n as |n| plain products, inverted for negative n."""
    out = PowerSeries.one(f.order, f.var)
    for _ in range(abs(n)):
        out = out * f
    return 1 / out if n < 0 else out


def reference_pow(f: PowerSeries, e: Fraction) -> PowerSeries:
    """f^e as exp(e * log f), for f with constant term one."""
    return (f.log() * e).exp()


@given(
    st.lists(rational_st, max_size=12).map(lambda tail: PowerSeries.of([F(1)] + tail, "x")),
    st.builds(F, st.integers(-12, 12), st.integers(1, 6)),
)
def test_pow_matches_exp_of_e_log(f, e):
    power = f.pow(e)
    assert exact(power) == exact(reference_pow(f, e))
    assert power.order == f.order and power.var == "x"


@given(
    st.sampled_from([F(2), F(-3, 2), F(0)]),
    st.lists(rational_st, max_size=8),
    st.integers(-6, 6),
)
def test_integral_pow_matches_products_for_any_constant_term(c0, tail, n):
    f = PowerSeries.of([c0] + tail, "x")
    if c0 == 0 and n < 0:
        with pytest.raises(NonUnitDivisorError):
            f.pow(n)
    else:
        assert exact(f.pow(n)) == exact(product_power(f, n))


def test_power_kernel_refuses_an_inexact_division():
    # integer numerators keep every division by n exact; a Fraction left
    # uncleared does not
    with pytest.raises(ArithmeticError, match="not divisible by 1"):
        power_numerators([1, F(1, 2), 0], 1, 1)


@pytest.mark.parametrize("n", range(-3, 7))
@pytest.mark.parametrize("c0", [F(1), F(2), F(-3, 2)])
def test_pow_is_binary_powering_for_any_unit_constant_term(c0, n):
    # named when pow raised integral powers by binary powering; it checks
    # the power kernel against repeated products
    f = series(c0, 1, F(1, 3), 0, -2)
    assert f.pow(n) == f**n == product_power(f, n)
    assert f.pow(F(n)) == f.pow(n)


@pytest.mark.parametrize("n", range(0, 7))
def test_pow_of_a_series_without_constant_term(n):
    q = PowerSeries.identity(4, "q")
    assert q.pow(n) == q**n == product_power(q, n)


def test_pow_at_zero_is_one_at_the_order_and_variable():
    for f in (series(F(3, 2), 1, 0, 5, var="x"), series(0, 0, 2, 1, var="x")):
        one = f.pow(0)
        assert one.coeffs == (F(1), F(0), F(0), F(0)) and one.var == "x"


def test_pow_at_one_and_minus_one():
    f = series(F(-3, 2), 1, F(1, 3), 0, -2, var="x")
    assert f.pow(1) == f and f.pow(1).var == "x"
    inverse = f.pow(-1)
    assert inverse == 1 / f and inverse.var == "x"


def test_pow_pins():
    assert PowerSeries.of([2, 1, 0, 0]).pow(2) == series(4, 4, 1, 0)
    assert PowerSeries.identity(4, "q").pow(2) == series(0, 0, 1, 0, 0)


def test_pow_domain_errors():
    with pytest.raises(NormalizationError, match="got 2"):
        series(2, 1, 0).pow(F(1, 2))
    with pytest.raises(NonUnitDivisorError):
        PowerSeries.identity(3, "q").pow(-1)


@pytest.mark.parametrize(
    "make",
    [lambda: PowerSeries.constant(5, -1), lambda: PowerSeries.one(-1), lambda: PowerSeries.zero(-1)],
    ids=["constant", "one", "zero"],
)
def test_constant_constructors_refuse_a_negative_order(make):
    with pytest.raises(SeriesError, match="nonnegative"):
        make()


# ----------------------------------------------------------------------
# reversion over integer numerators against the Fraction-product loop
# ----------------------------------------------------------------------


def reference_revert(g):
    """Lagrange inversion with a running power of t/g in plain Fraction products."""
    m = len(g) - 1
    t_over_g = reference_div([F(1)] + [F(0)] * (m - 1), g[1:])
    power, h = [F(1)] + [F(0)] * (m - 1), [F(0)]
    for n in range(1, m + 1):
        power = reference_mul(power, t_over_g)
        h.append(power[n - 1] / n)
    return h


@pytest.mark.parametrize(
    "g",
    [
        [0, F(-3, 2), F(5, 7), 0, F(-2, 3), 1, F(1, 11), 0, 0, F(7, 4), -3, F(2, 9)],
        [0, F(2, 5), 0, F(-1, 6), F(9, 2), 0, -1, F(3, 8), 0, 0, F(1, 13), 4, F(-5, 3), 1],
        [0, F(-7, 9), F(4, 5), 0, F(-11, 6), F(1, 14), 2, 0, F(-3, 10), F(5, 12), 0, F(8, 3),
         F(-1, 21), 0, F(13, 4), -2, F(2, 15), 0, F(-9, 8), F(1, 18), 0, F(6, 11), F(-4, 25),
         F(3, 28), F(-17, 30)],
    ],
    ids=["order-11", "order-13", "order-24"],
)
def test_revert_with_a_rational_linear_coefficient_matches_the_fraction_loop(g):
    g = [F(c) for c in g]
    inverse = PowerSeries.of(g, "q").revert()
    assert exact(inverse) == reference_revert(g)
    assert inverse.var == "x"


def test_dg2_revert_at_order_thirty_is_pinned():
    # recorded with the Fraction-product reversion
    inverse = dg2(30).revert()
    assert digest(inverse) == "abbd9397e349a1aafd42350471ebde098eae5d3d4153c6eacb3c4d74e01cef9c"


def reversible_of(order):
    """[0, c1, ...] through t^order with a nonzero rational c1."""
    tail = st.lists(rational_st, min_size=order - 1, max_size=order - 1)
    return st.tuples(nonzero_st, tail).map(lambda t: [F(0), t[0]] + t[1])


# k^2 - 1, k^2 and k^2 + 1 for k = 2..6: revert's baby steps run to
# isqrt(order), so these orders sit where its giant steps begin and end
STEP_ORDERS = [k * k + s for k in range(2, 7) for s in (-1, 0, 1)]

# every phase but shrink: reference_revert takes about 0.2 s per order-40
# series, so shrinking a failure would take minutes; the failing example is
# reported as drawn
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@settings(deadline=None, max_examples=30, phases=NO_SHRINK)
@given(st.integers(1, 40).flatmap(reversible_of))
def test_revert_matches_the_fraction_loop_at_orders_up_to_forty(g):
    assert exact(PowerSeries.of(g, "q").revert()) == reference_revert(g)


@pytest.mark.parametrize("order", STEP_ORDERS)
@settings(deadline=None, max_examples=4, phases=NO_SHRINK)
@given(data=st.data())
def test_revert_matches_the_fraction_loop_where_baby_and_giant_steps_meet(order, data):
    g = data.draw(reversible_of(order))
    assert exact(PowerSeries.of(g, "q").revert()) == reference_revert(g)


@pytest.mark.parametrize("order", [30, 60])
def test_dg2_composed_with_its_reversion_is_the_identity(order):
    g = dg2(order)
    h = g.revert()
    assert h.order == order
    assert g.compose(h) == PowerSeries.identity(order, "x")
