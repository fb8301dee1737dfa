"""q-expansions of G2, DG2, D2G2, Delta and the K3 closed form."""

from fractions import Fraction

import pytest

from nodalcurves import (
    FormCatalog,
    PowerSeries,
    SeriesError,
    d2g2,
    delta_d2g2_over_q2,
    dg2,
    dg2_over_q,
    discriminant_delta,
    eisenstein_g2,
    eta_power,
    k3_generating,
)

F = Fraction


def divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_g2_fixture():
    g2 = eisenstein_g2(3)
    assert g2.coeffs == (F(-1, 24), F(1), F(3), F(4))


def test_g2_named_coefficients():
    g2 = eisenstein_g2(6)
    assert g2.coeff(4) == 7  # 1 + 2 + 4
    assert g2.coeff(6) == 12  # 1 + 2 + 3 + 6


def test_g2_matches_trial_division_through_500():
    series = eisenstein_g2(500)
    assert series.coeff(0) == F(-1, 24)
    for n in range(1, 501):
        assert series.coeff(n) == divisor_sum(n)


def test_dg2_matches_independent_divisor_sums():
    series = dg2(500)
    assert series.coeff(0) == 0
    for n in range(1, 501):
        assert series.coeff(n) == n * divisor_sum(n)


def test_d2g2_is_n_squared_sigma():
    series = d2g2(500)
    assert series.coeff(0) == 0
    for n in range(1, 501):
        assert series.coeff(n) == n * n * divisor_sum(n)


def test_delta_first_terms():
    delta = discriminant_delta(3)
    assert delta.coeffs == (F(0), F(1), F(-24), F(252))


def test_delta_leading_coefficient_and_unit_shift():
    delta = discriminant_delta(8)
    assert delta.coeff(0) == 0 and delta.coeff(1) == 1
    assert delta.shift_down(1).constant_term == 1


@pytest.mark.parametrize("order", [1, 2, 12])
def test_delta_against_plain_integer_product(order):
    # independent oracle: expand q * prod (1 - q^k)^24 with bare integer lists
    poly = [1] + [0] * order
    for k in range(1, order + 1):
        factor = [0] * (order + 1)
        factor[0] = 1
        if k <= order:
            factor[k] = -1
        for _ in range(24):
            out = [0] * (order + 1)
            for i, a in enumerate(poly):
                if a == 0:
                    continue
                for j in range(0, order + 1 - i):
                    if factor[j]:
                        out[i + j] += a * factor[j]
            poly = out
    expected = [0] + poly[:order]
    delta = discriminant_delta(order)
    assert [int(c) for c in delta.coeffs] == expected


def jacobi_delta(order):
    """q * J^8 in plain integers, with J = prod (1 - q^k)^3 from Jacobi's identity.

    J = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2) involves no divisor sums, so
    this oracle shares nothing with the sigma_1 recurrence Delta is built from.
    """
    def square(a):
        return [sum(a[i] * a[n - i] for i in range(n + 1)) for n in range(len(a))]

    j = [0] * order
    n = 0
    while n * (n + 1) // 2 < order:
        j[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    return [0] + square(square(square(j)))


def test_delta_against_the_jacobi_expansion_through_150():
    expected = jacobi_delta(150)
    for order in range(1, 151):
        assert discriminant_delta(order).coeffs == tuple(expected[: order + 1])


def test_delta_satisfies_its_modular_differential_equation():
    # D(Delta) = E2 * Delta with E2 = -24 * G2 fixes every coefficient once
    # the leading one is 1; Delta's recurrence is this identity, so the
    # Jacobi expansion above is the independent check
    order = 150
    delta = discriminant_delta(order)
    assert delta.coeff(0) == 0 and delta.coeff(1) == 1
    assert delta.diff_d() == delta * (eisenstein_g2(order) * -24)


def test_delta_requires_positive_order():
    with pytest.raises(SeriesError):
        discriminant_delta(0)


def plain_eta_power(e, order):
    """prod_{k<=order} (1 - q^k)^e in bare integers: |e| multiplications by
    each factor, then for e < 0 the inverse of the product, term by term."""
    poly = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(abs(e)):
            poly = [poly[n] - (poly[n - k] if n >= k else 0) for n in range(order + 1)]
    if e < 0:
        inverse = [1] + [0] * order
        for n in range(1, order + 1):
            inverse[n] = -sum(poly[k] * inverse[n - k] for k in range(1, n + 1))
        poly = inverse
    return poly


@pytest.mark.parametrize("e", [-24, -12, -1, 1, 2, 3, 24])
def test_eta_power_against_repeated_multiplication(e):
    expected = plain_eta_power(e, 60)
    for order in range(61):
        assert eta_power(e, order).coeffs == tuple(expected[: order + 1])


def test_eta_power_one_is_the_pentagonal_series_through_40():
    nonzero = {n: c for n, c in enumerate(eta_power(1, 40).coeffs) if c}
    assert nonzero == {
        0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1, 35: -1, 40: -1
    }


def test_eta_power_zero_and_order_zero():
    assert eta_power(0, 8) == PowerSeries.one(8, "q")
    assert eta_power(-24, 0) == PowerSeries.one(0, "q")
    with pytest.raises(SeriesError):
        eta_power(1, -1)


def test_fixed_denominator_is_delta_times_d2g2_over_q2():
    for order in range(31):
        expected = (discriminant_delta(order + 2) * d2g2(order + 2)).shift_down(2)
        assert delta_d2g2_over_q2(order).coeffs == expected.coeffs


def test_fixed_denominator_q2_coefficient_vanishes():
    fixed = delta_d2g2_over_q2(4)
    assert fixed.coeff(0) == 1
    assert fixed.coeff(1) == -12
    assert fixed.coeff(2) == 0


def test_k3_generating_chi_zero():
    assert k3_generating(0, 2) == PowerSeries.of([1, 12, 144])


def test_k3_generating_constant_term_is_one():
    for chi in (-3, -1, 0, 1, 2, 5):
        assert k3_generating(chi, 4).constant_term == 1


def test_k3_generating_order_zero():
    assert k3_generating(7, 0) == PowerSeries.one(0, "q")


def test_k3_generating_exponent_additivity():
    order = 6
    fixed = delta_d2g2_over_q2(order)
    for a, b in ((0, 1), (2, 3), (-2, 4), (1, 1)):
        left = k3_generating(a + b, order)
        right = k3_generating(a, order) * k3_generating(b, order) * fixed
        assert left == right


def test_dg2_over_q_leading_terms():
    assert dg2_over_q(3) == PowerSeries.of([1, 6, 12, 28])


def test_dg2_revert_roundtrip():
    series = dg2(8)
    inverse = series.revert()
    assert series.compose(inverse) == PowerSeries.identity(8, "x")
    assert inverse.compose(series) == PowerSeries.identity(8, "q")


def test_dg2_revert_roundtrip_at_order_30():
    series = dg2(30)
    inverse = series.revert()
    assert inverse.order == 30 and inverse.var == "x"
    assert series.compose(inverse) == PowerSeries.identity(30, "x")
    assert inverse.compose(series) == PowerSeries.identity(30, "q")


def test_form_catalog_build_and_roundtrip():
    catalog = FormCatalog.build(6)
    assert catalog.g2.diff_d() == catalog.dg2
    assert catalog.dg2.diff_d() == catalog.d2g2
    doc = catalog.to_json_dict()
    assert doc["format"] == "forms-1"


def test_form_catalog_rejects_inconsistent_chain():
    catalog = FormCatalog.build(3)
    with pytest.raises(SeriesError):
        FormCatalog(
            order=3,
            g2=catalog.g2,
            dg2=catalog.d2g2,  # wrong slot
            d2g2=catalog.d2g2,
            delta=catalog.delta,
        )


@pytest.mark.parametrize("slot", ["dg2", "d2g2"])
@pytest.mark.parametrize("n", [1, 60, 120])
def test_form_catalog_rejects_one_tampered_coefficient(slot, n):
    # one coefficient off by 1/7 anywhere in DG2 or D2G2 breaks the chain
    catalog = FormCatalog.build(120)
    fields = {name: getattr(catalog, name) for name in FormCatalog._fields}
    coeffs = list(fields[slot].coeffs)
    coeffs[n] += F(1, 7)
    fields[slot] = PowerSeries.of(coeffs, "q")
    with pytest.raises(SeriesError):
        FormCatalog(**fields)
    assert FormCatalog(**{name: getattr(catalog, name) for name in FormCatalog._fields}) == catalog
