"""The multiplicative fit, universal polynomials, B-series, and validation."""

import random
from fractions import Fraction

import pytest

from nodalcurves import (
    AmplenessThresholdError,
    DoublePointData,
    FitConfig,
    FitConfigError,
    MultiplicativeFit,
    PairClass,
    PowerSeries,
    SeveriTable,
    close_relation,
    convert,
    convert_back,
    AltPairClass,
    d2g2,
    default_config,
    delta_d2g2_over_q2,
    dg2,
    evaluate,
    fit_A,
    fit_B,
    genus_series,
    k3_primitive,
    k3_series_in_x,
    p2_series,
    plane,
    quadric,
    universal_T,
    validate_p2,
)

F = Fraction


def random_valid_vector(rng, bound=20):
    alt = AltPairClass(
        LK=rng.randint(-bound, bound),
        chiL=rng.randint(-bound, bound),
        chiO=rng.randint(-bound, bound),
        Ksq=rng.randint(-bound, bound),
    )
    return convert_back(alt)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_config_rejects_equal_degrees():
    with pytest.raises(FitConfigError):
        FitConfig(order=1, d1=9, d2=9)


def test_config_rejects_bad_k3_squares():
    with pytest.raises(FitConfigError):
        FitConfig(order=1, s1=3, s2=4)
    with pytest.raises(FitConfigError):
        FitConfig(order=1, s1=2, s2=2)


def test_config_enforces_threshold():
    with pytest.raises(AmplenessThresholdError):
        FitConfig(order=3, d1=2, d2=4)
    with pytest.raises(AmplenessThresholdError):
        FitConfig(order=0, d1=0, d2=1)
    FitConfig(order=3, d1=3, d2=4)


def test_default_config_degrees():
    assert (default_config(2).d1, default_config(2).d2) == (9, 10)
    assert (default_config(3).d1, default_config(3).d2) == (14, 15)


# ----------------------------------------------------------------------
# the fit
# ----------------------------------------------------------------------


def test_order_zero_fit_is_trivial(table):
    fit = fit_A(default_config(0), table)
    for a in fit.a:
        assert a == PowerSeries.one(0, "x")


def test_order_one_fit_gives_classical_linear_coefficients(fit1):
    assert [s.coeff(1) for s in fit1.log_a] == [3, 2, 0, 1]


def test_fit_ties_a_to_log_a(fit2):
    for log_series, series in zip(fit2.log_a, fit2.a):
        assert log_series.constant_term == 0
        assert log_series.exp() == series


def test_t0_and_t1(fit1):
    t0 = universal_T(0, fit1)
    assert t0.terms == (((0, 0, 0, 0), F(1)),)
    t1 = universal_T(1, fit1)
    assert dict(t1.terms) == {(1, 0, 0, 0): F(3), (0, 1, 0, 0): F(2), (0, 0, 0, 1): F(1)}


def test_t1_evaluates_to_classical_counts(fit1):
    t1 = universal_T(1, fit1)
    assert [t1.evaluate(plane(d)) for d in (2, 3, 4)] == [3, 12, 27]


def test_t2_total_degree_bound(fit2):
    t2 = universal_T(2, fit2)
    assert all(sum(exps) <= 2 for exps, _ in t2.terms)


def test_t2_on_small_k3_class(fit2):
    # the count of two-nodal curves for a primitive square-two K3 class
    assert universal_T(2, fit2).evaluate(k3_primitive(2)) == 324


def test_t_requires_enough_order(fit1):
    with pytest.raises(FitConfigError):
        universal_T(2, fit1)


def test_fit_interpolates_its_inputs(fit2, table):
    cfg = fit2.config
    assert evaluate(plane(cfg.d1), fit2) == p2_series(cfg.d1, 2, table)
    assert evaluate(plane(cfg.d2), fit2) == p2_series(cfg.d2, 2, table)
    assert evaluate(k3_primitive(cfg.s1), fit2) == k3_series_in_x(cfg.s1, 2)


def test_heldout_degrees_match(fit2, table):
    assert validate_p2(11, fit2, 2, table).match
    assert validate_p2(12, fit2, 2, table).match


def test_validation_at_fitting_degree_is_trivially_exact(fit2, table):
    assert validate_p2(9, fit2, 2, table).match


def test_order_one_validation_against_discriminant(fit1, table):
    t1 = universal_T(1, fit1)
    for d in range(5, 13):
        assert t1.evaluate(plane(d)) == 3 * (d - 1) ** 2


def test_basis_independence(fit2, table):
    other = fit_A(FitConfig(order=2, d1=10, d2=11, s1=2, s2=6), table)
    for mine, theirs in zip(fit2.a, other.a):
        assert mine == theirs
    for mine, theirs in zip(fit2.log_a, other.log_a):
        assert mine == theirs


@pytest.mark.parametrize("order", range(1, 6))
def test_fit_at_the_ampleness_bound_matches_the_old_degrees(order, table):
    # d >= r suffices (Kool-Shende-Thomas): the fit at (M, M + 1) equals the
    # fit at (5M - 1, 5M), series by series
    low = fit_A(FitConfig(order=order, d1=order, d2=order + 1), table)
    high = fit_A(FitConfig(order=order, d1=5 * order - 1, d2=5 * order), table)
    assert low.log_a == high.log_a
    assert low.a == high.a


def test_mismatched_fit_is_reported(fit3, table):
    # a proven fit with one x^3 coefficient of log A1 bumped
    coeffs = list(fit3.log_a[0].coeffs)
    coeffs[3] += 1
    log_a = (PowerSeries.of(coeffs, "x"),) + fit3.log_a[1:]
    bad = MultiplicativeFit(fit3.config, log_a, tuple(s.exp() for s in log_a))
    report = validate_p2(14, bad, 3, table)
    assert not report.match
    r, predicted, actual = report.first_mismatch
    assert r == 3
    assert predicted != actual


def test_heldout_degree_below_the_bound_is_refused_before_severi_work(fit3):
    local = SeveriTable()
    with pytest.raises(AmplenessThresholdError, match="r = 3"):
        validate_p2(2, fit3, 3, local)
    assert len(local) == 0


def test_evaluate_zero_vector_is_one(fit2):
    assert evaluate(PairClass(0, 0, 0, 0), fit2) == PowerSeries.one(2, "x")


def test_evaluate_order_cap(fit2):
    with pytest.raises(FitConfigError):
        evaluate(plane(9), fit2, order=5)


def test_t_series_reconstruction(fit2):
    rng = random.Random(7)
    polys = [universal_T(r, fit2) for r in range(3)]
    for _ in range(25):
        v = random_valid_vector(rng)
        series = evaluate(v, fit2)
        assert series.coeffs == tuple(p.evaluate(v) for p in polys)


def test_t_series_reconstruction_at_order_four(table):
    # order two never reaches an exponent above two; order four does
    fit4 = fit_A(default_config(4), table)
    rng = random.Random(13)
    polys = [universal_T(r, fit4) for r in range(5)]
    for _ in range(25):
        v = random_valid_vector(rng)
        assert evaluate(v, fit4).coeffs == tuple(p.evaluate(v) for p in polys)


def test_homomorphism_identity(fit2):
    rng = random.Random(11)
    for _ in range(25):
        v1 = random_valid_vector(rng)
        v2 = random_valid_vector(rng)
        dpd = DoublePointData(gD=rng.randint(0, 6), degLD=rng.randint(-8, 8))
        v3, v0 = close_relation(v1, v2, dpd)
        assert evaluate(v0, fit2) * evaluate(v3, fit2) == evaluate(v1, fit2) * evaluate(v2, fit2)


# ----------------------------------------------------------------------
# the q-side
# ----------------------------------------------------------------------


def test_b_series_constant_terms(fit2):
    gyz = fit_B(fit2)
    for series in (gyz.b1, gyz.b2, gyz.b3, gyz.b4):
        assert series.constant_term == 1


def test_b_series_linear_coefficients(fit2):
    # from T1 = 3L^2 + 2LK + c2: log B1 starts -q, log B2 starts 5q
    gyz = fit_B(fit2)
    assert gyz.b1.coeff(1) == -1
    assert gyz.b2.coeff(1) == 5


def test_b4_is_square_root_of_fixed_denominator(fit2):
    gyz = fit_B(fit2)
    assert gyz.b4 == PowerSeries.of([1, -6, -18])
    assert gyz.b4 * gyz.b4 == delta_d2g2_over_q2(2)


def test_residual_identities_vanish(fit2, fit3):
    for fit in (fit2, fit3):
        gyz = fit_B(fit)
        assert gyz.residuals.dg2_identity.is_zero()
        assert gyz.residuals.delta_identity.is_zero()
        assert gyz.residuals.ok


def test_fit_b_order_cap(fit2):
    with pytest.raises(FitConfigError):
        fit_B(fit2, q_order=5)


def test_gamma_t_compatibility(fit2):
    # evaluate composed with DG2 equals the exponent pattern in the
    # (LK, chiL, chiO, Ksq) coordinates assembled from B1..B4
    gyz = fit_B(fit2)
    fixed = delta_d2g2_over_q2(2)
    for v in (plane(7), quadric(2, 5), k3_primitive(8), PairClass(3, -1, 17, 31)):
        alt = convert(v)
        gamma = evaluate(v, fit2).compose(dg2(2))
        assembled = (
            gyz.b3.pow(F(alt.chiL))
            * gyz.b1.pow(F(alt.Ksq))
            * gyz.b2.pow(F(alt.LK))
            / fixed.pow(F(alt.chiO, 2))
        )
        assert gamma == assembled


# ----------------------------------------------------------------------
# fixed-genus products
# ----------------------------------------------------------------------


def test_genus_series_trivial_exponents_leave_fixed_factor():
    assert genus_series(0, 0, 0, 0, 6) == d2g2(6)


def test_genus_series_k3_rational_curves_leading_coefficient():
    series = genus_series(0, 0, 0, 2, 8)
    assert series.coeff(0) == 0 and series.coeff(1) == 1
    assert series.shift_down(1).coeffs[:4] == (F(1), F(24), F(324), F(3200))


def test_genus_series_requires_fit_for_nonzero_exponents(fit2):
    with pytest.raises(ValueError):
        genus_series(0, 1, 0, 2, 2)
    gyz = fit_B(fit2)
    series = genus_series(1, 2, -3, 2, 2, gyz)
    assert series.order == 2


def test_genus_series_rejects_negative_r():
    with pytest.raises(ValueError):
        genus_series(-1, 0, 0, 0, 4)


# ----------------------------------------------------------------------
# serialization of polynomials
# ----------------------------------------------------------------------


def test_universal_polynomial_json(fit1):
    doc = universal_T(1, fit1).to_json_list()
    assert {"exponents": [1, 0, 0, 0], "coeff": "3"} in doc
    assert {"exponents": [0, 1, 0, 0], "coeff": "2"} in doc
    assert {"exponents": [0, 0, 0, 1], "coeff": "1"} in doc
