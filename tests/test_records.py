"""The package's value records: immutable, compared and hashed by value."""

import copy
import pickle
from fractions import Fraction

import pytest

from nodalcurves import (
    AltPairClass,
    DecompCoefficients,
    DoublePointData,
    FitConfig,
    FormCatalog,
    GYZFit,
    MultiplicativeFit,
    NodePolyReport,
    PairClass,
    PowerSeries,
    SeveriKey,
    TangencyProfile,
    UniversalPolynomial,
    ValidationReport,
)
from nodalcurves.universal import GYZResiduals


def series():
    return PowerSeries.of([1, Fraction(1, 2)])


def residuals():
    return GYZResiduals(series(), series())


# each builder makes a fresh instance from equal values; a record with a
# PowerSeries field is unhashable, since PowerSeries is
RECORDS = [
    pytest.param(lambda: PairClass(1, -3, 9, 3), "L2", True, id="PairClass"),
    pytest.param(lambda: AltPairClass(-3, 3, 1, 9), "chiL", True, id="AltPairClass"),
    pytest.param(lambda: DecompCoefficients(1, 2, 3, 4), "a4", True, id="DecompCoefficients"),
    pytest.param(lambda: DoublePointData(gD=1, degLD=2), "gD", True, id="DoublePointData"),
    pytest.param(lambda: FormCatalog.build(3), "delta", False, id="FormCatalog"),
    pytest.param(series, "coeffs", False, id="PowerSeries"),
    pytest.param(lambda: TangencyProfile.of({1: 2, 3: 1}), "pairs", True, id="TangencyProfile"),
    pytest.param(lambda: SeveriKey.plain(3, 1), "beta", True, id="SeveriKey"),
    pytest.param(
        lambda: NodePolyReport(0, (1, 2), (1, 1), (Fraction(1),), True),
        "fits",
        True,
        id="NodePolyReport",
    ),
    pytest.param(lambda: FitConfig(order=2, d1=11), "d1", True, id="FitConfig"),
    pytest.param(
        lambda: MultiplicativeFit(FitConfig(1), (series(),) * 4, (series(),) * 4),
        "a",
        False,
        id="MultiplicativeFit",
    ),
    pytest.param(
        lambda: UniversalPolynomial(r=1, terms=(((1, 0, 0, 0), Fraction(3)),)),
        "terms",
        True,
        id="UniversalPolynomial",
    ),
    pytest.param(residuals, "dg2_identity", False, id="GYZResiduals"),
    pytest.param(
        lambda: GYZFit(1, series(), series(), series(), series(), residuals()),
        "b1",
        False,
        id="GYZFit",
    ),
    pytest.param(
        lambda: ValidationReport(5, 2, False, (1, Fraction(3), 4)),
        "match",
        True,
        id="ValidationReport",
    ),
]


@pytest.mark.parametrize("build, field, hashes", RECORDS)
def test_record_is_immutable_and_compared_by_value(build, field, hashes):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    if hashes:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == repr(b)
