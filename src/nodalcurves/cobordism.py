"""The four-number calculus of surface-line-bundle pairs.

A pair (S, L) of a smooth projective surface and a line bundle is recorded
by the vector (L^2, L.K, c1(S)^2, c2(S)).  Over the rationals these four
numbers freely coordinatize the cobordism group of such pairs: the vector
is additive across double point degenerations, and the four classes

    plane with O        -> (0,  0, 9, 3)
    plane with O(1)     -> (1, -3, 9, 3)
    quadric with O      -> (0,  0, 8, 4)
    quadric with O(0,1) -> (0, -2, 8, 4)

form a basis.  Every honest pair has integer coordinates constrained by
Noether's formula, chi(O) = (c1^2 + c2)/12, and by Riemann-Roch,
chi(L) = chi(O) + (L^2 - L.K)/2; both divisibilities are enforced here and
make the basis coefficients integers.

A degeneration with two-component special fiber X1 u_D X2 contributes the
ruled correction term X3 = P(O + N) over the intersection divisor D, whose
vector depends only on the genus of D and deg(L|D):

    L3^2 = 0,  L3.K3 = -2 deg(L|D),  K3^2 = 8 - 8g(D),  c2 = 4 - 4g(D).
"""

from __future__ import annotations

from . import linalg
from .record import Record


class InvariantError(ValueError):
    """A vector violates the Noether or Riemann-Roch integrality constraints."""


class PairClass(Record):
    """The vector (L^2, L.K, c1^2, c2) of a surface-line-bundle pair."""

    __slots__ = _fields = ("L2", "LK", "c1sq", "c2")

    def __init__(self, L2: int, LK: int, c1sq: int, c2: int):
        self._set(L2, LK, c1sq, c2)
        for name in self._fields:
            if not isinstance(getattr(self, name), int):
                raise InvariantError(f"{name} must be an integer")
        if (self.c1sq + self.c2) % 12 != 0:
            raise InvariantError(
                f"Noether failure: c1^2 + c2 = {self.c1sq + self.c2} is not divisible by 12"
            )
        if (self.L2 + self.LK) % 2 != 0:
            raise InvariantError(
                f"parity failure: L^2 + LK = {self.L2 + self.LK} is odd"
            )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.L2, self.LK, self.c1sq, self.c2)

    def __add__(self, other: PairClass) -> PairClass:
        return PairClass(
            self.L2 + other.L2, self.LK + other.LK, self.c1sq + other.c1sq, self.c2 + other.c2
        )

    def __sub__(self, other: PairClass) -> PairClass:
        return PairClass(
            self.L2 - other.L2, self.LK - other.LK, self.c1sq - other.c1sq, self.c2 - other.c2
        )

    def to_json_dict(self) -> dict:
        return {"L2": self.L2, "LK": self.LK, "c1sq": self.c1sq, "c2": self.c2}


class AltPairClass(Record):
    """The equivalent coordinates (L.K, chi(L), chi(O), K^2)."""

    __slots__ = _fields = ("LK", "chiL", "chiO", "Ksq")

    def __init__(self, LK: int, chiL: int, chiO: int, Ksq: int):
        self._set(LK, chiL, chiO, Ksq)

    def to_json_dict(self) -> dict:
        return {"LK": self.LK, "chiL": self.chiL, "chiO": self.chiO, "Ksq": self.Ksq}


class DecompCoefficients(Record):
    """Coefficients on the standard basis; integral for every valid vector."""

    __slots__ = _fields = ("a1", "a2", "a3", "a4")

    def __init__(self, a1: int, a2: int, a3: int, a4: int):
        self._set(a1, a2, a3, a4)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4)

    def to_json_dict(self) -> dict:
        return {"a1": self.a1, "a2": self.a2, "a3": self.a3, "a4": self.a4}


class DoublePointData(Record):
    """Intersection data of a two-component degeneration: g(D) and deg(L|D)."""

    __slots__ = _fields = ("gD", "degLD")

    def __init__(self, gD: int, degLD: int):
        self._set(gD, degLD)
        if self.gD < 0:
            raise InvariantError("the divisor genus must be nonnegative")


# the standard basis classes, in decomposition order
PLANE_O = PairClass(0, 0, 9, 3)
PLANE_O1 = PairClass(1, -3, 9, 3)
QUADRIC_O = PairClass(0, 0, 8, 4)
QUADRIC_O01 = PairClass(0, -2, 8, 4)
STANDARD_BASIS = (PLANE_O, PLANE_O1, QUADRIC_O, QUADRIC_O01)


# ----------------------------------------------------------------------
# named pairs
# ----------------------------------------------------------------------


def plane(d: int) -> PairClass:
    """The plane with O(d)."""
    return PairClass(d * d, -3 * d, 9, 3)


def quadric(a: int, b: int) -> PairClass:
    """P1 x P1 with O(a, b)."""
    return PairClass(2 * a * b, -2 * (a + b), 8, 4)


def k3_primitive(L2: int) -> PairClass:
    """A generic K3 surface with a primitive class of the given even square."""
    if L2 <= 0 or L2 % 2 != 0:
        raise InvariantError("a primitive K3 class needs positive even self-intersection")
    return PairClass(L2, 0, 0, 24)


def hirzebruch(k: int, c: int, e: int) -> PairClass:
    """The Hirzebruch surface F_k with the bundle c*h + e*f.

    Intersection rules h^2 = k, h.f = 1, f^2 = 0 and K = -2h + (k-2)f.
    """
    L2 = c * c * k + 2 * c * e
    LK = -c * (k + 2) - 2 * e
    return PairClass(L2, LK, 8, 4)


# ----------------------------------------------------------------------
# coordinate changes and decomposition
# ----------------------------------------------------------------------


def convert(v: PairClass) -> AltPairClass:
    """(L^2, LK, c1^2, c2) -> (LK, chi(L), chi(O), K^2), exactly."""
    chiO = (v.c1sq + v.c2) // 12
    chiL = chiO + (v.L2 - v.LK) // 2
    return AltPairClass(v.LK, chiL, chiO, v.c1sq)


def convert_back(alt: AltPairClass) -> PairClass:
    return PairClass(
        alt.LK + 2 * (alt.chiL - alt.chiO),
        alt.LK,
        alt.Ksq,
        12 * alt.chiO - alt.Ksq,
    )


def decompose(v: PairClass) -> DecompCoefficients:
    """Coefficients of v on the standard basis.

    a1 = -L^2 + (c1^2 + c2)/3 - c2           a2 = L^2
    a3 = L^2 + (LK + L^2)/2 - (c1^2 + c2)/4 + c2
    a4 = -L^2 - (LK + L^2)/2
    """
    s = v.c1sq + v.c2
    a1 = -v.L2 + s // 3 - v.c2
    a2 = v.L2
    a3 = v.L2 + (v.LK + v.L2) // 2 - s // 4 + v.c2
    a4 = -v.L2 - (v.LK + v.L2) // 2
    coeffs = DecompCoefficients(a1, a2, a3, a4)
    if reconstruct(coeffs) != v:
        raise AssertionError(f"decomposition of {v} failed to reconstruct")
    return coeffs


def reconstruct(coeffs: DecompCoefficients) -> PairClass:
    total = PairClass(0, 0, 0, 0)
    for a, basis in zip(coeffs.as_tuple(), STANDARD_BASIS):
        total = total + PairClass(a * basis.L2, a * basis.LK, a * basis.c1sq, a * basis.c2)
    return total


def close_relation(
    v1: PairClass, v2: PairClass, dpd: DoublePointData
) -> tuple[PairClass, PairClass]:
    """The ruled correction v3 of a degeneration and the induced v0 = v1 + v2 - v3."""
    v3 = PairClass(0, -2 * dpd.degLD, 8 - 8 * dpd.gD, 4 - 4 * dpd.gD)
    v0 = v1 + v2 - v3
    return v3, v0


def is_basis(vectors) -> bool:
    """Whether four vectors span: the exact 4x4 system has a unique solution."""
    rows = [v.as_tuple() for v in vectors]
    if len(rows) != 4:
        raise ValueError("a basis test needs exactly four vectors")
    try:
        linalg.solve(rows, [0] * 4)
    except linalg.SingularMatrixError:
        return False
    return True
