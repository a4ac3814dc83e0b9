"""Hasse-Witt signs attached to symmetric matrices and their pairing law.

For an invertible diagonal A = diag(a_1, ..., a_n), the matrices X with
X A + A X^T = 0 form a space h_A of dimension n(n-1)/2: the lower
triangle is determined by x_ji = -(a_j/a_i) x_ij.  The trace form
Q(X) = Tr(X^2)/2 restricted to h_A is then diagonal in the upper
triangle coordinates, with coefficient -a_j/a_i at position (i, j),
pairs ordered lexicographically.  The pairing law verified here states
that for det A and det B in the same square class,

    hasse(Q|h_A) * hasse(Q|h_B) = (hasse(q_A) * hasse(q_B))^n,

equivalently: g(A) = hasse(Q|h_A) * hasse(q_A)^n depends only on the
square class of det A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import xor

from .forms import QuadraticForm, hasse_bit
from .places import (
    Place,
    Rational,
    SquareClass,
    class_bits,
    class_count,
    hilbert_symbol,
    pairing,
    square_class,
)

# Bound on |classes|^n * n(n+1)/2, the pairings of an exhaustive rank-n
# enumeration.  It admits n <= 5 at p = 2, n <= 7 at an odd p and n <= 13 at
# the real place, each under half a second on a 2-CPU machine.
ENUMERATION_BUDGET = 10**6


class EnumerationBudgetError(ValueError):
    """Raised before an enumeration that would exceed ENUMERATION_BUDGET."""


def stabilizer_form(q: QuadraticForm) -> QuadraticForm:
    """The trace form on {X : XA + AX^T = 0} for A = diag(q), as a diagonal form.

    Coefficients are -a_j/a_i over pairs i < j in lexicographic order;
    a 1x1 matrix yields the empty form.
    """
    a = q.coeffs
    coeffs = tuple(
        -a[j] / a[i] for i in range(len(a)) for j in range(i + 1, len(a))
    )
    return QuadraticForm(q.place, coeffs)


def epsilon_pair(qa: QuadraticForm, qb: QuadraticForm) -> int:
    """hasse(Q|h_A) * hasse(Q|h_B) for matrices with matching det class."""
    if qa.place != qb.place:
        raise ValueError("matrices live at different places")
    if qa.rank != qb.rank:
        raise ValueError("matrices must share their size")
    if qa.det_class() != qb.det_class():
        raise ValueError(
            f"determinant classes differ ({qa.det_class()} vs {qb.det_class()})"
        )
    return stabilizer_form(qa).hasse() * stabilizer_form(qb).hasse()


@dataclass(frozen=True)
class SignPropReport:
    lhs: int  # hasse(Q|h_A) * hasse(Q|h_B)
    rhs: int  # (hasse(q_A) * hasse(q_B))^n
    ok: bool


def verify_signprop(qa: QuadraticForm, qb: QuadraticForm) -> SignPropReport:
    """Check the pairing law on one pair of matrices."""
    lhs = epsilon_pair(qa, qb)
    rhs = (qa.hasse() * qb.hasse()) ** qa.rank
    return SignPropReport(lhs, rhs, lhs == rhs)


def _class_tuples(n: int, place: Place):
    """All ordered n-tuples of class bits, in square_class_reps order: the
    diagonal forms with representative entries, to which every diagonal
    matrix is congruent."""
    if n < 1:
        raise ValueError("n must be positive")
    work = class_count(place) ** n * n * (n + 1) // 2
    if work > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"rank {n} at {place} needs {work} pairings, over the budget of {ENUMERATION_BUDGET}")
    return itertools.product(range(class_count(place)), repeat=n)


def g_value(q: QuadraticForm) -> int:
    """g(A) = hasse(stabilizer form) * hasse(q_A)^n; the quantity the
    pairing law asserts is a function of the det class alone."""
    return stabilizer_form(q).hasse() * q.hasse() ** q.rank


@dataclass(frozen=True)
class CConstantReport:
    values: dict  # det-class representative -> g value
    ok: bool  # g is constant on each det class
    classes_checked: int
    matrices_checked: int


def c_constant(n: int, place: Place) -> CConstantReport:
    """Exhaustively evaluate g(A) over all diagonal matrices with
    square-class entries, grouped by det class.

    The pairing law for every same-det-class pair is equivalent to g
    being constant on each group, which is what this verifies.  On class
    bits, the stabilizer coefficient -a_j/a_i is bits(-1) ^ a_i ^ a_j.
    """
    minus_one = class_bits(-1, place)
    seen: dict = {}
    ok = True
    count = 0
    for t in _class_tuples(n, place):
        stab = [minus_one ^ t[i] ^ t[j] for i in range(n) for j in range(i + 1, n)]
        g = hasse_bit(stab, place) ^ (hasse_bit(t, place) if n % 2 else 0)
        key = reduce(xor, t)
        count += 1
        if key in seen:
            if seen[key] != g:
                ok = False
        else:
            seen[key] = g
    values = {str(SquareClass(place, k)): 1 - 2 * g for k, g in seen.items()}
    return CConstantReport(values, ok, len(values), count)


def c_constant_value(n: int, det_class: Rational, place: Place) -> int:
    """The common value of g(A) on the given det class; errors if the
    exhaustive check finds an inconsistency."""
    rep = c_constant(n, place)
    if not rep.ok:
        raise ArithmeticError("g(A) is not constant on det classes")
    key = str(square_class(det_class, place))
    if key not in rep.values:
        raise ValueError(f"no diagonal matrix realizes det class {key}")
    return rep.values[key]


def orbit_invariant(q: QuadraticForm) -> dict:
    """Congruence-orbit invariants of an invertible symmetric matrix."""
    inv = {
        "n": q.rank,
        "det_class": str(q.det_class()),
        "hasse": q.hasse(),
    }
    if q.place.is_real:
        inv["signature"] = list(q.signature())
    return inv


def sl_orbit_count(n: int, det_class: Rational, place: Place) -> int:
    """Number of congruence orbits of invertible symmetric matrices with
    the given determinant class.

    Counted by enumerating realizable invariant tuples over diagonal
    representatives: the Hasse invariant values at a p-adic place, the
    signatures at the real place.
    """
    target = square_class(det_class, place)
    target_bits = target.bits
    found = set()
    for t in _class_tuples(n, place):
        if reduce(xor, t) == target_bits:
            # the count of positive entries is the signature at the real place
            found.add(t.count(0) if place.is_real else hasse_bit(t, place))
    if not found:
        raise ValueError(f"no rank-{n} form has det class {target.rep}")
    return len(found)


def expected_orbit_count(n: int, det_class: Rational, place: Place) -> int:
    """The number of congruence orbits that sl_orbit_count must find over
    Q_p, from the classification of forms by rank, det class and Hasse
    invariant (Serre, A Course in Arithmetic, IV.2.3, Prop. 6): both Hasse
    values occur from rank 3 on, one at rank 1, and at rank 2 one when
    the det class is that of -1, both otherwise.
    """
    if place.is_real or n < 1:
        raise ValueError("the orbit table covers rank n >= 1 over Q_p")
    if n == 1 or (n == 2 and class_bits(det_class, place) == class_bits(-1, place)):
        return 1
    return 2


@dataclass(frozen=True)
class ScalingReport:
    lhs: int  # hasse(q_{tA})
    rhs: int  # (t,-1)^(n(n-1)/2) * hasse(q_A)
    invariant_before: int
    invariant_after: int
    ok: bool


def scaling_invariant(q: QuadraticForm) -> int:
    """hasse(q_A) * (det A, -1)^((n-1)/2), for odd n; unchanged under
    A -> tA.  The symbol (det A, -1) is the pairing of the XOR of the
    coefficients' class bits with those of -1."""
    if q.rank % 2 == 0:
        raise ValueError("defined for odd n")
    place = q.place
    if (q.rank - 1) // 2 % 2 and pairing(q.det_class().bits, class_bits(-1, place), place):
        return -q.hasse()
    return q.hasse()


def epsilon_scaling_check(q: QuadraticForm, t: Rational) -> ScalingReport:
    """Exact check of hasse(q_{tA}) = (t,-1)^(n(n-1)/2) hasse(q_A), n odd.

    For odd n the general scaling law loses its (t, det^(n-1)) factor
    because det^(n-1) is a square.  Also reports the derived scaled-orbit
    invariant before and after, which must agree.
    """
    t = Fraction(t)
    if q.rank % 2 == 0:
        raise ValueError("the reduced scaling law needs odd n")
    qt = q.scale(t)
    lhs = qt.hasse()
    rhs = hilbert_symbol(t, -1, q.place) ** (q.rank * (q.rank - 1) // 2) * q.hasse()
    iv0, iv1 = scaling_invariant(q), scaling_invariant(qt)
    return ScalingReport(lhs, rhs, iv0, iv1, lhs == rhs and iv0 == iv1)
