"""Nondegenerate quadratic forms over a local field and their invariants.

Forms are kept diagonal, q = <a_1, ..., a_n> meaning sum a_i x_i^2 with
exact rational coefficients.  Symmetric matrices are reduced to diagonal
shape by symmetric Gaussian elimination over Q, which preserves the
determinant and hence every invariant computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import xor

from .places import (
    Place,
    Rational,
    SquareClass,
    class_bits,
    pairing,
    parse_rational,
)


def hasse_bit(classes, place: Place):
    """Exponent bit of the Hasse-Witt invariant of <a_1, ..., a_n> from the
    class bits of the a_i (ints or numpy integer arrays).  By bilinearity,
    prod_{i<j} (a_i, a_j) = prod_j (a_1 ... a_{j-1}, a_j): one pairing each.
    """
    e = prefix = 0
    for c in classes:
        e ^= pairing(prefix, c, place)
        prefix ^= c
    return e


@dataclass(frozen=True)
class QuadraticForm:
    """Diagonal nondegenerate quadratic form at a fixed place."""

    place: Place
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        if any(c == 0 for c in cs):
            raise ValueError("coefficients must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def make(coeffs, place: Place) -> "QuadraticForm":
        return QuadraticForm(place, tuple(parse_rational(c) for c in coeffs))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def det(self) -> Fraction:
        d = Fraction(1)
        for c in self.coeffs:
            d *= c
        return d

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """The class bits of the coefficients, encoded once per form."""
        return tuple(class_bits(c, self.place) for c in self.coeffs)

    def det_class(self) -> SquareClass:
        return SquareClass(self.place, reduce(xor, self.bits, 0))

    def hasse(self) -> int:
        """Hasse-Witt invariant: product of (a_i, a_j) over pairs i < j.

        Rank 0 and rank 1 forms have invariant +1 (empty product).
        """
        return -1 if hasse_bit(self.bits, self.place) else 1

    def signature(self) -> tuple[int, int]:
        """(positives, negatives); real place only."""
        if not self.place.is_real:
            raise ValueError("signature is defined at the real place")
        pos = sum(1 for c in self.coeffs if c > 0)
        return pos, len(self.coeffs) - pos

    def scale(self, t: Rational) -> "QuadraticForm":
        t = Fraction(t)
        if t == 0:
            raise ValueError("scaling by zero degenerates the form")
        return QuadraticForm(self.place, tuple(t * c for c in self.coeffs))

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_place(other)
        return QuadraticForm(self.place, self.coeffs + other.coeffs)

    def tensor(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_place(other)
        return QuadraticForm(
            self.place, tuple(a * b for a in self.coeffs for b in other.coeffs)
        )

    def neg(self) -> "QuadraticForm":
        return self.scale(-1)

    def _check_place(self, other: "QuadraticForm"):
        if self.place != other.place:
            raise ValueError("forms live at different places")

    def __str__(self) -> str:
        return "<" + ", ".join(str(c) for c in self.coeffs) + ">"


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    det_rep: Fraction
    hasse: int
    signature: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        d = {"rank": self.rank, "det_class": str(self.det_rep), "hasse": self.hasse}
        if self.signature is not None:
            d["signature"] = list(self.signature)
        return d


def invariants(q: QuadraticForm) -> FormInvariants:
    """The complete local invariant tuple of a nondegenerate form."""
    sig = q.signature() if q.place.is_real else None
    return FormInvariants(q.rank, q.det_class().rep, q.hasse(), sig)


def equivalent(q: QuadraticForm, r: QuadraticForm) -> bool:
    """Equivalence over the completion.

    p-adic: equal rank, determinant class and Hasse-Witt invariant.
    Real: equal signature.
    """
    q._check_place(r)
    if q.place.is_real:
        return q.signature() == r.signature()
    return (
        q.rank == r.rank
        and q.det_class() == r.det_class()
        and q.hasse() == r.hasse()
    )


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix with exact rational entries; q(x) = x^T A x."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def make(rows) -> "SymMatrix":
        return SymMatrix(tuple(tuple(parse_rational(e) for e in row) for row in rows))

    @staticmethod
    def diag(coeffs) -> "SymMatrix":
        cs = [parse_rational(c) for c in coeffs]
        n = len(cs)
        return SymMatrix(
            tuple(
                tuple(cs[i] if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def congruent_by(self, g: list[list]) -> "SymMatrix":
        """g^T A g for an integer (or rational) matrix g.

        A = A'/dA and g = g'/dg over common denominators, so the product is
        the integer matrix g'^T A' g' divided once per entry by dA dg^2.
        """
        n = self.n
        g = [[Fraction(e) for e in row] for row in g]
        da = math.lcm(*(e.denominator for row in self.entries for e in row))
        dg = math.lcm(*(e.denominator for row in g for e in row))
        a = [[e.numerator * (da // e.denominator) for e in row] for row in self.entries]
        g = [[e.numerator * (dg // e.denominator) for e in row] for row in g]
        ag = [[sum(a[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        d = da * dg * dg
        return SymMatrix(
            tuple(
                tuple(Fraction(sum(g[k][i] * ag[k][j] for k in range(n)), d) for j in range(n))
                for i in range(n)
            )
        )


def diagonalize(A: SymMatrix, place: Place) -> tuple[QuadraticForm, int]:
    """Diagonalize x^T A x by symmetric row/column elimination.

    Returns (form, radical_dim).  A zero pivot with a nonzero
    off-diagonal partner is repaired by adding row+column j into
    row+column i; rows that vanish entirely go to the radical.  Every
    step is a congruence A -> P^T A P with det P = +-1 (swapping two
    rows and columns, or adding a multiple of one to another), so with
    a zero radical det(form) = det(A) exactly, and a nonzero radical
    means det(A) = 0.
    """
    n = A.n
    a = [list(row) for row in A.entries]

    def add_row_col(i, j, t):
        for c in range(n):
            a[i][c] += t * a[j][c]
        for r in range(n):
            a[r][i] += t * a[r][j]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    diag = []
    radical = 0
    for i in range(n):
        if a[i][i] == 0:
            k = next((k for k in range(i + 1, n) if a[k][k] != 0), None)
            if k is not None:
                swap(i, k)
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    radical += 1
                    continue
                # all lower-right diagonal entries vanish here, so the
                # repaired pivot is 2*a[i][j] != 0
                add_row_col(i, j, Fraction(1))
        piv = a[i][i]
        for r in range(i + 1, n):
            if a[r][i] != 0:
                add_row_col(r, i, -a[r][i] / piv)
        diag.append(piv)
    return QuadraticForm(place, tuple(diag)), radical


def form_of_matrix(A: SymMatrix, place: Place) -> QuadraticForm:
    """Diagonal form of a nondegenerate symmetric matrix."""
    q, rad = diagonalize(A, place)
    if rad:
        raise ValueError("matrix is degenerate")
    return q


# --- Witt group operations, at the level of invariant data ---


def witt_filtration_level(q: QuadraticForm, r: QuadraticForm):
    """Position of (q) - (r) in the fundamental-ideal filtration.

    Returns (level, w2_class) with level in {0, 1, 2}; level 2 means "at
    least 2".  The difference lies in W^1 iff the ranks agree mod 2.  Its
    image in W^1/W^2 is the determinant ratio *after padding the shorter
    form with hyperbolic planes to equal rank*: each plane <1, -1>
    contributes det -1, so the image is det(q) * det(r) * (-1)^k with
    2k = rank(q) - rank(r).  At level >= 2, w2_class is the relative
    Hasse-Witt invariant of the padded pair, which for equal ranks is
    just hasse(q) * hasse(r).  Both are read from the class bits: the
    image is their XOR, and a plane pads the shorter form with the bits
    of 1 and -1.
    """
    q._check_place(r)
    place = q.place
    if (q.rank - r.rank) % 2 != 0:
        return 0, None
    if q.rank < r.rank:
        q, r = r, q
    k = (q.rank - r.rank) // 2
    minus_one = class_bits(-1, place)
    if reduce(xor, q.bits + r.bits, (k & 1) * minus_one):
        return 1, None
    w2 = hasse_bit(q.bits, place) ^ hasse_bit(r.bits + (0, minus_one) * k, place)
    return 2, -1 if w2 else 1
