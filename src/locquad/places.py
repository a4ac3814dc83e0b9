"""Exact arithmetic at the places of the rational field.

A *place* is the real place or a p-adic place.  All arithmetic is done
on exact rationals (`fractions.Fraction`); a rational is regarded as an
element of the completion and the functions here compute valuations,
square classes, Hilbert symbols and additive characters without
rounding.  Floating point appears only when a character value is
finally turned into a complex number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction | int


def parse_rational(s) -> Fraction:
    """Parse "n", "n/d" or a number into an exact rational."""
    if isinstance(s, (Fraction, int)):
        return Fraction(s)
    return Fraction(str(s).strip())


# Miller-Rabin with the first 13 primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster 2017, after
# Jaeschke 1993): 3317044064679887385961981, about 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    A witness proves n composite at any size; a strong probable prime is
    certified only below _MR_EXACT_BELOW, and above it ValueError is
    raised rather than a verdict that could be wrong.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot certify that {n} is prime: the primality test is exact only below {_MR_EXACT_BELOW}")
    return True


@dataclass(frozen=True)
class Place:
    """The real place (p is None) or the p-adic place for a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "real" if self.p is None else f"p:{self.p}"

    @staticmethod
    def parse(s: str) -> "Place":
        s = s.strip()
        if s == "real":
            return REAL
        if s.startswith("p:"):
            return Place(int(s[2:]))
        raise ValueError(f"bad place {s!r}; expected 'real' or 'p:<prime>'")


REAL = Place(None)


def Qp(p: int) -> Place:
    return Place(p)


def valuation(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def padic_abs(x: Rational, place: Place) -> Fraction:
    """Normalized absolute value |x| at the place, exact for x rational."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if place.is_real:
        return abs(x)
    return Fraction(1, place.p) ** valuation(x, place.p)


def unit_part_mod(x: Rational, p: int, modulus: int) -> int:
    """The unit part x / p^v(x) reduced mod `modulus` (coprime to p)."""
    x = Fraction(x)
    v = valuation(x, p)
    x = x / Fraction(p) ** v
    num, den = x.numerator, x.denominator
    return num * pow(den, -1, modulus) % modulus


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd p, a coprime to p."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(f"{a} is divisible by {p}")


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime."""
    for u in range(2, p):
        if legendre(u, p) == -1:
            return u
    raise ValueError("no non-residue found (p must be an odd prime)")


# Canonical unit representatives for Q_2* / (Q_2*)^2, keyed by u mod 8.
_UNIT_REP_MOD8 = {1: 1, 3: -5, 5: 5, 7: -1}


@dataclass(frozen=True)
class SquareClass:
    """A class in E*/(E*)^2, stored by its canonical representative.

    Representatives: {1, -1} at the real place; {1, u, p, u*p} with u the
    least non-residue at an odd p; {±1, ±2, ±5, ±10} at p = 2.
    """

    place: Place
    rep: Fraction

    @staticmethod
    def of(x: Rational, place: Place) -> "SquareClass":
        x = Fraction(x)
        if x == 0:
            raise ValueError("0 has no square class")
        if place.is_real:
            return SquareClass(place, Fraction(1 if x > 0 else -1))
        p = place.p
        v = valuation(x, p) % 2
        if p == 2:
            u = unit_part_mod(x, 2, 8)
            rep = _UNIT_REP_MOD8[u] * 2**v
        else:
            u = unit_part_mod(x, p, p)
            rep = (least_nonresidue(p) if legendre(u, p) == -1 else 1) * p**v
        return SquareClass(place, Fraction(rep))

    def is_trivial(self) -> bool:
        return self.rep == 1

    def __str__(self) -> str:
        return str(self.rep)


def square_class(x: Rational, place: Place) -> SquareClass:
    return SquareClass.of(x, place)


def square_class_reps(place: Place) -> list[Fraction]:
    """All canonical square-class representatives at the place."""
    if place.is_real:
        return [Fraction(1), Fraction(-1)]
    p = place.p
    if p == 2:
        return [Fraction(r) for r in (1, -1, 5, -5, 2, -2, 10, -10)]
    u = least_nonresidue(p)
    return [Fraction(r) for r in (1, u, p, u * p)]


def hilbert_symbol(a: Rational, b: Rational, place: Place) -> int:
    """Hilbert symbol (a, b) at the place, computed by closed form.

    At an odd p, with a = p^alpha * u_a and b = p^beta * u_b,
        (a, b) = (-1|p)^(alpha*beta) * (u_a|p)^beta * (u_b|p)^alpha.
    At p = 2 the symbol is (-1)^(eps(u_a)eps(u_b) + alpha w(u_b) + beta w(u_a))
    with eps(u) = (u-1)/2 and w(u) = (u^2-1)/8 read off u mod 8.
    At the real place it is -1 exactly when both arguments are negative.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    alpha, beta = valuation(a, p), valuation(b, p)
    if p == 2:
        ua, ub = unit_part_mod(a, 2, 8), unit_part_mod(b, 2, 8)
        eps_a, eps_b = (ua - 1) // 2 % 2, (ub - 1) // 2 % 2
        w_a, w_b = (ua * ua - 1) // 8 % 2, (ub * ub - 1) // 8 % 2
        e = eps_a * eps_b + alpha * w_b + beta * w_a
    else:
        ua, ub = unit_part_mod(a, p, p), unit_part_mod(b, p, p)
        e = 0
        if alpha * beta % 2 and legendre(-1, p) == -1:
            e += 1
        if beta % 2 and legendre(ua, p) == -1:
            e += 1
        if alpha % 2 and legendre(ub, p) == -1:
            e += 1
    return -1 if e % 2 else 1


def hilbert_symbol_oracle(a: Rational, b: Rational, place: Place) -> int:
    """Hilbert symbol decided by an exhaustive lattice search.

    Tests solvability of z^2 = a x^2 + b y^2 mod p^K in primitive triples,
    K = 3 for odd p and K = 6 for p = 2.  Arguments are first replaced by
    their canonical square-class representatives, which have valuation 0
    or 1; a primitive solution then forces x or y to be a unit, and mod
    p^K solvability with a unit coordinate lifts by Hensel's lemma, so
    the search is exact.  Independent of hilbert_symbol: no symbol
    formula is consulted.
    """
    if place.is_real:
        a, b = Fraction(a), Fraction(b)
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    ra = int(SquareClass.of(a, place).rep)
    rb = int(SquareClass.of(b, place).rep)
    K = 6 if p == 2 else 3
    q = p**K
    if q * q > 10**8:
        raise ValueError(f"oracle lattice too large for p={p}")
    # the only numpy user in this module: the exact paths never load it
    import numpy as np

    z = np.arange(q, dtype=np.int64)
    is_square = np.zeros(q, dtype=bool)
    is_square[(z * z) % q] = True
    sq = (z * z) % q
    ax2 = (ra % q) * sq % q
    by2 = (rb % q) * sq % q
    unit = z % p != 0
    total = (ax2[:, None] + by2[None, :]) % q
    primitive = unit[:, None] | unit[None, :]
    return 1 if bool((is_square[total] & primitive).any()) else -1


def frac_part(x: Rational, p: int) -> Fraction:
    """p-adic fractional part: the unique a/p^k in [0,1) with x - a/p^k
    integral at p."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = valuation(x, p)
    if v >= 0:
        return Fraction(0)
    k = -v
    pk = p**k
    num = x.numerator
    den = x.denominator
    den_unit = den // pk
    return Fraction(num * pow(den_unit, -1, pk) % pk, pk)


@dataclass(frozen=True)
class AdditiveCharacter:
    """Standard additive character of the completion.

    p-adic: psi(x) = exp(sign * 2 pi i {x}_p) with {.}_p the p-adic
    fractional part; real: psi(x) = exp(sign * 2 pi i x).  The conductor
    is Z_p in the p-adic case for either sign.
    """

    place: Place
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def phase(self, x: Rational) -> Fraction:
        """Exact rational t in [0, 1) with value exp(2 pi i t)."""
        x = Fraction(x) * self.sign
        if self.place.is_real:
            return x - math.floor(x)
        return frac_part(x, self.place.p) if x else Fraction(0)

    def __call__(self, x: Rational) -> complex:
        t = self.phase(x)
        return cmath.exp(2j * cmath.pi * float(t))
