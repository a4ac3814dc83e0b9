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


def reduce_mod_prime_power(x: Fraction, p: int, e: int) -> int:
    """x mod p^e for a rational x integral at p (prime-to-p denominator
    is inverted mod p^e)."""
    pe = p**e
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not integral at {p}")
    return num * pow(den, -1, pe) % pe


def unit_part_mod(x: Rational, p: int, k: int) -> int:
    """The unit part x / p^v(x) reduced mod p^k."""
    x = Fraction(x)
    return reduce_mod_prime_power(x / Fraction(p) ** valuation(x, p), p, k)


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


# E*/(E*)^2 is a vector space over F2 and the Hilbert symbol a bilinear
# form on it (Serre, A Course in Arithmetic, II.3.3 and III.1-2).  A class
# is stored as its coordinate bits, lowest first: at the real place the
# sign; at an odd p the Legendre bit of the unit part (1 for a non-residue),
# then v mod 2; at p = 2, eps(u) = (u - 1)/2 and w(u) = (u^2 - 1)/8 mod 2 of
# the unit part u, then v mod 2.  The valuation bit is the top one, so the
# bits of a class are its index in square_class_reps.


def class_bits(x: Rational, place: Place) -> int:
    """The square class of a nonzero rational at the place, as F2 bits."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no square class")
    if place.is_real:
        return int(x < 0)
    p = place.p
    v = valuation(x, p)
    # the unit part times the square of its denominator: the same class
    u = x.numerator * x.denominator // p ** abs(v)
    if p == 2:
        u %= 8
        return (u >> 1) & 1 | (((u >> 1) ^ (u >> 2)) & 1) << 1 | (v & 1) << 2
    return int(legendre(u, p) == -1) | (v & 1) << 1


def class_bits_array(x, place: Place):
    """Class bits and valuations of an int64 array at an odd p.

    Zero entries read as the trivial class with valuation 0; callers mask
    them.  The valuations come along because array callers weigh by |x|.
    """
    import numpy as np

    p = place.p
    if place.is_real or p == 2 or p >= 1 << 31:
        raise ValueError(f"the array encoder needs an odd p < 2^31 (its squares stay in int64), not {place}")

    def rem(a):
        # x - x // p * p is x % p for every int64 x (floor division; any
        # wrap of the product cancels in the difference), and numpy's //
        # by a scalar goes through libdivide, unlike its %
        return a - a // p * p

    unit = np.array(x, dtype=np.int64)  # a copy, divided down in place
    v = np.zeros(unit.shape, dtype=np.int64)
    # p is divided out only where it still divides, through flat views of
    # both arrays: the index set shrinks by about a factor p per pass
    flat, vflat = unit.reshape(-1), v.reshape(-1)
    idx = np.flatnonzero((flat != 0) & (rem(flat) == 0))
    while idx.size:
        u = flat[idx] // p
        flat[idx] = u
        vflat[idx] += 1
        idx = idx[rem(u) == 0]
    # Euler's criterion, u^((p-1)/2) mod p by square-and-multiply; the
    # products stay below p^2 < 2^62, and no pass multiplies by 1 or
    # squares a power it will not use
    base, r, e = rem(flat), None, (p - 1) // 2
    while e:
        if e & 1:
            r = base if r is None else rem(r * base)
        e >>= 1
        if e:
            base = rem(base * base)
    return (r == p - 1).reshape(v.shape).astype(np.int64) | (v & 1) << 1, v


def pairing(a, b, place: Place):
    """The Hilbert symbol on class bits: 1 where (a, b) = -1, else 0.

    Only &, ^ and >> are used, so a and b may be ints or numpy integer
    arrays.  In the bits of class_bits (Serre III.1 Thm 1-2): real, s_a s_b;
    odd p, v_a l_b + l_a v_b, plus v_a v_b when p = 3 mod 4; p = 2,
    eps_a eps_b + v_a w_b + w_a v_b.
    """
    if place.is_real:
        return a & b & 1
    if place.p == 2:
        return ((a & b) ^ ((a >> 2) & (b >> 1)) ^ ((a >> 1) & (b >> 2))) & 1
    e = ((a >> 1) & b) ^ (a & (b >> 1))
    if place.p % 4 == 3:
        e ^= (a >> 1) & (b >> 1)
    return e & 1


def class_count(place: Place) -> int:
    """|E*/(E*)^2|: 2 at the real place, 8 at p = 2, 4 at an odd p."""
    if place.is_real:
        return 2
    return 8 if place.p == 2 else 4


@dataclass(frozen=True)
class SquareClass:
    """A class in E*/(E*)^2, stored by its canonical representative.

    Representatives: {1, -1} at the real place; {1, u, p, u*p} with u the
    least non-residue at an odd p; {±1, ±5, ±2, ±10} at p = 2.
    """

    place: Place
    rep: Fraction

    @staticmethod
    def of(x: Rational, place: Place) -> "SquareClass":
        return SquareClass.from_bits(class_bits(x, place), place)

    @staticmethod
    def from_bits(bits: int, place: Place) -> "SquareClass":
        if place.is_real:
            return SquareClass(place, Fraction(-1 if bits else 1))
        p = place.p
        if p == 2:
            return SquareClass(place, Fraction((1, -1, 5, -5)[bits & 3] * (2 if bits & 4 else 1)))
        return SquareClass(place, Fraction((least_nonresidue(p) if bits & 1 else 1) * (p if bits & 2 else 1)))

    @property
    def bits(self) -> int:
        return class_bits(self.rep, self.place)

    def is_trivial(self) -> bool:
        return self.rep == 1

    def __str__(self) -> str:
        return str(self.rep)


def square_class(x: Rational, place: Place) -> SquareClass:
    return SquareClass.of(x, place)


def square_class_reps(place: Place) -> list[Fraction]:
    """All canonical square-class representatives, indexed by class bits."""
    return [SquareClass.from_bits(bits, place).rep for bits in range(class_count(place))]


def hilbert_symbol(a: Rational, b: Rational, place: Place) -> int:
    """Hilbert symbol (a, b) at the place: the pairing of their class bits."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    return -1 if pairing(class_bits(a, place), class_bits(b, place), place) else 1


def hilbert_symbol_oracle(a: Rational, b: Rational, place: Place) -> int:
    """Hilbert symbol decided by an exhaustive lattice search.

    Tests solvability of z^2 = a x^2 + b y^2 mod q = p^K in primitive
    triples, K = 3 for odd p and K = 6 for p = 2.  Arguments are first
    replaced by p^(v mod 2) times their unit part mod q, in the same square
    class and of valuation 0 or 1.  A primitive solution has x or y a unit:
    were both divisible by p, z^2 = a x^2 + b y^2 = 0 mod p would make z a
    non-unit too.  Scaling by the inverse of that unit, a solution exists
    exactly when a + b s or a s + b lies in S for some s in S, the set of
    squares mod q; so one pass over S stands in for the q x q table of
    pairs (x, y).  Mod q solvability with a unit coordinate lifts by
    Hensel's lemma, so the search is exact.  Independent of hilbert_symbol:
    neither class bits nor a symbol formula is consulted.
    """
    if place.is_real:
        a, b = Fraction(a), Fraction(b)
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    K = 6 if p == 2 else 3
    q = p**K
    if q > 10**6:
        raise ValueError(f"oracle lattice too large for p={p}")
    ra, rb = (p ** (valuation(x, p) % 2) * unit_part_mod(x, p, K) for x in (a, b))
    squares = {z * z % q for z in range(q // 2 + 1)}  # z and q - z share a square
    solvable = any((ra + rb * s) % q in squares or (ra * s + rb) % q in squares for s in squares)
    return 1 if solvable else -1


def frac_part(x: Rational, p: int) -> Fraction:
    """p-adic fractional part: the unique a/p^k in [0,1) with x - a/p^k
    integral at p."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = valuation(x, p)
    if v >= 0:
        return Fraction(0)
    pk = p**-v
    return Fraction(reduce_mod_prime_power(x * pk, p, -v), pk)


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
