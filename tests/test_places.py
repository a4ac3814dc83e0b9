"""Hilbert symbols, square classes and additive characters."""

import math
import random
from fractions import Fraction

import pytest

from locquad.places import (
    REAL,
    AdditiveCharacter,
    Place,
    Qp,
    frac_part,
    hilbert_symbol,
    hilbert_symbol_oracle,
    _is_prime,
    legendre,
    parse_rational,
    square_class,
    square_class_reps,
    valuation,
)

# values worked out by hand from the classical unit-part formulas
KNOWN_SYMBOLS = [
    (-1, -1, REAL, -1),
    (-2, -3, REAL, -1),
    (Fraction(1, 4), -9, REAL, 1),
    (-1, -1, Qp(2), -1),
    (2, 2, Qp(2), 1),
    (5, 2, Qp(2), -1),
    (3, 5, Qp(2), 1),
    (3, 3, Qp(2), -1),
    (2, 3, Qp(3), -1),
    (3, 3, Qp(3), -1),
    (5, 5, Qp(5), 1),
    (-1, 5, Qp(5), 1),
    (7, 7, Qp(7), -1),
    (2, 7, Qp(7), 1),
    (2, 11, Qp(11), -1),
]


@pytest.mark.parametrize("a,b,place,expected", KNOWN_SYMBOLS)
def test_known_symbols(a, b, place, expected):
    assert hilbert_symbol(a, b, place) == expected


def test_place_parse():
    assert Place.parse("real") is REAL
    assert Place.parse("p:7") == Qp(7)
    with pytest.raises(ValueError):
        Place.parse("p:0")
    with pytest.raises(ValueError):
        Place.parse("p:9")
    with pytest.raises(ValueError):
        Place.parse("padic:7")


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [n for n in range(10**5) if _is_prime_by_trial_division(n)]


# 2^31 - 1 and 2^61 - 1 (Mersenne), the least primes above 10^12 and 10^18,
# and the greatest prime below 2^64
LARGE_PRIMES = [2**31 - 1, 2**61 - 1, 10**12 + 39, 10**18 + 3, 2**64 - 59]
# Carmichael numbers, then the least strong pseudoprimes to the first 4, 9
# and 12 prime bases: each fools a weaker test
PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751, 3825123056546413051, 318665857834031151167461]


@pytest.mark.parametrize("n", LARGE_PRIMES)
def test_is_prime_on_large_primes(n):
    assert _is_prime(n)
    assert not _is_prime(n * LARGE_PRIMES[0])
    assert str(Place.parse(f"p:{n}")) == f"p:{n}"


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


def test_is_prime_refuses_to_certify_beyond_its_bound():
    # the least strong pseudoprime to all 13 bases the test uses: composite
    # (= 1287836182261 * 2575672364521), yet every base passes it
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="cannot certify"):
        _is_prime(psi13)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("10") == 10
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_rational("1/0")


def test_valuation_and_frac_part():
    assert valuation(Fraction(50, 3), 5) == 2
    assert valuation(Fraction(3, 50), 5) == -2
    assert frac_part(Fraction(7, 4), 2) == Fraction(3, 4)
    assert frac_part(Fraction(5), 3) == 0
    assert frac_part(Fraction(-1, 3), 3) == Fraction(2, 3)


ALL_PLACES = [REAL, Qp(2), Qp(3), Qp(5), Qp(7), Qp(13)]


@pytest.mark.parametrize("place", ALL_PLACES)
def test_symbol_laws(place):
    """Symmetry, bimultiplicativity, (a,-a)=1 and the Steinberg relation."""
    rng = random.Random(20240 + (place.p or 0))
    nonzero = [Fraction(n, d) for n in range(-9, 10) for d in range(1, 10) if n]
    for _ in range(60):
        a, b, c = (rng.choice(nonzero) for _ in range(3))
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        assert hilbert_symbol(a, b * c, place) == hilbert_symbol(
            a, b, place
        ) * hilbert_symbol(a, c, place)
        assert hilbert_symbol(a, -a, place) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, place) == 1


@pytest.mark.parametrize("place", ALL_PLACES)
def test_symbol_square_class_invariance(place):
    rng = random.Random(7)
    nonzero = [Fraction(n, d) for n in range(-9, 10) for d in range(1, 10) if n]
    for _ in range(40):
        a, b, t = (rng.choice(nonzero) for _ in range(3))
        assert hilbert_symbol(a * t * t, b, place) == hilbert_symbol(a, b, place)


def test_oracle_spot_checks():
    # exhaustive rep-pair agreement is the acceptance criterion; here a
    # few non-representative inputs exercise the reduction to reps
    for a, b, place in [
        (Fraction(12, 5), Fraction(-7, 3), Qp(3)),
        (Fraction(9, 8), Fraction(10), Qp(2)),
        (Fraction(-50), Fraction(35), Qp(5)),
        (Fraction(-2, 7), Fraction(-1, 2), REAL),
    ]:
        assert hilbert_symbol(a, b, place) == hilbert_symbol_oracle(a, b, place)


def test_oracle_budget_guard():
    with pytest.raises(ValueError):
        hilbert_symbol_oracle(1, 1, Qp(101))


def test_square_class_reps_are_inequivalent():
    for place in ALL_PLACES:
        reps = square_class_reps(place)
        classes = [square_class(r, place) for r in reps]
        assert len(set(classes)) == len(reps)
        # a rep times any square lands back on the same rep
        for r in reps:
            assert square_class(r * Fraction(49, 16), place).rep == r


def test_square_class_count():
    assert len(square_class_reps(REAL)) == 2
    assert len(square_class_reps(Qp(2))) == 8
    for p in (3, 5, 7, 13):
        assert len(square_class_reps(Qp(p))) == 4


def test_legendre():
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(-1, 13) == 1


def test_product_formula_hand_case():
    # support of (6, 10) is {2, 3, 5}; the symbols are +1, +1, +1 and +1 at R
    vals = {
        "real": hilbert_symbol(6, 10, REAL),
        "2": hilbert_symbol(6, 10, Qp(2)),
        "3": hilbert_symbol(6, 10, Qp(3)),
        "5": hilbert_symbol(6, 10, Qp(5)),
    }
    assert vals == {"real": 1, "2": 1, "3": 1, "5": 1}


def test_additive_character_phases():
    psi3 = AdditiveCharacter(Qp(3))
    assert psi3.phase(Fraction(5)) == 0
    assert psi3.phase(Fraction(1, 3)) == Fraction(1, 3)
    assert psi3.phase(Fraction(1, 9) + 2) == Fraction(1, 9)
    conj = AdditiveCharacter(Qp(3), -1)
    assert conj.phase(Fraction(1, 3)) == Fraction(2, 3)
    assert abs(psi3(Fraction(1, 3)) * conj(Fraction(1, 3)) - 1) < 1e-15


def test_additive_character_is_a_character():
    psi = AdditiveCharacter(Qp(5))
    xs = [Fraction(1, 25), Fraction(3, 5), Fraction(7, 125)]
    for x in xs:
        for y in xs:
            assert abs(psi(x + y) - psi(x) * psi(y)) < 1e-14
