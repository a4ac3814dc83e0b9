"""The square-class core: class bits, the pairing on them, the prefix
Hasse invariant and the array encoder, each against an independent route."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locquad.places
from locquad.forms import QuadraticForm, hasse_bit
from locquad.places import (
    REAL,
    Qp,
    SquareClass,
    class_bits,
    class_bits_array,
    class_count,
    hilbert_symbol,
    hilbert_symbol_oracle,
    pairing,
    square_class,
    square_class_reps,
    valuation,
)

PLACES = [REAL, Qp(2), Qp(3), Qp(5), Qp(7), Qp(13), Qp(10007)]
ORACLE_PLACES = [REAL, Qp(2), Qp(3), Qp(5), Qp(7), Qp(13)]

nonzero_rationals = st.builds(
    lambda sign, num, den, pexp, p: Fraction(sign * num, den) * Fraction(p) ** pexp,
    st.sampled_from([1, -1]),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(-12, 12),
    st.sampled_from([2, 3, 5, 7, 13, 10007]),
)
derandomized = settings(derandomize=True, max_examples=200, deadline=None)


def pairwise_hasse(coeffs, place) -> int:
    """The definition: the product of (a_i, a_j) over all pairs i < j."""
    eps = 1
    for a, b in itertools.combinations(coeffs, 2):
        eps *= hilbert_symbol(a, b, place)
    return eps


@pytest.mark.parametrize("place", PLACES, ids=str)
def test_pairing_is_symmetric_and_bilinear(place):
    classes = range(class_count(place))
    for a, b, c in itertools.product(classes, repeat=3):
        assert pairing(a, b, place) == pairing(b, a, place)
        assert pairing(a ^ b, c, place) == pairing(a, c, place) ^ pairing(b, c, place)


@pytest.mark.parametrize("place", PLACES, ids=str)
def test_class_bits_index_the_representatives(place):
    for bits, rep in enumerate(square_class_reps(place)):
        assert SquareClass(place, bits).rep == rep
        assert class_bits(rep, place) == bits
        assert square_class(rep * Fraction(9, 49), place) == SquareClass(place, bits)
    rng = random.Random(0)
    coeffs = tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(12))
    q = QuadraticForm(place, coeffs)
    assert q.bits == tuple(class_bits(c, place) for c in coeffs)
    # the cached bits are no field, so a form's payload and equality ignore them
    assert [f.name for f in dataclasses.fields(q)] == ["place", "coeffs"]
    assert q == QuadraticForm(place, coeffs)


@derandomized
@given(a=nonzero_rationals, b=nonzero_rationals, place=st.sampled_from(ORACLE_PLACES))
def test_symbol_equals_oracle(a, b, place):
    assert hilbert_symbol(a, b, place) == hilbert_symbol_oracle(a, b, place)


@derandomized
@given(
    coeffs=st.lists(nonzero_rationals, max_size=12),
    place=st.sampled_from(PLACES),
    seed=st.integers(0, 2**32),
)
def test_prefix_hasse_is_the_pairwise_product_and_an_invariant(coeffs, place, seed):
    q = QuadraticForm(place, tuple(coeffs))
    assert q.hasse() == pairwise_hasse(coeffs, place)
    rng = random.Random(seed)
    shuffled = list(coeffs)
    rng.shuffle(shuffled)
    scaled = [c * Fraction(rng.randint(1, 50), rng.randint(1, 50)) ** 2 for c in shuffled]
    assert QuadraticForm(place, tuple(scaled)).hasse() == q.hasse()


@derandomized
@given(coeffs=st.lists(nonzero_rationals, max_size=12), place=st.sampled_from(PLACES))
def test_xor_det_class_is_the_class_of_the_product(coeffs, place):
    q = QuadraticForm(place, tuple(coeffs))
    assert q.det_class() == square_class(q.det(), place)


def test_hasse_bit_takes_arrays():
    place = Qp(7)
    rng = np.random.default_rng(5)
    columns = [rng.integers(0, class_count(place), size=50) for _ in range(4)]
    got = hasse_bit(columns, place)
    for row, bit in zip(zip(*columns), got):
        assert bit == hasse_bit([int(c) for c in row], place)


INT64_ENDS = (-(2**63) + 1, 2**63 - 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    xs=st.lists(st.integers(*INT64_ENDS) | st.sampled_from((0, *INT64_ENDS)), min_size=1, max_size=40),
    vpow=st.integers(0, 20),
    # 2^31 - 1 is the largest p the encoder takes
    p=st.sampled_from([3, 5, 7, 13, 10007, 2**31 - 1]),
)
def test_array_encoder_equals_the_scalar_one(xs, vpow, p):
    place = Qp(p)
    # multiply some entries by a power of p, staying inside int64
    xs = [x * p**vpow if abs(x * p**vpow) < 2**63 else x for x in xs]
    # zero reads as the trivial class with valuation 0
    want_bits = [class_bits(x, place) if x else 0 for x in xs]
    want_v = [valuation(x, p) if x else 0 for x in xs]
    bits, v = class_bits_array(np.array(xs, dtype=np.int64), place)
    assert bits.tolist() == want_bits
    assert v.tolist() == want_v
    # a stack keeps its shape, entry for entry
    stack = np.array([xs, xs[::-1]], dtype=np.int64)
    bits, v = class_bits_array(stack, place)
    assert bits.tolist() == [want_bits, want_bits[::-1]]
    assert v.tolist() == [want_v, want_v[::-1]]


def test_array_encoder_refuses_real_and_dyadic_places():
    for place in (REAL, Qp(2)):
        with pytest.raises(ValueError):
            class_bits_array(np.array([1, 2, 3]), place)


@pytest.mark.parametrize("place", ORACLE_PLACES, ids=str)
def test_oracle_needs_no_encoder(monkeypatch, place):
    reps = square_class_reps(place)
    symbols = {(a, b): hilbert_symbol(a, b, place) for a in reps for b in reps}

    def broken(x, place):
        raise AssertionError("the oracle consulted the class bits")

    monkeypatch.setattr(locquad.places, "class_bits", broken)
    with pytest.raises(AssertionError):
        square_class(reps[0], place)
    for (a, b), symbol in symbols.items():
        assert hilbert_symbol_oracle(a, b, place) == symbol
