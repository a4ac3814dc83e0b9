"""Weil constants and the functional equation on ball indicators.

`gamma_rank1` and `gamma_form` answer from the closed-form Weil index of
the square class; the Gauss sum at its exact level, `gauss_gamma`, is
the oracle they are checked against, class by class.  The other tests
check the structure gamma must satisfy (root of unity, Witt
homomorphism, the Hilbert-symbol cocycle, global reciprocity, the
equation itself).
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locquad.charsum import TERM_BUDGET, BudgetError, padic_poly_sum
from locquad.forms import QuadraticForm
from locquad.places import REAL, AdditiveCharacter, Qp, hilbert_symbol, square_class_reps, valuation
from locquad.weil import (
    VALUE_TOL,
    BallIndicator,
    gamma_form,
    gamma_matches_epsilon,
    gamma_rank1,
    gauss_gamma,
    verify_weil_equation,
)

PLACES = [REAL, Qp(2), Qp(3), Qp(5), Qp(7), Qp(13), Qp(10007)]

nonzero_rationals = st.builds(
    lambda sign, num, den, pexp, p: Fraction(sign * num, den) * Fraction(p) ** pexp,
    st.sampled_from([1, -1]),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(-12, 12),
    st.sampled_from([2, 3, 5, 7, 13, 10007]),
)
places = st.sampled_from(PLACES)
signs = st.sampled_from([1, -1])
derandomized = settings(derandomize=True, max_examples=200, deadline=None)


def index(a, place, sign=1) -> int:
    return gamma_rank1(a, AdditiveCharacter(place, sign)).eighth_root_index


def test_real_rank1_closed_form():
    psi = AdditiveCharacter(REAL)
    plus = gamma_form(QuadraticForm.make([Fraction(3)], REAL), psi)
    minus = gamma_form(QuadraticForm.make([Fraction(-1, 2)], REAL), psi)
    assert abs(plus.value - cmath.exp(1j * cmath.pi / 4)) < 1e-12
    assert abs(minus.value - cmath.exp(-1j * cmath.pi / 4)) < 1e-12
    assert plus.eighth_root_index == 1
    assert minus.eighth_root_index == 7


def test_real_rank4_is_minus_one():
    psi = AdditiveCharacter(REAL)
    g = gamma_form(QuadraticForm.make([1, 1, 1, 1], REAL), psi)
    assert abs(g.value + 1) < 1e-12


def test_unit_rank1_gamma_is_one_at_q5():
    g = gamma_form(QuadraticForm.make([1], Qp(5)), AdditiveCharacter(Qp(5)))
    assert abs(g.value - 1) < 1e-10
    assert g.eighth_root_index == 0


def test_gamma_conjugates_under_psi_sign():
    for place in (Qp(3), Qp(2), REAL):
        q = QuadraticForm.make([2, place.p or -1], place)
        g = gamma_form(q, AdditiveCharacter(place, 1)).value
        h = gamma_form(q, AdditiveCharacter(place, -1)).value
        assert abs(g - h.conjugate()) < 1e-9


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eighth_root_and_square_class_invariance(p):
    place = Qp(p)
    psi = AdditiveCharacter(place)
    for a in square_class_reps(place):
        g = gamma_form(QuadraticForm.make([a], place), psi)
        assert g.root_deviation < 1e-8
        scaled = gamma_form(QuadraticForm.make([a * 9], place), psi)
        assert abs(g.value - scaled.value) < 1e-9


def test_witt_homomorphism_seeded():
    rng = random.Random(31)
    for place in (REAL, Qp(2), Qp(3), Qp(5)):
        psi = AdditiveCharacter(place)
        reps = square_class_reps(place)
        for _ in range(6):
            q = QuadraticForm.make([rng.choice(reps) for _ in range(rng.randint(1, 3))], place)
            r = QuadraticForm.make([rng.choice(reps) for _ in range(rng.randint(1, 3))], place)
            lhs = gamma_form(q.direct_sum(r), psi).value
            rhs = gamma_form(q, psi).value * gamma_form(r, psi).value
            assert abs(lhs - rhs) < 1e-9
            assert abs(gamma_form(q.direct_sum(q.neg()), psi).value - 1) < 1e-9


def test_hyperbolic_padding_fixes_gamma():
    place = Qp(3)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([2, 3], place)
    padded = q.direct_sum(QuadraticForm.make([5, -5], place))
    assert abs(gamma_form(q, psi).value - gamma_form(padded, psi).value) < 1e-9


def _exact_level(a, p) -> int:
    """m0 from the docstring of `gauss_levels`, written out again."""
    v = valuation(a, p)
    return max(1, math.ceil((v + 2) / 2) if p == 2 else math.ceil(v / 2))


def _gauss_level(a, psi, m) -> complex:
    """I_m = p^m |2a|^(1/2) integral_{Z_p} psi(a x^2 / p^(2m)), summed directly."""
    p = psi.place.p
    s, _ = padic_poly_sum([0, 0, Fraction(psi.sign) * a / Fraction(p) ** (2 * m)], p)
    return p**m * p ** (-valuation(2 * a, p) / 2) * s


def _class_multiples(p):
    """Every class representative times p^k, k = -3..4, and times a unit square."""
    unit_square = 4 if p != 2 else 9
    for a in square_class_reps(Qp(p)):
        yield a * unit_square
        for k in range(-3, 5):
            yield a * Fraction(p) ** k


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("sign", [1, -1])
def test_closed_form_equals_gauss_sum_on_every_class(p, sign):
    place = Qp(p)
    psi = AdditiveCharacter(place, sign)
    for a in _class_multiples(p):
        m0 = _exact_level(a, p)
        if p ** (2 * m0 + 2 - valuation(a, p)) > TERM_BUDGET:
            # the confirming level is over budget: a typed refusal, not a hang
            with pytest.raises(BudgetError):
                gauss_gamma(a, psi)
            continue
        oracle = gauss_gamma(a, psi)
        closed = gamma_rank1(a, psi)
        assert oracle.stabilized_at == m0, a
        assert oracle.root_deviation < 1e-9
        assert closed.eighth_root_index == oracle.eighth_root_index, a
        assert abs(closed.value - oracle.value) < VALUE_TOL
        assert closed.root_deviation == 0.0 and closed.stabilized_at is None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("sign", [1, -1])
def test_the_level_below_m0_misses(p, sign):
    """m0 is the least exact level: one level lower the sum has modulus
    p^(-1/2), p^(-1), 2^(-1/2) or 0, never that of gamma."""
    psi = AdditiveCharacter(Qp(p), sign)
    lower = 0
    for a in _class_multiples(p):
        m0 = _exact_level(a, p)
        if m0 > 1:
            lower += 1
            assert abs(_gauss_level(a, psi, m0 - 1) - gamma_rank1(a, psi).value) > 1e-3, a
    assert lower > 0


def test_the_oracle_sums_two_levels(monkeypatch):
    import locquad.charsum

    calls = []
    summed = locquad.charsum.padic_poly_sum

    def counted(coeffs, p):
        calls.append(p)
        return summed(coeffs, p)

    monkeypatch.setattr(locquad.charsum, "padic_poly_sum", counted)
    for p, a in ((2, Fraction(3, 8)), (3, Fraction(5)), (7, Fraction(2, 49)), (5, Fraction(125))):
        calls.clear()
        gauss_gamma(a, AdditiveCharacter(Qp(p)))
        assert calls == [p, p], a


def test_disagreeing_levels_raise(monkeypatch):
    import locquad.charsum

    summed = locquad.charsum.padic_poly_sum
    levels = iter([1, 1j])  # the confirming level turned by a quarter

    def skewed(coeffs, p):
        value, e = summed(coeffs, p)
        return value * next(levels), e

    monkeypatch.setattr(locquad.charsum, "padic_poly_sum", skewed)
    with pytest.raises(ArithmeticError):
        gauss_gamma(Fraction(3), AdditiveCharacter(Qp(5)))


def test_real_place_and_zero_coefficient_are_rejected():
    with pytest.raises(ValueError):
        gauss_gamma(1, AdditiveCharacter(REAL))
    with pytest.raises(ValueError):
        gamma_rank1(0, AdditiveCharacter(Qp(3)))


@derandomized
@given(a=nonzero_rationals, t=nonzero_rationals, place=places, sign=signs)
def test_gamma_depends_only_on_the_square_class(a, t, place, sign):
    assert index(a * t * t, place, sign) == index(a, place, sign)


@derandomized
@given(a=nonzero_rationals, b=nonzero_rationals, place=places, sign=signs)
def test_gamma_cocycle_is_the_hilbert_symbol(a, b, place, sign):
    # gamma(a) gamma(b) = gamma(1) gamma(ab) (a, b)
    lhs = index(a, place, sign) + index(b, place, sign)
    rhs = index(1, place, sign) + index(a * b, place, sign) + (4 if hilbert_symbol(a, b, place) == -1 else 0)
    assert (lhs - rhs) % 8 == 0


@derandomized
@given(a=nonzero_rationals, place=places)
def test_gamma_conjugates_under_the_sign_of_psi(a, place):
    assert (index(a, place, 1) + index(a, place, -1)) % 8 == 0


def _adelic_product(coeffs, padic_sign: int) -> complex:
    from locquad.suites import _support_places

    prod = 1 + 0j
    for place in _support_places(*coeffs):
        psi = AdditiveCharacter(place, 1 if place.is_real else padic_sign)
        prod *= gamma_form(QuadraticForm.make(coeffs, place), psi).value
    return prod


def test_global_reciprocity_fixes_the_padic_sign():
    rng = random.Random(11)
    wrong = 0.0
    for _ in range(30):
        coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40)) for _ in range(rng.randint(1, 3))]
        coeffs[0] *= rng.choice([1, 10007])
        assert abs(_adelic_product(coeffs, -1) - 1) < 1e-9
        wrong = max(wrong, abs(_adelic_product(coeffs, 1) - 1))
    assert wrong > 1


def test_weil_equation_rank1():
    place = Qp(3)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([Fraction(2)], place)
    ball = BallIndicator.make([Fraction(1, 3)], -1)
    rep = verify_weil_equation(q, ball, psi)
    assert rep.residual < 1e-12


def test_weil_equation_rank2_all_levels():
    place = Qp(5)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([1, Fraction(2, 5)], place)
    for level in (-1, 0, 1, 2):
        ball = BallIndicator.make([Fraction(0), Fraction(1, 5)], level)
        rep = verify_weil_equation(q, ball, psi)
        assert rep.residual < 1e-11, level


def test_weil_equation_gamma_agrees_with_gamma_form():
    place = Qp(7)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([7, 2], place)
    rep = verify_weil_equation(q, BallIndicator.make([0, 0], 1), psi)
    assert abs(rep.gamma.value - gamma_form(q, psi).value) < 1e-9


def test_weil_equation_preconditions():
    place = Qp(3)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([1, 2], place)
    with pytest.raises(ValueError):
        verify_weil_equation(q, BallIndicator.make([0], 0), psi)
    with pytest.raises(ValueError):
        verify_weil_equation(
            QuadraticForm.make([1], REAL),
            BallIndicator.make([0], 0),
            AdditiveCharacter(REAL),
        )


def test_gamma_epsilon_on_equal_pair():
    place = Qp(5)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([2, 5, 1], place)
    rep = gamma_matches_epsilon(q, q, psi)
    assert rep.ok
    assert rep.epsilon == 1
    assert abs(rep.gamma_ratio - 1) < 1e-9


def test_gamma_epsilon_requires_level_two():
    place = Qp(5)
    psi = AdditiveCharacter(place)
    q = QuadraticForm.make([1], place)
    r = QuadraticForm.make([1, 1], place)  # rank parity differs: level 0
    with pytest.raises(ValueError):
        gamma_matches_epsilon(q, r, psi)
    # equal rank but different determinant class: level 1
    with pytest.raises(ValueError):
        gamma_matches_epsilon(q, QuadraticForm.make([2], place), psi)


def test_gamma_epsilon_seeded_pairs():
    rng = random.Random(5)
    place = Qp(3)
    psi = AdditiveCharacter(place)
    reps = square_class_reps(place)
    found = 0
    while found < 10:
        q = QuadraticForm.make([rng.choice(reps) for _ in range(2)], place)
        r = QuadraticForm.make([rng.choice(reps) for _ in range(2)], place)
        from locquad.forms import witt_filtration_level

        if witt_filtration_level(q, r)[0] < 2:
            continue
        assert gamma_matches_epsilon(q, r, psi).ok
        found += 1


@pytest.mark.parametrize("place", [REAL, Qp(2), Qp(3), Qp(7)], ids=str)
def test_level2_pairs_keep_what_the_filtration_keeps(place):
    # the class-bit XOR keeps the same draws as witt_filtration_level on
    # the built forms, from the same calls on the same generator
    from locquad.forms import witt_filtration_level
    from locquad.suites import _level2_pairs

    rng = random.Random(11)
    reps = square_class_reps(place)
    want = []
    while len(want) < 30:
        n, k = rng.randint(1, 4), rng.choice([0, 1, 2])
        q = QuadraticForm.make([rng.choice(reps) for _ in range(n)], place)
        r = QuadraticForm.make([rng.choice(reps) for _ in range(n + 2 * k)], place)
        if witt_filtration_level(q, r)[0] >= 2:
            want.append((q, r))
    assert _level2_pairs(random.Random(11), place, 30) == want


def test_weil_gamma_gates_are_the_module_constants(monkeypatch):
    import locquad.suites
    import locquad.weil

    assert (locquad.weil.ROOT_TOL, locquad.weil.VALUE_TOL) == (1e-6, 1e-9)
    # moved constants move the case texts: no copy of a tolerance is left
    monkeypatch.setattr(locquad.suites, "ROOT_TOL", 1e-3)
    monkeypatch.setattr(locquad.suites, "VALUE_TOL", 1e-5)
    report = locquad.suites.suite_weil_gamma(place=Qp(3))
    expected = {c.name.removeprefix("p:3: "): c.expected for c in report.cases}
    for name in ("eighth-root property", "gamma ratio = relative Hasse on 20 level-2 pairs"):
        assert "within 1e-3" in expected[name] or "< 1e-3" in expected[name], name
    for name in ("closed form = Gauss sum", "level m0 = level m0 + 1", "hyperbolic padding", "gamma(q + (-q)) = 1"):
        assert "within 1e-5" in expected[name], name


def test_real_gamma_against_fresnel_integrals():
    """A second route to gamma at R: FT(psi(a x^2))(0) = gamma |2a|^(-1/2),
    and x -> x/sqrt|a| turns the left side into |a|^(-1/2) times
    2 (C + i s sign(a) S), with C and S the Fresnel integrals of cos(2 pi x^2)
    and sin(2 pi x^2) over (0, inf), summed by mpmath without the closed form."""
    import mpmath

    with mpmath.workdps(20):
        zeros = lambda n: mpmath.sqrt(n / mpmath.mpf(2))  # noqa: E731  zeros of sin(2 pi x^2)
        C = complex(mpmath.quadosc(lambda x: mpmath.cos(2 * mpmath.pi * x * x), [0, mpmath.inf], zeros=zeros))
        S = complex(mpmath.quadosc(lambda x: mpmath.sin(2 * mpmath.pi * x * x), [0, mpmath.inf], zeros=zeros))
    for a in (Fraction(1), Fraction(-1), Fraction(3), Fraction(-1, 5)):
        for sign in (1, -1):
            sigma = sign * (1 if a > 0 else -1)
            transform = abs(a) ** -0.5 * 2 * (C + 1j * sigma * S)
            by_quadrature = transform * abs(2 * a) ** 0.5
            assert abs(gamma_rank1(a, AdditiveCharacter(REAL, sign)).value - by_quadrature) < 1e-12
