"""Exact p-adic oscillatory integrals against the critical-point model."""

import cmath
from fractions import Fraction

import pytest

from locquad.places import Qp, REAL, frac_part
from locquad.stationary import (
    PREDICTION_TOL,
    DegenerateCriticalPointError,
    PhasePolynomial,
    compare_stationary,
    critical_points,
    exact_oscillatory_integral,
    stationary_phase_prediction,
)
from locquad import stationary


def brute_integral(f, t, K):
    """Plain grid sum over Z_p mod p^K; the independent oracle."""
    p = f.place.p
    if f.nvars == 1:
        pts = [(x,) for x in range(p**K)]
    else:
        pts = [(x, y) for x in range(p**K) for y in range(p**K)]
    total = 0j
    for pt in pts:
        total += cmath.exp(2j * cmath.pi * float(frac_part(Fraction(t) * f.eval_at(pt), p)))
    return total / p ** (K * f.nvars)


def test_parse():
    f = PhasePolynomial.parse("x^3 - 3*x", Qp(7))
    assert f.nvars == 1
    assert f.eval_at((2,)) == 2
    g = PhasePolynomial.parse("x^2 + y^2", Qp(5))
    assert g.nvars == 2
    assert g.eval_at((1, 3)) == 10


def test_parse_rejections():
    with pytest.raises(ValueError):
        PhasePolynomial.parse("x^2", REAL)
    with pytest.raises(ValueError):
        PhasePolynomial.parse("5", Qp(3))


def test_exact_integral_matches_grid_sum_1d():
    f = PhasePolynomial.parse("x^3 - 3*x", Qp(7))
    t = Fraction(1, 49)
    exact = exact_oscillatory_integral(f, t)
    assert exact.stabilized
    assert abs(exact.value - brute_integral(f, t, 3)) < 1e-12


def test_exact_integral_matches_grid_sum_2d():
    f = PhasePolynomial.parse("x^2 + x*y + y^2", Qp(3))
    t = Fraction(2, 9)
    exact = exact_oscillatory_integral(f, t)
    assert abs(exact.value - brute_integral(f, t, 3)) < 1e-12


def test_exact_integral_linear_phase_vanishes():
    f = PhasePolynomial.parse("x", Qp(5))
    exact = exact_oscillatory_integral(f, Fraction(1, 25))
    assert abs(exact.value) < 1e-13
    assert abs(stationary_phase_prediction(f, Fraction(1, 25))) == 0


def test_exact_integral_needs_large_t():
    f = PhasePolynomial.parse("x^2", Qp(3))
    with pytest.raises(ValueError):
        exact_oscillatory_integral(f, Fraction(3))


def test_critical_points_of_cubic():
    f = PhasePolynomial.parse("x^3 - 3*x", Qp(7))
    pts = critical_points(f, precision=8)
    assert len(pts) == 2
    residues = sorted(pt.point[0] % 7 for pt in pts)
    assert residues == [1, 6]  # x = 1 and x = -1
    for pt in pts:
        # gradient vanishes to the certified precision
        x = pt.point[0]
        assert (3 * x * x - 3) % 7**pt.precision == 0


def test_degenerate_critical_point_raises():
    f = PhasePolynomial.parse("x^3", Qp(5))
    with pytest.raises(DegenerateCriticalPointError):
        critical_points(f)


def test_prediction_needs_even_valuation():
    f = PhasePolynomial.parse("x^2", Qp(3))
    with pytest.raises(ValueError):
        stationary_phase_prediction(f, Fraction(1, 3))


@pytest.mark.parametrize(
    "src,p",
    [("x^3 - 3*x", 7), ("x^3 - 3*x", 13), ("x^2 + y^2", 5)],
)
def test_model_agreement(src, p):
    f = PhasePolynomial.parse(src, Qp(p))
    comp = compare_stationary(f, [1, 2])
    assert comp.agreement_from == 1
    for row in comp.rows:
        assert row["stabilized"]
        assert row["abs_diff"] < 1e-10


@pytest.mark.parametrize(
    "src,p,exponents",
    [("x^3 - 3*x + 1", 7, [1, 2]), ("x^2 + 2*x", 5, [1, 2, 3])],
)
def test_prediction_takes_the_sign_of_psi_of_the_exact_integral(src, p, exponents):
    # non-real predictions: under psi_- the prediction is the complex
    # conjugate, which misses the exact integral (by 0.07 and 2.1e-4 for the
    # cubic), while the real predictions of test_model_agreement match both
    f = PhasePolynomial.parse(src, Qp(p))
    comp = compare_stationary(f, exponents)
    assert comp.agreement_from == exponents[0]
    for row in comp.rows:
        exact, pred = row["exact"], row["prediction"]
        assert row["abs_diff"] < 1e-10
        assert abs(exact - pred.conjugate()) > 1e-6


def test_nonseparable_2d_against_grid():
    f = PhasePolynomial.parse("x^2 + x*y + 2*y^2 + x", Qp(5))
    t = Fraction(3, 25)
    exact = exact_oscillatory_integral(f, t)
    assert abs(exact.value - brute_integral(f, t, 2)) < 1e-12


@pytest.mark.parametrize(
    "src,p,t",
    [
        ("x^3 - 3*x", 7, Fraction(1, 7**4)),
        ("x^2 + x*y + 2*y^2 + x", 5, Fraction(3, 25)),
        ("x^2 + y^2", 13, Fraction(2, 13**2)),
    ],
)
def test_numerators_are_periodic_in_t(src, p, t):
    # the exact sum reads t only through the numerators of t*f over p^e,
    # so the sums at t and t(1 + p^e) agree term by term: `stabilized` is
    # always True
    f = PhasePolynomial.parse(src, Qp(p))
    exact = exact_oscillatory_integral(f, t)
    e = exact.conductor
    shifted = exact_oscillatory_integral(f, t * (1 + Fraction(p) ** e))
    assert shifted.conductor == e
    assert shifted.value == exact.value
    assert exact.stabilized


@pytest.mark.parametrize("p", [5, 7])
def test_two_variable_newton_lift(p, monkeypatch):
    # the mod-p roots of grad f are not exact critical points, so Newton
    # takes 2x2 steps; each lifted point must solve grad f = 0 mod p^precision
    f = PhasePolynomial.parse("x^3 - 6*x + y^2 + x*y", Qp(p))
    sizes = []
    step = stationary._matvec_inv_mod

    def spy(H, g, M):
        sizes.append(len(H))
        return step(H, g, M)

    monkeypatch.setattr(stationary, "_matvec_inv_mod", spy)
    pts = critical_points(f)
    assert len(pts) == 2 and sizes and set(sizes) == {2}
    for cp in pts:
        pN = p**cp.precision
        assert all(stationary._eval_monomials(g, cp.point, pN) == 0 for g in f.gradient())
    for row in compare_stationary(f, [1, 2]).rows:
        assert row["abs_diff"] < PREDICTION_TOL


def test_unary_minus_in_a_phase():
    f = PhasePolynomial.parse("-x^3 + 3*x", Qp(7))
    assert f.monomials == {(3, 0): -1, (1, 0): 3}
    assert PhasePolynomial.parse("-(x^3 - 3*x)", Qp(7)) == f
