"""Degree-one functional equation: coset algebra, zeta integrals, the
real Gaussian family, and the symmetric-matrix probe.

Brute-force oracles here take the slow road on purpose: plain grid sums
for Fourier transforms and shell sums for zeta integrals, independent of
the closed-form paths in the module.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from locquad.charsum import BudgetError
from locquad.forms import SymMatrix, form_of_matrix
from locquad.places import AdditiveCharacter, Qp, REAL, class_bits, frac_part, square_class_reps, valuation
from locquad.tate import (
    CosetFunction,
    HermiteGaussian,
    MultiplicativeCharacter,
    Sym3Coset,
    default_real_test_set,
    padic_sym3_mc_check,
    padic_zeta,
    real_gamma_matrix_check,
    real_tate_check,
    real_zeta,
    sym3_classes,
    sym3_fourier_value,
    tate_check,
)

# -- characters ---------------------------------------------------------------


def test_character_values():
    chi = MultiplicativeCharacter.make(Qp(3), -0.5)
    assert abs(chi.value(Fraction(3)) - math.sqrt(3)) < 1e-12
    assert abs(chi.value(Fraction(1, 3)) - 1 / math.sqrt(3)) < 1e-12
    assert abs(chi.value(Fraction(2)) - 1) < 1e-12
    twisted = MultiplicativeCharacter.make(Qp(3), -0.5, Fraction(3))
    assert abs(twisted.value(Fraction(2)) + 1) < 1e-12  # (2,3)_3 = -1


def test_dual_character():
    chi = MultiplicativeCharacter.make(Qp(5), -0.25, Fraction(10))
    dual = chi.dual()
    assert dual.s == -0.75
    assert dual.twist == chi.twist
    assert dual.place == chi.place


def test_ramification_odd_p():
    # ramified exactly when the twist has odd valuation
    for p in (3, 5, 7):
        reps = square_class_reps(Qp(p))
        flags = [
            MultiplicativeCharacter.make(Qp(p), -0.5, d).is_ramified() for d in reps
        ]
        assert flags == [False, False, True, True]


def test_ramification_p2():
    # Q_2(sqrt(5)) is the unramified quadratic extension
    expected = {1: False, 5: False, -1: True, -5: True, 2: True, -2: True, 10: True, -10: True}
    for d, want in expected.items():
        chi = MultiplicativeCharacter.make(Qp(2), -0.5, Fraction(d))
        assert chi.is_ramified() == want, d


# -- coset functions ----------------------------------------------------------


def test_indicator_point_values():
    zp = CosetFunction.ball(Qp(3))
    assert zp(Fraction(1)) == 1
    assert zp(Fraction(1, 3)) == 0
    units = CosetFunction.units(Qp(3))
    assert units(Fraction(1)) == 1
    assert units(Fraction(3)) == 0
    assert units(Fraction(4)) == 1
    assert units(Fraction(0)) == 0


def test_coset_algebra_pointwise():
    place = Qp(5)
    f = CosetFunction.ball(place, Fraction(1), 1).scale(2) - CosetFunction.ball(
        place, Fraction(0), 2
    )
    assert f(Fraction(1)) == 2
    assert f(Fraction(0)) == -1
    assert f(Fraction(25)) == -1
    assert f(Fraction(2)) == 0
    g = f.reflect()
    assert g(Fraction(-1)) == 2


def test_refine_preserves_values():
    place = Qp(3)
    f = CosetFunction.units(place) + CosetFunction.ball(place, Fraction(1, 3), 0)
    fine = f.refine(3)
    for x in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(4, 3), Fraction(9)):
        assert abs(f(x) - fine(x)) < 1e-14


def test_refine_budget():
    with pytest.raises(BudgetError):
        CosetFunction.ball(Qp(5)).refine(12)


def test_l2_norms():
    place = Qp(5)
    assert abs(CosetFunction.ball(place).l2_norm_sq() - 1) < 1e-15
    assert abs(CosetFunction.ball(place, Fraction(1), 1).l2_norm_sq() - Fraction(1, 5)) < 1e-15
    assert abs(CosetFunction.units(place).l2_norm_sq() - Fraction(4, 5)) < 1e-15


def grid_fourier(f, y, place, depth):
    """Direct Riemann sum of the transform over a grid mod p^depth."""
    p = place.p
    psi = AdditiveCharacter(place)
    total = 0j
    # covers p^-1 Z_p, enough for every f below; exact once the integrand
    # is constant on cosets of p^depth Z_p
    for k in range(p ** (depth + 1)):
        x = Fraction(k, p)
        total += complex(f(x)) * psi(x * y) / p**depth
    return total


def test_fourier_against_grid_sum():
    place = Qp(3)
    f = CosetFunction.ball(place, Fraction(1), 1) - CosetFunction.ball(
        place, Fraction(1, 3), 2
    ).scale(1j)
    fhat = f.fourier()
    for y in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 9), Fraction(5)):
        assert abs(fhat(y) - grid_fourier(f, y, place, 4)) < 1e-12


def test_fourier_self_dual_ball():
    place = Qp(7)
    zp = CosetFunction.ball(place)
    assert zp.fourier().approx_equal(zp)


def test_fourier_involution_seeded():
    rng = random.Random(17)
    for p in (2, 3, 5):
        place = Qp(p)
        f = CosetFunction.ball(place, Fraction(0), 0).scale(0)
        for _ in range(3):
            center = Fraction(rng.randint(0, p**2 - 1), p)
            level = rng.randint(-1, 2)
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            f = f + CosetFunction.ball(place, center, level).scale(w)
        assert f.fourier().fourier().approx_equal(f.reflect())


def test_plancherel_seeded():
    rng = random.Random(23)
    place = Qp(3)
    f = CosetFunction.ball(place, Fraction(1), 1).scale(2 - 1j) + CosetFunction.ball(
        place, Fraction(rng.randint(0, 8), 3), 2
    )
    assert abs(f.fourier().l2_norm_sq() - f.l2_norm_sq()) < 1e-12


# -- p-adic zeta --------------------------------------------------------------


def test_zeta_ball_geometric_series():
    # hand formula: (1 - 1/p) / (1 - p^(-s-1)) for the trivial character
    for p in (2, 3, 5):
        for s in (-0.5, -0.25 + 0.6j):
            chi = MultiplicativeCharacter.make(Qp(p), s)
            z = padic_zeta(CosetFunction.ball(Qp(p)), chi)
            hand = (1 - 1 / p) / (1 - p ** (-s - 1))
            assert abs(z - hand) < 1e-12


def test_zeta_ball_nonsquare_unit_twist():
    # chi(p^k u') = (p,u)^k p^(-ks) on shells, so the series alternates
    p = 5
    u = square_class_reps(Qp(p))[1]
    s = -0.4
    chi = MultiplicativeCharacter.make(Qp(p), s, u)
    z = padic_zeta(CosetFunction.ball(Qp(p)), chi)
    hand = (1 - 1 / p) / (1 + p ** (-s - 1))
    assert abs(z - hand) < 1e-12


def test_zeta_ball_ramified_twist_vanishes():
    # unit integral against a nontrivial unit character is zero
    for p in (3, 7):
        chi = MultiplicativeCharacter.make(Qp(p), -0.5, Fraction(p))
        assert abs(padic_zeta(CosetFunction.ball(Qp(p)), chi)) < 1e-15


def test_zeta_off_zero_coset_exact():
    # 1 + pZp consists of squares of norm 1: any chi integrates to 1/p
    for d in (Fraction(1), Fraction(3), Fraction(2)):
        chi = MultiplicativeCharacter.make(Qp(3), -0.37, d)
        z = padic_zeta(CosetFunction.ball(Qp(3), Fraction(1), 1), chi)
        assert abs(z - Fraction(1, 3)) < 1e-14


def test_zeta_strip_precondition():
    chi = MultiplicativeCharacter.make(Qp(3), -1.5)
    with pytest.raises(ValueError):
        padic_zeta(CosetFunction.ball(Qp(3)), chi)


def test_zeta_brute_sum_oracle():
    # Riemann sum over cosets of 3^6 Z_3; chi and f are both constant at
    # that scale, so the sum is the integral on the nose
    p = 3
    s = -0.5 + 0.3j
    chi = MultiplicativeCharacter.make(Qp(p), s, Fraction(3))
    f = CosetFunction.ball(Qp(p), 2, 2).scale(2) - CosetFunction.ball(
        Qp(p), Fraction(1, 3), 1
    ).scale(1j)
    z = padic_zeta(f, chi)
    brute = 0j
    L = 6
    for k in range(p ** (L + 1)):
        x = Fraction(k, p)
        w = f(x)
        if w != 0:
            brute += w * chi.value(x) / p**L
    assert abs(z - brute) < 1e-12


# -- tate_check ---------------------------------------------------------------


def test_tate_unramified_closed_form():
    for p in (3, 5):
        for s in (-0.5, -0.3 + 0.4j):
            chi = MultiplicativeCharacter.make(Qp(p), s)
            rep = tate_check(chi)
            assert rep.max_deviation < 1e-9
            hand = (1 - p**s) / (1 - p ** (-s - 1))
            assert abs(rep.c_value - hand) < 1e-9


def test_tate_unit_twist_closed_form():
    p = 5
    u = square_class_reps(Qp(p))[1]
    s = -0.45
    rep = tate_check(MultiplicativeCharacter.make(Qp(p), s, u))
    hand = (1 + p**s) / (1 + p ** (-s - 1))
    assert abs(rep.c_value - hand) < 1e-9


def test_tate_central_point_is_one():
    chi = MultiplicativeCharacter.make(Qp(3), -0.5)
    rep = tate_check(chi)
    assert abs(rep.c_value - 1) < 1e-12


def test_tate_ramified_twist():
    # quadratic ramified character at the self-dual point: |c| = 1,
    # radial test functions drop out with a warning
    for p in (3, 5):
        chi = MultiplicativeCharacter.make(Qp(p), -0.5, Fraction(p))
        rep = tate_check(chi)
        used = [r for r in rep.rows if r["ratio"] is not None]
        assert len(used) >= 4
        assert rep.max_deviation < 1e-9
        assert abs(abs(rep.c_value) - 1) < 1e-9
        assert any("excluded" in w for w in rep.warnings)


def test_tate_p2_unramified_twist():
    s = -0.5
    rep = tate_check(MultiplicativeCharacter.make(Qp(2), s, Fraction(5)))
    hand = (1 + 2**s) / (1 + 2 ** (-s - 1))
    assert rep.max_deviation < 1e-9
    assert abs(rep.c_value - hand) < 1e-9


def test_tate_p2_ramified_twist():
    # only the depth-3 cosets survive; the constant is a fourth root
    rep = tate_check(MultiplicativeCharacter.make(Qp(2), -0.5, Fraction(-1)))
    used = [r for r in rep.rows if r["ratio"] is not None]
    assert len(used) >= 2
    assert rep.max_deviation < 1e-9
    assert abs(rep.c_value - 1j) < 1e-9


def test_tate_twist_square_class_stability():
    p = 3
    base = tate_check(MultiplicativeCharacter.make(Qp(p), -0.4, Fraction(p)))
    scaled = tate_check(MultiplicativeCharacter.make(Qp(p), -0.4, Fraction(p * 49)))
    assert abs(base.c_value - scaled.c_value) < 1e-9


def test_tate_strip_and_test_set_preconditions():
    with pytest.raises(ValueError):
        tate_check(MultiplicativeCharacter.make(Qp(3), 0.5))


# -- real family --------------------------------------------------------------


def quad_fourier(f, y):
    re = quad(lambda x: (f(x) * cmath.exp(2j * math.pi * x * y)).real, -8, 8, limit=200)[0]
    im = quad(lambda x: (f(x) * cmath.exp(2j * math.pi * x * y)).imag, -8, 8, limit=200)[0]
    return re + 1j * im


def test_hermite_gaussian_fourier_against_quadrature():
    f = HermiteGaussian(poly=(0.5, 1, 1), shift=0.3, modulation=-0.2, scale=1 - 0.5j)
    fhat = f.fourier()
    for y in (-1.1, 0.0, 0.4):
        assert abs(fhat(y) - quad_fourier(f, y)) < 1e-10


def test_hermite_gaussian_involution_is_reflection():
    f = HermiteGaussian(poly=(1, -2, 0.5), shift=-0.7, modulation=0.6, scale=2j)
    g = f.fourier().fourier()
    r = f.reflect()
    for x in (-1.5, -0.2, 0.0, 0.8, 2.0):
        assert abs(g(x) - r(x)) < 1e-12


def test_real_zeta_gaussian_gamma_closed_form():
    s = -0.4
    z = real_zeta(HermiteGaussian(), s)
    hand = math.pi ** (-(s + 1) / 2) * math.gamma((s + 1) / 2)
    assert abs(z - hand) < 1e-10
    half = real_zeta(HermiteGaussian(), s, side="pos")
    assert abs(2 * half - hand) < 1e-10


def test_real_tate_check_is_one_at_central_point():
    rep = real_tate_check(-0.5)
    assert abs(rep.c_value - 1) < 1e-10
    assert rep.max_deviation < 1e-8
    assert any("odd" in w for w in rep.warnings)


def test_real_tate_check_odd_family():
    rep = real_tate_check(-0.45, parity=1)
    assert rep.max_deviation < 1e-8


def test_real_tate_strip_precondition():
    with pytest.raises(ValueError):
        real_tate_check(0.5)
    with pytest.raises(ValueError):
        real_tate_check(-1.0)


@pytest.mark.parametrize("s", [-0.3, -0.5, -0.7])
def test_real_gamma_matrix_residual(s):
    rep = real_gamma_matrix_check(s)
    assert rep.residual < 1e-6


# -- symmetric 3x3 probe ------------------------------------------------------


def test_sym3_fourier_value_against_direct_sum():
    p = 3
    coset = Sym3Coset.make([[1, 1, 0], [1, 2, 0], [0, 0, 1]], 1, p)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for y_scale in (Fraction(1, 3), Fraction(1)):
        y = [[y_scale, 0, Fraction(1, 3)], [0, 0, 1], [Fraction(1, 3), 1, 0]]
        direct = 0j
        for idx in range(p**6):
            digits = [(idx // p**j) % p for j in range(6)]
            x = [[0] * 3 for _ in range(3)]
            for (i, j), d in zip(pairs, digits):
                x[i][j] = x[j][i] = coset.center[i][j] + p * d
            tr = sum(Fraction(x[i][j]) * y[j][i] for i in range(3) for j in range(3))
            direct += cmath.exp(2j * cmath.pi * float(frac_part(tr, p))) / p**12
        assert abs(sym3_fourier_value(coset, y, p) - direct) < 1e-12


def test_sym3_fourier_vanishes_off_support():
    p = 3
    coset = Sym3Coset.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, p)
    y = [[Fraction(1, 9), 0, 0], [0, 0, 0], [0, 0, 0]]  # outside p^-1 Sym
    assert sym3_fourier_value(coset, y, p) == 0


def test_sym3_coset_validation():
    with pytest.raises(ValueError):
        Sym3Coset.make([[1, 0], [0, 1]], 1, 3)
    with pytest.raises(ValueError):
        Sym3Coset.make([[1, 2, 0], [1, 1, 0], [0, 0, 1]], 1, 3)
    with pytest.raises(ValueError):
        Sym3Coset.make([[1, 0, 0], [0, 3, 0], [0, 0, 1]], 1, 3)  # det = 3, level 1


def test_sym3_mc_preconditions():
    with pytest.raises(ValueError):
        padic_sym3_mc_check(p=2, samples=1000)
    with pytest.raises(ValueError):
        padic_sym3_mc_check(p=3, s=1.5, samples=1000)


@pytest.mark.parametrize("samples", [0, -7, 499])
def test_sym3_mc_rejects_fewer_samples_than_batches(samples):
    with pytest.raises(ValueError, match="at least 500"):
        padic_sym3_mc_check(p=3, samples=samples)


def test_sym3_mc_deterministic():
    a = padic_sym3_mc_check(p=3, s=0.5, seed=9, samples=20000)
    b = padic_sym3_mc_check(p=3, s=0.5, seed=9, samples=20000)
    assert a.ratios == b.ratios
    assert a.sigmas == b.sigmas
    assert a == b


@pytest.mark.parametrize("block", [1000, 4096, 7000])
def test_sym3_mc_blocks_do_not_change_the_report(monkeypatch, block):
    import locquad.tate

    kw = dict(p=5, s=0.3 + 0.4j, seed=4, samples=20000)
    monkeypatch.setattr(locquad.tate, "_MC_BLOCK_SAMPLES", 10**9)  # one block
    whole = padic_sym3_mc_check(**kw)
    monkeypatch.setattr(locquad.tate, "_MC_BLOCK_SAMPLES", block)
    assert padic_sym3_mc_check(**kw) == whole


def test_sym3_mc_depth_guard_notes():
    # int64 determinants allow 6 digits per entry at p = 7, below the default 10
    rep = padic_sym3_mc_check(p=7, s=0.5, seed=1, samples=5000)
    assert any("depth reduced from 10 to 6" in note for note in rep.notes)


# -- the exp-sinh rule against scipy's adaptive quadrature ---------------------


def scipy_half_line(f, s, sign):
    """The same half-line integral by scipy.integrate.quad, after x = e^u
    on (0, 1) as in real_zeta."""

    def cquad(g, lo, hi):
        opts = dict(limit=250, epsabs=1e-13, epsrel=1e-12)
        return complex(quad(lambda t: g(t).real, lo, hi, **opts)[0], quad(lambda t: g(t).imag, lo, hi, **opts)[0])

    inner = cquad(lambda u: cmath.exp((s + 1) * u) * complex(f(sign * math.exp(u))), -math.inf, 0.0)
    outer = cquad(lambda x: cmath.exp(s * math.log(x)) * complex(f(sign * x)), 1.0, math.inf)
    return inner + outer


@pytest.mark.parametrize("s", [-0.99, -0.9, -0.5, -0.01, -0.62 + 0.3j, -0.5 + 0.7j])
def test_real_zeta_matches_scipy(s):
    for _, f in default_real_test_set():
        for g in (f, f.fourier()):
            for side, sign in (("pos", 1), ("neg", -1)):
                ours, ref = real_zeta(g, s, side), scipy_half_line(g, s, sign)
                assert abs(ours - ref) <= 1e-12 * abs(ref), (s, g, side)


def test_hermite_gaussian_takes_arrays_and_far_nodes():
    f = HermiteGaussian(poly=(0.5, 1, 1), shift=0.3, modulation=-0.2, scale=1 - 0.5j)
    xs = np.array([-1e300, -50.0, -0.7, 0.0, 0.4, 2.5, 50.0, 1e300])
    values = f(xs)
    assert not np.isnan(values).any()
    assert values[0] == values[1] == values[-2] == values[-1] == 0
    for x, value in zip(xs[2:-2], values[2:-2]):
        assert abs(value - f(float(x))) <= 1e-15 * abs(value)  # SIMD exp may differ by an ulp


# -- the vectorised Hasse invariant of the Monte Carlo probe -------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sym3_classes_match_exact_diagonalisation(p):
    rng = np.random.default_rng(p)
    flat = rng.integers(-4, 5, size=(3000, 6))
    flat[::3, 0] = 0  # d1 = 0 on every third row
    x = flat[:, [[0, 3, 4], [3, 1, 5], [4, 5, 2]]]
    # d1 != 0, d2 = 0, d3 != 0: x00 x11 = x01^2
    x = np.concatenate([x, np.array([[[1, 1, 0], [1, 1, 1], [0, 1, 1]], [[p, p, 1], [p, p, 0], [1, 0, 2]]])])
    dets = np.array([SymMatrix.make(m.tolist()).det() for m in x])
    x = x[dets != 0]
    d1, d2 = x[:, 0, 0], x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] ** 2
    assert ((d1 == 0).sum() > 100) and ((d1 != 0) & (d2 == 0)).sum() >= 2
    hasse, det_bits, vdet = sym3_classes(x, Qp(p))
    for m, h, b, v in zip(x, hasse, det_bits, vdet):
        q = form_of_matrix(SymMatrix.make(m.tolist()), Qp(p))
        assert 1 - 2 * h == q.hasse()
        assert (b, v) == (class_bits(q.det(), Qp(p)), valuation(q.det(), p))
