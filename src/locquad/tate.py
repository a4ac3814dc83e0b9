"""One-variable local zeta integrals and their functional equation.

Over Q_p the test functions are finite complex combinations of coset
indicators 1_{c + p^k Z_p}, which are closed under Fourier transform:

    F(1_{c + p^k Z_p})(y) = p^{-k} psi(c y) 1_{p^{-k} Z_p}(y).

The zeta pairing Z(phi, chi) = integral of chi(x) phi(x) dx against the
character chi(x) = (x, d)|x|^s is evaluated in closed form: every coset
on which chi is constant contributes a single term, and the ball through
0 contributes a geometric series summed exactly.  The functional-equation
constant c(chi) is extracted as the ratio

    Z(F(phi), chi) / Z(phi, |.|^{-1} chi^{-1}),

which must not depend on phi.  Over R the same check runs on a family of
modulated Hermite Gaussians whose Fourier transforms are closed forms,
with the zeta integrals done by the double-exponential (exp-sinh) rule in
numpy; the refinement into half-lines is checked against the 2x2 gamma
matrix of degree one.

A Monte Carlo probe tests the degree-three equation on Sym_3(Q_p) for
test functions supported away from det = 0, where both pairings converge
absolutely.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .charsum import BudgetError
from .forms import SymMatrix, diagonalize, hasse_bit
from .places import (
    AdditiveCharacter,
    Place,
    SquareClass,
    class_bits,
    class_bits_array,
    class_count,
    frac_part,
    pairing,
    parse_rational,
    square_class,
    valuation,
)
from .shintani import gamma_matrix

_REFINE_BUDGET = 10**5
_FOURIER_BUDGET = 10**5

# Gates on the spread max_deviation of the functional-equation ratios: exact
# coset sums over Q_p, and quadrature over R, where the residual of
# real_gamma_matrix_check shares the gate.
PADIC_TOL = 1e-9
REAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# multiplicative characters


@dataclass(frozen=True)
class MultiplicativeCharacter:
    """chi(x) = (x, d) |x|^s at a fixed place, d the twist's class."""

    place: Place
    s: complex
    twist: SquareClass

    @staticmethod
    def make(place: Place, s: complex, twist=Fraction(1)) -> "MultiplicativeCharacter":
        if isinstance(twist, SquareClass):
            if twist.place != place:
                raise ValueError("twist lives at a different place")
            cls = twist
        else:
            cls = square_class(parse_rational(twist), place)
        return MultiplicativeCharacter(place, complex(s), cls)

    def dual(self) -> "MultiplicativeCharacter":
        # |.|^{-1} chi^{-1} keeps the twist: (x,d)^{-1} = (x,d).
        return MultiplicativeCharacter(self.place, -1 - self.s, self.twist)

    def is_ramified(self) -> bool:
        """True when x -> (x, d) is nontrivial on the units."""
        d = self.twist.bits
        if self.place.is_real:
            return d == 1
        # the unit classes are those below the valuation bit
        return any(pairing(u, d, self.place) for u in range(class_count(self.place) // 2))

    def sign(self, x) -> int:
        """(x, d) as +-1: the pairing of the class bits of x with the twist's."""
        return -1 if pairing(class_bits(x, self.place), self.twist.bits, self.place) else 1

    def value(self, x) -> complex:
        x = parse_rational(x)
        if x == 0:
            raise ZeroDivisionError("character evaluated at 0")
        if self.place.is_real:
            return self.sign(x) * cmath.exp(self.s * math.log(abs(float(x))))
        p = self.place.p
        return self.sign(x) * cmath.exp(-valuation(x, p) * self.s * math.log(p))


# ---------------------------------------------------------------------------
# coset-indicator test functions


class CosetFunction:
    """Finite complex combination of p-adic coset indicators.

    Terms are stored against canonical coset keys, so two descriptions of
    the same locally constant function compare equal after merging: the
    key of c + p^k Z_p is (p^k {c / p^k}_p, k), its representative in
    [0, p^k).
    """

    __slots__ = ("place", "terms")

    def __init__(self, place: Place, terms: Iterable[tuple[Fraction, int, complex]] = ()):
        if place.is_real:
            raise ValueError("coset functions are p-adic; use HermiteGaussian over R")
        self.place = place
        merged: dict[tuple[Fraction, int], complex] = {}
        for center, level, weight in terms:
            level = int(level)
            step = Fraction(place.p) ** level
            key = step * frac_part(Fraction(center) / step, place.p), level
            merged[key] = merged.get(key, 0) + complex(weight)
        self.terms = tuple(
            (r, k, w) for (r, k), w in sorted(merged.items()) if w != 0
        )

    @staticmethod
    def ball(place: Place, center=0, level: int = 0, weight: complex = 1) -> "CosetFunction":
        """Indicator of center + p^level Z_p."""
        return CosetFunction(place, [(parse_rational(center), level, weight)])

    @staticmethod
    def units(place: Place) -> "CosetFunction":
        """Indicator of Z_p^* = Z_p minus p Z_p."""
        return CosetFunction(place, [(Fraction(0), 0, 1), (Fraction(0), 1, -1)])

    def __add__(self, other: "CosetFunction") -> "CosetFunction":
        if other.place != self.place:
            raise ValueError("mismatched places")
        return CosetFunction(
            self.place,
            [(r, k, w) for r, k, w in self.terms] + [(r, k, w) for r, k, w in other.terms],
        )

    def __sub__(self, other: "CosetFunction") -> "CosetFunction":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "CosetFunction":
        return CosetFunction(self.place, [(r, k, w * factor) for r, k, w in self.terms])

    def reflect(self) -> "CosetFunction":
        """x -> phi(-x)."""
        return CosetFunction(self.place, [(-r, k, w) for r, k, w in self.terms])

    def __call__(self, x) -> complex:
        x = parse_rational(x)
        p = self.place.p
        total = 0j
        for r, k, w in self.terms:
            diff = x - r
            if diff == 0 or valuation(diff, p) >= k:
                total += w
        return total

    def refine(self, level: int) -> "CosetFunction":
        """Rewrite every term as cosets at the common given level."""
        p = self.place.p
        out = []
        count = 0
        for r, k, w in self.terms:
            if k > level:
                raise ValueError("cannot coarsen a coset; refine to a deeper level")
            children = p ** (level - k)
            count += children
            if count > _REFINE_BUDGET:
                raise BudgetError(f"refinement to level {level} needs {count} cosets")
            step = Fraction(p) ** k
            for t in range(children):
                out.append((r + t * step, level, w))
        return CosetFunction(self.place, out)

    def approx_equal(self, other: "CosetFunction", tol: float = 1e-12) -> bool:
        """Equality as functions: the difference refines to near-zero weights."""
        if other.place != self.place:
            return False
        diff = self - other
        if not diff.terms:
            return True
        level = max(k for _, k, _ in diff.terms)
        fine = diff.refine(level)
        return all(abs(w) <= tol for _, _, w in fine.terms)

    def l2_norm_sq(self) -> float:
        """Integral of |phi|^2; exact on the refined disjoint decomposition."""
        if not self.terms:
            return 0.0
        level = max(k for _, k, _ in self.terms)
        fine = self.refine(level)
        vol = float(self.place.p) ** (-level)
        return sum(abs(w) ** 2 for _, _, w in fine.terms) * vol

    def fourier(self) -> "CosetFunction":
        """Fourier transform against psi(xy), psi the standard character,
        term by term.

        F(1_{r + p^k Z})(y) = p^{-k} psi(r y) 1_{p^{-k} Z}(y); the modulated
        ball splits into the cosets of p^{-v(r)} Z on which psi(r .) is
        constant.
        """
        p = self.place.p
        psi = AdditiveCharacter(self.place)
        out: list[tuple[Fraction, int, complex]] = []
        for r, k, w in self.terms:
            base = w * Fraction(p) ** (-k)
            if r == 0:
                out.append((Fraction(0), -k, complex(base)))
                continue
            new_level = -valuation(r, p)
            children = p ** (k - valuation(r, p))
            if children > _FOURIER_BUDGET:
                raise BudgetError(f"fourier expansion needs {children} cosets")
            step = Fraction(p) ** (-k)
            for t in range(children):
                y0 = t * step
                out.append((y0, new_level, complex(base) * psi(r * y0)))
        return CosetFunction(self.place, out)


# ---------------------------------------------------------------------------
# p-adic zeta and the functional-equation check


def padic_zeta(phi: CosetFunction, chi: MultiplicativeCharacter) -> complex:
    """Z(phi, chi) = integral of chi(x) phi(x) dx over Q_p^*.

    Each coset not through 0 carries a constant character value once it is
    fine enough (at p = 2 the symbol (x, d) is constant only on cosets of
    1 + 8 Z_2, so shallow terms are refined first).  The ball through 0 is
    a geometric series over valuation shells, summed in closed form.
    """
    if chi.place != phi.place:
        raise ValueError("character and test function live at different places")
    if chi.s.real <= -1:
        raise ValueError(f"Re(s) = {chi.s.real} outside the convergence range Re(s) > -1")
    p = phi.place.p
    ramified = chi.is_ramified()
    total = 0j
    for r, k, w in phi.terms:
        if r == 0:
            if ramified:
                continue
            # sum over shells v = k, k+1, ...: (1 - 1/p) z^v with z = (p,d) p^{-s-1}
            z = chi.sign(p) * cmath.exp(-(chi.s + 1) * math.log(p))
            total += w * (1 - Fraction(1, p)) * z**k / (1 - z)
            continue
        v = valuation(r, p)
        if p == 2 and k - v < 3 and not chi.twist.is_trivial():
            refined = CosetFunction(phi.place, [(r, k, w)]).refine(v + 3)
            total += padic_zeta(refined, chi)
            continue
        total += w * chi.value(r) * Fraction(p) ** (-k)
    return total


@dataclass(frozen=True)
class FunctionalEquationReport:
    place: Place
    s: complex
    twist: Fraction
    rows: tuple[dict, ...]
    c_value: complex | None
    max_deviation: float
    warnings: tuple[str, ...] = ()


def default_padic_test_set(place: Place) -> list[tuple[str, CosetFunction]]:
    # the deep unit cosets keep ramified characters constant even at p = 2,
    # where (x, d) only stabilizes on cosets of 1 + 8 Z_2
    p = place.p
    return [
        ("1[Zp]", CosetFunction.ball(place)),
        ("1[Zp^*]", CosetFunction.units(place)),
        (f"1[1 + {p}Zp]", CosetFunction.ball(place, 1, 1)),
        (f"1[{p}Zp]", CosetFunction.ball(place, 0, 1)),
        (f"1[2 + {p}^2 Zp]", CosetFunction.ball(place, 2, 2)),
        (f"1[1 + {p}^3 Zp]", CosetFunction.ball(place, 1, 3)),
        (f"1[3 + {p}^3 Zp]", CosetFunction.ball(place, 3, 3)),
    ]


def tate_check(chi: MultiplicativeCharacter) -> FunctionalEquationReport:
    """Extract c(chi) = Z(F(phi), chi) / Z(phi, |.|^{-1} chi^{-1}) over the
    default test functions of chi's place and report how far the ratios
    spread.

    Requires -1 < Re(s) < 0 so both zeta integrals converge.  A function
    whose denominator vanishes (every radial one when chi is ramified
    over Q_p, the odd ones against an even character over R and the even
    ones against sgn) is excluded with a warning; the zero tolerance is
    1e-13 for the exact coset sums and 1e-9 for quadrature.
    """
    place = chi.place
    if not -1 < chi.s.real < 0:
        raise ValueError(f"Re(s) = {chi.s.real} outside the strip (-1, 0)")
    if place.is_real:

        def zeta(f, c: MultiplicativeCharacter) -> complex:
            pos = real_zeta(f, c.s, "pos")
            neg = real_zeta(f, c.s, "neg")
            return pos - neg if c.twist.bits else pos + neg

        labeled, zero_tol = default_real_test_set(), 1e-9
    else:
        zeta, labeled, zero_tol = padic_zeta, default_padic_test_set(place), 1e-13
    dual = chi.dual()
    rows = []
    ratios = []
    warnings = []
    for label, f in labeled:
        num = zeta(f.fourier(), chi)
        den = zeta(f, dual)
        row = {
            "phi": label,
            "lhs": num,
            "rhs_without_constant": den,
        }
        if abs(den) <= zero_tol:
            row["ratio"] = None
            warnings.append(f"{label}: zero denominator, excluded from the ratio")
        else:
            ratio = num / den
            row["ratio"] = ratio
            ratios.append(ratio)
        rows.append(row)
    if not ratios:
        raise ValueError("every test function had a vanishing zeta integral")
    dev = max(
        (abs(a - b) for i, a in enumerate(ratios) for b in ratios[i + 1 :]),
        default=0.0,
    )
    c = sum(ratios) / len(ratios)
    return FunctionalEquationReport(
        place, chi.s, chi.twist.rep, tuple(rows), c, dev, tuple(warnings)
    )


# ---------------------------------------------------------------------------
# the real place: modulated Hermite Gaussians


@dataclass(frozen=True)
class HermiteGaussian:
    """scale * P(x - shift) exp(-pi (x - shift)^2) exp(2 pi i mod x).

    P has degree at most two; the family is closed under the Fourier
    transform with kernel exp(2 pi i x y).
    """

    poly: tuple[complex, complex, complex] = (1, 0, 0)
    shift: float = 0.0
    modulation: float = 0.0
    scale: complex = 1.0

    def __call__(self, x):
        """Value at a float or an array.  The envelope is 0 in double
        precision past |u| = 40; clipping u there keeps far nodes at 0."""
        x = np.asarray(x, dtype=float)
        u = np.clip(x - self.shift, -40.0, 40.0)
        c0, c1, c2 = self.poly
        val = (c0 + c1 * u + c2 * u * u) * np.exp(-np.pi * u * u)
        return self.scale * val * np.exp(2j * np.pi * self.modulation * x)

    def fourier(self) -> "HermiteGaussian":
        c0, c1, c2 = self.poly
        a, b = self.shift, self.modulation
        return HermiteGaussian(
            poly=(c0 + c2 / (2 * math.pi), 1j * c1, -c2),
            shift=-b,
            modulation=a,
            scale=self.scale * cmath.exp(2j * math.pi * a * b),
        )

    def reflect(self) -> "HermiteGaussian":
        c0, c1, c2 = self.poly
        return HermiteGaussian(
            poly=(c0, -c1, c2),
            shift=-self.shift,
            modulation=-self.modulation,
            scale=self.scale,
        )


class QuadratureError(ArithmeticError):
    pass


# The exp-sinh trapezoid sums run over t in [-_DE_T, _DE_T]: the first node
# sits exp(-71) past the endpoint and the last exp(71) out, where
# exp(-(s + 1) x) has vanished for any s + 1 > 1e-29.
_DE_T = 4.5


def _exp_sinh(g, a: float) -> complex:
    """Integral of a vectorised g over (a, inf) by the double-exponential
    (exp-sinh) rule x = a + exp(pi/2 sinh t).

    Each level halves the step in t and adds only the new nodes; the
    result is returned once two levels agree within 1e-15 of the summed
    |terms|, and QuadratureError is raised if twelve halvings do not.
    """

    def terms(t):
        e = np.exp(np.pi / 2 * np.sinh(t))
        return g(a + e) * (np.pi / 2 * np.cosh(t) * e)

    h = 0.5
    f = terms(np.arange(-_DE_T, _DE_T + h / 2, h))
    total, mass = h * f.sum(), h * np.abs(f).sum()
    for _ in range(12):
        h /= 2
        f = terms(np.arange(-_DE_T + h, _DE_T, 2 * h))
        new = total / 2 + h * f.sum()
        mass = mass / 2 + h * np.abs(f).sum()
        if abs(new - total) <= 1e-15 * mass:
            return complex(new)
        total = new
    raise QuadratureError(f"exp-sinh rule did not settle by step {h}: last change {abs(new - total):.3g}")


def real_zeta(f, s: complex, side: str = "both") -> complex:
    """Integral of |x|^s f(x) over a half-line or all of R^*.

    f must accept arrays.  The inner pieces (0, 1) and (-1, 0) are
    integrated after x = e^(-w), which turns the |x|^s singularity into
    exponential decay in w; the outer pieces run directly to infinity
    under the Gaussian envelope.
    """
    s = complex(s)
    if s.real <= -1:
        raise ValueError(f"Re(s) = {s.real} outside the convergence range Re(s) > -1")

    def half(sign) -> complex:
        inner = _exp_sinh(lambda w: np.exp(-(s + 1) * w) * f(sign * np.exp(-w)), 0.0)
        outer = _exp_sinh(lambda x: np.exp(s * np.log(x)) * f(sign * x), 1.0)
        return inner + outer

    if side == "pos":
        return half(1)
    if side == "neg":
        return half(-1)
    if side == "both":
        return half(1) + half(-1)
    raise ValueError(f"unknown side {side!r}")


def default_real_test_set() -> list[tuple[str, HermiteGaussian]]:
    return [
        ("gaussian", HermiteGaussian()),
        ("shifted", HermiteGaussian(shift=1 / 3, modulation=-0.25)),
        ("quadratic", HermiteGaussian(poly=(0.5, 0, 1), modulation=0.4)),
        ("affine", HermiteGaussian(poly=(0, 1, 0), shift=0.5)),
        ("odd", HermiteGaussian(poly=(0, 1, 0))),
    ]


@dataclass(frozen=True)
class GammaMatrixReport:
    s: complex
    c_value: complex
    residual: float
    rows: tuple[dict, ...]


def real_gamma_matrix_check(s: complex) -> GammaMatrixReport:
    """Half-line refinement of the degree-one equation over R.

    With Phi_i(f, s) the integral of |x|^s f over the half-line of sign i,
    checks Phi_i(Ff, s) = c(s) * sum_j v_ij(s) Phi_j(f, -s-1) where v is
    the 2x2 gamma matrix; c(s) is fitted by least squares across the
    default test functions and the residual is reported relative to the
    data size.
    """
    s = complex(s)
    if not -1 < s.real < 0:
        raise ValueError(f"Re(s) = {s.real} outside the strip (-1, 0)")
    v = gamma_matrix(1, s)
    sides = ("neg", "pos")  # index i counts positive eigenvalues: V_0 = (-inf, 0)
    lhs_all = []
    pred_all = []
    rows = []
    for label, f in default_real_test_set():
        fhat = f.fourier()
        lhs = [real_zeta(fhat, s, side) for side in sides]
        phi = [real_zeta(f, -1 - s, side) for side in sides]
        pred = [complex(v[i, 0] * phi[0] + v[i, 1] * phi[1]) for i in range(2)]
        lhs_all.extend(lhs)
        pred_all.extend(pred)
        rows.append(
            {
                "phi": label,
                "lhs": lhs,
                "prediction_without_constant": pred,
            }
        )
    denom = sum(abs(z) ** 2 for z in pred_all)
    if denom == 0:
        raise ValueError("the test family is degenerate for this s")
    c = complex(sum(p.conjugate() * l for p, l in zip(pred_all, lhs_all)) / denom)
    scale = max(abs(z) for z in lhs_all)
    residual = float(max(abs(l - c * p) for l, p in zip(lhs_all, pred_all)) / scale)
    return GammaMatrixReport(s, c, residual, tuple(rows))


# ---------------------------------------------------------------------------
# Monte Carlo probe of the degree-three equation


@dataclass(frozen=True)
class Sym3Coset:
    """Indicator of X0 + p^level Sym_3(Z_p), with det nonzero throughout."""

    center: tuple[tuple[int, ...], ...]
    level: int

    @staticmethod
    def make(center, level: int, p: int) -> "Sym3Coset":
        mat = tuple(tuple(int(x) for x in row) for row in center)
        if len(mat) != 3 or any(len(row) != 3 for row in mat):
            raise ValueError("center must be a 3x3 integer matrix")
        # raises unless mat is symmetric; the elimination is a congruence
        # of determinant 1, so q.det() is det center when the radical is 0
        q, radical = diagonalize(SymMatrix.make(mat), Place(p))
        if radical or valuation(q.det(), p) >= level:
            raise ValueError(
                "support meets det = 0: need v_p(det center) < level"
            )
        return Sym3Coset(mat, int(level))


# the six independent entries of a symmetric 3x3 matrix, in the column
# order of the Monte Carlo draws
_SYM3_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _sym3_minors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading minors d1, d2, d3 of the symmetric matrices whose entries
    are the columns of x, in the order of _SYM3_ENTRIES."""
    a, b, c, d, e, f = x.T
    d2 = a * b - d * d
    return a, d2, c * d2 + 2 * d * e * f - a * f * f - b * e * e


def sym3_classes(x: np.ndarray, place: Place) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hasse bits of q_X, and class bits and valuations of det X, for
    invertible symmetric integer matrices X given by the rows of an
    (N, 6) array of their entries x00, x11, x22, x01, x02, x12.

    With nonzero leading minors d1, d2, d3, q_X = <d1, d2/d1, d3/d2>, whose
    prefix products are d1 and d2.  When d1 or d2 vanishes, q_X is
    isotropic, hence a hyperbolic plane plus <-d3>, with Hasse invariant
    (-1, -d3) (Serre, A Course in Arithmetic, IV.2.2).
    """
    d1, d2, d3 = _sym3_minors(x)
    b1, _ = class_bits_array(d1, place)
    b2, _ = class_bits_array(d2, place)
    b3, v3 = class_bits_array(d3, place)
    minus_one = class_bits(-1, place)
    chain = hasse_bit((b1, b1 ^ b2, b2 ^ b3), place)
    isotropic = pairing(minus_one, minus_one ^ b3, place)
    return np.where((d1 == 0) | (d2 == 0), isotropic, chain), b3, v3


@dataclass(frozen=True)
class Sym3MCReport:
    p: int
    s: complex
    samples: int
    seed: int
    ratios: tuple[complex, complex]
    sigmas: tuple[float, float]
    difference: float
    sigma_combined: float
    within_3_sigma: bool
    dropped: int
    notes: tuple[str, ...] = ()


# Samples per block of the Monte Carlo probe.  Six default runs in one
# process peaked at 45 MB resident with blocks of 2^15 samples, 75 MB with
# 2^17 and 288 MB with the 10^6 samples in one block.  2^15 ran about 20%
# faster than 2^17, and 2^13 or 2^14 no faster (the (2^15, 6) int64 draw
# is 1.5 MB).
_MC_BLOCK_SAMPLES = 1 << 15

# p-adic digits drawn per matrix entry, before the int64 clamp
_MC_DEPTH = 10


def default_sym3_cosets(p: int) -> list[Sym3Coset]:
    # both at level one: the ratio variance grows like p^{3 Re s + level}
    # relative to the pairing value, so deeper cosets drown in noise at
    # desk-scale sample counts; the centers differ in det square class
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    mixed = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    return [Sym3Coset.make(eye, 1, p), Sym3Coset.make(mixed, 1, p)]


def padic_sym3_mc_check(
    p: int = 3,
    s: complex = 0.5,
    seed: int = 0,
    samples: int = 10**6,
) -> Sym3MCReport:
    """Monte Carlo probe of the degree-three functional equation.

    For phi the indicator of X0 + p^L Sym_3(Z_p) with det X0 nonzero on
    the support, both pairings converge absolutely:

      LHS = integral of |det Y|^s psi(Tr(X0 Y)) over p^{-L} Sym_3(Z_p),
            times the volume p^{-6L} carried by F(phi);
      RHS = integral of eps(q_X) (det X, -1) |det X|^{-s-2} over the support.

    Each is estimated from the same seeded stream of uniform symmetric
    matrices with entries drawn modulo p^depth, and the ratio LHS/RHS must
    agree across the two default cosets.  Sampling truncates Z_p at depth digits, which
    biases only samples with v(det) near depth; their |det|^s weight is
    O(p^{-depth/2}), far below the Monte Carlo noise, and the bias note is
    carried in the report.  Error bars come from batch-mean bootstrap over
    500 batches, so samples must be at least 500; it is rounded down to a
    multiple of 500.
    """
    if p == 2:
        raise ValueError("the trace pairing is not self-dual at p = 2")
    batches = 500
    if samples < batches:
        raise ValueError(f"samples: need at least {batches}, one per bootstrap batch; got {samples}")
    s = complex(s)
    if not 0 < s.real < 1:
        raise ValueError(f"Re(s) = {s.real} outside (0, 1)")
    cosets = default_sym3_cosets(p)
    notes = []
    max_level = max(c.level for c in cosets)
    # determinants of int64 entry matrices must stay below 2^63
    safe_depth = int(math.floor(math.log(((2**63 - 1) / 8) ** (1 / 3), p))) - max_level
    depth = _MC_DEPTH
    if depth > safe_depth:
        notes.append(f"depth reduced from {depth} to {safe_depth} to keep int64 determinants exact")
        depth = safe_depth
    streams = np.random.SeedSequence(seed).spawn(2 * len(cosets) + 1)
    rng_streams = [np.random.default_rng(ss) for ss in streams[:-1]]
    batch = samples // batches
    n = batch * batches
    logp = math.log(p)
    modulus = p**depth
    place = Place(p)
    minus_one = class_bits(-1, place)
    dropped = 0

    ratios: list[complex] = []
    batch_ratio_rows = []
    # whole batches per block bound the working set; the streams are drawn
    # in the same order and each batch mean is taken over the same samples,
    # so the result equals that of a single block of n samples
    block = max(1, _MC_BLOCK_SAMPLES // batch)
    for ci, coset in enumerate(cosets):
        lvl = coset.level
        q = p**lvl
        x0 = np.array([coset.center[i][j] for i, j in _SYM3_ENTRIES], dtype=np.int64)
        # Tr(X0 Y) = sum of x0_ii y_ii + 2 x0_ij y_ij over i < j
        trace_weights = x0 * np.array([1, 1, 1, 2, 2, 2], dtype=np.int64)
        # psi(Tr(X0 Y)) for each residue of Tr(X0 Y') mod p^L
        phase = np.exp(2j * np.pi * np.arange(q) / float(q))
        rng_lhs, rng_rhs = rng_streams[2 * ci], rng_streams[2 * ci + 1]
        lhs_parts, rhs_parts = [], []
        for first in range(0, batches, block):
            nb = min(block, batches - first)
            m = nb * batch

            # LHS: Y = Y'/p^L with Y' uniform on Sym_3(Z_p); F(phi) carries the
            # factor p^{-6L} psi(Tr(X0 Y)) on p^{-L} Sym, and the volume of the
            # Y' domain cancels it, leaving a plain mean.
            flat = rng_lhs.integers(0, modulus, size=(m, 6), dtype=np.int64)
            dets = _sym3_minors(flat)[2]
            zero = dets == 0
            dropped += int(zero.sum())
            v = np.where(zero, depth * 3, class_bits_array(dets, place)[1])
            tr = flat @ trace_weights
            # |det Y|^s = p^{(3L - v) s}, one value per valuation; the
            # remainder is taken as in places.class_bits_array
            det_power = np.exp((3 * lvl - np.arange(v.max() + 1)) * s * logp)
            weight = det_power[v] * phase[tr - tr // q * q]
            weight[zero] = 0
            lhs_parts.append(weight.reshape(nb, batch).mean(axis=1))

            # RHS: X = X0 + p^L X' with X' uniform; weight eps(q_X)(det,-1)|det|^{-s-2}
            # and the p^{-6L} volume of the support cancels against the LHS factor.
            flat = rng_rhs.integers(0, modulus, size=(m, 6), dtype=np.int64)
            flat *= q  # X = X0 + p^L X' in place, with no (m, 6) temporaries
            flat += x0
            hasse, det_bits, vdet = sym3_classes(flat, place)
            sign = 1 - 2 * (hasse ^ pairing(det_bits, minus_one, place))
            volume = float(p) ** (-6 * lvl)
            det_power = np.exp(np.arange(vdet.max() + 1) * (s + 2) * logp)
            rhs_w = sign * det_power[vdet] * volume
            rhs_parts.append(rhs_w.reshape(nb, batch).mean(axis=1) + 0j)
        lhs_batches = np.concatenate(lhs_parts)
        rhs_batches = np.concatenate(rhs_parts)

        lhs_mean = lhs_batches.mean()
        rhs_mean = rhs_batches.mean()
        if abs(rhs_mean) < 1e-12:
            raise ArithmeticError("degenerate coset: the invariant pairing vanished")
        ratios.append(complex(lhs_mean / rhs_mean))
        batch_ratio_rows.append((lhs_batches, rhs_batches))

    # bootstrap over batch means; sigma is the spread of each replicate
    # statistic around its own mean, so a real discrepancy cannot widen
    # the error bar it is judged against
    boot_rng = np.random.default_rng(streams[-1])
    reps = 400
    per_coset = [np.empty(reps, dtype=complex), np.empty(reps, dtype=complex)]
    for r in range(reps):
        idx = boot_rng.integers(0, batches, size=batches)
        for ci, (lb, rb) in enumerate(batch_ratio_rows):
            per_coset[ci][r] = lb[idx].mean() / rb[idx].mean()
    diffs = per_coset[0] - per_coset[1]
    sigmas = [float(np.sqrt(np.mean(np.abs(pc - pc.mean()) ** 2))) for pc in per_coset]
    sigma_combined = float(np.sqrt(np.mean(np.abs(diffs - diffs.mean()) ** 2)))
    difference = abs(ratios[0] - ratios[1])
    return Sym3MCReport(
        p=p,
        s=s,
        samples=n,
        seed=seed,
        ratios=(ratios[0], ratios[1]),
        sigmas=(sigmas[0], sigmas[1]),
        difference=difference,
        sigma_combined=max(sigma_combined, 1e-15),
        within_3_sigma=difference <= 3 * sigma_combined,
        dropped=dropped,
        notes=(
            *notes,
            f"entries sampled modulo {p}^{depth}; residual truncation bias is "
            f"O({p}^{-depth * s.real:.0f}) per sample, below the Monte Carlo noise",
        ),
    )


def sym3_fourier_value(coset: Sym3Coset, y_matrix, p: int) -> complex:
    """Closed form of F(1_coset) at a rational symmetric argument.

    F(1_{X0 + p^L Sym})(Y) = p^{-6L} psi(Tr(X0 Y)) 1_{p^{-L} Sym}(Y) for
    the pairing psi(Tr(XY)), psi the standard character.
    """
    psi = AdditiveCharacter(Place(p))
    lvl = coset.level
    y = [[parse_rational(e) for e in row] for row in y_matrix]
    if any(y[i][j] != y[j][i] for i in range(3) for j in range(3)):
        raise ValueError("argument must be symmetric")
    for i in range(3):
        for j in range(3):
            if y[i][j] != 0 and valuation(y[i][j], p) < -lvl:
                return 0j
    trace = sum(coset.center[i][j] * y[j][i] for i in range(3) for j in range(3))
    return Fraction(p) ** (-6 * lvl) * psi(trace)
