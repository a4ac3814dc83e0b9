"""Weil constants of quadratic forms and the functional equation they
normalize.

Conventions, fixed once for the whole package: a diagonal form
q = <a_1, ..., a_n> has polarization matrix 2*diag(a), so

    det(q)   = prod(2 a_i),
    dual     q~(y) = sum y_i^2 / (4 a_i),

and the constant gamma(q, psi) is the eighth root of unity in

    FT(psi(q)) = gamma(q, psi) * |det q|^(-1/2) * psi(-q~),

with the Fourier transform FT(f)(y) = integral f(x) psi(x.y) dx for the
self-dual Haar measure.  gamma is a homomorphism under direct sum, and
gamma(a x^2) depends only on the square class of a, so the hot path
reads the Weil index of that class in closed form (Weil 1964, Acta
Math. 111; Rao 1993, Pacific J. Math. 157).  With s = +-1 the sign of
psi and a = p^v u, u a unit:

    real place:  exp(i pi s sign(a) / 4);
    odd p:       1 for v even, (u|p) eps_p^s for v odd, where eps_p = 1
                 if p = 1 mod 4 and i if p = 3 mod 4;
    p = 2:       zeta_8^(s if u = 1 mod 4, else -s) * (2|u)^v.

The independent oracle, `gauss_gamma`, is a normalized exact Gauss sum
of the coefficient as given,

    I_m = p^m * |2a|^(1/2) * integral_{Z_p} psi(a x^2 / p^(2m)) dx,

which is exact, not a limit, from a level m0 that v(a) fixes (see
`gauss_levels`); the oracle sums that level and the next and certifies
the value by their agreement.  Only the oracle and the ball-indicator
sums enumerate terms: both pass rational coefficients to
`charsum.padic_poly_sum`, which works out the conductor itself, and
they alone import `charsum` (and numpy).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .forms import QuadraticForm, witt_filtration_level
from .places import AdditiveCharacter, Rational, class_bits, valuation

EIGHTH_ROOTS = [cmath.exp(1j * cmath.pi * k / 4) for k in range(8)]

# Gate on the residual |LHS - RHS| of verify_weil_equation: both sides are
# exact character sums, so only rounding separates them.
EQUATION_TOL = 1e-9

# Gates of the weil-gamma comparisons.  ROOT_TOL bounds the distance of a
# product of Weil constants from the root of unity it should equal: the
# relative Hasse invariant in gamma_matches_epsilon, or the nearest eighth
# root for a product of Gauss sums.  VALUE_TOL bounds |gamma - gamma'| for
# two routes to one constant: hyperbolic padding, gamma(q + (-q)) = 1, the
# closed form against the Gauss sum, the Gauss sum at its exact level
# against the next level, and Weil reciprocity.
ROOT_TOL = 1e-6
VALUE_TOL = 1e-9


def nearest_eighth_root(z: complex) -> tuple[int, float]:
    """Index k in 0..7 with z closest to exp(i pi k / 4), plus distance."""
    k = min(range(8), key=lambda k: abs(z - EIGHTH_ROOTS[k]))
    return k, abs(z - EIGHTH_ROOTS[k])


@dataclass(frozen=True)
class WeilConstant:
    value: complex
    eighth_root_index: int
    root_deviation: float
    stabilized_at: int | None = None  # exact level m0 of the Gauss-sum oracle; None in closed form


def polarized_det_abs_rsqrt(q: QuadraticForm) -> float:
    """|det q|^(-1/2) at the form's p-adic place, det q = prod(2 a_i)."""
    p = q.place.p
    return float(p) ** (sum(valuation(2 * a, p) for a in q.coeffs) / 2)


def gauss_levels(a: Rational, psi: AdditiveCharacter) -> tuple[int, complex, complex]:
    """(m0, I_m0, I_(m0+1)): the least level at which the normalized Gauss
    sum of `a` is exact, and the sums at that level and the next.

    Write t = s a / p^(2m) = u p^(-k) with s the sign of psi, u a unit and
    k = 2m - v(a).  For k <= 0 the integral of psi(t x^2) over Z_p is 1;
    for k >= 1 it is p^(-k) G(u, p^k), with G(u, p^k) the sum of
    psi(u x^2 / p^k) over x mod p^k.  At odd p, |G(u, p^k)| = p^(k/2) for
    k >= 1, and G(u, p^(k+2)) = p G(u, p^k), so its phase depends only on
    u and the parity of k.  At p = 2, |G(u, 2^k)| = 2^((k+1)/2) for k >= 2,
    G(u, 2^(k+2)) = 2 G(u, 2^k), and G(u, 2) = 0.  Multiplying by
    p^m |2a|^(1/2) = |2|^(1/2) p^(k/2) gives a value of modulus 1 that is
    the same for every m once k >= 0 at odd p (k = 0 reads G(u, 1) = 1)
    or k >= 2 at p = 2.  One level below, k drops by 2 and the value is
    |2|^(1/2) p^(k/2) or 0: modulus p^(-1) or p^(-1/2) at odd p, and
    2^(-1/2) or 0 at p = 2.  So the least exact level is

        m0 = max(1, ceil(v(a) / 2))        at odd p,
        m0 = max(1, ceil((v(a) + 2) / 2))  at p = 2,

    and the sums cost p^(2 m0 - v(a)) and p^2 times that many terms.
    """
    from .charsum import padic_poly_sum

    a = Fraction(a)
    if a == 0:
        raise ValueError("form coefficient must be nonzero")
    if psi.place.is_real:
        raise ValueError("the Gauss-sum oracle is p-adic")
    p = psi.place.p
    v = valuation(a, p)
    m0 = max(1, -(-(v + (2 if p == 2 else 0)) // 2))
    scale = math.sqrt(float(p) ** (-valuation(2 * a, p)))  # |2a|^(1/2)

    def level(m: int) -> complex:
        s, _ = padic_poly_sum([Fraction(0), Fraction(0), Fraction(psi.sign) * a / p ** (2 * m)], p)
        return p**m * scale * s

    return m0, level(m0), level(m0 + 1)


def gauss_gamma(a: Rational, psi: AdditiveCharacter) -> WeilConstant:
    """The oracle for gamma(a x^2, psi) at a p-adic place: the Gauss sum
    of `a` as given, not of its class representative, at its exact level
    m0 (see `gauss_levels`), so its cost grows with |v(a)| and with p.

    The value is certified by the next level: raises ArithmeticError when
    I_m0 and I_(m0+1) differ by VALUE_TOL or more."""
    m0, value, check = gauss_levels(a, psi)
    if abs(value - check) >= VALUE_TOL:
        raise ArithmeticError(
            f"Gauss sums at the exact level and the next disagree: I_{m0}={value:.6f}, I_{m0 + 1}={check:.6f}"
        )
    k, dev = nearest_eighth_root(value)
    return WeilConstant(value, k, dev, m0)


def _weil_index(a: Fraction, psi: AdditiveCharacter) -> int:
    """Eighth-root index of gamma(a x^2, psi), from the class bits of a.

    psi_- conjugates gamma, so the index is the sign of psi times the
    psi_+ index of the formulas above: real, sign(a); p = 2, +-1 by eps(u),
    plus 4 when v and w(u) are odd; odd p, 0 for v even, else that of eps_p
    (0 or 2), plus 4 when (u|p) = -1.
    """
    place = psi.place
    bits = class_bits(a, place)
    if place.is_real:
        k = 1 - 2 * bits
    elif place.p == 2:
        k = 1 - 2 * (bits & 1) + (4 if (bits & 6) == 6 else 0)
    else:
        k = (bits >> 1) * ((0 if place.p % 4 == 1 else 2) + 4 * (bits & 1))
    return psi.sign * k % 8


def _exact(k: int) -> WeilConstant:
    return WeilConstant(EIGHTH_ROOTS[k], k, 0.0, None)


def gamma_rank1(a: Rational, psi: AdditiveCharacter) -> WeilConstant:
    """Weil constant of the rank-1 form a*x^2 under the character psi,
    read from the square class of a in closed form."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("form coefficient must be nonzero")
    return _exact(_weil_index(a, psi))


def gamma_form(q: QuadraticForm, psi: AdditiveCharacter) -> WeilConstant:
    """gamma(q, psi) = product of the rank-1 constants of the diagonal
    coefficients (gamma is a homomorphism under direct sum), summed
    exactly as eighth-root indices."""
    if q.place != psi.place:
        raise ValueError("form and character live at different places")
    return _exact(sum(gamma_rank1(a, psi).eighth_root_index for a in q.coeffs) % 8)


@dataclass(frozen=True)
class BallIndicator:
    """Indicator of a product of p-adic balls prod (c_i + p^level Z_p)."""

    center: tuple[Fraction, ...]
    level: int

    @staticmethod
    def make(center, level: int) -> "BallIndicator":
        return BallIndicator(tuple(Fraction(c) for c in center), int(level))


@dataclass(frozen=True)
class WeilEquationReport:
    lhs: complex
    rhs: complex
    residual: float
    gamma: WeilConstant


def verify_weil_equation(
    q: QuadraticForm, ball: BallIndicator, psi: AdditiveCharacter
) -> WeilEquationReport:
    """Test the defining functional equation of gamma against the
    indicator of a ball, both sides evaluated as exact character sums.

    With phi the indicator of prod(c_i + p^k Z_p):
      LHS = integral phi(x) psi(q(x)) dx
      RHS = gamma(q) |det q|^(-1/2) * integral FT(phi)(y) psi(-q~(y)) dy
    and FT(phi) factors as prod p^(-k) psi(c_i y_i) on prod p^(-k) Z_p.
    Diagonal forms split both sides into one-dimensional sums.
    """
    if psi.place.is_real or q.place != psi.place:
        raise ValueError("p-adic form and matching character required")
    if len(ball.center) != q.rank:
        raise ValueError("ball dimension must match the rank")
    from .charsum import padic_poly_sum

    p = q.place.p
    k = ball.level
    sgn = Fraction(psi.sign)

    lhs = 1 + 0j
    for a, c in zip(q.coeffs, ball.center):
        # x = c + p^k z:  a x^2 = a c^2 + 2 a c p^k z + a p^2k z^2
        poly = [sgn * a * c * c, sgn * 2 * a * c * Fraction(p) ** k, sgn * a * Fraction(p) ** (2 * k)]
        lhs *= Fraction(p) ** (-k) * padic_poly_sum(poly, p)[0]

    g = gamma_form(q, psi)
    rhs = g.value * polarized_det_abs_rsqrt(q)
    for a, c in zip(q.coeffs, ball.center):
        # y = p^-k w:  -y^2/(4a) + c y pulled back to w in Z_p
        poly = [
            Fraction(0),
            sgn * c * Fraction(p) ** (-k),
            -sgn * Fraction(p) ** (-2 * k) / (4 * a),
        ]
        rhs *= padic_poly_sum(poly, p)[0]  # the p^-k and p^k volume factors cancel

    return WeilEquationReport(lhs, rhs, abs(lhs - rhs), g)


@dataclass(frozen=True)
class GammaEpsilonReport:
    gamma_ratio: complex
    epsilon: int
    ok: bool


def gamma_matches_epsilon(q: QuadraticForm, r: QuadraticForm, psi: AdditiveCharacter) -> GammaEpsilonReport:
    """Check gamma(q) conj(gamma(r)) = relative Hasse-Witt invariant
    within ROOT_TOL.

    Requires the Witt-class difference to sit in the square of the
    fundamental ideal (filtration level >= 2); the comparison value is
    the level-2 class reported by witt_filtration_level, which equals
    hasse(q)*hasse(r) whenever the ranks agree.
    """
    level, w2 = witt_filtration_level(q, r)
    if level < 2:
        raise ValueError(
            f"pair sits at filtration level {level}; the identity needs level >= 2"
        )
    ratio = gamma_form(q, psi).value * gamma_form(r, psi).value.conjugate()
    return GammaEpsilonReport(ratio, w2, abs(ratio - w2) < ROOT_TOL)
