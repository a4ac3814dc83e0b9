"""Exact p-adic oscillatory integrals and their stationary-phase model.

For an integer polynomial f in one or two variables and a rational t
with negative even valuation, the normalized integral

    I(t) = integral over Z_p^n of psi(t f(x)) dx

is a finite character sum: the phase t*f(x) mod 1 has denominator p^e
and is periodic in x mod p^e, so the full-period sum at level e is the
integral on the nose, with no truncation error.  The stationary-phase
model predicts I(t) from the critical points of f: each nondegenerate
critical point x0 (simple root of grad f mod p, lifted by Newton
iteration) contributes

    psi(t f(x0)) * |t|^(-n/2) * gamma(q0, psi) * |det H(x0)|^(-1/2)

where H is the Hessian matrix and q0(v) = v^T H(x0) v / 2.

`charsum` owns the exact integrals: `exact_oscillatory_integral` scales
the coefficients of f by t and hands them over as rationals, and
`charsum` works out the conductor e, the numerators mod p^e and the
sum.  A separable f = g(x) + h(y) is summed as a product of two
one-variable integrals, since the grid (Z/p^e)^2 outgrows TERM_BUDGET
long before either axis does.  Each term is a product of two tabulated
roots of unity, within a few ulp of the exact root, so a sum of N terms
is off by at most a few N ulp.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction

from .charsum import padic_poly_sum, padic_poly_sum_2d
from .forms import QuadraticForm, SymMatrix, form_of_matrix
from .places import AdditiveCharacter, Place, Rational, valuation
from .weil import gamma_form, polarized_det_abs_rsqrt

Monomials = dict[tuple[int, ...], int]

# Gate on |exact - prediction| at each tested level of compare_stationary.
PREDICTION_TOL = 1e-10

VAR_NAMES = ("x", "y")


class DegenerateCriticalPointError(ValueError):
    pass


def _parse_monomials(src: str) -> Monomials:
    """Parse an integer polynomial in x (and optionally y).

    Accepts +, -, *, parentheses and ^ or ** for powers, e.g.
    "x^3-3*x" or "x^2+y^2".
    """
    tree = ast.parse(src.replace("^", "**").strip(), mode="eval")

    def combine(a: Monomials, b: Monomials, sign: int) -> Monomials:
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + sign * v
        return {k: v for k, v in out.items() if v}

    def mul(a: Monomials, b: Monomials) -> Monomials:
        out: Monomials = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = (ka[0] + kb[0], ka[1] + kb[1])
                out[k] = out.get(k, 0) + va * vb
        return {k: v for k, v in out.items() if v}

    def walk(node) -> Monomials:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise ValueError("coefficients must be integers")
            return {(0, 0): node.value} if node.value else {}
        if isinstance(node, ast.Name):
            if node.id not in VAR_NAMES:
                raise ValueError(f"unknown variable {node.id!r}; use x, y")
            return {(1, 0) if node.id == "x" else (0, 1): 1}
        if isinstance(node, ast.UnaryOp):
            inner = walk(node.operand)
            if isinstance(node.op, ast.USub):
                return {k: -v for k, v in inner.items()}
            if isinstance(node.op, ast.UAdd):
                return inner
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return combine(walk(node.left), walk(node.right), 1)
            if isinstance(node.op, ast.Sub):
                return combine(walk(node.left), walk(node.right), -1)
            if isinstance(node.op, ast.Mult):
                return mul(walk(node.left), walk(node.right))
            if isinstance(node.op, ast.Pow):
                exp = node.right
                if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int) and exp.value >= 0):
                    raise ValueError("exponents must be nonnegative integer literals")
                base = walk(node.left)
                out: Monomials = {(0, 0): 1}
                for _ in range(exp.value):
                    out = mul(out, base)
                return out
        raise ValueError(f"unsupported syntax in polynomial: {ast.dump(node)}")

    return walk(tree)


@dataclass(frozen=True)
class PhasePolynomial:
    """Integer polynomial phase in one or two variables at a p-adic place."""

    place: Place
    terms: tuple[tuple[tuple[int, int], int], ...]  # ((ex, ey), coeff)

    @staticmethod
    def parse(src: str, place: Place) -> "PhasePolynomial":
        if place.is_real:
            raise ValueError("phase polynomials are p-adic here")
        mon = _parse_monomials(src)
        if not any(sum(k) >= 1 for k in mon):
            raise ValueError("polynomial must be nonconstant")
        return PhasePolynomial(place, tuple(sorted(mon.items())))

    @property
    def monomials(self) -> Monomials:
        return dict(self.terms)

    @property
    def nvars(self) -> int:
        return 2 if any(k[1] for k, _ in self.terms) else 1

    def eval_at(self, point: tuple[int, ...]) -> int:
        return _eval_monomials(self.monomials, point)

    def gradient(self) -> list[Monomials]:
        return [_diff_monomials(self.monomials, v) for v in range(self.nvars)]

    def hessian(self) -> list[list[Monomials]]:
        n = self.nvars
        grads = self.gradient()
        return [[_diff_monomials(grads[i], j) for j in range(n)] for i in range(n)]

    def is_separable(self) -> bool:
        """True when no monomial mixes the two variables."""
        return all(k[0] == 0 or k[1] == 0 for k, _ in self.terms)

    def split_separable(self) -> tuple[Monomials, Monomials]:
        gx = {k: c for k, c in self.terms if k[1] == 0}
        gy = {k: c for k, c in self.terms if k[0] == 0 and k[1] > 0}
        return gx, gy


def _diff_monomials(mon: Monomials, var: int) -> Monomials:
    out: Monomials = {}
    for (ex, ey), c in mon.items():
        e = (ex, ey)[var]
        if e:
            k = (ex - 1, ey) if var == 0 else (ex, ey - 1)
            out[k] = out.get(k, 0) + c * e
    return out


def _eval_monomials(mon: Monomials, point: tuple[int, ...], modulus: int | None = None) -> int:
    x = point[0]
    y = point[1] if len(point) > 1 else 0
    total = sum(c * x**k[0] * y**k[1] for k, c in mon.items())
    return total % modulus if modulus else total


@dataclass(frozen=True)
class PhaseIntegralResult:
    value: complex
    conductor: int  # e: the phase t*f is periodic mod p^e in each variable
    terms: int  # terms enumerated: p^(2e) on the grid, or one period per separable factor
    stabilized: bool  # always True: the sum is exactly periodic, see exact_oscillatory_integral


def _coeff_list(mon: dict) -> list:
    """The coefficients of a one-variable polynomial (in x or in y) by degree."""
    coeffs = [0] * (max(i + j for i, j in mon) + 1)
    for (i, j), c in mon.items():
        coeffs[i + j] = c
    return coeffs


def exact_oscillatory_integral(f: PhasePolynomial, t: Rational) -> PhaseIntegralResult:
    """Exact value of the n-dimensional integral of psi(t f(x)) over Z_p^n.

    `charsum` sums the phase t*f over one full period (Z/p^e)^n, e its
    conductor, so there is no truncation error.  `stabilized` records
    that periodicity and is always True: the numerators of t*f over p^e
    depend on t only mod p^(-e) Z_p, so t and t(1 + p^e) give the same
    sum term by term.
    """
    t = Fraction(t)
    p = f.place.p
    if t == 0 or valuation(t, p) >= 0:
        raise ValueError("need |t| > 1 for an oscillatory phase")
    scaled = {k: t * c for k, c in f.terms}
    if f.nvars == 1:
        value, e = padic_poly_sum(_coeff_list(scaled), p)
        terms = p**e
    elif f.is_separable():
        (vx, ex), (vy, ey) = (
            padic_poly_sum(_coeff_list({k: scaled[k] for k in g}), p) for g in f.split_separable()
        )
        value, e, terms = vx * vy, max(ex, ey), p**ex + p**ey
    else:
        value, e = padic_poly_sum_2d(scaled, p)
        terms = p ** (2 * e)
    return PhaseIntegralResult(value, e, terms, True)


@dataclass(frozen=True)
class CriticalPoint:
    point: tuple[int, ...]  # residue representatives mod p^precision
    precision: int  # the point is certified mod p^precision
    hessian: tuple[tuple[int, ...], ...]
    hessian_form: QuadraticForm


def _matvec_inv_mod(H: list[list[int]], g: list[int], M: int) -> list[int]:
    """H^{-1} g mod M for an n<=2 integer matrix with unit determinant."""
    if len(H) == 1:
        return [pow(H[0][0], -1, M) * g[0] % M]
    det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
    dinv = pow(det % M, -1, M)
    a = (H[1][1] * g[0] - H[0][1] * g[1]) * dinv % M
    b = (-H[1][0] * g[0] + H[0][0] * g[1]) * dinv % M
    return [a, b]


def critical_points(f: PhasePolynomial, precision: int = 12) -> list[CriticalPoint]:
    """Nondegenerate critical points of f over Z_p, one per mod-p root of
    the gradient, Newton-lifted to the requested precision.

    Every mod-p root of grad f must be nondegenerate (Hessian invertible
    mod p); a degenerate root raises DegenerateCriticalPointError, since
    the stationary-phase model does not cover it.
    """
    p = f.place.p
    n = f.nvars
    grads = f.gradient()
    hess = f.hessian()
    roots = []
    for ix in range(p):
        for iy in range(p) if n == 2 else [0]:
            pt = (ix, iy)[:n]
            if all(_eval_monomials(g, pt, p) == 0 for g in grads):
                roots.append(pt)
    out = []
    pN = p**precision
    for r in roots:
        H0 = [[_eval_monomials(hess[i][j], r, p) for j in range(n)] for i in range(n)]
        det0 = H0[0][0] if n == 1 else H0[0][0] * H0[1][1] - H0[0][1] * H0[1][0]
        if det0 % p == 0:
            raise DegenerateCriticalPointError(
                f"critical point {r} mod {p} has singular Hessian; "
                "not covered by the nondegenerate model"
            )
        X = list(r)
        for _ in range(64):
            g = [_eval_monomials(gr, tuple(X), pN) for gr in grads]
            if all(v == 0 for v in g):
                break
            H = [[_eval_monomials(hess[i][j], tuple(X), pN) for j in range(n)] for i in range(n)]
            step = _matvec_inv_mod(H, g, pN)
            X = [(X[i] - step[i]) % pN for i in range(n)]
        else:
            raise ArithmeticError("Newton iteration failed to converge")
        Hl = tuple(
            tuple(_eval_monomials(hess[i][j], tuple(X), pN) for j in range(n))
            for i in range(n)
        )
        A = SymMatrix.make([[Fraction(h, 2) for h in row] for row in Hl])
        out.append(CriticalPoint(tuple(X), precision, Hl, form_of_matrix(A, f.place)))
    return out


def stationary_phase_prediction(f: PhasePolynomial, t: Rational) -> complex:
    """Predicted value of the oscillatory integral from critical points.

    Needs v(t) negative and even (t is a square times a unit of even
    valuation); each nondegenerate critical point contributes
    psi(t f(x0)) |t|^(-n/2) gamma(q0) |det H(x0)|^(-1/2), psi the standard
    character psi_+ that the exact integral uses.
    """
    t = Fraction(t)
    p = f.place.p
    psi = AdditiveCharacter(f.place)
    v = valuation(t, p)
    if v >= 0 or v % 2:
        raise ValueError("need t of negative even valuation")
    m = -v // 2
    pts = critical_points(f, precision=max(2 * m + 4, 8))
    n = f.nvars
    total = 0 + 0j
    for cp in pts:
        g = gamma_form(cp.hessian_form, psi)
        phase = psi(t * f.eval_at(cp.point))
        # the polarized det of q0 = v^T H v / 2 is det H exactly
        total += (
            phase
            * float(p) ** (n * v / 2)
            * g.value
            * polarized_det_abs_rsqrt(cp.hessian_form)
        )
    return total


@dataclass(frozen=True)
class StationaryComparison:
    rows: tuple[dict, ...]
    agreement_from: int | None  # least m with agreement at all tested m' >= m


def compare_stationary(f: PhasePolynomial, exponents: list[int]) -> StationaryComparison:
    """Exact integral vs stationary prediction at t = p^(-2m) for each m.

    Reports per-level rows and the least level from which all tested
    levels agree within PREDICTION_TOL (the model is asymptotic: it may
    fail at small |t| and must hold for |t| large).
    """
    p = f.place.p
    rows = []
    for m in sorted(exponents):
        t = Fraction(1, p ** (2 * m))
        exact = exact_oscillatory_integral(f, t)
        pred = stationary_phase_prediction(f, t)
        rows.append(
            {
                "m": m,
                "abs_t": p ** (2 * m),
                "exact": exact.value,
                "prediction": pred,
                "abs_diff": abs(exact.value - pred),
                "stabilized": exact.stabilized,
            }
        )
    agree = None
    for row in reversed(rows):
        if row["abs_diff"] < PREDICTION_TOL:
            agree = row["m"]
        else:
            break
    return StationaryComparison(tuple(rows), agree)
