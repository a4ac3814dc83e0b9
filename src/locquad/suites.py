"""Named verification suites behind `locquad verify` and the acceptance tests.

Each suite exercises one numbered acceptance criterion and returns a
SuiteReport whose serialization is deterministic for a fixed seed: any
timing is kept out of the report body.  Every case can fail when the
arithmetic is wrong; an identity that holds by construction of the code
is not a case.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .forms import (
    QuadraticForm,
    SymMatrix,
    equivalent,
    form_of_matrix,
    invariants,
    witt_filtration_level,
)
from .places import (
    REAL,
    AdditiveCharacter,
    Place,
    Qp,
    hilbert_symbol,
    hilbert_symbol_oracle,
    least_nonresidue,
    square_class,
    square_class_reps,
)
from .shintani import CLOSED_FORM_TOL, check_sign_vectors, closed_form_error
from .stationary import PREDICTION_TOL, PhasePolynomial, compare_stationary
from .symsign import c_constant, epsilon_scaling_check, expected_orbit_count, scaling_invariant, sl_orbit_count
from .tate import (
    PADIC_TOL,
    REAL_TOL,
    MultiplicativeCharacter,
    padic_sym3_mc_check,
    real_gamma_matrix_check,
    real_tate_check,
    tate_check,
)
from .weil import (
    EQUATION_TOL,
    ROOT_TOL,
    VALUE_TOL,
    BallIndicator,
    gamma_form,
    gamma_matches_epsilon,
    gamma_rank1,
    gauss_levels,
    nearest_eighth_root,
    verify_weil_equation,
)


@dataclass(frozen=True)
class Case:
    name: str
    passed: bool
    expected: str
    got: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "expected": self.expected,
            "got": self.got,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    criterion: int
    gating: bool
    cases: tuple[Case, ...]
    seed: int

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases)

    def as_dict(self) -> dict:
        passed = sum(1 for c in self.cases if c.passed)
        return {
            "suite": self.suite,
            "criterion": self.criterion,
            "gating": self.gating,
            "seed": self.seed,
            "version": __version__,
            "counts": {
                "total": len(self.cases),
                "passed": passed,
                "failed": len(self.cases) - passed,
            },
            "ok": self.ok,
            "cases": [c.as_dict() for c in self.cases],
        }


def _fmt(z) -> str:
    if isinstance(z, complex):
        return f"{z.real:.12g}{z.imag:+.12g}j"
    if isinstance(z, float):
        return f"{z:.12g}"
    return str(z)


def _tol(x: float) -> str:
    """A tolerance as the case text writes it: 1e-9, not 1e-09."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


class SuiteOptionError(ValueError):
    """An option the suite does not take, or a value it cannot run at."""


def _places(place, default: list[Place]) -> list[Place]:
    """The places a suite runs at: `default`, or the one `place` names."""
    if place is None:
        return default
    return [place if isinstance(place, Place) else Place.parse(str(place))]


def _padic_primes(place, default: tuple[int, ...]) -> tuple[int, ...]:
    """The primes a p-adic suite runs at: `default`, or that of `place`."""
    places = _places(place, [Qp(p) for p in default])
    if any(pl.is_real for pl in places):
        raise SuiteOptionError("--place: this suite is p-adic; give p:<prime>")
    return tuple(pl.p for pl in places)


# -- criterion 1 -------------------------------------------------------------


def suite_hilbert_oracle(seed: int = 0, place=None) -> SuiteReport:
    """Closed-form Hilbert symbol against the lattice-search oracle."""
    places = _places(place, [REAL] + [Qp(p) for p in (2, 3, 5, 7, 11, 13)])
    cases = []
    for pl in places:
        reps = square_class_reps(pl)
        bad = []
        for a in reps:
            for b in reps:
                closed = hilbert_symbol(a, b, pl)
                oracle = hilbert_symbol_oracle(a, b, pl)
                if closed != oracle:
                    bad.append((str(a), str(b), closed, oracle))
        cases.append(
            Case(
                f"{pl}: {len(reps) ** 2} square-class pairs",
                not bad,
                "formula equals oracle on every pair",
                "agree" if not bad else f"mismatches {bad[:4]}",
            )
        )
    return SuiteReport("hilbert-oracle", 1, True, tuple(cases), seed)


# -- criterion 2 -------------------------------------------------------------


def _support_places(*xs: Fraction) -> list[Place]:
    """R, 2 and the primes dividing a numerator or denominator of xs."""
    primes = {2}
    for x in xs:
        for n in (abs(x.numerator), x.denominator):
            d = 2
            while d * d <= n:
                while n % d == 0:
                    primes.add(d)
                    n //= d
                d += 1
            if n > 1:
                primes.add(n)
    return [REAL] + [Qp(p) for p in sorted(primes)]


def suite_product_formula(seed: int = 0) -> SuiteReport:
    """prod over places of (a,b)_v = +1 for random rational pairs."""
    rng = random.Random(seed)
    cases = []
    for i in range(100):
        a = Fraction(rng.choice([x for x in range(-60, 61) if x]), rng.randint(1, 60))
        b = Fraction(rng.choice([x for x in range(-60, 61) if x]), rng.randint(1, 60))
        prod = 1
        for pl in _support_places(a, b):
            prod *= hilbert_symbol(a, b, pl)
        cases.append(Case(f"({a}, {b})", prod == 1, "product +1", str(prod)))
    return SuiteReport("product-formula", 2, True, tuple(cases), seed)


# -- criterion 3 -------------------------------------------------------------


def _random_unimodular(rng: random.Random, n: int):
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            g[i][k] += c * g[j][k]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        g[i], g[j] = g[j], g[i]
    return g


def _random_form(rng: random.Random, place: Place, rank: int) -> QuadraticForm:
    reps = square_class_reps(place)
    coeffs = []
    for _ in range(rank):
        scalar = Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2
        coeffs.append(rng.choice(reps) * scalar)
    return QuadraticForm.make(coeffs, place)


def suite_equivalence(seed: int = 0, place=None) -> SuiteReport:
    """Form invariants survive random unimodular congruences."""
    rng = random.Random(seed)
    places = _places(place, [REAL, Qp(2), Qp(5), Qp(7)])
    per = -(-250 // len(places))
    cases = []
    for pl in places:
        failures = []
        for _ in range(per):
            rank = rng.randint(1, 4)
            q = _random_form(rng, pl, rank)
            A = SymMatrix.diag(q.coeffs)
            g = _random_unimodular(rng, rank)
            B = A.congruent_by(g)
            r = form_of_matrix(B, pl)
            same = invariants(q) == invariants(r)
            if not (same and equivalent(q, r)):
                failures.append(str(q))
        cases.append(
            Case(
                f"{pl}: {per} congruences",
                not failures,
                "invariants preserved",
                "preserved" if not failures else f"broke on {failures[:3]}",
            )
        )
    return SuiteReport("equivalence", 3, True, tuple(cases), seed)


# -- criterion 4 -------------------------------------------------------------


def _moderate_form(rng: random.Random, place: Place, rank: int) -> QuadraticForm:
    # Coefficient valuations capped at |v| <= 3: the Gauss-sum oracle's
    # cost grows with |v(a)|, p^(2 m0 + 2 - v(a)) terms at its second level.
    reps = square_class_reps(place)
    p = place.p if not place.is_real else None
    coeffs = []
    for _ in range(rank):
        c = rng.choice(reps)
        if p is not None:
            unit = rng.choice([u for u in range(1, 10) if u % p])
            c = c * unit * unit * Fraction(p) ** rng.choice([-2, 0, 0, 2])
        else:
            c = c * Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2
        coeffs.append(c)
    return QuadraticForm.make(coeffs, place)


def _level2_pairs(rng: random.Random, place: Place, count: int):
    reps = square_class_reps(place)
    found = []
    guard = 0
    while len(found) < count and guard < 20000:
        guard += 1
        n = rng.randint(1, 4)
        k = rng.choice([0, 1, 2])
        q = QuadraticForm.make([rng.choice(reps) for _ in range(n)], place)
        r = QuadraticForm.make([rng.choice(reps) for _ in range(n + 2 * k)], place)
        level, _ = witt_filtration_level(q, r)
        if level >= 2:
            found.append((q, r))
    if len(found) < count:
        raise ArithmeticError("could not find enough filtration-level-2 pairs")
    return found


def suite_weil_gamma(seed: int = 0, place=None) -> SuiteReport:
    """The closed-form Weil index against the Gauss-sum oracle, Witt
    invariance, and the epsilon comparison.

    gamma_form adds eighth-root indices, so multiplicativity under direct
    sum holds by construction and is not a case.  At R there is no second
    route to gamma here (tests/test_weil.py checks it against Fresnel
    integrals), so the oracle cases run at the p-adic places only.
    """
    rng = random.Random(seed)
    places = _places(place, [REAL, Qp(2), Qp(3), Qp(5), Qp(7)])
    cases = []
    for pl in places:
        psi = AdditiveCharacter(pl)
        if not pl.is_real:
            cases += _gauss_oracle_cases(rng, pl, psi)
        worst = 0.0
        for _ in range(8):
            q = _moderate_form(rng, pl, rng.randint(1, 3))
            a = rng.choice(square_class_reps(pl)) * Fraction(rng.randint(1, 5))
            padded = q.direct_sum(QuadraticForm.make([a, -a], pl))
            worst = max(worst, abs(gamma_form(padded, psi).value - gamma_form(q, psi).value))
        cases.append(
            Case(
                f"{pl}: hyperbolic padding",
                worst < VALUE_TOL,
                f"gamma(q + <a,-a>) = gamma(q) within {_tol(VALUE_TOL)}",
                _fmt(worst),
            )
        )
        worst = 0.0
        for _ in range(8):
            q = _moderate_form(rng, pl, rng.randint(1, 3))
            worst = max(worst, abs(gamma_form(q.direct_sum(q.neg()), psi).value - 1))
        cases.append(
            Case(
                f"{pl}: gamma(q + (-q)) = 1",
                worst < VALUE_TOL,
                f"within {_tol(VALUE_TOL)} of 1",
                _fmt(worst),
            )
        )
        bad = 0
        for q, r in _level2_pairs(rng, pl, 20):
            rep = gamma_matches_epsilon(q, r, psi)
            if not rep.ok:
                bad += 1
        cases.append(
            Case(
                f"{pl}: gamma ratio = relative Hasse on 20 level-2 pairs",
                bad == 0,
                f"all pairs match within {_tol(ROOT_TOL)}",
                f"{bad} mismatches",
            )
        )
    if place is None:
        cases.append(_weil_reciprocity_case(rng))
    return SuiteReport("weil-gamma", 4, True, tuple(cases), seed)


def _gauss_oracle_cases(rng: random.Random, pl: Place, psi: AdditiveCharacter) -> list[Case]:
    """Eighth-root property, exactness at level m0 and the closed form,
    each read from the Gauss-sum oracle at a p-adic place."""
    # the oracle runs on the sampled coefficients as they are, never a
    # class representative: its exact level m0 grows with v(a)
    worst_root = 0.0
    gaps, closed = [], []
    summed = 0

    def oracle(a, chi) -> complex:
        _, value, check = gauss_levels(a, chi)
        gaps.append(abs(value - check))
        closed.append(abs(value - gamma_rank1(a, chi).value))
        return value

    for _ in range(12):
        q = _moderate_form(rng, pl, rng.randint(1, 4))
        value = 1 + 0j
        for a in q.coeffs:
            value *= oracle(a, psi)
            summed += 1
        worst_root = max(worst_root, nearest_eighth_root(value)[1])
    reps = square_class_reps(pl)
    for sign in (1, -1):
        chi = AdditiveCharacter(pl, sign)
        for a in reps:
            oracle(a, chi)
    return [
        Case(
            f"{pl}: eighth-root property",
            worst_root < ROOT_TOL,
            f"distance to the nearest eighth root < {_tol(ROOT_TOL)}",
            _fmt(worst_root),
        ),
        Case(
            f"{pl}: level m0 = level m0 + 1",
            max(gaps) < VALUE_TOL,
            f"Gauss sum at its exact level m0 within {_tol(VALUE_TOL)} of level m0 + 1",
            _fmt(max(gaps)),
        ),
        Case(
            f"{pl}: closed form = Gauss sum",
            max(closed) < VALUE_TOL,
            f"closed-form Weil index within {_tol(VALUE_TOL)} of the Gauss sum on {summed} sampled "
            f"coefficients and {len(reps)} classes under both signs of psi",
            _fmt(max(closed)),
        ),
    ]


def _weil_reciprocity_case(rng: random.Random, count: int = 40) -> Case:
    """prod_v gamma_v(q, psi_v) = 1 for rational q and a character of the
    adeles trivial on Q: psi_R = exp(2 pi i x), and sign -1 at every p.
    Only R, 2 and the primes of the coefficients can contribute."""
    big = 10007  # beyond any Gauss sum within the term budget
    worst = 0.0
    for i in range(count):
        coeffs = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60))
            for _ in range(rng.randint(1, 3))
        ]
        if i % 4 == 0:
            coeffs[0] *= big
        prod = 1 + 0j
        for pl in _support_places(*coeffs):
            psi = AdditiveCharacter(pl, 1 if pl.is_real else -1)
            prod *= gamma_form(QuadraticForm.make(coeffs, pl), psi).value
        worst = max(worst, abs(prod - 1))
    return Case(
        f"global: prod_v gamma_v(q) = 1 on {count} rational forms of rank 1-3",
        worst < VALUE_TOL,
        f"product over R, 2 and the primes of the coefficients (up to {big}) within {_tol(VALUE_TOL)} of 1",
        _fmt(worst),
    )


# -- criterion 5 -------------------------------------------------------------


def suite_weil_equation(seed: int = 0, place=None) -> SuiteReport:
    """Both sides of the gamma functional equation as exact finite sums."""
    rng = random.Random(seed)
    primes = _padic_primes(place, (3, 5, 7))
    cases = []
    for prime in primes:
        pl = Qp(prime)
        psi = AdditiveCharacter(pl, 1)
        for rank in (1, 2):
            worst = 0.0
            for level in (-1, 0, 1, 2, 3):
                coeffs = [
                    rng.choice(square_class_reps(pl)) * rng.choice([1, 1, Fraction(1, prime)])
                    for _ in range(rank)
                ]
                q = QuadraticForm.make(coeffs, pl)
                center = [
                    Fraction(rng.randint(0, prime - 1))
                    + Fraction(rng.randint(0, 1), prime)
                    for _ in range(rank)
                ]
                ball = BallIndicator.make(center, level)
                rep = verify_weil_equation(q, ball, psi)
                worst = max(worst, rep.residual)
            cases.append(
                Case(
                    f"p={prime} rank {rank}, ball levels -1..3",
                    worst < EQUATION_TOL,
                    f"LHS = RHS within {_tol(EQUATION_TOL)}",
                    _fmt(worst),
                )
            )
    return SuiteReport("weil-equation", 5, True, tuple(cases), seed)


# -- criterion 6 -------------------------------------------------------------


def suite_stationary(seed: int = 0, place=None) -> SuiteReport:
    """Exact oscillatory integrals against the critical-point prediction."""
    plan = [
        ("x^3 - 3*x", 7),
        ("x^3 - 3*x", 13),
        ("x^2 + y^2", 5),
    ]
    primes = _padic_primes(place, tuple(prime for _, prime in plan))
    plan = [(f, prime) for f, prime in plan if prime in primes]
    if not plan:
        raise SuiteOptionError("--place: this suite has cases at p:5, p:7 and p:13 only")
    cases = []
    for src, prime in plan:
        f = PhasePolynomial.parse(src, Qp(prime))
        comp = compare_stationary(f, [1, 2, 3])
        worst = max(row["abs_diff"] for row in comp.rows)
        cases.append(
            Case(
                f"{src} over Q_{prime}, |t| = p^2, p^4, p^6",
                worst < PREDICTION_TOL,
                f"exact integral equals prediction within {_tol(PREDICTION_TOL)}",
                _fmt(worst),
            )
        )
    return SuiteReport("stationary", 6, True, tuple(cases), seed)


# -- criterion 7 -------------------------------------------------------------


def suite_signprop(seed: int = 0, n=None, place=None) -> SuiteReport:
    """Exhaustive pairing-sign law over square-class diagonal matrices."""
    ns = (3, 5) if n is None else (int(n),)
    places = _places(place, [Qp(5), Qp(7), Qp(13), REAL])
    cases = []
    for nn in ns:
        for pl in places:
            rep = c_constant(nn, pl)
            cases.append(
                Case(
                    f"n={nn} at {pl}: {rep.matrices_checked} matrices, {rep.classes_checked} det classes",
                    rep.ok,
                    "g constant on each det class (equivalent to the pair law)",
                    "constant" if rep.ok else "inconsistent",
                )
            )
    return SuiteReport("signprop", 7, True, tuple(cases), seed)


# -- criterion 8 -------------------------------------------------------------


def suite_scaling(seed: int = 0) -> SuiteReport:
    """Odd-rank scaling law and invariance of the scaled-orbit invariant."""
    rng = random.Random(seed)
    places = [REAL, Qp(2), Qp(3), Qp(5), Qp(7)]
    cases = []
    failures = []
    for i in range(200):
        pl = rng.choice(places)
        nn = rng.choice([1, 3, 5])
        q = _random_form(rng, pl, nn)
        t = rng.choice(square_class_reps(pl)) * Fraction(rng.randint(1, 7), rng.randint(1, 7))
        rep = epsilon_scaling_check(q, t)
        g = _random_unimodular(rng, nn)
        r = form_of_matrix(SymMatrix.diag(q.coeffs).congruent_by(g), pl)
        congr_ok = scaling_invariant(q) == scaling_invariant(r)
        if not (rep.ok and congr_ok):
            failures.append(f"{pl} n={nn} t={t}")
    cases.append(
        Case(
            "200 random scaling and congruence checks",
            not failures,
            "scaling law exact; invariant stable under scaling and congruence",
            "all exact" if not failures else f"failed: {failures[:3]}",
        )
    )
    return SuiteReport("scaling", 8, True, tuple(cases), seed)


# -- criterion 9 -------------------------------------------------------------


def suite_orbits(seed: int = 0, n=None, place=None) -> SuiteReport:
    """Congruence orbits per rank and det class over Q_p against Serre's
    table: two per class from rank 3 on."""
    ns = (3, 5) if n is None else (int(n),)
    primes = _padic_primes(place, (3, 5, 7, 13))
    cases = []
    for prime in primes:
        pl = Qp(prime)
        reps = square_class_reps(pl)
        for nn in ns:
            counts = [sl_orbit_count(nn, d, pl) for d in reps]
            expected = [expected_orbit_count(nn, d, pl) for d in reps]
            cases.append(
                Case(
                    f"p={prime} n={nn}, all det classes",
                    counts == expected,
                    "2 orbits per class" if set(expected) == {2} else f"orbit counts {expected}",
                    str(counts),
                )
            )
    return SuiteReport("orbits", 9, True, tuple(cases), seed)


# -- criterion 10 ------------------------------------------------------------


def suite_shintani(seed: int = 0, n=None) -> SuiteReport:
    """Row sums of the gamma matrix against the closed-form products."""
    ns = (1, 3, 5, 7) if n is None else (int(n),)
    svals = [Fraction(1, 3), Fraction(-7, 5), 0.37 + 0.24j]
    cases = []
    for nn in ns:
        worst = max(closed_form_error(nn, s) for s in svals)
        cases.append(
            Case(
                f"n={nn}: direct sums vs closed forms at 3 generic s",
                worst < CLOSED_FORM_TOL,
                f"agree within {_tol(CLOSED_FORM_TOL)}",
                _fmt(worst),
            )
        )
        if nn % 2:
            rep = check_sign_vectors(nn, Fraction(1, 3))
            cases.append(
                Case(
                    f"n={nn}: normalized sign vectors",
                    rep.ok,
                    f"{rep.expected} and {rep.expected_prime}",
                    f"max error {_fmt(rep.max_error)}",
                )
            )
    return SuiteReport("shintani", 10, True, tuple(cases), seed)


# -- criterion 11 ------------------------------------------------------------


def suite_tate(seed: int = 0, place=None) -> SuiteReport:
    """Degree-one functional equation: p-adic, real, and the gamma matrix."""
    primes = _padic_primes(place, (3, 5))
    cases = []
    for prime in primes:
        pl = Qp(prime)
        u = least_nonresidue(prime)
        chars = [
            ("|x|^(-0.5)", MultiplicativeCharacter.make(pl, -0.5)),
            ("|x|^(-0.5+0.7j)", MultiplicativeCharacter.make(pl, -0.5 + 0.7j)),
            (f"(x,{u})|x|^(-0.5)", MultiplicativeCharacter.make(pl, -0.5, square_class(Fraction(u), pl))),
            (f"(x,{prime})|x|^(-0.25)", MultiplicativeCharacter.make(pl, -0.25, square_class(Fraction(prime), pl))),
        ]
        for label, chi in chars:
            rep = tate_check(chi)
            used = sum(1 for row in rep.rows if row["ratio"] is not None)
            cases.append(
                Case(
                    f"p={prime} chi={label}: {used} test functions",
                    rep.max_deviation < PADIC_TOL and used >= 4,
                    f"ratio constant within {_tol(PADIC_TOL)} over >= 4 functions",
                    f"deviation {_fmt(rep.max_deviation)}",
                )
            )
    for s, parity in ((-0.5, 0), (-0.3, 0), (-0.45, 1)):
        rep = real_tate_check(s, parity=parity)
        cases.append(
            Case(
                f"real s={s} parity {parity}",
                rep.max_deviation < REAL_TOL,
                f"ratio constant within {_tol(REAL_TOL)}",
                f"deviation {_fmt(rep.max_deviation)}",
            )
        )
    for s in (-0.3, -0.5, -0.62):
        gm = real_gamma_matrix_check(s)
        cases.append(
            Case(
                f"real 2x2 gamma matrix at s={s}",
                gm.residual < REAL_TOL,
                f"consistency residual < {_tol(REAL_TOL)}",
                _fmt(gm.residual),
            )
        )
    return SuiteReport("tate", 11, True, tuple(cases), seed)


# -- criterion 12 (non-gating) -----------------------------------------------


def suite_sym3_mc(seed: int = 0, samples: int = 10**6) -> SuiteReport:
    """Monte Carlo probe of the degree-three equation; a stretch check."""
    import cmath

    from .places import frac_part
    from .tate import Sym3Coset, sym3_fourier_value

    cases = []

    # transform of a level-1 coset indicator against the direct 3^6-term sum
    p = 3
    coset = Sym3Coset.make([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 1, p)
    y = [[Fraction(1, p), 0, 0], [0, 1, 0], [0, 0, Fraction(2, p)]]
    direct = 0
    for idx in range(p**6):
        digits = [(idx // p**j) % p for j in range(6)]
        x = [[0] * 3 for _ in range(3)]
        pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        for (i, j), d in zip(pairs, digits):
            x[i][j] = x[j][i] = coset.center[i][j] + p * d
        tr = sum(Fraction(x[i][j]) * y[j][i] for i in range(3) for j in range(3))
        direct += cmath.exp(2j * cmath.pi * float(frac_part(tr, p))) / p ** (6 * 2)
    closed = sym3_fourier_value(coset, y, p)
    cases.append(
        Case(
            "transform of a level-1 coset vs direct finite sum",
            abs(direct - closed) < 1e-12,
            "closed form equals the 729-term sum",
            _fmt(abs(direct - closed)),
        )
    )

    try:
        Sym3Coset.make([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 1, p)
        rejected = False
    except ValueError:
        rejected = True
    cases.append(
        Case(
            "support meeting det = 0 is rejected",
            rejected,
            "precondition error",
            "raised" if rejected else "accepted",
        )
    )

    try:
        rep = padic_sym3_mc_check(p=3, s=0.5, seed=seed, samples=int(samples))
    except ValueError as e:  # p and s are fixed: only a sample count below the minimum
        raise SuiteOptionError(str(e)) from e
    z = rep.difference / rep.sigma_combined
    cases.append(
        Case(
            f"p=3 s=0.5, {rep.samples} samples, 2 cosets",
            rep.within_3_sigma,
            "ratios agree within 3 bootstrap sigma",
            f"|r1 - r2| = {_fmt(rep.difference)} = {z:.2f} sigma; "
            f"ratios {_fmt(rep.ratios[0])}, {_fmt(rep.ratios[1])}",
        )
    )
    return SuiteReport("sym3-mc", 12, False, tuple(cases), seed)


SUITES = {
    "hilbert-oracle": suite_hilbert_oracle,
    "product-formula": suite_product_formula,
    "equivalence": suite_equivalence,
    "weil-gamma": suite_weil_gamma,
    "weil-equation": suite_weil_equation,
    "stationary": suite_stationary,
    "signprop": suite_signprop,
    "scaling": suite_scaling,
    "orbits": suite_orbits,
    "shintani": suite_shintani,
    "tate": suite_tate,
    "sym3-mc": suite_sym3_mc,
}


def run_suite(name: str, seed: int = 0, **options) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    takes = inspect.signature(SUITES[name]).parameters
    for option in options:
        if option not in takes:
            raise SuiteOptionError(f"--{option}: suite {name!r} does not take this option")
    return SUITES[name](seed=seed, **options)

