"""Independent checks of the package's answers.

Nothing here compares against a stored copy of earlier output.  Exact
answers are re-derived by a second route: the lattice-search Hilbert-symbol
oracle, square classes computed here from valuations and residues,
closed forms at the real place, or identities the answer must satisfy
(symmetry, the product formula, invariance under permutation and square
scaling, gamma(q) gamma(-q) = 1).  Each check returns a list of problems,
empty when the answer is right.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

from locquad.forms import QuadraticForm, invariants
from locquad.places import AdditiveCharacter, Place, hilbert_symbol, hilbert_symbol_oracle
from locquad.weil import gamma_form

TOL = 1e-6


def vp(x: Fraction, p: int) -> int:
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def class_key(x: Fraction, p: int | None) -> tuple:
    """The square class of x at the place (p None is R), as an invariant
    key: sign at R; valuation parity and Legendre bit at odd p; valuation
    parity and unit residue mod 8 at p = 2."""
    x = Fraction(x)
    if p is None:
        return (x > 0,)
    v = vp(x, p)
    u = x / Fraction(p) ** v
    if p == 2:
        return (v % 2, u.numerator * pow(u.denominator, -1, 8) % 8)
    r = u.numerator * pow(u.denominator, -1, p) % p
    return (v % 2, pow(r, (p - 1) // 2, p) == 1)


def class_count(p: int | None) -> int:
    return 2 if p is None else (8 if p == 2 else 4)


class Oracle:
    """hilbert_symbol_oracle, memoised on the square classes of its
    arguments (the symbol depends on nothing else)."""

    def __init__(self):
        self._memo: dict = {}
        self._places: dict = {}

    def place(self, p: int | None) -> Place:
        if p not in self._places:
            self._places[p] = Place(p)
        return self._places[p]

    def symbol(self, a: Fraction, b: Fraction, p: int | None) -> int:
        if p is None:
            return -1 if (a < 0 and b < 0) else 1
        key = (p, class_key(a, p), class_key(b, p))
        if key not in self._memo:
            self._memo[key] = hilbert_symbol_oracle(a, b, self.place(p))
        return self._memo[key]

    def hasse(self, coeffs: list[Fraction], p: int | None) -> int:
        """prod_i (a_1 ... a_{i-1}, a_i): the pairwise product regrouped
        by bilinearity, one oracle symbol per coefficient."""
        eps, det = 1, Fraction(1)
        for i, a in enumerate(coeffs):
            if i:
                eps *= self.symbol(det, a, p)
            det *= a
        return eps


def _prod(xs) -> Fraction:
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


def _real_hasse(coeffs) -> int:
    k = sum(1 for c in coeffs if c < 0)
    return -1 if (k * (k - 1) // 2) % 2 else 1


def _primes_of(x: Fraction) -> set[int]:
    out = set()
    for n in (abs(x.numerator), x.denominator):
        d = 2
        while d * d <= n:
            while n % d == 0:
                out.add(d)
                n //= d
            d += 1
        if n > 1:
            out.add(n)
    return out


def _invariants_problems(inv: dict, coeffs, p, oracle: Oracle, large: bool) -> list[str]:
    """Check {rank, det_class, hasse[, signature]} of the diagonal form."""
    probs = []
    if inv["rank"] != len(coeffs):
        probs.append(f"rank {inv['rank']} != {len(coeffs)}")
    if class_key(Fraction(inv["det_class"]), p) != class_key(_prod(coeffs), p):
        probs.append(f"det_class {inv['det_class']} is not the class of the determinant")
    if p is None:
        pos = sum(1 for c in coeffs if c > 0)
        if inv.get("signature") != [pos, len(coeffs) - pos]:
            probs.append(f"signature {inv.get('signature')}")
        if inv["hasse"] != _real_hasse(coeffs):
            probs.append(f"hasse {inv['hasse']} != closed form")
    elif not large and inv["hasse"] != oracle.hasse(coeffs, p):
        probs.append(f"hasse {inv['hasse']} != oracle prefix product")
    return probs


# -- one check per request kind ------------------------------------------------


def check_hilbert(spec, payload, oracle: Oracle, rng) -> list[str]:
    a, b, p = spec["a"], spec["b"], spec["p"]
    got = payload["symbol"]
    if not spec.get("large"):
        want = oracle.symbol(a, b, p)
        return [] if got == want else [f"symbol {got} != oracle {want}"]
    place = oracle.place(p)
    probs = []
    if hilbert_symbol(b, a, place) != got:
        probs.append("not symmetric")
    prod = got
    # a and b are a small rational times a power of p: factor the rest
    rest = _primes_of(a / Fraction(p) ** vp(a, p)) | _primes_of(b / Fraction(p) ** vp(b, p))
    for q in sorted(rest | {2}):
        prod *= hilbert_symbol(a, b, oracle.place(q))
    prod *= hilbert_symbol(a, b, oracle.place(None))
    if prod != 1:
        probs.append("product formula fails")
    return probs


def check_square_class(spec, payload, oracle, rng) -> list[str]:
    p, x = spec["p"], spec["x"]
    reps = [Fraction(r) for r in payload["classes"]]
    probs = []
    if class_key(Fraction(payload["rep"]), p) != class_key(x, p):
        probs.append(f"rep {payload['rep']} is not in the class of {x}")
    if Fraction(payload["rep"]) not in reps:
        probs.append("rep not among the listed classes")
    if len({class_key(r, p) for r in reps}) != len(reps) or len(reps) != class_count(p):
        probs.append(f"{len(reps)} listed classes are not the {class_count(p)} distinct classes")
    return probs


def check_hasse(spec, payload, oracle, rng) -> list[str]:
    coeffs, p = spec["coeffs"], spec["p"]
    probs = _invariants_problems(payload, coeffs, p, oracle, spec.get("large", False))
    if spec.get("large"):
        # invariance under a permutation and under square scaling
        moved = [c * Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 2 for c in coeffs]
        rng.shuffle(moved)
        again = invariants(QuadraticForm(oracle.place(p), tuple(moved))).hasse
        if again != payload["hasse"]:
            probs.append("hasse changed under permutation and square scaling")
    return probs


def check_equiv(spec, payload, oracle, rng) -> list[str]:
    p, left, right = spec["p"], spec["left"], spec["right"]
    probs = _invariants_problems(payload["left"], left, p, oracle, False)
    probs += _invariants_problems(payload["right"], right, p, oracle, False)
    if p is None:
        want = sum(c > 0 for c in left) == sum(c > 0 for c in right) and len(left) == len(right)
    else:
        want = (
            len(left) == len(right)
            and class_key(_prod(left), p) == class_key(_prod(right), p)
            and oracle.hasse(left, p) == oracle.hasse(right, p)
        )
    if payload["equivalent"] != want:
        probs.append(f"equivalent={payload['equivalent']}, invariants say {want}")
    return probs


def _root(index: int) -> complex:
    return cmath.exp(1j * cmath.pi * index / 4)


def check_gamma(spec, payload, oracle, rng) -> list[str]:
    p, coeffs, sign = spec["p"], spec["coeffs"], spec["sign"]
    value = complex(*payload["value"])
    k = payload["eighth_root_index"]
    probs = []
    if abs(value - _root(k)) > TOL or payload["root_deviation"] > TOL:
        probs.append(f"{value} is not the eighth root of index {k}")
    if p is None:
        want = sign * sum(1 if c > 0 else -1 for c in coeffs) % 8
        if k != want:
            probs.append(f"real index {k} != exp(i pi/4 * signature) index {want}")
        return probs
    place = oracle.place(p)
    psi = AdditiveCharacter(place, sign)
    if "reduced" in spec:
        # a deep or costly coefficient: gamma depends only on its square
        # class, so compare with gamma of the class representative, which
        # the benchmark reduced itself; a unit at odd p must give gamma = 1
        reps = spec["reduced"]
        if p != 2 and all(vp(c, p) == 0 for c in reps):
            if k != 0:
                probs.append("a unit square class at odd p must give gamma = 1")
            return probs
        ref = gamma_form(QuadraticForm(place, tuple(reps)), psi).value
        if abs(value - ref) > TOL:
            probs.append(f"{value} != gamma of the class representative {ref}")
        return probs
    neg = gamma_form(QuadraticForm(place, tuple(-c for c in coeffs)), psi).value
    if abs(value * neg - 1) > TOL:
        probs.append("gamma(q) gamma(-q) != 1")
    t = spec["t"]
    scaled = gamma_form(QuadraticForm(place, tuple(c * t * t for c in coeffs)), psi).value
    if abs(scaled - value) > TOL:
        probs.append(f"gamma(t^2 q) != gamma(q) for t = {t}")
    if p != 2 and all(vp(c, p) == 0 for c in coeffs) and k != 0:
        probs.append("unit coefficients at odd p must give gamma = 1")
    return probs


def check_weil_eq(spec, payload, oracle, rng) -> list[str]:
    lhs, rhs = complex(*payload["lhs"]), complex(*payload["rhs"])
    probs = []
    if not payload["ok"] or payload["residual"] >= payload["tol"]:
        probs.append(f"residual {payload['residual']} over tol")
    if abs(abs(lhs - rhs) - payload["residual"]) > 1e-12:
        probs.append("residual is not |lhs - rhs|")
    g = payload["gamma"]
    if abs(complex(*g["value"]) - _root(g["eighth_root_index"])) > TOL:
        probs.append("gamma is not an eighth root of unity")
    return probs


def check_stationary(spec, payload, oracle, rng) -> list[str]:
    rows = payload["rows"]
    probs = []
    if [r["m"] for r in rows] != sorted(spec["exponents"]):
        probs.append("rows do not cover the requested exponents")
    for r in rows:
        exact, pred = complex(*r["exact"]), complex(*r["prediction"])
        if not r["stabilized"] or abs(exact - pred) >= payload["tol"]:
            probs.append(f"m={r['m']}: exact sum {exact} vs prediction {pred}")
    if not payload["ok"]:
        probs.append("gate not ok")
    return probs


def check_tate(spec, payload, oracle, rng) -> list[str]:
    tol = payload["tol"]
    if spec["p"] is None:
        dev = payload["ratio_check"]["max_deviation"]
        res = payload["gamma_matrix_check"]["residual"]
        ok = dev < tol and res < tol
        used = sum(1 for r in payload["ratio_check"]["rows"] if r["ratio"] is not None)
    else:
        ok = payload["max_deviation"] < tol
        used = sum(1 for r in payload["rows"] if r["ratio"] is not None)
    probs = [] if ok and payload["ok"] else ["ratios not constant within tol"]
    if used < 2:
        probs.append(f"only {used} test functions carried a ratio")
    return probs


def check_shintani(spec, payload, oracle, rng) -> list[str]:
    n = spec["n"]
    probs = []
    if payload["closed_form_max_error"] >= payload["tol"] or not payload["ok"]:
        probs.append(f"row sums off the closed forms by {payload['closed_form_max_error']}")
    if len(payload["gamma_matrix"]) != n + 1 or len(payload["c"]) != n + 1:
        probs.append("wrong matrix size")
    if n % 2 and not payload["sign_vectors"]["ok"]:
        probs.append("sign vectors wrong")
    return probs


def check_sym_sign(spec, payload, oracle, rng) -> list[str]:
    if spec["mode"] == "pair":
        if payload["lhs"] != payload["rhs"] or not payload["ok"] or payload["epsilon_pair"] not in (1, -1):
            return [f"pair law fails: {payload['lhs']} vs {payload['rhs']}"]
        return []
    p, n = spec["p"], spec["n"]
    probs = [] if payload["ok"] else ["g not constant on det classes"]
    if payload["classes_checked"] != class_count(p) or payload["matrices_checked"] != class_count(p) ** n:
        probs.append("did not enumerate every det class and matrix")
    return probs


def check_orbits(spec, payload, oracle, rng) -> list[str]:
    counts = payload["orbit_counts"]
    if len(counts) != class_count(spec["p"]) or any(c != 2 for c in counts.values()) or not payload["ok"]:
        return [f"orbit counts {counts}"]
    return []


def check_verify(spec, payload, oracle, rng) -> list[str]:
    probs = []
    for rep in payload["suites"]:
        cases = rep["cases"]
        if rep["suite"] == "sym3-mc":
            # the Monte Carlo case is a non-gating 3-sigma probe; the
            # exact cases gate
            cases = cases[:2]
        bad = [c["name"] for c in cases if not c["pass"]]
        if bad:
            probs.append(f"{rep['suite']}: failed cases {bad[:3]}")
    return probs


CHECKS = {
    "hilbert": check_hilbert,
    "square-class": check_square_class,
    "hasse": check_hasse,
    "equiv": check_equiv,
    "gamma": check_gamma,
    "weil-eq": check_weil_eq,
    "stationary": check_stationary,
    "tate": check_tate,
    "shintani": check_shintani,
    "sym-sign": check_sym_sign,
    "orbits": check_orbits,
    "verify": check_verify,
}


def check(kind: str, spec: dict, text: str, oracle: Oracle, rng) -> list[str]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    try:
        return CHECKS[kind](spec, payload, oracle, rng)
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        return [f"malformed answer ({type(e).__name__}: {e})"]
