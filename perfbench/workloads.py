"""Seeded inputs for the three workloads.

A workload is a list of rounds; every round of a workload has the same
make-up (the same request kinds, ranks and prime sizes in the same
numbers) and only the values drawn from the seed differ, so the share of
failed requests and the latency profile do not depend on the seed.
Round r of seed s is drawn from random.Random(f"{workload}:{s}:{r}").

A request is (kind, argv, spec): argv goes to locquad.cli.main, spec
holds the generated values the checks need.
"""

from __future__ import annotations

import random
from fractions import Fraction

VERIFY_ANALYTIC = ["weil-gamma", "weil-equation", "stationary", "tate", "shintani", "sym3-mc"]
VERIFY_EXACT = ["hilbert-oracle", "product-formula", "equivalence", "signprop", "scaling", "orbits"]

KINDS = [
    "hilbert", "square-class", "hasse", "equiv", "gamma", "weil-eq",
    "stationary", "tate", "shintani", "sym-sign", "orbits",
]

SMALL = [None, 2, 3, 5, 7, 11, 13]  # places where the oracle is cheap; None is R
# Trial-division-heavy requests: (lower end, kind); each prime is drawn from
# [lo, 1.1 lo].  The twelve hilbert requests near 2e12 cost nearly the same,
# so the tail percentile of a round falls inside a cluster of them and not
# at a gap between sizes (see cli_queries_round).
LARGE_PRIMES = [(10**9, "hilbert"), (10**11, "hasse"), (10**13, "hasse")] + [(2 * 10**12, "hilbert")] * 12
HEAVY_HASSE = [(100, 2), (200, 3), (400, 7)]
HEAVY_EQUIV = [(200, 2)]
# gamma_rank1 Gauss-sums the unreduced coefficient, so its cost grows with
# the depth of the valuation and with p.  Light gamma requests draw
# valuations where a coefficient costs at most about 20 ms:
GAMMA_VALUATIONS = {2: (-6, 6), 3: (-5, 6), 5: (-1, 6), 7: (0, 6), 11: (1, 6), 13: (1, 6)}
# and every round also has one rank-1 request at each (p, v) below, down to
# the deepest valuation that still fits in TERM_BUDGET; a unit at p:13 takes
# about 0.4 s and v = -4 at p:5 about 0.8 s.  They are part of the heavy band.
HEAVY_GAMMA = [(3, -7), (3, -8), (5, -3), (5, -4), (7, -1), (7, -2), (11, 0), (13, 0)]
# One valuation deeper exceeds TERM_BUDGET every time: v_3 <= -9 at p:3,
# v_5 <= -5 at p:5, v_7 <= -3 at p:7 and v <= -1 at p:11 and p:13.  These
# requests are kept as failed operations in every round, whatever the seed;
# each is paired with its square-class representative.
DEEP_GAMMA = [(3, "1/19683", "3"), (3, "1/59049", "1"), (5, "1/3125", "5"), (7, "1/343", "7"),
              (11, "1/11", "11"), (13, "1/13", "13")]
LIGHT_COUNTS = {
    "hilbert": 85, "square-class": 44, "hasse": 69, "equiv": 37, "gamma": 52, "weil-eq": 24,
    "stationary": 24, "tate": 24, "shintani": 24, "sym-sign": 40, "orbits": 24,
}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def place_text(p: int | None) -> str:
    return "real" if p is None else f"p:{p}"


def unit(rng: random.Random, p: int | None, top: int = 60) -> Fraction:
    """A random nonzero rational that is a unit at p."""
    while True:
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, 30))
        if p is None or (x.numerator % p and x.denominator % p):
            return x


def coeff(rng: random.Random, p: int | None, vmin: int = -2, vmax: int = 2) -> Fraction:
    x = unit(rng, p)
    return x if p is None else x * Fraction(p) ** rng.randint(vmin, vmax)


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


# -- cli-queries -----------------------------------------------------------------


def _hilbert(rng, p=None, large=False):
    if large:
        a = unit(rng, p) * Fraction(p) ** rng.randint(0, 1)
        b = unit(rng, p) * Fraction(p) ** rng.randint(0, 1)
    else:
        a, b = coeff(rng, p), coeff(rng, p)
    argv = ["hilbert", f"--place={place_text(p)}", f"--a={a}", f"--b={b}"]
    return "hilbert", argv, {"p": p, "a": a, "b": b, "large": large}


def _square_class(rng):
    p = rng.choice(SMALL + [17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97])
    x = coeff(rng, p, -3, 3)
    return "square-class", ["square-class", f"--place={place_text(p)}", f"--x={x}"], {"p": p, "x": x}


def _hasse(rng, p, rank, large=False):
    coeffs = [unit(rng, p) if large else coeff(rng, p) for _ in range(rank)]
    if large:
        coeffs[0] *= p
    argv = ["hasse", f"--place={place_text(p)}", f"--coeffs={_csv(coeffs)}"]
    return "hasse", argv, {"p": p, "coeffs": coeffs, "large": large}


def _equiv(rng, p, rank, equivalent=None):
    left = [coeff(rng, p) for _ in range(rank)]
    if equivalent is None:
        equivalent = rng.random() < 0.5
    if equivalent:
        # an equivalent form: <a, b> = <a + b, ab(a + b)> when a + b != 0,
        # then square scaling and a permutation
        right = list(left)
        if rank >= 2 and right[0] + right[1] != 0:
            a, b = right[0], right[1]
            right[0], right[1] = a + b, a * b * (a + b)
        right = [c * Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2 for c in right]
        rng.shuffle(right)
    else:
        right = [coeff(rng, p) for _ in range(rank)]
    argv = ["equiv", f"--place={place_text(p)}", f"--left={_csv(left)}", f"--right={_csv(right)}"]
    return "equiv", argv, {"p": p, "left": left, "right": right}


def _gamma(rng):
    p = rng.choice(SMALL)
    sign = rng.choice([1, 1, -1])
    rank = rng.randint(1, 3)
    if p is None:
        coeffs = [coeff(rng, None) for _ in range(rank)]
        t = Fraction(1)
    else:
        lo, hi = GAMMA_VALUATIONS[p]
        coeffs = [unit(rng, p, 20) * Fraction(p) ** rng.randint(lo, hi) for _ in range(rank)]
        t = unit(rng, p, 9)
    argv = ["gamma", f"--place={place_text(p)}", f"--coeffs={_csv(coeffs)}", f"--sign={sign}"]
    return "gamma", argv, {"p": p, "coeffs": coeffs, "sign": sign, "t": t}


def _heavy_gamma(rng, p, v):
    a = unit(rng, p, 20) * Fraction(p) ** v
    sign = rng.choice([1, -1])
    argv = ["gamma", f"--place=p:{p}", f"--coeffs={a}", f"--sign={sign}"]
    return "gamma", argv, {"p": p, "coeffs": [a], "sign": sign, "reduced": [a / Fraction(p) ** (v - v % 2)]}


def _deep_gamma(p, coeff_text, rep):
    argv = ["gamma", f"--place=p:{p}", f"--coeffs={coeff_text}"]
    spec = {"p": p, "coeffs": [Fraction(coeff_text)], "sign": 1, "reduced": [Fraction(rep)]}
    return "gamma", argv, spec


def _weil_eq(rng):
    p = rng.choice([3, 5])
    rank = rng.randint(1, 2)
    reps = [1, p] + [u for u in range(2, p) if pow(u, (p - 1) // 2, p) != 1][:1]
    coeffs = [Fraction(rng.choice(reps)) * rng.choice([1, 1, Fraction(1, p)]) for _ in range(rank)]
    center = [Fraction(rng.randint(0, p - 1)) + Fraction(rng.randint(0, 1), p) for _ in range(rank)]
    level = rng.randint(-1, 3)
    argv = ["weil-eq", f"--place=p:{p}", f"--coeffs={_csv(coeffs)}", f"--center={_csv(center)}",
            f"--level={level}"]
    return "weil-eq", argv, {"p": p}


def _stationary(rng):
    if rng.random() < 0.5:
        p, exps = rng.choice([(5, [1, 2, 3]), (7, [1])])
        c, d = rng.randint(1, p - 1), rng.randint(0, 9)
        f = f"{c}*x^3 - {3 * c}*x + {d}"
    else:
        p, exps = rng.choice([(3, [1, 2]), (5, [1, 2])])
        f = f"{rng.randint(1, p - 1)}*x^2 + {rng.randint(1, p - 1)}*y^2"
    argv = ["stationary", f"--place=p:{p}", f"--f={f}", f"--exponents={_csv(exps)}"]
    return "stationary", argv, {"p": p, "exponents": exps}


def _tate(rng):
    p = rng.choice([None, 2, 3, 3, 5])
    s = -round(rng.uniform(0.1, 0.9), 3)
    if p is None:
        argv = ["tate", "--place=real", f"--s={s}", f"--parity={rng.randint(0, 1)}"]
    else:
        if rng.random() < 0.5:
            s = complex(s, round(rng.uniform(-1, 1), 3))
        twist = rng.choice(["1", "-1", "5", "2", "-2"] if p == 2 else ["1", "u", "p", "up"])
        argv = ["tate", f"--place=p:{p}", f"--s={s}", f"--twist={twist}"]
    return "tate", argv, {"p": p}


def _shintani(rng):
    n = rng.randint(1, 7)
    # c_0 and c'_0 vanish at integer s, where the sign ratios are undefined
    if rng.random() < 0.5:
        d = rng.randint(2, 12)
        s = str(Fraction(rng.choice([k for k in range(-20, 21) if k % d]), d))
    else:
        s = f"{round(rng.uniform(-1, 1), 3)}{rng.choice([-1, 1]) * round(rng.uniform(0.1, 0.5), 3):+}j"
    return "shintani", ["shintani", f"--n={n}", f"--s={s}"], {"n": n}


def _sym_sign(rng):
    p = rng.choice(SMALL)
    if rng.random() < 0.6:
        n = rng.randint(1, 4)
        left = [coeff(rng, p) for _ in range(n)]
        right = [coeff(rng, p) for _ in range(n - 1)]
        det = Fraction(1)
        for c in left:
            det *= c
        for c in right:
            det /= c
        right.append(det * Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2)
        argv = ["sym-sign", f"--place={place_text(p)}", f"--left={_csv(left)}", f"--right={_csv(right)}"]
        return "sym-sign", argv, {"mode": "pair", "p": p}
    n = {None: rng.randint(1, 5), 2: rng.randint(1, 2)}.get(p, rng.randint(1, 3))
    return "sym-sign", ["sym-sign", f"--place={place_text(p)}", f"--n={n}"], {"mode": "constant", "p": p, "n": n}


def _orbits(rng):
    p = rng.choice([3, 5, 7, 11, 13])
    return "orbits", ["orbits", f"--place=p:{p}", "--n=3"], {"p": p}


LIGHT = {
    "hilbert": lambda rng: _hilbert(rng, rng.choice(SMALL)),
    "square-class": _square_class,
    "hasse": lambda rng: _hasse(rng, rng.choice(SMALL), rng.randint(1, 8)),
    "equiv": lambda rng: _equiv(rng, rng.choice(SMALL), rng.randint(1, 8)),
    "gamma": _gamma,
    "weil-eq": _weil_eq,
    "stationary": _stationary,
    "tate": _tate,
    "shintani": _shintani,
    "sym-sign": _sym_sign,
    "orbits": _orbits,
}


def cli_queries_round(seed: int, r: int) -> list:
    """One round of 480 requests: 447 light, 4 rank-heavy, 15 at large
    primes, 8 heavy gamma and 6 deep gamma.  The 6 failed requests count as
    the slowest.  With the rank-heavy requests, the 7 heavy gamma requests
    above 0.1 s and the hasse near 1e13 that makes 18 of every 480 above
    the cluster of 12 hilbert requests near 2e12, and the 95th percentile
    (the 24th slowest of 480, the 48th of 960) falls in the middle of that
    cluster."""
    rng = random.Random(f"cli-queries:{seed}:{r}")
    reqs = []
    for kind in KINDS:
        reqs += [LIGHT[kind](rng) for _ in range(LIGHT_COUNTS[kind])]
    for rank, p in HEAVY_HASSE:
        reqs.append(_hasse(rng, p, rank))
    for rank, p in HEAVY_EQUIV:
        # an equivalent pair makes equiv compute every Hasse invariant; a
        # random pair usually stops at the determinant class
        reqs.append(_equiv(rng, p, rank, equivalent=True))
    for lo, kind in LARGE_PRIMES:
        p = next_prime(rng.randint(lo, lo * 11 // 10))
        reqs.append(_hilbert(rng, p, large=True) if kind == "hilbert" else _hasse(rng, p, rng.randint(2, 6), large=True))
    reqs += [_heavy_gamma(rng, p, v) for p, v in HEAVY_GAMMA]
    reqs += [_deep_gamma(*d) for d in DEEP_GAMMA]
    rng.shuffle(reqs)
    return reqs


# -- verify workloads ------------------------------------------------------------


def verify_round(suites: list[str], seed: int) -> list:
    # weil-gamma runs at the package's default seed 0 whatever the benchmark
    # seed: over seeds 0-4 it took 9.3-17.6 s, which would swamp every other
    # difference in verify_s.  The other suites take the benchmark seed.
    return [
        ("verify", ["verify", f"--suite={suite}", f"--seed={0 if suite == 'weil-gamma' else seed}"], {"suite": suite})
        for suite in suites
    ]


WORKLOADS = {
    "verify-analytic": lambda seed, r: verify_round(VERIFY_ANALYTIC, seed),
    "verify-exact": lambda seed, r: verify_round(VERIFY_EXACT, seed),
    "cli-queries": cli_queries_round,
}
