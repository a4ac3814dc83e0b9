"""Command-line surface: every check reachable as a subcommand, JSON out.

Exit codes: 0 success, 1 a verification gate failed (or the arithmetic
could not certify a result), 2 malformed arguments.  Reports are printed
to stdout with sorted keys so a rerun with the same flags and seed is
byte-identical; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .forms import QuadraticForm, SymMatrix, form_of_matrix, invariants
from .places import AdditiveCharacter, Place, SquareClass, hilbert_symbol, hilbert_symbol_oracle, parse_rational, square_class, square_class_reps

# The analytic modules (stationary, shintani, tate, suites, and weil's
# Gauss sums) load numpy, so each handler imports what it needs:
# the exact commands and `gamma` run on places, forms, symsign and weil.

# The keys of suites.SUITES, kept here so that the parser does not import
# every suite's module; tests/test_imports.py checks that the two agree.
SUITE_NAMES = (
    "hilbert-oracle",
    "product-formula",
    "equivalence",
    "weil-gamma",
    "weil-equation",
    "stationary",
    "signprop",
    "scaling",
    "orbits",
    "shintani",
    "tate",
    "sym3-mc",
)

SCHEMA = "locquad/1"


def _arg_place(text: str) -> Place:
    try:
        return Place.parse(text)
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(str(e))


def _arg_rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {e}")


def _arg_coeffs(text: str) -> list[Fraction]:
    try:
        vals = [parse_rational(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {e}")
    if not vals:
        raise argparse.ArgumentTypeError("empty coefficient list")
    return vals


def _arg_s(text: str):
    # exact when the text is rational, complex otherwise
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad s {text!r}: expected a rational or a complex literal")


def _arg_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}: {e}")


def _load_form_json(path: str, parser: argparse.ArgumentParser) -> QuadraticForm:
    """Read {"place": "p:5", "coeffs": [...]} or {... "matrix": [[...]]}."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"--in: {e}")
    try:
        place = Place.parse(obj["place"])
        if "coeffs" in obj:
            return QuadraticForm.make([parse_rational(str(x)) for x in obj["coeffs"]], place)
        if "matrix" in obj:
            rows = [[parse_rational(str(x)) for x in row] for row in obj["matrix"]]
            return form_of_matrix(SymMatrix.make(rows), place)
        parser.error("--in: need a 'coeffs' or 'matrix' field")
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        parser.error(f"--in: {e}")


def _form_arg(args, parser: argparse.ArgumentParser) -> QuadraticForm:
    """The form of `--in`, or of `--place` with `--coeffs`."""
    if args.infile:
        return _load_form_json(args.infile, parser)
    if args.place is None or args.coeffs is None:
        parser.error("need --in, or both --place and --coeffs")
    return QuadraticForm.make(args.coeffs, args.place)


def _twist_class(text: str, place: Place, parser: argparse.ArgumentParser):
    """A square class given as a rational, or symbolically as 1 / u / p / up."""
    symbolic = {"1": 0, "u": 1, "p": 2, "up": 3}  # the class bits at an odd p
    if text in symbolic:
        bits = symbolic[text]
        if place.is_real and bits > 1:
            parser.error(f"--twist: {text!r} has no meaning at the real place")
        if not place.is_real and place.p == 2 and bits:
            parser.error("--twist: at p=2 there are 3 unit classes; give a rational such as -1, 5 or 2")
        return SquareClass.from_bits(bits, place)
    try:
        d = parse_rational(text)
    except (ValueError, ZeroDivisionError) as e:
        parser.error(f"--twist: {e}")
    if d == 0:
        parser.error("--twist: 0 is not a square class")
    return square_class(d, place)


def _fields(obj) -> dict:
    """A dataclass's fields by name, each value as it is."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _encode(obj):
    """The payload format, for the values JSON has no type for: a complex
    number is [re, im]; a rational, a place or a square class is its string;
    a result dataclass is its as_dict() where it has one, else a dict of
    its fields.  Anything else is an error, never a silent string."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (Fraction, Place, SquareClass)):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return obj.as_dict() if hasattr(obj, "as_dict") else _fields(obj)
    raise TypeError(f"{type(obj).__name__} has no payload encoding")


def _emit(payload: dict, out_path: str | None = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_encode)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


# -- subcommand handlers -----------------------------------------------------


def _cmd_hilbert(args, parser) -> tuple[dict, bool]:
    sym = hilbert_symbol(args.a, args.b, args.place)
    payload = {
        "place": args.place,
        "a": args.a,
        "b": args.b,
        "symbol": sym,
    }
    if args.oracle:
        payload["oracle"] = hilbert_symbol_oracle(args.a, args.b, args.place)
        return payload, payload["oracle"] == sym
    return payload, True


def _cmd_square_class(args, parser) -> tuple[dict, bool]:
    return {
        "place": args.place,
        "x": args.x,
        "rep": square_class(args.x, args.place).rep,
        "classes": square_class_reps(args.place),
    }, True


def _cmd_hasse(args, parser) -> tuple[dict, bool]:
    q = _form_arg(args, parser)
    return {
        "place": q.place,
        "coeffs": q.coeffs,
        **invariants(q).as_dict(),
    }, True


def _cmd_equiv(args, parser) -> tuple[dict, bool]:
    q = QuadraticForm.make(args.left, args.place)
    r = QuadraticForm.make(args.right, args.place)
    # the invariant tuple is complete (at R the signature fixes the rest),
    # so equal tuples decide equivalence without a second Hasse product
    left, right = invariants(q), invariants(r)
    return {
        "place": args.place,
        "left": left,
        "right": right,
        "equivalent": left == right,
    }, True


def _cmd_gamma(args, parser) -> tuple[dict, bool]:
    from .weil import gamma_form

    q = _form_arg(args, parser)
    psi = AdditiveCharacter(q.place, args.sign)
    g = gamma_form(q, psi)
    return {
        "place": q.place,
        "coeffs": q.coeffs,
        "psi_sign": args.sign,
        **_fields(g),
    }, True


def _cmd_weil_eq(args, parser) -> tuple[dict, bool]:
    from .weil import BallIndicator, verify_weil_equation

    if args.place.is_real:
        parser.error("--place: the ball-indicator check is p-adic; give p:<prime>")
    q = QuadraticForm.make(args.coeffs, args.place)
    center = args.center if args.center is not None else [Fraction(0)] * q.rank
    if len(center) != q.rank:
        parser.error(f"--center: expected {q.rank} coordinates, got {len(center)}")
    ball = BallIndicator.make(center, args.level)
    psi = AdditiveCharacter(args.place, args.sign)
    rep = verify_weil_equation(q, ball, psi)
    ok = rep.residual < args.tol
    return {
        "place": args.place,
        "coeffs": q.coeffs,
        "center": center,
        "level": args.level,
        "tol": args.tol,
        "ok": ok,
        **_fields(rep),
    }, ok


def _cmd_stationary(args, parser) -> tuple[dict, bool]:
    from .stationary import PhasePolynomial, compare_stationary

    if args.place.is_real:
        parser.error("--place: stationary comparison is p-adic; give p:<prime>")
    try:
        f = PhasePolynomial.parse(args.phase, args.place)
    except (ValueError, SyntaxError) as e:
        parser.error(f"--f: {e}")
    comp = compare_stationary(f, args.exponents, tol=args.tol)
    ok = all(row["abs_diff"] < args.tol for row in comp.rows)
    return {
        "place": args.place,
        "f": args.phase,
        "tol": args.tol,
        "ok": ok,
        **_fields(comp),
    }, ok


def _cmd_sym_sign(args, parser) -> tuple[dict, bool]:
    from .symsign import c_constant, epsilon_pair, verify_signprop

    if args.left is not None or args.right is not None:
        if args.left is None or args.right is None:
            parser.error("pair mode needs both --left and --right")
        qa = QuadraticForm.make(args.left, args.place)
        qb = QuadraticForm.make(args.right, args.place)
        rep = verify_signprop(qa, qb)
        return {
            "place": args.place,
            "mode": "pair",
            "left": qa.coeffs,
            "right": qb.coeffs,
            "epsilon_pair": epsilon_pair(qa, qb),
            **_fields(rep),
        }, rep.ok
    if args.n is None:
        parser.error("need --n for constant mode, or --left/--right for pair mode")
    rep = c_constant(args.n, args.place)
    return {
        "place": args.place,
        "mode": "constant",
        "n": args.n,
        "values": rep.values,
        "classes_checked": rep.classes_checked,
        "matrices_checked": rep.matrices_checked,
        "ok": rep.consistent,
    }, rep.consistent


def _cmd_orbits(args, parser) -> tuple[dict, bool]:
    from .symsign import orbit_invariant, sl_orbit_count

    if args.infile:
        q = _load_form_json(args.infile, parser)
        return {
            "place": q.place,
            "invariant": orbit_invariant(q),
        }, True
    if args.place is None:
        parser.error("need --in, or --place with --n")
    if args.place.is_real:
        parser.error("--place: orbit counting is p-adic; give p:<prime>")
    counts = {
        str(d): sl_orbit_count(args.n, d, args.place)
        for d in square_class_reps(args.place)
    }
    ok = all(c == 2 for c in counts.values())
    return {
        "place": args.place,
        "n": args.n,
        "orbit_counts": counts,
        "ok": ok,
    }, ok


def _cmd_shintani(args, parser) -> tuple[dict, bool]:
    from .shintani import c_prime_vector, c_vector, check_sign_vectors, closed_form_error, gamma_matrix

    n, s = args.n, args.s
    err = closed_form_error(n, s)
    payload = {
        "n": n,
        "s": str(s),
        "gamma_matrix": gamma_matrix(n, s).tolist(),
        "c": c_vector(n, s),
        "c_prime": c_prime_vector(n, s),
        "closed_form_max_error": err,
        "tol": args.tol,
    }
    ok = err < args.tol
    if n % 2:
        sv = check_sign_vectors(n, s, tol=args.tol)
        payload["sign_vectors"] = sv
        ok = ok and sv.ok
    payload["ok"] = ok
    return payload, ok


def _cmd_tate(args, parser) -> tuple[dict, bool]:
    from .tate import MultiplicativeCharacter, real_gamma_matrix_check, real_tate_check, tate_check

    s = complex(args.s)
    tol = args.tol
    if tol is None:
        tol = 1e-6 if args.place.is_real else 1e-9
    if args.place.is_real:
        if s.imag:
            parser.error("--s: the real-place check needs a real s in (-1, 0)")
        rep = real_tate_check(s.real, parity=args.parity)
        gm = real_gamma_matrix_check(s.real)
        ok = rep.max_deviation < tol and gm.residual < tol
        return {
            "place": "real",
            "s": s.real,
            "parity": args.parity,
            "tol": tol,
            "ratio_check": rep,
            "gamma_matrix_check": gm,
            "ok": ok,
        }, ok
    twist = _twist_class(args.twist, args.place, parser)
    chi = MultiplicativeCharacter.make(args.place, s, twist.rep)
    rep = tate_check(chi)
    ok = rep.max_deviation < tol
    return {
        "tol": tol,
        "ok": ok,
        **_fields(rep),
    }, ok


def _cmd_sym3_mc(args, parser) -> tuple[dict, bool]:
    from .tate import padic_sym3_mc_check

    try:
        rep = padic_sym3_mc_check(p=args.p, s=args.s, seed=args.seed, samples=args.samples)
    except ValueError as e:
        parser.error(str(e))
    return _fields(rep), rep.within_3_sigma


def _run_one_suite(item) -> dict:
    from .suites import run_suite

    name, seed, options = item
    return run_suite(name, seed=seed, **options).as_dict()


def _cmd_verify(args, parser) -> tuple[dict, bool]:
    from .suites import SUITES, SuiteOptionError

    options = {}
    if args.n is not None:
        options["n"] = args.n
    if args.place is not None:
        options["place"] = args.place
    if args.samples is not None:
        options["samples"] = args.samples
    if args.suite:
        if args.suite not in SUITES:
            parser.error(f"--suite: unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}")
        names = [args.suite]
    else:
        if options:
            parser.error("--n/--place/--samples apply to a single --suite run")
        names = [n for n in SUITES if n != "sym3-mc"]  # gating suites only

    if args.jobs < 1:
        parser.error("--jobs: need at least 1 worker")
    items = [(name, args.seed, options) for name in names]
    if args.jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once: no more than there are suites
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(items))) as pool:
            reports = list(pool.map(_run_one_suite, items))
    else:
        # options come with one --suite, so they are checked in this process
        try:
            reports = [_run_one_suite(item) for item in items]
        except SuiteOptionError as e:
            parser.error(str(e))

    gate = all(r["ok"] for r in reports if r["gating"]) and all(
        r["ok"] for r in reports if args.suite
    )
    payload = {
        "seed": args.seed,
        "suites": reports,
        "ok": gate,
    }
    return payload, gate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locquad",
        description="Exact invariants of quadratic forms over R and Q_p.",
    )
    parser.add_argument("--version", action="version", version=f"locquad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, handler):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        return p

    p = add("hilbert", "Hilbert symbol (a,b) at a place", "_cmd_hilbert")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--a", type=_arg_rational, required=True)
    p.add_argument("--b", type=_arg_rational, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the lattice-search oracle")

    p = add("square-class", "canonical square-class representative", "_cmd_square_class")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--x", type=_arg_rational, required=True)

    p = add("hasse", "rank, det class and Hasse-Witt invariant of a form", "_cmd_hasse")
    p.add_argument("--place", type=_arg_place)
    p.add_argument("--coeffs", type=_arg_coeffs, help="diagonal coefficients, comma separated")
    p.add_argument("--in", dest="infile", help="JSON file with place and coeffs or matrix")

    p = add("equiv", "decide equivalence of two diagonal forms", "_cmd_equiv")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--left", type=_arg_coeffs, required=True)
    p.add_argument("--right", type=_arg_coeffs, required=True)

    p = add("gamma", "Weil constant of a form", "_cmd_gamma")
    p.add_argument("--place", type=_arg_place)
    p.add_argument("--coeffs", type=_arg_coeffs)
    p.add_argument("--in", dest="infile", help="JSON file with place and coeffs or matrix")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1, help="sign convention of psi")

    p = add("weil-eq", "functional equation on a ball indicator", "_cmd_weil_eq")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--coeffs", type=_arg_coeffs, required=True)
    p.add_argument("--center", type=_arg_coeffs, help="ball center, comma separated (default 0)")
    p.add_argument("--level", type=int, default=0, help="ball is center + p^level Z_p^n")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("stationary", "exact oscillatory integral vs critical-point prediction", "_cmd_stationary")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--f", dest="phase", required=True, help="phase polynomial, e.g. 'x^3 - 3*x'")
    p.add_argument("--exponents", type=_arg_ints, default=[1, 2, 3], help="|t| = p^(2m) for these m")
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("sym-sign", "pairing-sign law for symmetric matrices", "_cmd_sym_sign")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--left", type=_arg_coeffs, help="diagonal of A")
    p.add_argument("--right", type=_arg_coeffs, help="diagonal of A'")
    p.add_argument("--n", type=int, help="constant mode: check g over all det classes")

    p = add("orbits", "congruence orbit counts at fixed odd n", "_cmd_orbits")
    p.add_argument("--place", type=_arg_place)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--in", dest="infile", help="JSON form or matrix: report its orbit invariant")

    p = add("shintani", "gamma matrix row sums vs closed-form products", "_cmd_shintani")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_arg_s, required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("tate", "degree-one functional equation at one character", "_cmd_tate")
    p.add_argument("--place", type=_arg_place, required=True)
    p.add_argument("--s", type=_arg_s, required=True)
    p.add_argument("--twist", default="1", help="square class: a rational, or 1/u/p/up at odd p")
    p.add_argument("--parity", type=int, choices=(0, 1), default=0, help="real test family parity")
    p.add_argument("--tol", type=float, default=None, help="default 1e-6 at R, 1e-9 at p")

    p = add("sym3-mc", "Monte Carlo probe of the degree-three equation", "_cmd_sym3_mc")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--s", type=_arg_s, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10**6)

    p = add("verify", "run one named suite, or all gating suites", "_cmd_verify")
    p.add_argument("--suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--place", type=_arg_place)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", help="also write the JSON report to this path")
    p.add_argument("--jobs", type=int, default=1, help="suite workers, at most one per suite")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = _parser()
    args = parser.parse_args(argv)
    # the parser stores each handler's name, looked up per call, so that a
    # handler rebound after the parser was built (by a wrapper or a test) is
    # the one that runs
    handler = globals()[args.handler]
    try:
        payload, ok = handler(args, parser)
    except (ArithmeticError, ValueError) as e:
        _emit({"schema": SCHEMA, "error": str(e), "ok": False})
        print(f"wall {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        return 1
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    _emit(payload, getattr(args, "out", None))
    print(f"wall {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
