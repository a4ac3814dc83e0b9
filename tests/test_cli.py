"""CLI contract: JSON payloads, exit codes, byte-identical reruns.

Everything runs in-process through main(argv); argparse failures surface
as SystemExit(2) and are asserted that way.
"""

import importlib
import json

import pytest

from locquad.cli import main


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run(argv, capsys)
    return rc, json.loads(out), err


def usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


# -- exit codes and malformed input -------------------------------------------


def test_hilbert_example(capsys):
    rc, payload, err = run_json(
        ["hilbert", "--place", "p:7", "--a", "-1", "--b", "-1"], capsys
    )
    assert rc == 0
    assert payload["symbol"] == 1
    assert payload["schema"] == "locquad/1"
    assert payload["command"] == "hilbert"
    assert err.startswith("wall ")


def test_hilbert_nontrivial_symbol_still_exits_zero(capsys):
    rc, payload, _ = run_json(["hilbert", "--place", "p:3", "--a", "3", "--b", "3"], capsys)
    assert rc == 0
    assert payload["symbol"] == -1


def test_hilbert_oracle_flag(capsys):
    rc, payload, _ = run_json(
        ["hilbert", "--place", "real", "--a", "-1", "--b", "-1", "--oracle"], capsys
    )
    assert rc == 0
    assert payload["oracle"] == payload["symbol"] == -1


def test_place_zero_is_usage_error(capsys):
    err = usage_error(["hilbert", "--place", "p:0", "--a", "1", "--b", "1"], capsys)
    assert "--place" in err
    assert "not a prime" in err


def test_malformed_rational_names_the_argument(capsys):
    err = usage_error(["hilbert", "--place", "p:5", "--a", "3//4", "--b", "1"], capsys)
    assert "--a" in err
    assert "bad rational" in err


def test_missing_subcommand_is_usage_error(capsys):
    usage_error([], capsys)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "locquad" in capsys.readouterr().out


def test_math_failure_exits_one_with_error_payload(capsys):
    # strip violation is a verification failure, not a usage error
    rc, payload, _ = run_json(["tate", "--place", "p:3", "--s", "0.5"], capsys)
    assert rc == 1
    assert payload["ok"] is False
    assert "strip" in payload["error"]


# -- invariant commands --------------------------------------------------------


def test_square_class(capsys):
    rc, payload, _ = run_json(["square-class", "--place", "p:7", "--x", "63"], capsys)
    assert rc == 0
    assert payload["rep"] == "7"
    assert payload["classes"] == ["1", "3", "7", "21"]


def test_hasse_from_coeffs(capsys):
    rc, payload, _ = run_json(["hasse", "--place", "p:5", "--coeffs", "2,5,-1"], capsys)
    assert rc == 0
    assert payload["rank"] == 3
    assert payload["hasse"] == -1
    assert payload["det_class"] == "10"


def test_hasse_from_matrix_file(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"place": "p:3", "matrix": [[0, 1], [1, 0]]}))
    rc, payload, _ = run_json(["hasse", "--in", str(path)], capsys)
    assert rc == 0
    assert payload["rank"] == 2
    assert payload["hasse"] == 1
    assert payload["det_class"] == "2"


def test_hasse_needs_a_source(capsys):
    err = usage_error(["hasse", "--place", "p:3"], capsys)
    assert "--in" in err


def test_equiv_reports_both_ways(capsys):
    rc, payload, _ = run_json(
        ["equiv", "--place", "p:3", "--left", "1,2", "--right", "2,1"], capsys
    )
    assert rc == 0
    assert payload["equivalent"] is True
    rc, payload, _ = run_json(
        ["equiv", "--place", "p:3", "--left", "1,1", "--right", "1,2"], capsys
    )
    assert rc == 0
    assert payload["equivalent"] is False


def test_gamma_rank_one(capsys):
    rc, payload, _ = run_json(["gamma", "--place", "p:5", "--coeffs", "1"], capsys)
    assert rc == 0
    assert payload["value"] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert payload["eighth_root_index"] == 0


def test_gamma_deep_square_answers_from_its_class(capsys):
    # 1/59049 = 3^-10 is a square: its Gauss sum needs 3^16 terms
    rc, payload, _ = run_json(["gamma", "--place", "p:3", "--coeffs", "1/59049"], capsys)
    assert rc == 0
    assert payload["eighth_root_index"] == 0
    assert payload["root_deviation"] == 0.0
    assert payload["stabilized_at"] is None


def test_gamma_depends_only_on_the_square_class(capsys):
    answers = []
    for coeffs in ("1/13", "13"):
        rc, payload, _ = run_json(["gamma", "--place", "p:13", "--coeffs", coeffs], capsys)
        assert rc == 0
        answers.append({k: payload[k] for k in ("value", "eighth_root_index")})
    assert answers[0] == answers[1]


def test_gamma_at_a_large_prime(capsys):
    # 10007 = 3 mod 4, so gamma(p x^2) = eps_p = i
    rc, payload, _ = run_json(["gamma", "--place", "p:10007", "--coeffs", "10007"], capsys)
    assert rc == 0
    assert payload["eighth_root_index"] == 2


def test_weil_eq(capsys):
    rc, payload, _ = run_json(
        ["weil-eq", "--place", "p:3", "--coeffs", "1,2", "--level", "1"], capsys
    )
    assert rc == 0
    assert payload["ok"] is True
    assert payload["residual"] < 1e-9


def test_weil_eq_rejects_real_place(capsys):
    err = usage_error(["weil-eq", "--place", "real", "--coeffs", "1"], capsys)
    assert "p-adic" in err


def test_stationary(capsys):
    rc, payload, _ = run_json(
        ["stationary", "--place", "p:7", "--f", "x^3 - 3*x", "--exponents", "1,2"],
        capsys,
    )
    assert rc == 0
    assert payload["ok"] is True
    assert len(payload["rows"]) == 2


def test_sym_sign_pair_mode(capsys):
    rc, payload, _ = run_json(
        ["sym-sign", "--place", "p:5", "--left", "1,2,5", "--right", "2,1,5"], capsys
    )
    assert rc == 0
    assert payload["mode"] == "pair"
    assert payload["lhs"] == payload["rhs"] == payload["epsilon_pair"]


def test_sym_sign_constant_mode(capsys):
    rc, payload, _ = run_json(["sym-sign", "--place", "p:7", "--n", "3"], capsys)
    assert rc == 0
    assert payload["mode"] == "constant"
    assert len(payload["values"]) == 4
    assert set(payload["values"].values()) <= {1, -1}


def test_orbits(capsys, monkeypatch):
    from locquad import symsign

    walks = []
    tuples = symsign._class_tuples

    def spy(n, place):
        walks.append((n, place))
        return tuples(n, place)

    monkeypatch.setattr(symsign, "_class_tuples", spy)
    rc, payload, _ = run_json(["orbits", "--place", "p:5", "--n", "3"], capsys)
    assert rc == 0
    assert set(payload["orbit_counts"].values()) == {2}
    assert len(walks) == 1  # one walk counts every det class


# the class of -1, the one det class with a single rank-2 orbit
MINUS_ONE_CLASS = {2: "-1", 3: "2", 5: "1", 7: "3"}


@pytest.mark.parametrize("prime", sorted(MINUS_ONE_CLASS))
@pytest.mark.parametrize("n", [1, 2])
def test_orbits_at_low_rank_give_serres_counts(prime, n, capsys):
    # Serre, A Course in Arithmetic, IV.2.3, Prop. 6
    rc, payload, _ = run_json(["orbits", "--place", f"p:{prime}", "--n", str(n)], capsys)
    assert rc == 0
    assert payload["ok"] is True
    counts = payload["orbit_counts"]
    assert len(counts) == (8 if prime == 2 else 4)
    one = set(counts) if n == 1 else {MINUS_ONE_CLASS[prime]}
    assert counts == {d: 1 if d in one else 2 for d in counts}


def test_orbits_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"place": "p:7", "coeffs": ["1", "2", "3"]}))
    rc, payload, _ = run_json(["orbits", "--in", str(path)], capsys)
    assert rc == 0
    assert "invariant" in payload


def test_shintani_odd_n(capsys):
    rc, payload, _ = run_json(["shintani", "--n", "3", "--s", "1/3"], capsys)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["closed_form_max_error"] < 1e-10
    assert payload["sign_vectors"]["ok"] is True


def test_shintani_large_imaginary_part_passes_the_absolute_gate(capsys):
    # the closed forms grow like cosh(pi Im(s) / 2)^n; in double precision
    # this case missed the 1e-10 gate by its reference side alone
    rc, payload, _ = run_json(["shintani", "--n", "7", "--s=-0.235-0.954j"], capsys)
    assert rc == 0
    assert payload["closed_form_max_error"] < payload["tol"] == 1e-10


def test_shintani_even_n_has_no_sign_vectors(capsys):
    rc, payload, _ = run_json(["shintani", "--n", "2", "--s", "0.37+0.24j"], capsys)
    assert rc == 0
    assert "sign_vectors" not in payload


def test_tate_real(capsys):
    rc, payload, _ = run_json(["tate", "--place", "real", "--s", "-0.5"], capsys)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["ratio_check"]["max_deviation"] < 1e-6
    assert payload["gamma_matrix_check"]["residual"] < 1e-6


def test_tate_padic_symbolic_twist(capsys):
    rc, payload, _ = run_json(
        ["tate", "--place", "p:3", "--s", "-0.5", "--twist", "p"], capsys
    )
    assert rc == 0
    assert payload["twist"] == "3"
    assert payload["max_deviation"] < 1e-9


def test_tate_p2_rejects_symbolic_unit_twist(capsys):
    err = usage_error(["tate", "--place", "p:2", "--s", "-0.5", "--twist", "u"], capsys)
    assert "unit classes" in err


def test_tate_real_payload_reads_parity_zero_by_default(capsys):
    rc, payload, _ = run_json(["tate", "--place", "real", "--s", "-0.3"], capsys)
    assert rc == 0
    assert payload["parity"] == 0
    assert payload["ratio_check"]["twist"] == "1"


def test_tate_rational_twist_at_p2(capsys):
    rc, payload, _ = run_json(["tate", "--place", "p:2", "--s", "-0.5", "--twist", "-1"], capsys)
    assert rc == 0
    assert payload["twist"] == "-1"
    assert abs(complex(*payload["c_value"]) - 1j) < 1e-9


@pytest.mark.parametrize("twist,message", [("0", "0 is not a square class"), ("abc", "--twist")])
def test_tate_rejects_a_twist_that_is_no_class(twist, message, capsys):
    err = usage_error(["tate", "--place", "p:2", "--s", "-0.5", "--twist", twist], capsys)
    assert message in err


@pytest.mark.parametrize("twist", ["5", "up", "1"])
def test_tate_rejects_a_twist_at_the_real_place(twist, capsys):
    err = usage_error(["tate", "--place", "real", "--s", "-0.5", "--twist", twist], capsys)
    assert "--twist" in err and "real place" in err


@pytest.mark.parametrize("parity", ["0", "1"])
def test_tate_rejects_a_parity_at_a_padic_place(parity, capsys):
    err = usage_error(["tate", "--place", "p:3", "--s", "-0.5", "--parity", parity], capsys)
    assert "--parity" in err and "p-adic" in err


def test_sym3_mc_rejects_p2(capsys):
    err = usage_error(["sym3-mc", "--p", "2", "--samples", "1000"], capsys)
    assert "self-dual" in err


@pytest.mark.parametrize("samples", ["0", "-7", "499"])
def test_sym3_mc_rejects_fewer_samples_than_batches(samples, capsys):
    err = usage_error(["sym3-mc", "--samples", samples], capsys)
    assert "at least 500" in err


def test_sym3_mc_runs_at_the_minimum_sample_count(capsys):
    rc, payload, _ = run_json(["sym3-mc", "--samples", "500"], capsys)
    assert rc in (0, 1)  # the 3-sigma verdict is a Monte Carlo outcome
    assert payload["samples"] == 500


# errors the handlers raise after parsing, each from its subcommand's parser
HANDLER_MISUSE = [
    ["weil-eq", "--place", "real", "--coeffs", "1"],
    ["sym3-mc", "--samples", "0"],
    ["verify", "--suite", "sym3-mc", "--samples", "0"],
]


@pytest.mark.parametrize("argv", HANDLER_MISUSE, ids=" ".join)
def test_usage_errors_name_their_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: locquad {argv[0]} [-h]")
    assert f"\nlocquad {argv[0]}: error: " in captured.err


# -- fixed gates ---------------------------------------------------------------

GATES = [
    (["weil-eq", "--place", "p:3", "--coeffs", "1,3"], "weil", "EQUATION_TOL", 1e-9),
    (["stationary", "--place", "p:7", "--f", "x^3 - 3*x", "--exponents", "1"], "stationary", "PREDICTION_TOL", 1e-10),
    (["shintani", "--n", "3", "--s", "1/3"], "shintani", "CLOSED_FORM_TOL", 1e-10),
    (["tate", "--place", "p:3", "--s", "-0.5"], "tate", "PADIC_TOL", 1e-9),
    (["tate", "--place", "real", "--s", "-0.5"], "tate", "REAL_TOL", 1e-6),
]
GATE_IDS = [f"{argv[0]} {name}" for argv, _, name, _ in GATES]


@pytest.mark.parametrize("argv,module,name,value", GATES, ids=GATE_IDS)
def test_no_flag_moves_a_gate(argv, module, name, value, capsys):
    err = usage_error(argv + ["--tol", "1"], capsys)
    assert "unrecognized arguments: --tol" in err


@pytest.mark.parametrize("argv,module,name,value", GATES, ids=GATE_IDS)
def test_payload_tol_is_the_module_constant(argv, module, name, value, capsys):
    constant = getattr(importlib.import_module(f"locquad.{module}"), name)
    assert constant == value
    rc, payload, _ = run_json(argv, capsys)
    assert rc == 0
    assert payload["tol"] == constant


# -- verify --------------------------------------------------------------------


def test_verify_signprop_restricted(capsys):
    rc, payload, _ = run_json(
        ["verify", "--suite", "signprop", "--n", "3", "--place", "p:7"], capsys
    )
    assert rc == 0
    assert payload["ok"] is True
    (suite,) = payload["suites"]
    assert suite["suite"] == "signprop"
    assert suite["counts"]["failed"] == 0
    assert suite["counts"]["total"] > 0


@pytest.mark.parametrize("n", ["1", "2"])
def test_verify_orbits_at_low_rank(n, capsys):
    rc, payload, _ = run_json(["verify", "--suite", "orbits", "--n", n], capsys)
    assert rc == 0
    assert payload["ok"] is True


@pytest.mark.parametrize("samples", ["0", "499"])
def test_verify_sym3_mc_rejects_fewer_samples_than_batches(samples, capsys):
    err = usage_error(["verify", "--suite", "sym3-mc", "--samples", samples], capsys)
    assert "at least 500" in err


def test_verify_unknown_suite(capsys):
    err = usage_error(["verify", "--suite", "nope"], capsys)
    assert "unknown suite" in err


def test_verify_options_require_a_suite(capsys):
    err = usage_error(["verify", "--n", "3"], capsys)
    assert "--suite" in err


VERIFY_MISUSE = [
    (["verify", "--suite", "scaling", "--place", "p:3"], "--place"),
    (["verify", "--suite", "product-formula", "--n", "3"], "--n"),
    (["verify", "--suite", "signprop", "--samples", "10"], "--samples"),
    (["verify", "--suite", "sym3-mc", "--place", "p:3"], "--place"),
    (["verify", "--suite", "tate", "--place", "real"], "p-adic"),
    (["verify", "--suite", "orbits", "--place", "real"], "p-adic"),
    (["verify", "--suite", "weil-equation", "--place", "real"], "p-adic"),
    (["verify", "--suite", "stationary", "--place", "real"], "p-adic"),
    (["verify", "--suite", "stationary", "--place", "p:3"], "p:13 only"),
    # there is no --p: argparse reads it as an abbreviation of --place, which wants p:<prime>
    (["verify", "--suite", "signprop", "--p", "5"], "--place"),
    (["verify", "--jobs", "0"], "--jobs"),
    (["verify", "--suite", "scaling", "--jobs", "-2"], "--jobs"),
]


@pytest.mark.parametrize("argv,hint", VERIFY_MISUSE, ids=[" ".join(a) for a, _ in VERIFY_MISUSE])
def test_verify_rejects_options_the_suite_cannot_take(argv, hint, capsys):
    assert hint in usage_error(argv, capsys)


def test_verify_starts_no_more_workers_than_suites(monkeypatch, capsys):
    # a process pool forks all of its max_workers at once; a stand-in pool
    # records the count and maps in this process
    import concurrent.futures

    import locquad.suites

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    quick = ("product-formula", "scaling")
    monkeypatch.setattr(locquad.suites, "SUITES", {k: locquad.suites.SUITES[k] for k in quick})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    rc, payload, _ = run_json(["verify", "--jobs", "500"], capsys)
    assert rc == 0
    assert started == [2]
    assert [s["suite"] for s in payload["suites"]] == list(quick)
    rc, _, _ = run_json(["verify", "--jobs", "1"], capsys)
    assert rc == 0
    assert started == [2]  # one worker runs in this process


@pytest.mark.parametrize(
    "suite,prime",
    [("orbits", 3), ("weil-equation", 5), ("stationary", 13), ("tate", 3)],
)
def test_verify_place_restricts_a_padic_suite(suite, prime, capsys):
    rc, payload, _ = run_json(["verify", "--suite", suite, "--place", f"p:{prime}"], capsys)
    assert rc == 0
    cases = payload["suites"][0]["cases"]
    padic = [c["name"] for c in cases if not c["name"].startswith("real")]
    assert padic
    assert all(f"p={prime} " in name or f"Q_{prime}," in name for name in padic)


def test_verify_rerun_is_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "product-formula", "--seed", "7"]
    rc1, out1, _ = run(argv + ["--out", str(f1)], capsys)
    rc2, out2, _ = run(argv + ["--out", str(f2)], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert f1.read_text() == out1
    assert f1.read_text() == f2.read_text()


def test_verify_seed_changes_report(capsys):
    rc1, out1, _ = run(["verify", "--suite", "product-formula", "--seed", "1"], capsys)
    rc2, out2, _ = run(["verify", "--suite", "product-formula", "--seed", "2"], capsys)
    assert rc1 == rc2 == 0
    assert out1 != out2


@pytest.mark.parametrize(
    "argv",
    [
        ["sym-sign", "--place", "p:2", "--n", "7"],
        ["orbits", "--place", "p:2", "--n", "9"],
        ["sym-sign", "--place", "real", "--n", "40"],
        ["sym-sign", "--place", "p:3", "--n", "0"],
        ["orbits", "--place", "p:3", "--n", "0"],
    ],
    ids=" ".join,
)
def test_enumerations_that_cannot_finish_fail_fast(argv, capsys):
    import time

    t0 = time.perf_counter()
    rc, payload, _ = run_json(argv, capsys)
    assert time.perf_counter() - t0 < 0.1
    assert rc == 1
    assert payload["ok"] is False
    assert "budget" in payload["error"] or "positive" in payload["error"]
