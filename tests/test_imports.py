"""Import footprint: a request loads only the modules it needs.

The footprint checks run in a fresh interpreter, since this test process
has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import locquad
import locquad.suites
from locquad import cli

SRC = Path(locquad.__file__).resolve().parent.parent

FOOTPRINT = """
import contextlib, io, json, sys
import locquad

if sys.argv[1:]:
    from locquad.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in sys.argv[1:]:
            main(argv.split())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("locquad", "numpy", "scipy"))))
"""


def loaded_modules(*requests: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *requests],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_no_submodule():
    assert loaded_modules() == {"locquad"}


def test_exact_requests_skip_numpy_and_scipy():
    mods = loaded_modules(
        "hilbert --place p:7 --a -1 --b -1",
        "square-class --place p:2 --x 12",
        "hasse --place p:5 --coeffs 2,5,-1",
        "equiv --place real --left 1,-2 --right 3,-1",
        "equiv --place p:2 --left 1,5 --right 2,10",
        "sym-sign --place p:3 --left 1,3 --right 2,6",
        "orbits --place p:3 --n 3",
    )
    assert mods <= {"locquad", "locquad.cli", "locquad.forms", "locquad.places", "locquad.symsign"}


def test_gamma_request_skips_numpy():
    mods = loaded_modules("gamma --place p:7 --coeffs 7,3", "gamma --place real --coeffs 1,-2")
    assert "locquad.weil" in mods
    assert not any(m.split(".")[0] in ("numpy", "scipy") for m in mods)
    assert "locquad.charsum" not in mods


def test_real_tate_request_skips_scipy():
    # the real-place quadrature is an exp-sinh rule in numpy
    mods = loaded_modules("tate --place real --s -0.5")
    assert "locquad.tate" in mods
    assert not any(m.split(".")[0] == "scipy" for m in mods)


def test_public_names_resolve_and_are_listed():
    listed = dir(locquad)
    for name in locquad.__all__:
        assert getattr(locquad, name) is getattr(sys.modules[f"locquad.{locquad._MODULE_OF[name]}"], name)
        assert name in listed
        assert name in vars(locquad)  # cached: the next lookup is a dict hit


def test_suite_names_match_the_suites():
    assert cli.SUITE_NAMES == tuple(locquad.suites.SUITES)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    first = ["stationary", "--place", "p:5", "--f", "x^3 - 3*x"]
    second = ["hasse", "--place", "p:3", "--coeffs", "1,3,-1"]
    other = ["stationary", "--place", "p:7", "--f", "x^2", "--exponents", "2", "--tol", "1e-3"]

    def out(argv):
        cli.main(argv)
        return capsys.readouterr().out

    before = out(first), out(second)
    out(other)
    assert (out(first), out(second)) == before


def test_verify_jobs_do_not_change_the_report(monkeypatch, capsys):
    # three quick gating suites stand in for the full set; worker processes
    # look each suite up by name, so they need not see the patch
    quick = ("product-formula", "equivalence", "scaling")
    monkeypatch.setattr(locquad.suites, "SUITES", {k: locquad.suites.SUITES[k] for k in quick})
    reports = []
    for jobs in ("1", "2"):
        assert cli.main(["verify", "--seed", "3", "--jobs", jobs]) == 0
        reports.append(capsys.readouterr().out)
    assert [s["suite"] for s in json.loads(reports[0])["suites"]] == list(quick)
    assert reports[0] == reports[1]


def test_rejected_enumerations_skip_numpy():
    mods = loaded_modules("sym-sign --place p:2 --n 7", "orbits --place p:2 --n 9")
    assert mods <= {"locquad", "locquad.cli", "locquad.forms", "locquad.places", "locquad.symsign"}
