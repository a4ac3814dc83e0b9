"""Payload shapes of every subcommand, pinned so that a change to how
results are encoded cannot pass unnoticed.

The exact commands pin their whole payload; the others pin every key path
(`a.b[].c`, `[]` for the elements of an array) with its JSON type, since
their numbers are floating point.  A value the encoder has no rule for is
an error, never a silent string.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest

from locquad import cli
from locquad.places import Qp, square_class

EXACT = [
    (
        ["hilbert", "--place", "p:3", "--a", "2", "--b", "3", "--oracle"],
        0,
        {
            "a": "2",
            "b": "3",
            "command": "hilbert",
            "oracle": -1,
            "place": "p:3",
            "schema": "locquad/1",
            "symbol": -1,
        },
    ),
    (
        ["square-class", "--place", "p:2", "--x", "12"],
        0,
        {
            "classes": ["1", "-1", "5", "-5", "2", "-2", "10", "-10"],
            "command": "square-class",
            "place": "p:2",
            "rep": "-5",
            "schema": "locquad/1",
            "x": "12",
        },
    ),
    (
        ["hasse", "--place", "real", "--coeffs", "1,-2,3"],
        0,
        {
            "coeffs": ["1", "-2", "3"],
            "command": "hasse",
            "det_class": "-1",
            "hasse": 1,
            "place": "real",
            "rank": 3,
            "schema": "locquad/1",
            "signature": [2, 1],
        },
    ),
    (
        ["equiv", "--place", "p:5", "--left", "1,2", "--right", "3,6"],
        0,
        {
            "command": "equiv",
            "equivalent": True,
            "left": {"det_class": "2", "hasse": 1, "rank": 2},
            "place": "p:5",
            "right": {"det_class": "2", "hasse": 1, "rank": 2},
            "schema": "locquad/1",
        },
    ),
    (
        ["sym-sign", "--place", "p:5", "--left", "1,2,5", "--right", "1,1,10"],
        0,
        {
            "command": "sym-sign",
            "epsilon_pair": -1,
            "left": ["1", "2", "5"],
            "lhs": -1,
            "mode": "pair",
            "ok": True,
            "place": "p:5",
            "rhs": -1,
            "right": ["1", "1", "10"],
            "schema": "locquad/1",
        },
    ),
    (
        ["sym-sign", "--place", "p:3", "--n", "3"],
        0,
        {
            "classes_checked": 4,
            "command": "sym-sign",
            "matrices_checked": 64,
            "mode": "constant",
            "n": 3,
            "ok": True,
            "place": "p:3",
            "schema": "locquad/1",
            "values": {"1": 1, "2": 1, "3": -1, "6": -1},
        },
    ),
    (
        ["orbits", "--place", "p:3", "--n", "3"],
        0,
        {
            "command": "orbits",
            "n": 3,
            "ok": True,
            "orbit_counts": {"1": 2, "2": 2, "3": 2, "6": 2},
            "place": "p:3",
            "schema": "locquad/1",
        },
    ),
]

SHAPED = [
    (
        ["gamma", "--place", "p:3", "--coeffs", "1,2"],
        0,
        {
            "coeffs": "array",
            "coeffs[]": "string",
            "command": "string",
            "eighth_root_index": "int",
            "place": "string",
            "psi_sign": "int",
            "root_deviation": "float",
            "schema": "string",
            "stabilized_at": "null",
            "value": "array",
            "value[]": "float",
        },
    ),
    (
        ["weil-eq", "--place", "p:3", "--coeffs", "1,2", "--center", "1/3,1", "--level", "-1"],
        0,
        {
            "center": "array",
            "center[]": "string",
            "coeffs": "array",
            "coeffs[]": "string",
            "command": "string",
            "gamma": "object",
            "gamma.eighth_root_index": "int",
            "gamma.root_deviation": "float",
            "gamma.stabilized_at": "null",
            "gamma.value": "array",
            "gamma.value[]": "float",
            "level": "int",
            "lhs": "array",
            "lhs[]": "float",
            "ok": "bool",
            "place": "string",
            "residual": "float",
            "rhs": "array",
            "rhs[]": "float",
            "schema": "string",
            "tol": "float",
        },
    ),
    (
        ["stationary", "--place", "p:5", "--f", "x^3 - 3*x"],
        0,
        {
            "agreement_from": "int",
            "command": "string",
            "f": "string",
            "ok": "bool",
            "place": "string",
            "rows": "array",
            "rows[]": "object",
            "rows[].abs_diff": "float",
            "rows[].abs_t": "int",
            "rows[].exact": "array",
            "rows[].exact[]": "float",
            "rows[].m": "int",
            "rows[].prediction": "array",
            "rows[].prediction[]": "float",
            "rows[].stabilized": "bool",
            "schema": "string",
            "tol": "float",
        },
    ),
    (
        ["tate", "--place", "real", "--s", "-0.4"],
        0,
        {
            "command": "string",
            "gamma_matrix_check": "object",
            "gamma_matrix_check.c_value": "array",
            "gamma_matrix_check.c_value[]": "float",
            "gamma_matrix_check.residual": "float",
            "gamma_matrix_check.rows": "array",
            "gamma_matrix_check.rows[]": "object",
            "gamma_matrix_check.rows[].lhs": "array",
            "gamma_matrix_check.rows[].lhs[]": "array",
            "gamma_matrix_check.rows[].lhs[][]": "float",
            "gamma_matrix_check.rows[].phi": "string",
            "gamma_matrix_check.rows[].prediction_without_constant": "array",
            "gamma_matrix_check.rows[].prediction_without_constant[]": "array",
            "gamma_matrix_check.rows[].prediction_without_constant[][]": "float",
            "gamma_matrix_check.s": "array",
            "gamma_matrix_check.s[]": "float",
            "ok": "bool",
            "parity": "int",
            "place": "string",
            "ratio_check": "object",
            "ratio_check.c_value": "array",
            "ratio_check.c_value[]": "float",
            "ratio_check.max_deviation": "float",
            "ratio_check.place": "string",
            "ratio_check.rows": "array",
            "ratio_check.rows[]": "object",
            "ratio_check.rows[].lhs": "array",
            "ratio_check.rows[].lhs[]": "float",
            "ratio_check.rows[].phi": "string",
            "ratio_check.rows[].ratio": "array|null",
            "ratio_check.rows[].ratio[]": "float",
            "ratio_check.rows[].rhs_without_constant": "array",
            "ratio_check.rows[].rhs_without_constant[]": "float",
            "ratio_check.s": "array",
            "ratio_check.s[]": "float",
            "ratio_check.twist": "string",
            "ratio_check.warnings": "array",
            "ratio_check.warnings[]": "string",
            "s": "float",
            "schema": "string",
            "tol": "float",
        },
    ),
    (
        ["tate", "--place", "p:5", "--s", "-0.5", "--twist", "u"],
        0,
        {
            "c_value": "array",
            "c_value[]": "float",
            "command": "string",
            "max_deviation": "float",
            "ok": "bool",
            "place": "string",
            "rows": "array",
            "rows[]": "object",
            "rows[].lhs": "array",
            "rows[].lhs[]": "float",
            "rows[].phi": "string",
            "rows[].ratio": "array",
            "rows[].ratio[]": "float",
            "rows[].rhs_without_constant": "array",
            "rows[].rhs_without_constant[]": "float",
            "s": "array",
            "s[]": "float",
            "schema": "string",
            "tol": "float",
            "twist": "string",
            "warnings": "array",
        },
    ),
    (
        ["shintani", "--n", "3", "--s", "0.3"],
        0,
        {
            "c": "array",
            "c[]": "array",
            "c[][]": "float",
            "c_prime": "array",
            "c_prime[]": "array",
            "c_prime[][]": "float",
            "closed_form_max_error": "float",
            "command": "string",
            "gamma_matrix": "array",
            "gamma_matrix[]": "array",
            "gamma_matrix[][]": "array",
            "gamma_matrix[][][]": "float",
            "n": "int",
            "ok": "bool",
            "s": "string",
            "schema": "string",
            "sign_vectors": "object",
            "sign_vectors.expected": "array",
            "sign_vectors.expected[]": "int",
            "sign_vectors.expected_prime": "array",
            "sign_vectors.expected_prime[]": "int",
            "sign_vectors.max_error": "float",
            "sign_vectors.n": "int",
            "sign_vectors.ok": "bool",
            "sign_vectors.ratios": "array",
            "sign_vectors.ratios[]": "array",
            "sign_vectors.ratios[][]": "float",
            "sign_vectors.ratios_prime": "array",
            "sign_vectors.ratios_prime[]": "array",
            "sign_vectors.ratios_prime[][]": "float",
            "tol": "float",
        },
    ),
    (
        ["sym3-mc", "--samples", "2000"],
        0,
        {
            "command": "string",
            "difference": "float",
            "dropped": "int",
            "notes": "array",
            "notes[]": "string",
            "p": "int",
            "ratios": "array",
            "ratios[]": "array",
            "ratios[][]": "float",
            "s": "array",
            "s[]": "float",
            "samples": "int",
            "schema": "string",
            "seed": "int",
            "sigma_combined": "float",
            "sigmas": "array",
            "sigmas[]": "float",
            "within_3_sigma": "bool",
        },
    ),
    (
        ["verify", "--suite", "signprop"],
        0,
        {
            "command": "string",
            "ok": "bool",
            "schema": "string",
            "seed": "int",
            "suites": "array",
            "suites[]": "object",
            "suites[].cases": "array",
            "suites[].cases[]": "object",
            "suites[].cases[].expected": "string",
            "suites[].cases[].got": "string",
            "suites[].cases[].name": "string",
            "suites[].cases[].pass": "bool",
            "suites[].counts": "object",
            "suites[].counts.failed": "int",
            "suites[].counts.passed": "int",
            "suites[].counts.total": "int",
            "suites[].criterion": "int",
            "suites[].gating": "bool",
            "suites[].ok": "bool",
            "suites[].seed": "int",
            "suites[].suite": "string",
            "suites[].version": "string",
        },
    ),
]


def run(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def shape(obj, path="", out=None) -> dict:
    """Every key path of a JSON value with the JSON types found there."""
    out = {} if out is None else out
    kind = {
        dict: "object", list: "array", str: "string", bool: "bool",
        int: "int", float: "float", type(None): "null",
    }
    if path:
        types = set(out.get(path, "").split("|")) - {""}
        out[path] = "|".join(sorted(types | {kind[type(obj)]}))
    if isinstance(obj, dict):
        for k, v in obj.items():
            shape(v, f"{path}.{k}" if path else k, out)
    elif isinstance(obj, list):
        for v in obj:
            shape(v, path + "[]", out)
    return out


@pytest.mark.parametrize("argv,code,payload", EXACT, ids=[" ".join(a[:3]) for a, _, _ in EXACT])
def test_exact_payload(argv, code, payload, capsys):
    assert run(argv, capsys) == (code, payload)


@pytest.mark.parametrize("argv,code,paths", SHAPED, ids=[" ".join(a[:3]) for a, _, _ in SHAPED])
def test_payload_shape(argv, code, paths, capsys):
    got_code, payload = run(argv, capsys)
    assert got_code == code
    assert shape(payload) == paths


def test_unencodable_value_raises(capsys):
    with pytest.raises(TypeError):
        cli._emit({"value": object()})
    assert capsys.readouterr().out == ""


@dataclass(frozen=True)
class _Report:
    z: complex
    q: Fraction
    rows: tuple


def test_encoder_rule(capsys):
    place = Qp(7)
    report = _Report(1 - 2j, Fraction(-1, 3), ({"w": 0.5j},))
    cli._emit({"report": report, "place": place, "class": square_class(3, place)})
    assert json.loads(capsys.readouterr().out) == {
        "report": {"z": [1.0, -2.0], "q": "-1/3", "rows": [{"w": [0.0, 0.5]}]},
        "place": "p:7",
        "class": "3",
    }
