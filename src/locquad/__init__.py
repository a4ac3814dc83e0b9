"""Exact invariants of quadratic forms over the real and p-adic numbers.

Hilbert symbols, Hasse-Witt invariants and Witt classes; Weil constants
with their Fourier functional equation; p-adic stationary phase; sign
identities for the symmetric-matrix representation; Shintani's gamma
matrix; and the degree-one local functional equation.

The public names below are served lazily (PEP 562): `import locquad`
loads no submodule, and `locquad.X` imports only the module defining X.
So exact work never pays for numpy, which only the analytic modules
need.
"""

import importlib

_EXPORTS = {
    "places": (
        "REAL",
        "AdditiveCharacter",
        "Place",
        "Qp",
        "SquareClass",
        "hilbert_symbol",
        "hilbert_symbol_oracle",
        "least_nonresidue",
        "parse_rational",
        "square_class",
        "square_class_reps",
        "valuation",
    ),
    "forms": (
        "FormInvariants",
        "QuadraticForm",
        "SymMatrix",
        "diagonalize",
        "equivalent",
        "form_of_matrix",
        "invariants",
        "witt_filtration_level",
    ),
    "weil": (
        "BallIndicator",
        "GammaEpsilonReport",
        "WeilConstant",
        "WeilEquationReport",
        "gamma_form",
        "gamma_matches_epsilon",
        "gamma_rank1",
        "gauss_gamma",
        "nearest_eighth_root",
        "verify_weil_equation",
    ),
    "stationary": (
        "CriticalPoint",
        "DegenerateCriticalPointError",
        "PhasePolynomial",
        "StationaryComparison",
        "compare_stationary",
        "critical_points",
        "exact_oscillatory_integral",
        "stationary_phase_prediction",
    ),
    "symsign": (
        "CConstantReport",
        "ScalingReport",
        "SignPropReport",
        "c_constant",
        "c_constant_value",
        "epsilon_pair",
        "epsilon_scaling_check",
        "orbit_invariant",
        "scaling_invariant",
        "sl_orbit_count",
        "stabilizer_form",
        "verify_signprop",
    ),
    "shintani": (
        "SignVectorReport",
        "c_closed_form",
        "c_prime_closed_form",
        "c_prime_vector",
        "c_vector",
        "check_sign_vectors",
        "closed_form_error",
        "expected_sign",
        "expected_sign_prime",
        "gamma_matrix",
        "v_entry",
    ),
    "tate": (
        "CosetFunction",
        "FunctionalEquationReport",
        "GammaMatrixReport",
        "HermiteGaussian",
        "MultiplicativeCharacter",
        "Sym3Coset",
        "Sym3MCReport",
        "padic_sym3_mc_check",
        "padic_zeta",
        "real_gamma_matrix_check",
        "real_tate_check",
        "real_zeta",
        "sym3_fourier_value",
        "tate_check",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
