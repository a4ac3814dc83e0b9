"""Shintani's Gamma matrix for the real symmetric space, in exact form.

The matrix entry v_ij(s), 0 <= i, j <= n, is the sum over sign tuples
eps in {+-1}^n having exactly i entries +1 of

    exp( (pi i / 2) * [ sum_{k <= j} (k+s) eps_k
                        - sum_{k > j} (k-j+s) eps_k ] ).

The exponent splits as (pi i / 2)(A(eps) + s B(eps)) with integer
A, B, so each term is i^A * exp(i pi s B / 2).  Terms are bucketed by
(i, A mod 4, B) with exact integer counts; evaluation at any s is then
cancellation-safe, and for rational s the remaining angle s*B/2 is
reduced mod 4 exactly before exponentiation.

The column sums c_j = sum_i v_ij and the alternating column sums
c'_j = sum_i (-1)^(n-i) v_ij admit product closed forms

    c_j  = 2^n   prod_{k=1..j} cos(pi(k+s)/2) prod_{k=1..n-j} cos(pi(k+s)/2)
    c'_j = (2i)^n (-1)^(n-j)
           prod_{k=1..j} sin(pi(k+s)/2) prod_{k=1..n-j} sin(pi(k+s)/2)

and for odd n the ratios are s-independent signs:

    c_j / c_0  = (-1)^(j(n-j)/2),      c'_j / c'_0 = (-1)^(j(n-j)/2 + j).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

MASK_BUDGET = 2**20


def _unit_phase(s, b: int) -> complex:
    """exp(i pi s b / 2), with exact angle reduction for rational s."""
    if isinstance(s, (int, Fraction)):
        r = Fraction(s) * b / 2 % 4
        return cmath.exp(1j * cmath.pi * float(r))
    return cmath.exp(1j * cmath.pi * s * b / 2)


@lru_cache(maxsize=8)
def _buckets(n: int) -> np.ndarray:
    """Integer tensor N[j, i, a, b] counting sign tuples with i plus
    signs, A = a mod 4 and B = b - n, per column index j."""
    if 2**n > MASK_BUDGET:
        raise ValueError(f"2^{n} sign tuples exceed the enumeration cap")
    masks = np.arange(2**n, dtype=np.int64)
    signs = np.where((masks[:, None] >> np.arange(n)[None, :]) & 1 == 1, 1, -1)
    pops = ((signs + 1) // 2).sum(axis=1)
    N = np.zeros((n + 1, n + 1, 4, 2 * n + 1), dtype=np.int64)
    ks = np.arange(1, n + 1)
    for j in range(n + 1):
        w = np.where(ks <= j, ks, -(ks - j))
        u = np.where(ks <= j, 1, -1)
        A = signs @ w
        B = signs @ u
        np.add.at(N[j], (pops, A % 4, B + n), 1)
    return N


_I_POW = (1, 1j, -1, -1j)


def v_entry(n: int, i: int, j: int, s) -> complex:
    """Entry v_ij(s) of the n-th Gamma matrix."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must lie in 0..n")
    N = _buckets(n)[j, i]
    total = 0j
    for a in range(4):
        for bi in range(2 * n + 1):
            cnt = int(N[a, bi])
            if cnt:
                total += cnt * _I_POW[a] * _unit_phase(s, bi - n)
    return total


@lru_cache(maxsize=8, typed=True)
def _entries(n: int, s) -> tuple[tuple[complex, ...], ...]:
    """All v_ij(s), rows i: one request reads them for the matrix, both
    column sums, the closed-form check and the sign vectors."""
    return tuple(tuple(v_entry(n, i, j, s) for j in range(n + 1)) for i in range(n + 1))


def gamma_matrix(n: int, s) -> np.ndarray:
    """The full (n+1) x (n+1) matrix [v_ij(s)], rows i, columns j."""
    return np.array(_entries(n, s))


def c_vector(n: int, s) -> list[complex]:
    """Column sums over i of v_ij(s), computed from the exact buckets."""
    v = _entries(n, s)
    return [sum(v[i][j] for i in range(n + 1)) for j in range(n + 1)]


def c_prime_vector(n: int, s) -> list[complex]:
    """Alternating column sums sum_i (-1)^(n-i) v_ij(s)."""
    v = _entries(n, s)
    return [sum((-1) ** (n - i) * v[i][j] for i in range(n + 1)) for j in range(n + 1)]


# Gate on closed_form_error and on the sign-vector error of
# check_sign_vectors.
CLOSED_FORM_TOL = 1e-10

# The closed forms grow like 2^n cosh(pi Im(s) / 2)^n, so in double
# precision their rounding error alone can exceed CLOSED_FORM_TOL
# (n = 7, s = -0.235-0.954j is off by 1.3e-10); 30 digits leave the
# floating-point bucket sums as the only inexact side.
_CLOSED_FORM_DPS = 30


def _closed_forms(n: int, s) -> tuple[list[complex], list[complex]]:
    """The closed forms of c_j and c'_j for j = 0..n, at 30 digits."""
    import mpmath

    with mpmath.workdps(_CLOSED_FORM_DPS):
        sm = mpmath.mpmathify(s)  # a Fraction converts exactly at this precision
        # prefix products prod_{k <= m} cos (resp. sin) of pi (k + s) / 2
        cos_p, sin_p = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for k in range(1, n + 1):
            x = mpmath.pi * (k + sm) / 2
            cos_p.append(cos_p[-1] * mpmath.cos(x))
            sin_p.append(sin_p[-1] * mpmath.sin(x))
        c = [complex(2**n * cos_p[j] * cos_p[n - j]) for j in range(n + 1)]
        cp = [complex((2j) ** n * (-1) ** (n - j) * sin_p[j] * sin_p[n - j]) for j in range(n + 1)]
    return c, cp


def c_closed_form(n: int, j: int, s) -> complex:
    return _closed_forms(n, s)[0][j]


def c_prime_closed_form(n: int, j: int, s) -> complex:
    return _closed_forms(n, s)[1][j]


def closed_form_error(n: int, s) -> float:
    """Largest |c_j - closed form| and |c'_j - closed form| over j."""
    closed, closed_prime = _closed_forms(n, s)
    c = c_vector(n, s)
    cp = c_prime_vector(n, s)
    return max(
        max(abs(x - y) for x, y in zip(c, closed)),
        max(abs(x - y) for x, y in zip(cp, closed_prime)),
    )


def expected_sign(n: int, j: int) -> int:
    """(-1)^(j(n-j)/2); sign of c_j/c_0 for odd n."""
    return -1 if (j * (n - j) // 2) % 2 else 1


def expected_sign_prime(n: int, j: int) -> int:
    """(-1)^(j(n-j)/2 + j); sign of c'_j/c'_0 for odd n."""
    return -1 if (j * (n - j) // 2 + j) % 2 else 1


@dataclass(frozen=True)
class SignVectorReport:
    n: int
    ratios: tuple[complex, ...]
    ratios_prime: tuple[complex, ...]
    expected: tuple[int, ...]
    expected_prime: tuple[int, ...]
    max_error: float
    ok: bool


def check_sign_vectors(n: int, s) -> SignVectorReport:
    """For odd n, compare c_j/c_0 and c'_j/c'_0 against the predicted
    s-independent sign vectors.

    Errors out when c_0 or c'_0 is numerically tiny at the given s (the
    ratios are then meaningless: pick an s away from the zero set).
    """
    if n % 2 == 0:
        raise ValueError("sign vectors are for odd n")
    c = c_vector(n, s)
    cp = c_prime_vector(n, s)
    if abs(c[0]) < 1e-8 or abs(cp[0]) < 1e-8:
        raise ArithmeticError(
            f"c_0 or c'_0 vanishes near s={s}; sign ratios are undefined there"
        )
    ratios = tuple(z / c[0] for z in c)
    ratios_p = tuple(z / cp[0] for z in cp)
    exp = tuple(expected_sign(n, j) for j in range(n + 1))
    exp_p = tuple(expected_sign_prime(n, j) for j in range(n + 1))
    err = max(
        max(abs(r - e) for r, e in zip(ratios, exp)),
        max(abs(r - e) for r, e in zip(ratios_p, exp_p)),
    )
    return SignVectorReport(n, ratios, ratios_p, exp, exp_p, err, err < CLOSED_FORM_TOL)
