"""Deterministic exact evaluation of p-adic character sums.

Every exact p-adic integral in this package, the integral over Z_p^n
of psi(f) for a polynomial f with rational coefficients, is computed
here.  `padic_poly_sum` (one variable) and `padic_poly_sum_2d` (two)
take the coefficients as rationals, and `_numerators` works out the
conductor e = max(0, -min v(c)) and the integers p^e * c mod p^e.  The
phase is then periodic mod p^e in each variable, so one period, a
finite sum of exp(2 pi i N(z) / p^e), is the integral on the nose.  The
reductions are exact: numerators are computed in modular integer
arithmetic, and floating point enters only in the roots of unity and
their sum.

One kernel, `poly_phase_sum`, carries every such sum.  It walks z in
slices of `_CHUNK` values, evaluates the numerators of a slice by
in-place Horner (`poly_eval_mod`) and sums their roots of unity
(`phase_sum`), so no array longer than a slice is ever allocated.
`phase_sum` reads zeta^n, zeta = exp(2 pi i / p^e), as the product
hi[n // B] * lo[n % B] of two tables of about sqrt(p^e) roots, built
per call; B is a power of two, so the split is a shift and a mask.
Each table entry is within an ulp or two of its root, so each term is
within a few ulp of zeta^n.  The products are summed by `np.einsum`,
which runs no BLAS.

Sums are accumulated block by block in a fixed index order, so a result
is bit-reproducible for a given argument list, `_CHUNK` and `_BLOCK` on
one numpy build and CPU; the BLAS thread count does not enter.  A
different CPU or numpy build may pick other SIMD loops for the complex
exp and the sum, and so move the last bits.

int64 is safe throughout: the integrals check their term count, p^e or
p^(2e), against TERM_BUDGET = 10^7 < 2^24 before they sum, so a modulus,
a numerator and a coordinate z are each below 2^24, and every
intermediate product is below 2^48.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .places import reduce_mod_prime_power, valuation

# Hard cap on the number of enumerated terms in any one exact sum.
TERM_BUDGET = 10**7

# z values per kernel slice (one `phase_sum` call each), and numerators
# per block inside `phase_sum`: a slice amortizes the root tables, a
# block keeps its temporaries cache-sized (2^14 measured fastest of
# 2^13..2^15 for a 7^8-term sum on a 2-CPU Xeon).
_CHUNK = 1 << 18
_BLOCK = 1 << 14


class BudgetError(ValueError):
    """Raised when an exact enumeration would exceed TERM_BUDGET."""


def check_budget(terms: int, what: str = "character sum"):
    if terms > TERM_BUDGET:
        raise BudgetError(
            f"{what} needs {terms} terms, over the budget of {TERM_BUDGET}"
        )


def phase_sum(numerators: np.ndarray, p: int, e: int) -> complex:
    """sum exp(2 pi i n / p^e) over an int64 array of numerators in
    [0, p^e), reduced deterministically in block order.

    zeta^n is hi[n >> k] * lo[n & (2^k - 1)] with 2^k the least power of
    two >= sqrt(p^e): the tables are built once per call and hold at most
    2 sqrt(p^e) and sqrt(p^e) roots.  The numerators are read in blocks
    of `_BLOCK`, small enough that a block's indices and roots stay in
    cache instead of taking fresh pages each time."""
    pe = p**e
    k = math.isqrt(pe - 1).bit_length()
    step = 2.0 * np.pi / pe
    lo = np.exp(1j * (np.arange(1 << k) * step))
    hi = np.exp(1j * ((np.arange(((pe - 1) >> k) + 1) << k) * step))
    mask = (1 << k) - 1
    total = 0 + 0j
    flat = numerators.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        n = flat[start : start + _BLOCK]
        total += complex(np.einsum("i,i->", hi.take(n >> k), lo.take(n & mask)))
    return total


def poly_eval_mod(coeffs: list[int], z: np.ndarray, pe: int) -> np.ndarray:
    """Horner evaluation of a one-variable integer polynomial mod pe.

    coeffs[k] is the coefficient of z^k, already reduced mod pe.  The
    evaluation runs in place from the highest nonzero coefficient and
    skips the additions of zero coefficients.
    """
    top = max((k for k, c in enumerate(coeffs) if c), default=0)
    acc = np.full_like(z, coeffs[top] if coeffs else 0)
    for c in reversed(coeffs[:top]):
        np.multiply(acc, z, out=acc)
        if c:
            np.add(acc, c, out=acc)
        np.remainder(acc, pe, out=acc)
    return acc


def poly_phase_sum(coeffs: list[int], p: int, e: int, count: int) -> complex:
    """sum_{z=0}^{count-1} exp(2 pi i f(z) / p^e), unnormalized, for
    f(z) = sum coeffs[k] z^k with integer coefficients reduced mod p^e.

    z runs in slices of `_CHUNK` values, each evaluated and summed before
    the next is built.  The caller checks `count` against the budget.
    """
    pe = p**e
    total = 0 + 0j
    for start in range(0, count, _CHUNK):
        z = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        total += phase_sum(poly_eval_mod(coeffs, z, pe), p, e)
    return total


def _numerators(coeffs, p: int) -> tuple[int, list[int]]:
    """The conductor e = max(0, -min v(c)) of rational coefficients, and
    their numerators p^e * c mod p^e over the common denominator p^e."""
    e = max([0] + [-valuation(c, p) for c in coeffs if c])
    pe = p**e
    return e, [reduce_mod_prime_power(c * pe, p, e) if c else 0 for c in coeffs]


def padic_poly_sum(coeffs: list[Fraction], p: int) -> tuple[complex, int]:
    """The exact integral over Z_p of psi(f), f(z) = sum coeffs[k] z^k
    with rational coefficients, for the standard character psi.

    Returns (value, e): the sum p^-e sum_{z mod p^e} psi(f(z)) over one
    period of the phase, e its conductor (see `_numerators`)."""
    e, ints = _numerators(coeffs, p)
    if e == 0:
        return 1 + 0j, 0  # psi(f) is 1 on all of Z_p
    pe = p**e
    check_budget(pe, "oscillatory sum")
    return poly_phase_sum(ints, p, e, pe) / pe, e


def padic_poly_sum_2d(mon: dict[tuple[int, int], Fraction], p: int) -> tuple[complex, int]:
    """The exact integral over Z_p^2 of psi(f) for f(x, y) = sum of
    mon[(i, j)] x^i y^j with rational coefficients: (value, e) as for
    `padic_poly_sum`, summed over (x, y) mod p^e.

    The grid is walked in row blocks of at most `_CHUNK` entries: each
    block is evaluated by Horner in y over the x-polynomial coefficients
    of its rows and summed by `phase_sum` before the next is built."""
    e, ints = _numerators(list(mon.values()), p)
    if e == 0:
        return 1 + 0j, 0
    pe = p**e
    check_budget(pe * pe, "two-variable oscillatory sum")
    dx = max(i for i, _ in mon)
    dy = max(j for _, j in mon)
    # coefficient of y^j as an integer polynomial in x, reduced mod p^e
    xcoeffs = [[0] * (dx + 1) for _ in range(dy + 1)]
    for (i, j), c in zip(mon, ints):
        xcoeffs[j][i] = c
    ys = np.arange(pe, dtype=np.int64)
    rows = max(1, _CHUNK // pe)
    total = 0 + 0j
    for start in range(0, pe, rows):
        xs = np.arange(start, min(start + rows, pe), dtype=np.int64)
        nums = np.empty((xs.size, pe), dtype=np.int64)
        nums[:] = poly_eval_mod(xcoeffs[dy], xs, pe)[:, None]
        for j in range(dy - 1, -1, -1):
            np.multiply(nums, ys, out=nums)
            np.add(nums, poly_eval_mod(xcoeffs[j], xs, pe)[:, None], out=nums)
            np.remainder(nums, pe, out=nums)
        total += phase_sum(nums, p, e)
    return total / pe**2, e
