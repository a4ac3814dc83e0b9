"""Deterministic exact evaluation of p-adic character sums.

Every oscillatory quantity in this package reduces to finite sums of the
shape sum_z exp(2 pi i N(z) / p^e) with N(z) an integer-valued
polynomial reduced mod p^e.  The reductions are exact: numerators are
computed in modular integer arithmetic, and floating point enters only
in the roots of unity and their sum.

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

int64 is safe throughout: a modulus is at most 2^31, and a numerator is
multiplied only by a coordinate z, which the term budget keeps below
10^7 < 2^24, so every intermediate product is below 2^55.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .places import valuation

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


def reduce_mod_prime_power(x: Fraction, p: int, e: int) -> int:
    """x mod p^e for a rational x integral at p (prime-to-p denominator
    is inverted mod p^e)."""
    pe = p**e
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not integral at {p}")
    return num * pow(den, -1, pe) % pe


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


def padic_poly_sum(coeffs: list[Fraction], p: int, K: int) -> tuple[complex, int]:
    """Normalized exact sum p^-K sum_{z mod p^K} psi(f(z)) for the
    standard character psi and f(z) = sum coeffs[k] z^k with rational
    coefficients whose denominators are powers of p.

    Returns (value, e) where p^e was the common phase denominator.
    Exactness: f(z) mod 1 (in the p-adic sense) has denominator p^e with
    e = -min_k v(coeffs[k]); for z ranging over a full period p^K with
    K >= e the sum is the exact integral of psi(f) over Z_p.
    """
    e = 0
    for c in coeffs:
        if c != 0:
            e = max(e, -valuation(c, p))
    if e == 0:
        return 1.0 + 0j, 0  # psi(f) constant 1 on Z_p, up to unit phase
    pe = p**e
    if pe > 2**31 - 1:
        raise BudgetError(f"phase modulus {p}^{e} exceeds the int64-safe cap")
    check_budget(p**K, "p-adic polynomial sum")
    ints = [reduce_mod_prime_power(c * pe, p, e) if c else 0 for c in coeffs]
    return poly_phase_sum(ints, p, e, p**K) / p**K, e
