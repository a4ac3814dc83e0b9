"""The chunked character-sum kernel against per-term sums and closed forms.

The reference sums here evaluate each numerator in Python integers and
each root of unity with cmath, term by term, so they share no code with
the kernel's Horner evaluation or its two-table roots of unity.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import locquad
from locquad import charsum, stationary
from locquad.charsum import padic_poly_sum, phase_sum, poly_eval_mod, poly_phase_sum
from locquad.places import Qp

SRC = Path(locquad.__file__).resolve().parent.parent
PRIMES = (2, 3, 5, 7, 13)


def reference_sum(coeffs, pe, count):
    """sum_{z < count} exp(2 pi i f(z) / pe), one exact numerator at a time."""
    total = 0j
    for z in range(count):
        n = sum(c * z**k for k, c in enumerate(coeffs)) % pe
        total += cmath.exp(2j * cmath.pi * n / pe)
    return total


def reference_phase_sum(nums, pe):
    return sum(cmath.exp(2j * cmath.pi * int(n) / pe) for n in np.asarray(nums).reshape(-1))


def sample_coeffs(rng, degree, pe, zero_top):
    coeffs = [int(c) for c in rng.integers(0, pe, size=degree + 1)]
    for k in range(1, zero_top + 1):
        if k <= degree:
            coeffs[-k] = 0
    return coeffs


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("degree", range(5))
def test_poly_phase_sum_matches_per_term_sum(p, degree):
    rng = np.random.default_rng(100 * p + degree)
    e = 1 if p == 13 else 2
    pe = p**e
    for zero_top in (0, 1, 2):
        coeffs = sample_coeffs(rng, degree, pe, zero_top)
        for count in (pe, p * pe):  # one period, and K = e + 1 > e
            got = poly_phase_sum(coeffs, p, e, count)
            assert abs(got - reference_sum(coeffs, pe, count)) < 1e-12 * count


def test_poly_eval_mod_matches_integer_horner():
    rng = np.random.default_rng(7)
    for p, e in ((2, 5), (3, 4), (7, 3), (13, 2)):
        pe = p**e
        z = np.arange(3 * pe, dtype=np.int64)
        for degree in range(5):
            for zero_top in (0, 2):
                coeffs = sample_coeffs(rng, degree, pe, zero_top)
                want = [sum(c * int(x) ** k for k, c in enumerate(coeffs)) % pe for x in z]
                assert poly_eval_mod(coeffs, z, pe).tolist() == want
    assert poly_eval_mod([0, 0, 0], np.arange(4, dtype=np.int64), 9).tolist() == [0] * 4
    # at the top of the term budget, z^4 alone would overflow int64
    pe = 13**6
    z = np.array([0, 1, pe - 1, charsum.TERM_BUDGET - 1], dtype=np.int64)
    coeffs = [pe - 1, pe - 2, pe - 3, pe - 4, pe - 5]
    want = [sum(c * int(x) ** k for k, c in enumerate(coeffs)) % pe for x in z]
    assert poly_eval_mod(coeffs, z, pe).tolist() == want


@pytest.mark.parametrize("p", PRIMES)
def test_phase_sum_takes_any_shape(p):
    e = 3 if p < 13 else 2
    pe = p**e
    rng = np.random.default_rng(p)
    nums = rng.integers(0, pe, size=(17, 23), dtype=np.int64)
    want = reference_phase_sum(nums, pe)
    assert abs(phase_sum(nums, p, e) - want) < 1e-12 * nums.size
    assert abs(phase_sum(nums.T.copy(), p, e) - want) < 1e-12 * nums.size


def test_phase_sum_hits_both_table_ends():
    # pe - 1 reads the last hi entry and a high lo entry; 0 reads 1 * 1
    for p, e in ((2, 7), (3, 5), (7, 4), (13, 3)):
        pe = p**e
        width = 1 << math.isqrt(pe - 1).bit_length()
        nums = np.array([0, 1, width - 1, width, width + 1, pe - 1], dtype=np.int64)
        for n in nums:
            term = phase_sum(np.array([n]), p, e)
            assert abs(term - cmath.exp(2j * cmath.pi * int(n) / pe)) < 1e-15


@pytest.mark.parametrize("block", [1, 3, 5])
def test_phase_sum_block_edges(monkeypatch, block):
    monkeypatch.setattr(charsum, "_BLOCK", block)
    p, e = 3, 4
    for size in (1, block - 1, block, block + 1, 3 * block + 7):
        nums = np.arange(size, dtype=np.int64) * 11 % p**e
        assert abs(phase_sum(nums, p, e) - reference_phase_sum(nums, p**e)) < 1e-12 * max(size, 1)


@pytest.mark.parametrize("chunk", [4, 7])
def test_chunk_edges(monkeypatch, chunk):
    monkeypatch.setattr(charsum, "_CHUNK", chunk)
    sizes = []
    real_phase_sum = charsum.phase_sum

    def spy(nums, p, e):
        sizes.append(nums.size)
        return real_phase_sum(nums, p, e)

    monkeypatch.setattr(charsum, "phase_sum", spy)
    p, e = 5, 2
    coeffs = [3, 1, 0, 4]
    for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        sizes.clear()
        got = poly_phase_sum(coeffs, p, e, count)
        assert abs(got - reference_sum(coeffs, p**e, count)) < 1e-12 * count
        assert sum(sizes) == count and max(sizes) <= chunk
        assert len(sizes) == -(-count // chunk)  # one phase_sum call per slice


def test_two_variable_sum_in_small_row_blocks(monkeypatch):
    f = stationary.PhasePolynomial.parse("x^2 + x*y + 2*y^2 + x", Qp(5))
    t = Fraction(3, 25)
    whole = stationary.exact_oscillatory_integral(f, t).value
    monkeypatch.setattr(charsum, "_CHUNK", 60)  # 2 rows of 25 per block
    sizes = []
    real_phase_sum = charsum.phase_sum

    def spy(nums, p, e):
        sizes.append(nums.size)
        return real_phase_sum(nums, p, e)

    monkeypatch.setattr(charsum, "phase_sum", spy)
    blocked = stationary.exact_oscillatory_integral(f, t).value
    assert sizes == [50] * 12 + [25]
    want = 0j
    for x in range(25):
        for y in range(25):
            n = (3 * (x * x + x * y + 2 * y * y + x)) % 25
            want += cmath.exp(2j * cmath.pi * n / 25)
    assert abs(blocked - want / 625) < 1e-12
    assert abs(blocked - whole) < 1e-14


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23))
def test_quadratic_gauss_sum_closed_form(p):
    eps = 1 if p % 4 == 1 else 1j
    got = poly_phase_sum([0, 0, 1], p, 1, p)
    assert abs(got - eps * math.sqrt(p)) < 1e-12 * p


@pytest.mark.parametrize("p,e", [(3, 1), (3, 6), (5, 2), (5, 5), (7, 3), (7, 5), (13, 2), (13, 4)])
def test_prime_power_gauss_sum_modulus(p, e):
    pe = p**e
    for u in (1, 2, p - 1, p + 1, pe - 1):
        got = poly_phase_sum([0, 0, u % pe], p, e, pe)
        assert abs(abs(got) - p ** (e / 2)) < 1e-12 * pe


def test_padic_poly_sum_periodic_beyond_conductor():
    # the integral over Z_p does not depend on the period used, once K >= e
    coeffs = [Fraction(1, 3), Fraction(2, 9), Fraction(5, 27)]
    first, e = padic_poly_sum(coeffs, 3)
    assert e == 3
    ints = [int(27 * c) for c in coeffs]  # the numerators over p^e = 27
    for K in (4, 5):
        value = poly_phase_sum(ints, 3, 3, 3**K) / 3**K
        assert abs(value - first) < 1e-12


def test_padic_poly_sum_sums_its_own_full_period():
    # e = 2 here: a sum over the 7 residues mod 7 alone would give
    # 0.244+0.194j, not the integral over Z_7, which is the exact 1/7
    value, e = padic_poly_sum([0, 0, Fraction(1, 49)], 7)
    assert e == 2
    assert abs(value - 1 / 7) < 1e-15


def _fresh(code: str, *args: str, threads: str = "1") -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=300, env=env
    )


CLI = "import sys; from locquad.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("suite", ["weil-gamma", "stationary"])
def test_reports_do_not_depend_on_blas_threads(suite):
    outs = []
    for threads in ("1", "2"):
        proc = _fresh(CLI, "verify", "--suite", suite, "--seed", "0", threads=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["ok"]
    assert outs[0] == outs[1]


def test_deepest_gauss_sum_stays_small_in_memory():
    # v(a) = -4 puts the oracle's second level at 7^8 terms, the deepest
    # sum under the budget at p:7.  VmHWM is the peak of the child's own
    # image; its ru_maxrss would also carry the peak of this test process,
    # which it inherits across exec
    code = (
        "from fractions import Fraction\n"
        "from locquad.places import AdditiveCharacter, Qp\n"
        "from locquad.weil import gauss_gamma\n"
        "gauss_gamma(Fraction(3, 7**4), AdditiveCharacter(Qp(7)))\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
    )
    proc = _fresh(code)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[1]) / 1024  # VmHWM is in kB
    assert peak_mb < 100
