"""Diagonalization, local invariants, equivalence and Witt filtration."""

import random
from fractions import Fraction

import pytest

from locquad.forms import (
    QuadraticForm,
    SymMatrix,
    diagonalize,
    equivalent,
    form_of_matrix,
    invariants,
    witt_filtration_level,
)
from locquad.places import REAL, Qp, hilbert_symbol, square_class, square_class_reps


def test_make_rejects_degenerate():
    with pytest.raises(ValueError):
        QuadraticForm.make([1, 0, 3], Qp(5))


def test_rank1_invariant_convention():
    q = QuadraticForm.make([Fraction(18)], Qp(3))
    assert q.hasse() == 1
    assert q.det_class().rep == 2  # 18 = 2 * 9


def test_hasse_of_rank3_by_hand():
    # <2, 5, -1> at Q_5: (2,5)(2,-1)(5,-1) = -1 * 1 * 1
    q = QuadraticForm.make([2, 5, -1], Qp(5))
    assert hilbert_symbol(2, 5, Qp(5)) == -1
    assert hilbert_symbol(2, -1, Qp(5)) == 1
    assert hilbert_symbol(5, -1, Qp(5)) == 1
    assert q.hasse() == -1


def test_real_signature():
    q = QuadraticForm.make([3, -2, Fraction(1, 7), -1], REAL)
    assert q.signature() == (2, 2)
    assert invariants(q).as_dict()["signature"] == [2, 2]


def test_diagonalize_hyperbolic_plane():
    A = SymMatrix.make([[0, 1], [1, 0]])
    for place in (REAL, Qp(2), Qp(7)):
        q, radical = diagonalize(A, place)
        assert radical == 0
        assert equivalent(q, QuadraticForm.make([1, -1], place))


def test_diagonalize_reports_radical():
    A = SymMatrix.make([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    q, radical = diagonalize(A, Qp(3))
    assert radical == 1
    assert q.rank == 2


def test_congruence_preserves_invariants():
    A = SymMatrix.make([[2, 1, 0], [1, -3, 4], [0, 4, 1]])
    g = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]  # det 1
    B = A.congruent_by(g)
    for place in (REAL, Qp(2), Qp(3), Qp(5)):
        assert invariants(form_of_matrix(A, place)) == invariants(form_of_matrix(B, place))


def test_equivalence_rank2_catalog():
    # over Q_7 a rank-2 form is determined by (det class, hasse)
    place = Qp(7)
    seen = {}
    for a in square_class_reps(place):
        for b in square_class_reps(place):
            q = QuadraticForm.make([a, b], place)
            key = (str(q.det_class()), q.hasse())
            if key in seen:
                assert equivalent(q, seen[key])
            else:
                for other in seen.values():
                    assert not equivalent(q, other)
                seen[key] = q
    assert len(seen) == 7  # 4 classes * 2 signs minus the (disc -1, -1) gap


def test_real_equivalence_is_signature():
    q = QuadraticForm.make([1, 1, -2], REAL)
    r = QuadraticForm.make([5, Fraction(1, 3), -7], REAL)
    assert equivalent(q, r)
    assert not equivalent(q, QuadraticForm.make([1, -1, -1], REAL))


@pytest.mark.parametrize("place", [REAL, Qp(2), Qp(3), Qp(7)], ids=str)
def test_equal_invariants_iff_equivalent(place):
    rng = random.Random(f"equiv:{place}")
    reps = square_class_reps(place)
    verdicts = set()
    for _ in range(200):
        q, r = (
            QuadraticForm.make(
                [rng.choice(reps) * Fraction(rng.randint(1, 6), rng.randint(1, 6)) ** 2 for _ in range(rank)],
                place,
            )
            for rank in (rng.randint(1, 3), rng.randint(1, 3))
        )
        verdict = invariants(q) == invariants(r)
        assert verdict == equivalent(q, r), (q, r)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_scaling_by_square_is_equivalence():
    rng = random.Random(11)
    for place in (REAL, Qp(2), Qp(5)):
        for _ in range(20):
            coeffs = [
                rng.choice(square_class_reps(place)) * Fraction(rng.randint(1, 9))
                for _ in range(rng.randint(1, 3))
            ]
            q = QuadraticForm.make(coeffs, place)
            t = Fraction(rng.randint(1, 12), rng.randint(1, 12)) ** 2
            assert equivalent(q, q.scale(t))


def test_relative_hasse():
    place = Qp(3)
    q = QuadraticForm.make([1, 3], place)
    r = QuadraticForm.make([2, 6], place)
    # the relative invariant of the pair; (2, 3)_3 = (2|3) = -1
    assert q.hasse() * r.hasse() == hilbert_symbol(1, 3, place) * hilbert_symbol(2, 6, place) == -1


def test_witt_sum_and_product_invariants():
    place = Qp(5)
    q = QuadraticForm.make([1, 10], place)
    r = QuadraticForm.make([2, 5], place)
    s = q.direct_sum(r)
    assert s.rank == 4
    assert square_class(s.det(), place) == square_class(q.det() * r.det(), place)
    prod = q.tensor(r)
    assert prod.rank == 4
    # tensor with <1, -1> is hyperbolic of twice the rank
    h = q.tensor(QuadraticForm.make([1, -1], place))
    assert equivalent(h, QuadraticForm.make([1, -1, 1, -1], place))


def test_witt_filtration_levels():
    place = Qp(3)
    q = QuadraticForm.make([1], place)
    assert witt_filtration_level(q, QuadraticForm.make([1, 1], place)) == (0, None)
    # equal ranks, different det: level 1
    level, w2 = witt_filtration_level(q, QuadraticForm.make([2], place))
    assert (level, w2) == (1, None)
    # same det class after hyperbolic padding: level 2 with the relative sign
    r = QuadraticForm.make([1, 1, -1], place)
    level, w2 = witt_filtration_level(q, r)
    assert level == 2
    assert w2 == q.hasse() * r.hasse()


def test_witt_filtration_hyperbolic_padding_sign():
    # the det of each padding plane is -1; forms differing by planes sit
    # at level 2 with trivial relative class
    place = Qp(7)
    q = QuadraticForm.make([3], place)
    r = QuadraticForm.make([3, 2, -2], place)
    level, w2 = witt_filtration_level(q, r)
    assert level == 2
    assert w2 == 1


def fraction_witt_level(q, r):
    """The Witt level by Fraction determinants and a form padded with
    hyperbolic planes <1, -1>, as witt_filtration_level's docstring states it."""
    if (q.rank - r.rank) % 2:
        return 0, None
    k = (q.rank - r.rank) // 2
    if not square_class(q.det() * r.det() * Fraction(-1) ** k, q.place).is_trivial():
        return 1, None
    long, short = (q, r) if q.rank >= r.rank else (r, q)
    planes = QuadraticForm(q.place, (Fraction(1), Fraction(-1)) * ((long.rank - short.rank) // 2))
    return 2, long.hasse() * short.direct_sum(planes).hasse()


@pytest.mark.parametrize("place", [REAL, Qp(2), Qp(3), Qp(5), Qp(7)], ids=str)
def test_witt_filtration_level_equals_the_fraction_route(place):
    rng = random.Random(23)

    def form(n):
        return QuadraticForm(place, tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60)) for _ in range(n)))

    seen = set()
    for _ in range(800):
        q, r = form(rng.randint(1, 6)), form(rng.randint(1, 6))
        level, w2 = witt_filtration_level(q, r)
        assert (level, w2) == fraction_witt_level(q, r)
        seen.add((level, w2, (q.rank > r.rank) - (q.rank < r.rank)))
    # every level, and level 2 with either sign and the shorter form on either side
    assert {0, 1} <= {level for level, _, _ in seen}
    assert {(2, w2, order) for w2 in (1, -1) for order in (-1, 1)} <= seen


def test_invariants_identify_hyperbolic():
    place = Qp(5)
    h = invariants(QuadraticForm.make([1, -1], place))
    assert h.rank % 2 == 0
    assert h.det_rep == invariants(QuadraticForm.make([2, -2], place)).det_rep


def test_symmatrix_validation():
    with pytest.raises(ValueError):
        SymMatrix.make([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        SymMatrix.make([[1, 2, 3], [2, 1, 1]])


def fraction_congruence(A: SymMatrix, g) -> list[list[Fraction]]:
    """Reference: g^T A g by a triple loop in Fractions."""
    n = A.n
    g = [[Fraction(e) for e in row] for row in g]
    ag = [[sum(A.entries[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(g[k][i] * ag[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_congruence_equals_the_fraction_loop(n):
    rng = random.Random(n)
    for _ in range(20):
        A = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = random_rational(rng, 50, 30)
        A = SymMatrix(A)
        integral = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rational = [[random_rational(rng, 20, 12) for _ in range(n)] for _ in range(n)]
        for g in (integral, rational):
            got = A.congruent_by(g)
            assert [list(row) for row in got.entries] == fraction_congruence(A, g)
            assert all(type(e) is Fraction for row in got.entries for e in row)
    zero = SymMatrix([[0] * n for _ in range(n)])
    g = [[random_rational(rng, 20, 12) for _ in range(n)] for _ in range(n)]
    assert zero.congruent_by(g) == zero
