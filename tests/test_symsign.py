"""Stabilizer forms, the pairing-sign law and congruence orbits."""

import random
from fractions import Fraction

import pytest

from locquad.forms import QuadraticForm, SymMatrix, form_of_matrix
from locquad.places import REAL, Place, Qp, class_count, hilbert_symbol, square_class_reps
from locquad.symsign import (
    ENUMERATION_BUDGET,
    EnumerationBudgetError,
    c_constant,
    c_constant_value,
    epsilon_pair,
    epsilon_scaling_check,
    g_value,
    orbit_invariant,
    scaling_invariant,
    sl_orbit_count,
    stabilizer_form,
    verify_signprop,
)


def test_stabilizer_form_coefficients():
    q = stabilizer_form(QuadraticForm.make([1, 2, 5], Qp(5)))
    # entries -a_j/a_i for i < j, lexicographic
    assert q.coeffs == (
        Fraction(-2, 1),
        Fraction(-5, 1),
        Fraction(-5, 2),
    )


def test_stabilizer_form_rank():
    q = stabilizer_form(QuadraticForm.make([1, 1, 1, 1, 1], Qp(3)))
    assert q.rank == 10  # n(n-1)/2


def test_epsilon_pair_by_hand():
    # diag(1,2,5) against diag(1,1,10) over Q_5
    place = Qp(5)
    qa, qb = QuadraticForm.make([1, 2, 5], place), QuadraticForm.make([1, 1, 10], place)
    assert epsilon_pair(qa, qb) == stabilizer_form(qa).hasse() * stabilizer_form(qb).hasse()


def test_signprop_exhaustive_small():
    # the law itself at n = 3, one odd place; the full grid is acceptance.
    # pairs must share rank and det class, so bucket by class first
    place = Qp(5)
    reps = square_class_reps(place)
    forms = [QuadraticForm.make([a, b, c], place) for a in reps for b in reps for c in reps]
    buckets = {}
    for A in forms:
        buckets.setdefault(str(A.det_class()), []).append(A)
    for group in buckets.values():
        for A in group[::5]:
            for B in group[::3]:
                rep = verify_signprop(A, B)
                assert rep.ok
                assert rep.lhs == rep.rhs


def test_signprop_real():
    rep = verify_signprop(QuadraticForm.make([1, -1, 1], REAL), QuadraticForm.make([-1, 1, 1], REAL))
    assert rep.ok


def test_epsilon_pair_needs_matching_det_class():
    with pytest.raises(ValueError):
        epsilon_pair(QuadraticForm.make([1, 1, 1], Qp(5)), QuadraticForm.make([1, 1, 2], Qp(5)))
    with pytest.raises(ValueError):
        epsilon_pair(QuadraticForm.make([1, 1, 1], Qp(5)), QuadraticForm.make([1, 1], Qp(5)))


def test_g_value_depends_on_det_class_only():
    place = Qp(7)
    reps = square_class_reps(place)
    rng = random.Random(3)
    for _ in range(25):
        a = [rng.choice(reps) for _ in range(3)]
        b = [rng.choice(reps) for _ in range(3)]
        qa = QuadraticForm.make(a, place)
        qb = QuadraticForm.make(b, place)
        if qa.det_class() == qb.det_class():
            assert g_value(qa) == g_value(qb)


def test_c_constant_and_value():
    place = Qp(5)
    rep = c_constant(3, place)
    assert rep.consistent
    assert rep.classes_checked == 4
    assert set(rep.values.values()) <= {1, -1}
    for d in square_class_reps(place):
        assert c_constant_value(3, d, place) == rep.values[str(d)]


def test_orbit_invariant_contents():
    inv = orbit_invariant(QuadraticForm.make([2, 3, 6], Qp(3)))
    assert inv["n"] == 3
    assert inv["det_class"] == "1"  # 36 is a square
    assert inv["hasse"] in (1, -1)
    real_inv = orbit_invariant(QuadraticForm.make([2, -3, 6], REAL))
    assert real_inv["signature"] == [2, 1]


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("n", [3, 5])
def test_two_orbits(p, n):
    place = Qp(p)
    for d in square_class_reps(place):
        assert sl_orbit_count(n, d, place) == 2


def test_one_orbit_at_rank_one():
    # rank 1 fixes the form up to squares, so a det class holds one orbit
    for d in square_class_reps(Qp(7)):
        assert sl_orbit_count(1, d, Qp(7)) == 1


def test_orbit_count_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        sl_orbit_count(0, 1, Qp(3))


def test_scaling_law_by_hand():
    # n = 3: hasse(q_{tA}) = (t,-1)^3 hasse(q_A)
    place = Qp(3)
    q = QuadraticForm.make([1, 2, 3], place)
    t = Fraction(3)
    rep = epsilon_scaling_check(q, t)
    assert rep.ok
    expected = hilbert_symbol(t, -1, place) ** 3 * q.hasse()
    assert rep.lhs == expected


def test_scaling_invariant_stable():
    place = Qp(7)
    A = [2, 7, 5]
    base = scaling_invariant(QuadraticForm.make(A, place))
    for t in (Fraction(7), Fraction(-1), Fraction(10, 3)):
        scaled = [t * a for a in A]
        assert scaling_invariant(QuadraticForm.make(scaled, place)) == base


def test_scaling_invariant_congruence_stable():
    place = Qp(5)
    A = SymMatrix.make([[1, 1, 0], [1, 3, 1], [0, 1, 2]])
    g = [[1, 0, 0], [2, 1, 0], [0, -1, 1]]
    assert scaling_invariant(form_of_matrix(A, place)) == scaling_invariant(form_of_matrix(A.congruent_by(g), place))


def test_scaling_needs_odd_rank():
    with pytest.raises(ValueError):
        epsilon_scaling_check(QuadraticForm.make([1, 2], Qp(3)), Fraction(3))
    with pytest.raises(ValueError):
        scaling_invariant(QuadraticForm.make([1, 2], Qp(3)))


# c_constant values, matrices checked and sl_orbit_count per det class (in
# square_class_reps order), as computed by enumerating QuadraticForm objects
# and multiplying pairwise Hilbert symbols
PINNED = {
    ("real", 1): ({"1": 1, "-1": 1}, 2, [1, 1]),
    ("real", 2): ({"1": 1, "-1": 1}, 4, [2, 1]),
    ("real", 3): ({"1": -1, "-1": 1}, 8, [2, 2]),
    ("real", 4): ({"1": -1, "-1": -1}, 16, [3, 2]),
    ("real", 5): ({"1": -1, "-1": -1}, 32, [3, 3]),
    ("p:2", 1): ({"1": 1, "-1": 1, "5": 1, "-5": 1, "2": 1, "-2": 1, "10": 1, "-10": 1}, 8, [1] * 8),
    ("p:2", 2): ({"1": 1, "-1": 1, "5": 1, "-5": 1, "2": 1, "-2": 1, "10": 1, "-10": 1}, 64, [2, 1, 2, 2, 2, 2, 2, 2]),
    ("p:2", 3): ({"1": -1, "-1": 1, "5": -1, "-5": 1, "2": -1, "-2": 1, "10": -1, "-10": 1}, 512, [2] * 8),
    ("p:3", 1): ({"1": 1, "2": 1, "3": 1, "6": 1}, 4, [1, 1, 1, 1]),
    ("p:3", 2): ({"1": 1, "2": 1, "3": 1, "6": 1}, 16, [2, 1, 2, 2]),
    ("p:3", 3): ({"1": 1, "2": 1, "3": -1, "6": -1}, 64, [2, 2, 2, 2]),
    ("p:3", 4): ({"1": 1, "2": 1, "3": 1, "6": 1}, 256, [2, 2, 2, 2]),
    ("p:3", 5): ({"1": 1, "2": 1, "3": 1, "6": 1}, 1024, [2, 2, 2, 2]),
    ("p:5", 1): ({"1": 1, "2": 1, "5": 1, "10": 1}, 4, [1, 1, 1, 1]),
    ("p:5", 2): ({"1": 1, "2": 1, "5": 1, "10": 1}, 16, [1, 2, 2, 2]),
    ("p:5", 3): ({"1": 1, "2": 1, "5": 1, "10": 1}, 64, [2, 2, 2, 2]),
    ("p:5", 4): ({"1": 1, "2": 1, "5": 1, "10": 1}, 256, [2, 2, 2, 2]),
    ("p:5", 5): ({"1": 1, "2": 1, "5": 1, "10": 1}, 1024, [2, 2, 2, 2]),
    ("p:7", 1): ({"1": 1, "3": 1, "7": 1, "21": 1}, 4, [1, 1, 1, 1]),
    ("p:7", 2): ({"1": 1, "3": 1, "7": 1, "21": 1}, 16, [2, 1, 2, 2]),
    ("p:7", 3): ({"1": 1, "3": 1, "7": -1, "21": -1}, 64, [2, 2, 2, 2]),
    ("p:7", 4): ({"1": 1, "3": 1, "7": 1, "21": 1}, 256, [2, 2, 2, 2]),
    ("p:7", 5): ({"1": 1, "3": 1, "7": 1, "21": 1}, 1024, [2, 2, 2, 2]),
    ("p:13", 1): ({"1": 1, "2": 1, "13": 1, "26": 1}, 4, [1, 1, 1, 1]),
    ("p:13", 2): ({"1": 1, "2": 1, "13": 1, "26": 1}, 16, [1, 2, 2, 2]),
    ("p:13", 3): ({"1": 1, "2": 1, "13": 1, "26": 1}, 64, [2, 2, 2, 2]),
    ("p:13", 4): ({"1": 1, "2": 1, "13": 1, "26": 1}, 256, [2, 2, 2, 2]),
    ("p:13", 5): ({"1": 1, "2": 1, "13": 1, "26": 1}, 1024, [2, 2, 2, 2]),
}


@pytest.mark.parametrize("place_text,n", list(PINNED), ids=[f"{pl}-n{n}" for pl, n in PINNED])
def test_enumerations_pinned(place_text, n):
    place = Place.parse(place_text)
    values, matrices, orbits = PINNED[place_text, n]
    rep = c_constant(n, place)
    assert rep.consistent
    assert list(rep.values.items()) == list(values.items())  # insertion order too
    assert (rep.classes_checked, rep.matrices_checked) == (len(values), matrices)
    assert [sl_orbit_count(n, d, place) for d in square_class_reps(place)] == orbits


@pytest.mark.parametrize("n", [3, 4, 5])
def test_c_constant_agrees_with_g_value(n):
    # c_constant works on class bits; g_value on the forms themselves
    for place in (REAL, Qp(2), Qp(3), Qp(5)):
        if n == 5 and place == Qp(2):
            continue
        rep = c_constant(n, place)
        rng = random.Random(n)
        for _ in range(20):
            coeffs = [rng.choice(square_class_reps(place)) * Fraction(rng.randint(1, 9)) ** 2 for _ in range(n)]
            q = QuadraticForm.make(coeffs, place)
            assert g_value(q) == rep.values[str(q.det_class())]


def test_enumerations_reject_nonpositive_rank():
    for n in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            c_constant(n, Qp(3))
        with pytest.raises(ValueError, match="positive"):
            sl_orbit_count(n, 1, REAL)


@pytest.mark.parametrize("n,place", [(6, Qp(2)), (8, Qp(3)), (14, REAL), (50, Qp(7))])
def test_enumerations_refuse_work_over_the_budget(n, place):
    assert class_count(place) ** n * n * (n + 1) // 2 > ENUMERATION_BUDGET
    with pytest.raises(EnumerationBudgetError):
        c_constant(n, place)
    with pytest.raises(EnumerationBudgetError):
        sl_orbit_count(n, 1, place)
