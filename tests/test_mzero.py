import random
from fractions import Fraction

import pytest

from gradedlie import mzero
from gradedlie.checks import random_tail_form
from gradedlie.errors import AmbientMismatch, InternalCheckFailed, NotApplicable
from gradedlie.forms import Form, differential, wedge
from gradedlie.mzero import (D1, Dm1, omega, omega_index_lists, omega_weight,
                             sum_identity_check)


def mono(g, *idx):
    return Form.monomial(g, idx)


def test_D1_generators(m0):
    assert D1(mono(m0, 2)).is_zero()
    assert D1(mono(m0, 3, 4)) == mono(m0, 2, 4)
    assert D1(mono(m0, 2, 3)).is_zero()


def test_D1_rejects_index_one(m0):
    with pytest.raises(NotApplicable):
        D1(mono(m0, 1, 3))


def test_Dm1_generator(m0):
    for i in range(2, 9):
        assert Dm1(mono(m0, i)) == mono(m0, i + 1)


def test_Dm1_pair_formula(m0):
    # D_{-1}(e^i ^ e^k) = sum_{l=0}^{i-2} (-1)^l e^{i-l} ^ e^{k+l+1}
    for i, k in ((3, 5), (4, 6), (2, 7)):
        expected = Form.zero(m0)
        for l in range(0, i - 1):
            expected = expected + Form.monomial(m0, (i - l, k + l + 1),
                                                Fraction((-1) ** l))
        assert Dm1(mono(m0, i, k)) == expected
    assert Dm1(mono(m0, 3, 5)) == mono(m0, 3, 6) - mono(m0, 2, 7)


def test_omega_small(m0):
    assert omega(m0, [2]) == mono(m0, 2, 3)
    assert omega(m0, [3]) == mono(m0, 3, 4) - mono(m0, 2, 5)
    assert omega(m0, [4]) == mono(m0, 4, 5) - mono(m0, 3, 6) + mono(m0, 2, 7)


def test_omega_paper_expansion_56(m0_big):
    # the worked three-index example with coefficients (1,-1,1,1,-1,-2,3,2,-5,5)
    om = omega(m0_big, [5, 6])
    expected = {
        (5, 6, 7): 1, (4, 6, 8): -1, (3, 6, 9): 1, (4, 5, 9): 1,
        (2, 6, 10): -1, (3, 5, 10): -2, (2, 5, 11): 3, (3, 4, 11): 2,
        (2, 4, 12): -5, (2, 3, 13): 5,
    }
    assert om.terms == {m: Fraction(c) for m, c in expected.items()}


def test_omega_closed(m0_big):
    for k in range(2, 9):
        assert differential(m0_big, omega(m0_big, [k])).is_zero()
    for idx in ([2, 3], [3, 4], [2, 5], [3, 5], [2, 3, 4]):
        assert differential(m0_big, omega(m0_big, idx)).is_zero()


def test_omega_weight_homogeneous(m0_big):
    for idx in ([2], [5], [2, 3], [3, 5], [2, 4, 5]):
        om = omega(m0_big, idx)
        assert om.weights() == [omega_weight(idx)]


def test_omega_unique_adjacent_monomial(m0_big):
    # exactly one monomial of the shape xi ^ e^i ^ e^{i+1}
    for idx in ([3], [4], [2, 3], [3, 4], [2, 4, 5]):
        om = omega(m0_big, idx)
        adjacent = [m for m in om.terms if m[-1] == m[-2] + 1]
        assert adjacent == [tuple(idx) + (idx[-1] + 1,)]


def test_omega_errors(m0):
    with pytest.raises(NotApplicable):
        omega(m0, [1, 2])
    with pytest.raises(NotApplicable):
        omega(m0, [3, 3])
    from gradedlie.errors import CutoffTooSmall
    with pytest.raises(CutoffTooSmall):
        omega(m0, [8])  # weight 17 > cutoff 16


def test_omega_index_lists(m0):
    assert omega_index_lists(1, 5) == [[2]]
    assert omega_index_lists(1, 6) == []
    assert omega_index_lists(2, 12) == [[3, 4]]
    assert omega_index_lists(2, 18) == [[3, 7], [5, 6]]


def test_d_operator_identities_random(m0_big):
    rng = random.Random(2024)
    e1 = Form.generator(m0_big, 1)
    for _ in range(120):
        xi = random_tail_form(rng, m0_big, 20)
        if xi.is_zero():
            continue
        assert differential(m0_big, xi) == wedge(e1, D1(xi))
        assert differential(m0_big, Dm1(xi)) == wedge(e1, xi)
        assert D1(Dm1(xi)) == xi


def test_Dm1_increases_last_gap(m0_big):
    rng = random.Random(31)
    for _ in range(40):
        xi = random_tail_form(rng, m0_big, 18)
        for m in xi.terms:
            if len(m) < 2:
                continue
            gap = m[-1] - m[-2]
            out = Dm1(Form(m0_big, {m: Fraction(1)}))
            for mm in out.terms:
                assert mm[-1] - mm[-2] > gap


def test_sum_identity(m0_big):
    assert sum_identity_check(m0_big, 3, [4]) == omega(m0_big, [3, 4])
    assert sum_identity_check(m0_big, 2, [3]) == omega(m0_big, [2, 3])
    assert sum_identity_check(m0_big, 5, [6]) == omega(m0_big, [5, 6])


def test_sum_identity_failure_is_an_internal_check(m0, monkeypatch):
    # a wrong D_{-1} breaks the identity; the re-check is not an assert,
    # so it survives python -O
    monkeypatch.setattr(mzero, "Dm1", lambda x: Form.zero(x.alg))
    with pytest.raises(InternalCheckFailed, match=r"summation identity failed: i1=3, tail=\[4\]"):
        sum_identity_check(m0, 3, [4])


def test_omega_requires_the_m0_truncation(L1, m0_tail):
    # an m0 tail passes is_m0_like with canonical weights, yet has no e2:
    # omega([3]) = -e2^e5 + e3^e4 used to be built over it
    for g in (L1, m0_tail):
        with pytest.raises(AmbientMismatch,
                           match="operator requires an m0 algebra with canonical weights"):
            omega(g, [3])


def test_sum_identity_ordering(m0):
    with pytest.raises(NotApplicable):
        sum_identity_check(m0, 4, [3])


def test_Dm1_rejects_scalars(m0):
    with pytest.raises(NotApplicable):
        Dm1(Form.scalar(m0, Fraction(3)))


def test_omega_index_lists_against_brute_force():
    from itertools import combinations
    for q_indices in (1, 2, 3):
        for w in range(3, 25):
            brute = [list(c) for c in combinations(range(2, w), q_indices)
                     if omega_weight(list(c)) == w]
            assert omega_index_lists(q_indices, w) == brute, (q_indices, w)


def test_Dm1_cutoff_names_the_expansion():
    from gradedlie.algebra import load_preset
    from gradedlie.errors import CutoffTooSmall
    g = load_preset("m0", 6)
    with pytest.raises(CutoffTooSmall) as info:
        Dm1(mono(g, 2, 6))
    assert str(info.value) == "cutoff 6 too small, need at least 7 for D_{-1} expansion"
