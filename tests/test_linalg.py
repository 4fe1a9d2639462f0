import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import linalg
from gradedlie.errors import NotACocycle
from gradedlie.forms import Form, differential
from gradedlie.linalg import (Echelon, SliceMatrix, coboundary_preimage, d_matrix,
                              kernel_basis, rank, rref, solve)


def F(x):
    return Fraction(x)


def test_rank_zero_and_identity():
    assert rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2


def test_rank_d_on_L1_weight5_one_forms(L1):
    m = d_matrix(L1, 1, 5)
    assert m.ncols == 1 and rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis([[F(1), F(0)], [F(0), F(1)]]) == []


def test_kernel_zero_row_standard_basis():
    basis = kernel_basis([[F(0), F(0), F(0)]])
    assert basis == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]


def test_kernel_d_L1_weight5_two_forms(L1):
    m = d_matrix(L1, 2, 5)
    assert len(kernel_basis(m)) == 2  # e1^e4 and e2^e3 both closed


def test_solve_identity():
    sol = solve([[F(1), F(0)], [F(0), F(1)]], [F(3), F(-2)])
    assert sol and sol.particular == [F(3), F(-2)] and sol.kernel == []


def test_solve_no_solution():
    sol = solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert not sol


def test_rank_nullity_random():
    rng = random.Random(9)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[F(rng.randint(-4, 4)) / F(rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        assert rank(rows) + len(kernel_basis(rows)) == ncols


def test_solve_reproduces_target_random():
    rng = random.Random(13)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        x = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        target = [sum(rows[r][c] * x[c] for c in range(ncols)) for r in range(nrows)]
        sol = solve(rows, target)
        assert sol
        reproduced = [sum(rows[r][c] * sol.particular[c] for c in range(ncols))
                      for r in range(nrows)]
        assert reproduced == target
        # kernel vectors map to zero
        for vec in sol.kernel:
            assert all(sum(rows[r][c] * vec[c] for c in range(ncols)) == 0
                       for r in range(nrows))


def test_coboundary_preimage_m0(m0):
    sol = coboundary_preimage(m0, Form.monomial(m0, (1, 2)))
    assert sol and sol.particular == Form.monomial(m0, (3,))
    assert sol.kernel == []  # no closed weight-3 1-forms


def test_coboundary_preimage_zero(m0):
    sol = coboundary_preimage(m0, Form.zero(m0))
    assert sol and sol.particular.is_zero()


def test_coboundary_preimage_L1(L1):
    c = 3 * Form.monomial(L1, (1, 4)) + Form.monomial(L1, (2, 3))
    sol = coboundary_preimage(L1, c)
    assert sol and sol.particular == Form.monomial(L1, (5,))


def test_coboundary_preimage_no_solution(L1):
    assert not coboundary_preimage(L1, Form.monomial(L1, (1, 4)))


def test_coboundary_preimage_not_cocycle(L1):
    with pytest.raises(NotACocycle):
        coboundary_preimage(L1, Form.monomial(L1, (1, 6)))


def test_coboundary_preimage_roundtrip_random(m0, L1):
    rng = random.Random(21)
    from gradedlie.checks import random_homogeneous_form
    for g in (m0, L1):
        for _ in range(15):
            x = random_homogeneous_form(rng, g, rng.randint(1, 3), 12)
            dx = differential(g, x)
            if dx.is_zero():
                continue
            sol = coboundary_preimage(g, dx)
            assert sol
            assert differential(g, sol.particular) == dx


@pytest.mark.parametrize("name", ["m0", "L1"])
def test_coboundary_preimage_matches_solve(name):
    """The cached reduction of d gives exactly what a fresh solve of
    [d | target] gives: particular solution, kernel and inconsistency."""
    from gradedlie.algebra import load_preset
    from gradedlie.cohomology import representatives

    g = load_preset(name, 12)
    rng = random.Random(12)
    consistent = inconsistent = 0
    for q in range(2, 5):
        for k in range(1, 13):
            mat = d_matrix(g, q - 1, k)
            x = Form(g, {m: F(rng.randint(-3, 3)) for m in mat.col_labels})
            targets = [differential(g, x)] + [rep + differential(g, x)
                                              for rep in representatives(g, q, k)]
            for target in targets:
                if target.is_zero():
                    continue
                sol = coboundary_preimage(g, target)
                ref = solve(mat, [target.terms.get(m, F(0)) for m in mat.row_labels])
                assert bool(sol) == bool(ref), (q, k)
                if not ref:
                    inconsistent += 1
                    continue
                consistent += 1
                as_form = lambda vec: Form(g, dict(zip(mat.col_labels, vec)))
                assert sol.particular == as_form(ref.particular)
                assert sol.kernel == [as_form(vec) for vec in ref.kernel]
    assert consistent >= 10 and inconsistent >= 3


def test_slice_matrix_from_rows():
    m = SliceMatrix.from_rows([[F(1), F(2)], [F(0), F(1)]])
    assert m.nrows == 2 and m.ncols == 2 and rank(m) == 2


# -- property tests against a textbook oracle ---------------------------------

def _gauss_jordan(rows):
    """Textbook Gauss-Jordan elimination over Fractions: the independent
    oracle for the integer elimination kernel.  Returns (rref rows, pivots)."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _oracle_rank(rows):
    return len(_gauss_jordan(rows)[1])


def _times(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


# small entries make rank-deficient matrices common
ENTRY = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_textbook_gauss_jordan(rows):
    assert rref(rows) == _gauss_jordan(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_particular_and_kernel(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        # a consistent right-hand side
        x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
        target = _times(rows, x)
    else:
        target = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    sol = solve(rows, target)
    augmented = [row + [t] for row, t in zip(rows, target)]
    assert bool(sol) == (_oracle_rank(augmented) == _oracle_rank(rows))
    if sol:
        assert _times(rows, sol.particular) == target
        assert all(not any(_times(rows, v)) for v in sol.kernel)
        assert sol.kernel == kernel_basis(rows)
        assert len(sol.kernel) == ncols - _oracle_rank(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=1, max_size=7)))
def test_echelon_membership_matches_rank(vectors):
    *spanning, probe = vectors
    span = Echelon(spanning)
    expected = _oracle_rank(spanning + [probe]) == _oracle_rank(spanning)
    assert span.contains(probe) == expected
    assert span.add(probe) == (not expected)
    assert span.contains(probe)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_reduction_matches_solve(rows, data):
    ncols = len(rows[0])
    red = linalg.Reduction(rows, ncols)
    assert red.rank == _oracle_rank(rows)
    for _ in range(3):
        target = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
        if data.draw(st.booleans()):
            x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
            target = _times(rows, x)
        sol, ref = red.solve(target), solve(rows, target)
        assert bool(sol) == bool(ref)
        if ref:
            assert sol.particular == ref.particular and sol.kernel == ref.kernel
