"""The elimination kernel against sympy's exact rational linear algebra.

sympy is an oracle for the tests only; the library does not import it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import linalg
from gradedlie.linalg import SliceMatrix, kernel_basis, rank, rref

sympy = pytest.importorskip("sympy")

# ints and Fractions, small so that rank deficiency is common
VALUE = st.one_of(st.integers(-4, 4).filter(bool),
                  st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 4)))


@st.composite
def sparse_matrices(draw):
    """(nrows, ncols, {(row, col): nonzero value}): empty, wide and tall
    shapes, zero rows, and densities from empty to full."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    support = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return nrows, ncols, {cell: draw(VALUE) for cell in sorted(support)}


def _dense(nrows, ncols, entries):
    rows = [[0] * ncols for _ in range(nrows)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return rows


def _sympy(nrows, ncols, entries):
    def entry(r, c):
        v = entries.get((r, c), 0)
        return sympy.Rational(v.numerator, v.denominator)
    return sympy.Matrix(nrows, ncols, entry)


def _fractions(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)] for i in range(matrix.rows)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_rref_and_rank_match_sympy(matrix, data):
    nrows, ncols, entries = matrix
    expected, pivots = _sympy(*matrix).rref()
    expected = _fractions(expected)[:len(pivots)]
    dense = _dense(*matrix)
    sparse = [{c: v for (r_, c), v in entries.items() if r_ == r} for r in range(nrows)]
    assert rref(dense, ncols) == (expected, list(pivots))
    assert rref(sparse, ncols) == (expected, list(pivots))
    assert rank(dense) == rank(SliceMatrix(nrows, ncols, entries)) == len(pivots)
    # the pivot choice must not leak into the output
    order = data.draw(st.permutations(range(nrows)))
    assert rref([dense[r] for r in order], ncols) == (expected, list(pivots))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_is_the_reduced_null_space(matrix):
    nrows, ncols, entries = matrix
    dense = _dense(*matrix)
    pivots = _sympy(*matrix).rref()[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = kernel_basis(SliceMatrix(nrows, ncols, entries))
    assert len(basis) == len(free)
    for fc, vec in zip(free, basis):
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in dense)
        assert [vec[c] for c in free] == [int(c == fc) for c in free]
    if nrows:
        assert kernel_basis(dense) == basis


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_reduction_reads_dense_and_sparse_rows_alike(matrix, rng):
    nrows, ncols, entries = matrix
    sparse = [{} for _ in range(nrows)]
    cells = list(entries.items())
    rng.shuffle(cells)              # the key order of a sparse row is arbitrary
    for (r, c), v in cells:
        sparse[r][c] = v
    from_dense = linalg.Reduction(_dense(*matrix), ncols)
    from_sparse = linalg.Reduction(sparse, ncols)
    assert from_dense.pivots == from_sparse.pivots
    assert from_dense.denominators == from_sparse.denominators
    assert from_dense.columns == from_sparse.columns
    assert from_dense.rank == len(_sympy(*matrix).rref()[1])
