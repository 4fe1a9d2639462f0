import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedlie import linalg
from gradedlie.algebra import load_preset, parse_algebra
from gradedlie.cohomology import cohomology_slice
from gradedlie.errors import CutoffTooSmall, NotACocycle
from gradedlie.forms import Form, differential, slice_all_degree, slice_basis, weight_parts
from gradedlie.linalg import coboundary_preimage, d_matrix, kernel_basis, rank, rref, solve


def F(x):
    return Fraction(x)


def _dense_rows(mat):
    """A SliceMatrix as dense Fraction rows, for the textbook oracles."""
    rows = [[F(0)] * mat.ncols for _ in range(mat.nrows)]
    for (r, c), v in mat.entries.items():
        rows[r][c] = F(v)
    return rows


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
    assert solve([[F(1), F(0)], [F(0), F(1)]], [F(3), F(-2)]) == [F(3), F(-2)]


def test_solve_no_solution():
    assert solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_solve_without_unknowns():
    # a consistent system in no unknowns has the empty solution, which is
    # falsy but not None
    assert solve([[], []], [F(0), F(0)]) == []
    assert solve([], []) == []
    assert solve([[]], [F(1)]) is None


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
        assert sol is not None
        reproduced = [sum(rows[r][c] * sol[c] for c in range(ncols)) for r in range(nrows)]
        assert reproduced == target


def test_coboundary_preimage_m0(m0):
    assert coboundary_preimage(m0, Form.monomial(m0, (1, 2))) == Form.monomial(m0, (3,))


def test_coboundary_preimage_zero(m0):
    assert coboundary_preimage(m0, Form.zero(m0)).is_zero()


def test_coboundary_preimage_L1(L1):
    c = 3 * Form.monomial(L1, (1, 4)) + Form.monomial(L1, (2, 3))
    assert coboundary_preimage(L1, c) == Form.monomial(L1, (5,))


def test_coboundary_preimage_no_solution(L1):
    assert coboundary_preimage(L1, Form.monomial(L1, (1, 4))) is None


def test_coboundary_preimage_not_cocycle(L1):
    with pytest.raises(NotACocycle):
        coboundary_preimage(L1, Form.monomial(L1, (1, 6)))


M0_6 = load_preset("m0", 6)

# calls past the checks of coboundary_preimage and solve, with the error and
# its message; e1^e6 over m0/6 is closed and has weight 7
RAISE_SITES = {
    "preimage-ambient": (lambda m0, L1: coboundary_preimage(L1, Form.monomial(m0, (1, 2))),
                         NotACocycle, "ambient mismatch"),
    "preimage-scalar": (lambda m0, L1: coboundary_preimage(m0, Form.scalar(m0, 1)),
                        NotACocycle, "cannot take a preimage of a scalar"),
    "preimage-past-cutoff": (lambda m0, L1: coboundary_preimage(M0_6, Form.monomial(M0_6, (1, 6))),
                             CutoffTooSmall, "cutoff 6 too small, need at least 7 for "
                                             "coboundary preimage"),
    "solve-target-length": (lambda m0, L1: solve([[F(1), F(0)], [F(0), F(1)]], [F(1)]),
                            ValueError, "target length 1 != 2 rows"),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_raise_sites(m0, L1, site):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(m0, L1)


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
            assert sol is not None
            assert differential(g, sol) == dx


@pytest.mark.parametrize("name", ["m0", "L1"])
def test_coboundary_preimage_matches_solve(name):
    """The slice's reduction gives exactly the particular solution, or the
    inconsistency, that textbook elimination of [d | target] gives, weight by
    weight.  A target whose lower weight is closed but not exact and whose
    higher weight is not closed still raises NotACocycle."""
    from gradedlie.algebra import load_preset
    from gradedlie.cohomology import representatives

    g = load_preset(name, 12)
    rng = random.Random(12)
    consistent = inconsistent = 0
    found = {}     # (q, k): ([(exact target, its preimage)], [closed, not exact targets])
    for q in range(2, 5):
        for k in range(1, 13):
            mat = d_matrix(g, q - 1, k)
            x = Form(g, {m: F(rng.randint(-3, 3)) for m in mat.col_labels})
            targets = [differential(g, x)] + [rep + differential(g, x)
                                              for rep in representatives(g, q, k)]
            exact, not_exact = found[q, k] = [], []
            for target in targets:
                if target.is_zero():
                    continue
                sol = coboundary_preimage(g, target)
                ref = _oracle_solution(_dense_rows(mat),
                                       [target.terms.get(m, F(0)) for m in mat.row_labels])
                assert (sol is None) == (ref is None), (q, k)
                if ref is None:
                    inconsistent += 1
                    not_exact.append(target)
                    continue
                consistent += 1
                assert sol == Form(g, dict(zip(mat.col_labels, ref)))
                exact.append((target, sol))
    assert consistent >= 10 and inconsistent >= 3

    mixed = {"exact": 0, "not exact": 0, "not closed": 0}
    for (q, k), (exact, not_exact) in found.items():
        higher_exact = found.get((q, k + 1), ([], []))[0]
        nonclosed = [Form.monomial(g, m) for m in slice_basis(g, q, k + 1)
                     if not differential(g, Form.monomial(g, m)).is_zero()][:1] if k < 12 else []
        for (t1, s1), (t2, s2) in zip(exact, higher_exact):
            assert coboundary_preimage(g, t1 + t2) == s1 + s2, (q, k)
            mixed["exact"] += 1
        for t1 in not_exact[:1]:
            for t2, _ in higher_exact[:1]:
                assert coboundary_preimage(g, t1 + t2) is None, (q, k)
                mixed["not exact"] += 1
            for t2 in nonclosed:
                with pytest.raises(NotACocycle, match="^form is not closed$"):
                    coboundary_preimage(g, t1 + t2)
                mixed["not closed"] += 1
    assert min(mixed.values()) >= 1, mixed


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


def _oracle_solution(rows, target):
    """None when [rows | target] has a larger oracle rank than rows, else the
    particular solution read off the textbook reduced form of [rows | target]:
    pivot entries from the last column, free variables 0."""
    augmented = [list(row) + [t] for row, t in zip(rows, target)]
    if _oracle_rank(augmented) != _oracle_rank(rows):
        return None
    ncols = len(rows[0])
    red, pivots = _gauss_jordan(augmented)
    particular = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        particular[pc] = row[ncols]
    return particular


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
    assert (sol is not None) == (_oracle_rank(augmented) == _oracle_rank(rows))
    if sol is not None:
        assert _times(rows, sol) == target
    kernel = kernel_basis(rows)
    assert all(not any(_times(rows, v)) for v in kernel)
    assert len(kernel) == ncols - _oracle_rank(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_textbook_particular_solution(rows, data):
    # one Reduction answers several targets, each as a fresh solve would
    ncols = len(rows[0])
    red = linalg.Reduction(rows, ncols)
    assert red.rank == _oracle_rank(rows)
    for _ in range(3):
        target = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
        if data.draw(st.booleans()):
            x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
            target = _times(rows, x)
        ref = _oracle_solution(rows, target)
        assert red.solve(_sparse(target)) == ref
        assert solve(rows, target) == ref


def _sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


@st.composite
def matrices_with_zero_rows(draw):
    rows = draw(matrices())
    for r in draw(st.sets(st.integers(0, len(rows) - 1))):
        rows[r] = [Fraction(0)] * len(rows[r])
    return rows


@settings(max_examples=150, deadline=None)
@given(matrices_with_zero_rows(), st.data())
def test_reduction_image_matches_transform(rows, data):
    # E read from the textbook reduced form of [M | I]; image() keeps E as
    # integer columns with one denominator per row and must give E v exactly
    n, ncols = len(rows), len(rows[0])
    red, _ = _gauss_jordan([row + [Fraction(int(i == r)) for i in range(n)]
                            for r, row in enumerate(rows)])
    transform = [row[ncols:] for row in red]
    reduction = linalg.Reduction(rows, ncols)
    for _ in range(3):
        # image() reads {column: nonzero value}; the drawn support may be
        # empty, a few columns or all of them, and the values are any rationals
        support = data.draw(st.sets(st.integers(0, n - 1)))
        sparse = {j: data.draw(ENTRY.filter(bool)) for j in sorted(support)}
        dense = [sparse.get(j, Fraction(0)) for j in range(n)]
        image = reduction.image(sparse)
        assert image == _times(transform, dense)
        assert all(type(x) is Fraction for x in image)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_greedy_span_is_one_reduction(rows, data):
    # the triple rung's indeterminacy and the slice representatives: the
    # columns a greedy span test keeps (a zero column never extends it) are
    # the pivots of one Reduction, and a target lies in their span iff that
    # Reduction solves it, as solve does
    ncols = len(rows[0])
    for j in data.draw(st.sets(st.integers(0, ncols - 1))):
        for row in rows:
            row[j] = Fraction(0)
    kept = []
    for j in range(ncols):
        if _oracle_rank([[row[c] for c in kept + [j]] for row in rows]) > len(kept):
            kept.append(j)
    red = linalg.Reduction(rows, ncols)
    assert kept == red.pivots
    for _ in range(3):
        target = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
        if data.draw(st.booleans()):
            x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
            target = _times(rows, x)
        sol = red.solve(_sparse(target))
        spanned = _oracle_rank([[row[c] for c in kept] + [t]
                                for row, t in zip(rows, target)]) == len(kept)
        assert spanned == (sol is not None)
        assert sol == solve(rows, target)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_completion_is_the_rref_rows_off_the_subspace_pivots(cocycles, data):
    # the slice completion: for B in the span of Z, the rows of rref(Z)
    # whose pivot is not a pivot of B are the Gauss-Jordan reduced form of
    # Z reduced modulo B (zero at B's pivots)
    combos = data.draw(st.lists(st.lists(ENTRY, min_size=len(cocycles), max_size=len(cocycles)),
                                max_size=4))
    ncols = len(cocycles[0])
    b_rows, b_pivots = _gauss_jordan([[sum(c * z[i] for c, z in zip(combo, cocycles))
                                       for i in range(ncols)] for combo in combos])
    z_rows, z_pivots = rref(cocycles)
    assert set(b_pivots) <= set(z_pivots)
    reduced = []
    for z in cocycles:
        for row, pc in zip(b_rows, b_pivots):
            z = [a - z[pc] * b for a, b in zip(z, row)]
        reduced.append(z)
    completion = [row for row, pc in zip(z_rows, z_pivots) if pc not in b_pivots]
    assert completion == _gauss_jordan(reduced)[0]


# -- d^2 = 0, checked on the matrices -----------------------------------------

# m2: [e1, ei] = e{i+1} and [e2, ej] = 1/2 e{j+2}, a filiform algebra read
# from a file, with rational structure constants
M2_FILE = ("generators: " + ", ".join(f"({i}:{i})" for i in range(1, 15)) + "\ncutoff: 14\n"
           + "".join(f"[1,{i}] = 1*{i + 1}\n" for i in range(2, 14))
           + "".join(f"[2,{j}] = 1/2*{j + 2}\n" for j in range(3, 13)))


@pytest.mark.parametrize("make", [lambda: load_preset("m0", 14), lambda: load_preset("L1", 14),
                                  lambda: parse_algebra(M2_FILE)], ids=["m0", "L1", "m2-file"])
def test_d_squared_vanishes_on_the_matrices(make):
    # coboundary_preimage takes a target that solves at every weight as
    # closed; that rests on this identity, checked as an exact matrix product
    g = make()
    nonzero = 0
    for k in range(1, min(14, g.cutoff) + 1):
        for q in range(1, 5):
            after, before = _dense_rows(d_matrix(g, q, k)), _dense_rows(d_matrix(g, q - 1, k))
            columns = list(zip(*before))
            assert all(sum(a * b for a, b in zip(row, col)) == 0
                       for row in after for col in columns), (q, k)
            nonzero += bool(after and columns and any(map(any, after)) and any(map(any, before)))
    assert nonzero >= 10


# -- coboundary_preimage against a reference that tests closedness first ------

PREIMAGE_ALGEBRAS = [load_preset(name, 12) for name in ("m0", "L1")]
BELOW, PAST = (1, 12), (13, 15)          # weights under and past the cutoff 12
PREIMAGE_COEFF = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 2))


def _reference_preimage(g, c):
    """The definition read in order: closedness, the cutoff, then a textbook
    solve of d x = c weight by weight."""
    if c.is_zero():
        return Form.zero(g)
    if not differential(g, c).is_zero():
        raise NotACocycle("form is not closed")
    parts = weight_parts(c)
    if max(parts) > g.cutoff:
        raise CutoffTooSmall(max(parts), g.cutoff, "coboundary preimage")
    particular = {}
    for k, terms in parts.items():
        mat = d_matrix(g, c.degree() - 1, k)
        ref = _oracle_solution(_dense_rows(mat), [terms.get(m, F(0)) for m in mat.row_labels])
        if ref is None:
            return None
        particular.update(zip(mat.col_labels, ref))
    return Form(g, particular)


def _outcome(call):
    try:
        return call()
    except (NotACocycle, CutoffTooSmall) as err:
        return type(err), str(err)


@lru_cache(maxsize=None)
def _monomials(g, q, low, high):
    """Degree-q monomials of weight low..high, lexicographic."""
    return tuple(m for m in slice_all_degree(g, q) if low <= sum(map(g.weight, m)) <= high)


def _random_form(data, g, q, weights):
    picks = data.draw(st.lists(st.sampled_from(_monomials(g, q, *weights)), min_size=1,
                               max_size=3))
    return Form(g, {m: data.draw(PREIMAGE_COEFF) for m in picks})


def _one_weight(data, g, q):
    """A weight under the cutoff that has degree-q monomials, as (k, k)."""
    k = data.draw(st.sampled_from([k for k in range(1, 13) if _monomials(g, q, k, k)]))
    return k, k


def _exact(data, g, q, weights):
    dx = differential(g, _random_form(data, g, q - 1, weights))
    assume(not dx.is_zero())
    return dx


def _not_closed(data, g, q, weights):
    c = _random_form(data, g, q, weights)
    assume(not differential(g, c).is_zero())
    return c


def _closed_not_exact(data, g, degrees=(2, 3, 4)):
    slc = data.draw(st.sampled_from([s for q in degrees for k in range(1, 13)
                                     if (s := cohomology_slice(g, q, k)).dimension]))
    c = data.draw(PREIMAGE_COEFF) * data.draw(st.sampled_from(slc.representatives))
    if _monomials(g, slc.q - 1, slc.k, slc.k):
        c = c + differential(g, _random_form(data, g, slc.q - 1, (slc.k, slc.k)))
    return c


def _past_cutoff(data, g, q, past):
    """past, a degree-q form past the cutoff, plus zero, an exact or a closed
    but not exact degree-q form under it."""
    below = data.draw(st.sampled_from(["zero", "exact", "closed-not-exact"]))
    if below == "exact":
        past = past + _exact(data, g, q, BELOW)
    elif below == "closed-not-exact":
        past = past + _closed_not_exact(data, g, [q])
    return past


def _mixed(data, g):
    q = data.draw(st.integers(2, 4))
    exact_at, other_at = _one_weight(data, g, q - 1), _one_weight(data, g, q)
    assume(exact_at != other_at)
    return _exact(data, g, q, exact_at) + _not_closed(data, g, q, other_at)


# each kind draws a form over g; a degree-2 form past the cutoff 12 is never
# exact, so the closed kind past the cutoff has degree 3 or 4
PREIMAGE_KINDS = {
    "exact": lambda data, g: _exact(data, g, data.draw(st.integers(2, 4)), BELOW),
    "closed-not-exact": _closed_not_exact,
    "not-closed": lambda data, g: _not_closed(data, g, data.draw(st.integers(2, 4)), BELOW),
    "mixed": _mixed,
    "past-cutoff-not-closed": lambda data, g: _past_cutoff(data, g, 3, _not_closed(
        data, g, 3, PAST)),
    "past-cutoff-closed": lambda data, g: _past_cutoff(data, g, 3, _exact(data, g, 3, PAST)),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PREIMAGE_ALGEBRAS), st.sampled_from(sorted(PREIMAGE_KINDS)), st.data())
def test_coboundary_preimage_matches_a_closedness_first_reference(g, kind, data):
    c = PREIMAGE_KINDS[kind](data, g)
    outcome = _outcome(lambda: coboundary_preimage(g, c))
    assert outcome == _outcome(lambda: _reference_preimage(g, c))
    if kind == "exact":
        assert differential(g, outcome) == c
    elif kind == "closed-not-exact":
        assert outcome is None
    elif kind == "past-cutoff-closed":
        assert outcome == (CutoffTooSmall, f"cutoff 12 too small, need at least "
                                           f"{max(c.weights())} for coboundary preimage")
    else:
        assert outcome == (NotACocycle, "form is not closed")
