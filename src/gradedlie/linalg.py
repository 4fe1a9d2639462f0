"""Exact sparse rational linear algebra on (degree, weight) slices.

Elimination runs on integer rows: fraction-free (Bareiss) forward steps,
back-substitution on primitive rows, and Fractions only in the final
normalisation by the pivots.  Span tests reduce against an incrementally
grown integer echelon (``Echelon``).  A matrix that is queried many times is
reduced once (``Reduction``): every later solve or coordinate query is a
matrix-vector product.  No floating point anywhere: triviality decisions
downstream are exact yes/no questions.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .errors import CutoffTooSmall, NotACocycle


class SliceMatrix:
    """Sparse rational matrix whose rows/cols are indexed by monomial lists."""

    def __init__(self, nrows, ncols, entries=None, row_labels=None, col_labels=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {k: Fraction(v) for k, v in (entries or {}).items() if v != 0}
        self.row_labels = row_labels
        self.col_labels = col_labels

    def dense_rows(self):
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    @cached_property
    def reduction(self):
        """The Reduction of this matrix, built on first use and kept."""
        return Reduction(self.dense_rows(), self.ncols)

    @classmethod
    def from_rows(cls, rows, **kw):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v != 0:
                    entries[(r, c)] = Fraction(v)
        return cls(nrows, ncols, entries, **kw)


def _integerize(row):
    denom = 1
    for v in row:
        if v:
            denom = denom * v.denominator // gcd(denom, v.denominator)
    return [int(v * denom) for v in row]


def _forward_eliminate(rows):
    """Fraction-free (Bareiss) forward elimination.

    Returns (echelon integer rows, pivot column list).  Row order of the
    output follows pivot discovery; zero rows are dropped.
    """
    work = [_integerize(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    prev_pivot = 1
    r = 0
    for c in range(ncols):
        sel = None
        for rr in range(r, nrows):
            if work[rr][c] != 0:
                sel = rr
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        piv = work[r][c]
        for rr in range(r + 1, nrows):
            if all(x == 0 for x in work[rr]):
                continue
            factor = work[rr][c]
            for cc in range(ncols):
                work[rr][cc] = (piv * work[rr][cc] - factor * work[r][cc]) // prev_pivot
        pivots.append(c)
        prev_pivot = piv
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def _primitive(row):
    """An integer row divided by its content (the gcd of its entries)."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def _eliminate(row, pivot_row, col):
    """Primitive integer combination of row and pivot_row that is zero at col."""
    piv, f = pivot_row[col], row[col]
    h = gcd(piv, f)
    a, b = piv // h, f // h
    return _primitive([a * x - b * y for x, y in zip(row, pivot_row)])


def rref(rows):
    """Reduced row echelon form over the rationals.

    Returns (list of Fraction rows, pivot columns).  Input rows may be any
    exact rationals; zero rows are dropped.
    """
    if not rows:
        return [], []
    echelon, pivots = _forward_eliminate(rows)
    work = [_primitive(row) for row in echelon]
    # integer back-substitution: clear each pivot column above its pivot row
    for i in reversed(range(len(pivots))):
        piv_col = pivots[i]
        for j in range(i):
            if work[j][piv_col]:
                work[j] = _eliminate(work[j], work[i], piv_col)
    return [[Fraction(v, row[pc]) for v in row] for row, pc in zip(work, pivots)], pivots


def _dense(m):
    """(rows, ncols) of a SliceMatrix or of a list of rows."""
    if isinstance(m, SliceMatrix):
        return m.dense_rows(), m.ncols
    return m, len(m[0]) if m else 0


def rank(m):
    return len(_forward_eliminate(_dense(m)[0])[1])


def _kernel_from_rref(red, pivots, ncols):
    """Null-space basis read off a reduced echelon form of ncols columns
    (extra columns to the right are ignored), one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


def kernel_basis(m):
    """Basis of the null space, one vector per free column, in reduced
    echelon form (vector j has 1 at its free column, 0 at other free columns)."""
    rows, ncols = _dense(m)
    red, pivots = rref(rows)
    return _kernel_from_rref(red, pivots, ncols)


class Echelon:
    """Row echelon form over primitive integer rows, grown one vector at a time.

    A vector lies in the span of the added vectors iff reducing it against
    the stored rows leaves zero, so membership costs one reduction and no
    new elimination.  Input vectors may hold any exact rationals.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self, vectors=()):
        self.pivots = []    # ascending; rows[i] has its leading entry at pivots[i]
        self.rows = []
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec):
        """Integer multiple of vec minus a combination of the stored rows that
        is zero at every pivot column; zero iff vec is in the span."""
        row = _integerize(vec)
        for pc, pivot_row in zip(self.pivots, self.rows):
            if row[pc]:
                row = _eliminate(row, pivot_row, pc)
        return row

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        """Extend the span by vec; returns False when vec already lies in it."""
        row = self.reduce(vec)
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            return False
        i = bisect_left(self.pivots, lead)
        self.pivots.insert(i, lead)
        self.rows.insert(i, _primitive(row))
        return True


class Solution:
    """Particular solution plus kernel basis; falsy when no solution exists."""

    __slots__ = ("ok", "particular", "kernel")

    def __init__(self, ok, particular=None, kernel=None):
        self.ok = ok
        self.particular = particular
        self.kernel = kernel or []

    def __bool__(self):
        return self.ok


NO_SOLUTION = Solution(False)


def solve(m, target):
    """Exact solution set of m x = target.

    Returns a Solution with the lexicographically-first echelon particular
    solution (free variables set to zero) and the kernel basis, or a falsy
    Solution when the system is inconsistent.  One elimination of [m | target]
    gives both: when the system is consistent, the first ncols columns of its
    reduced form are the reduced form of m.
    """
    rows, ncols = _dense(m)
    target = [Fraction(t) for t in target]
    if len(target) != len(rows):
        raise ValueError(f"target length {len(target)} != {len(rows)} rows")
    red, pivots = rref([list(row) + [t] for row, t in zip(rows, target)])
    if ncols in pivots:
        return NO_SOLUTION
    particular = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        particular[pc] = red[i][ncols]
    return Solution(True, particular, _kernel_from_rref(red, pivots, ncols))


class Reduction:
    """One elimination of an n x m matrix M, reused by every later query.

    rref([M | I]) = [R | E] gives the reduced form R of M (its first ``rank``
    rows; the others are zero) and an invertible n x n transform E with
    E M = R.  So a vector v lies in the column span of M iff the rows of E v
    past the rank vanish, and M x = t is solved by reading E t.
    """

    __slots__ = ("ncols", "rank", "pivots", "kernel", "columns")

    def __init__(self, rows, ncols):
        n = len(rows)
        red, pivots = rref([list(row) + [int(i == r) for i in range(n)]
                            for r, row in enumerate(rows)])
        self.ncols = ncols
        self.rank = bisect_left(pivots, ncols)
        self.pivots = pivots[:self.rank]
        self.kernel = _kernel_from_rref(red, self.pivots, ncols)
        # E stored by sparse columns: E v touches only the columns where v is nonzero
        self.columns = [[(i, row[ncols + j]) for i, row in enumerate(red) if row[ncols + j]]
                        for j in range(n)]

    def image(self, vec):
        """E vec."""
        out = [Fraction(0)] * len(self.columns)
        for j, v in enumerate(vec):
            if v:
                for i, e in self.columns[j]:
                    out[i] += e * v
        return out

    def solve(self, target):
        """Same Solution as ``solve(M, target)``: when [M | target] is
        consistent its reduced form is [R | E target]."""
        image = self.image(target)
        if any(image[self.rank:]):
            return NO_SOLUTION
        particular = [Fraction(0)] * self.ncols
        for pc, v in zip(self.pivots, image):
            particular[pc] = v
        return Solution(True, particular, self.kernel)


# -- slice-level operations ---------------------------------------------------


@lru_cache(maxsize=None)
def d_matrix(g, q, k):
    """Matrix of the differential from the (q, k) slice to the (q+1, k) slice.

    Rows are indexed by the target slice basis, columns by the source basis.
    Cached per (algebra, degree, weight); only the lazily built reduction is
    filled in.
    """
    from .cohomology import weight_slice_basis
    from .forms import Form, differential

    src = weight_slice_basis(g, q, k)
    dst = weight_slice_basis(g, q + 1, k)
    dst_index = {m: r for r, m in enumerate(dst)}
    entries = {}
    for c, mono in enumerate(src):
        img = differential(g, Form.monomial(g, mono))
        for m, v in img.terms.items():
            entries[(dst_index[m], c)] = v
    return SliceMatrix(len(dst), len(src), entries, row_labels=dst, col_labels=src)


def coboundary_preimage(g, c_form):
    """Solve d x = c for a closed degree-homogeneous form c.

    Returns a Solution whose particular/kernel entries are Forms of degree
    deg(c) - 1 (kernel = all closed forms of that degree in the relevant
    weights).  Mixed weights are handled weight-by-weight.
    """
    from .forms import Form, differential

    if c_form.is_zero():
        return Solution(True, Form.zero(c_form.alg), [])
    g_ = c_form.alg
    if g_ != g:
        raise NotACocycle("ambient mismatch")
    q = c_form.degree()
    if q == 0:
        raise NotACocycle("cannot take a preimage of a scalar")
    if not differential(g, c_form).is_zero():
        raise NotACocycle("form is not closed")
    weights = c_form.weights()
    if max(weights) > g.cutoff:
        raise CutoffTooSmall(max(weights), g.cutoff, "coboundary preimage")
    particular = Form.zero(g)
    kernel_forms = []
    for k in weights:
        comp = c_form.weight_part(k)
        mat = d_matrix(g, q - 1, k)
        target = [comp.terms.get(m, Fraction(0)) for m in mat.row_labels]
        sol = mat.reduction.solve(target)
        if not sol:
            return NO_SOLUTION
        terms = {mat.col_labels[i]: v for i, v in enumerate(sol.particular) if v}
        particular = particular + Form(g, terms)
        for vec in sol.kernel:
            kf = Form(g, {mat.col_labels[i]: v for i, v in enumerate(vec) if v})
            kernel_forms.append(kf)
    return Solution(True, particular, kernel_forms)
