"""Exact sparse rational linear algebra on (degree, weight) slices.

Elimination runs on integer rows: fraction-free (Bareiss) forward steps,
back-substitution on primitive rows, and Fractions only in the final
normalisation by the pivots.  Span tests reduce against an incrementally
grown integer echelon (``Echelon``).  A matrix that is queried many times is
reduced once (``Reduction``) and keeps its transform as integer columns with
one denominator per row: every later solve or coordinate query takes its
vector as {index: nonzero value} and is one integer product over those
columns and one Fraction per nonzero entry of the result.  ``solve`` is one
such reduction.  A coboundary preimage is, weight by weight, the h of the
(h, p) contraction of the target's cohomology slice, which reads E v off
the one reduction the slice keeps, that of [d | representatives], and
keeps it per component.  Solves and coboundary preimages return the echelon
particular solution (free variables zero) or None when there is none; a
null space comes only from ``kernel_basis``.  A coboundary preimage that
solves at every weight certifies its target closed, since it is d x; only
an unsolvable or past-cutoff target has its differential taken.  No floating
point anywhere: triviality decisions downstream are exact yes/no questions.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import cohomology   # cohomology imports linalg; read at call time only
from .errors import CutoffTooSmall, NotACocycle
from .forms import Form, differential, weight_parts


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


def _integerize(row):
    denom = 1
    for v in row:
        if v:
            denom = denom * v.denominator // gcd(denom, v.denominator)
    return [int(v * denom) for v in row]


def _scaled_to_integers(vec):
    """(integer vector, d) with vec = integer vector / d, d the least common
    denominator of the entries (ints or Fractions)."""
    denom = 1
    for v in vec:
        if v:
            denom = denom * v.denominator // gcd(denom, v.denominator)
    return [v.numerator * (denom // v.denominator) for v in vec], denom


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


def _integer_rref(rows):
    """(primitive integer rows, pivot columns): row i divided by its entry at
    pivots[i] is row i of the reduced row echelon form."""
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
    return work, pivots


def rref(rows):
    """Reduced row echelon form over the rationals.

    Returns (list of Fraction rows, pivot columns).  Input rows may be any
    exact rationals; zero rows are dropped.
    """
    work, pivots = _integer_rref(rows)
    return [[Fraction(v, row[pc]) for v in row] for row, pc in zip(work, pivots)], pivots


def _dense(m):
    """(rows, ncols) of a SliceMatrix or of a list of rows."""
    if isinstance(m, SliceMatrix):
        return m.dense_rows(), m.ncols
    return m, len(m[0]) if m else 0


def rank(m):
    return len(_forward_eliminate(_dense(m)[0])[1])


def kernel_basis(m):
    """Basis of the null space, one vector per free column, in reduced
    echelon form (vector j has 1 at its free column, 0 at other free columns)."""
    rows, ncols = _dense(m)
    red, pivots = rref(rows)
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
        row = _scaled_to_integers(vec)[0]
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


_ZERO = Fraction(0)


class Reduction:
    """One elimination of an n x m matrix M, reused by every later query.

    rref([M | I]) = [R | E] gives the reduced form R of M (its first ``rank``
    rows; the others are zero) and an invertible n x n transform E with
    E M = R.  So a vector v lies in the column span of M iff the rows of E v
    past the rank vanish, and M x = t is solved by reading E t.

    E is kept as it leaves the integer elimination: row i of [R | E] is a
    primitive integer row divided by its pivot entry, so E is stored as
    sparse integer columns plus that one denominator per row, and E v is
    an integer product followed by one Fraction per nonzero row.
    """

    __slots__ = ("ncols", "rank", "pivots", "columns", "denominators")

    def __init__(self, rows, ncols):
        n = len(rows)
        work, pivots = _integer_rref([list(row) + [int(i == r) for i in range(n)]
                                      for r, row in enumerate(rows)])
        self.ncols = ncols
        self.rank = bisect_left(pivots, ncols)
        self.pivots = pivots[:self.rank]
        self.denominators = [row[pc] for row, pc in zip(work, pivots)]
        # E by sparse columns: E v touches only the columns where v is nonzero
        self.columns = [[(i, row[ncols + j]) for i, row in enumerate(work) if row[ncols + j]]
                        for j in range(n)]

    def image(self, vec):
        """E v, for v given as {column: nonzero value}."""
        denom = lcm(*(v.denominator for v in vec.values()))
        acc = [0] * len(self.columns)
        for j, v in vec.items():
            v = v.numerator * (denom // v.denominator)
            for i, e in self.columns[j]:
                acc[i] += e * v
        return [Fraction(a, d * denom) if a else _ZERO
                for a, d in zip(acc, self.denominators)]

    def solve(self, target):
        """The echelon particular solution of M x = target, for target given
        as {row: nonzero value}, or None: when [M | target] is consistent its
        reduced form is [R | E target]."""
        image = self.image(target)
        if any(image[self.rank:]):
            return None
        particular = [_ZERO] * self.ncols
        for pc, v in zip(self.pivots, image):
            particular[pc] = v
        return particular


def solve(m, target):
    """The echelon particular solution of m x = target (free variables set
    to zero, pivot variables read off the reduced form of [m | target]), or
    None when the system is inconsistent."""
    rows, ncols = _dense(m)
    if len(target) != len(rows):
        raise ValueError(f"target length {len(target)} != {len(rows)} rows")
    return Reduction(rows, ncols).solve({r: v for r, v in enumerate(target) if v})


# -- slice-level operations ---------------------------------------------------


@lru_cache(maxsize=None)
def d_matrix(g, q, k):
    """Matrix of the differential from the (q, k) slice to the (q+1, k) slice.

    Rows are indexed by the target slice basis, columns by the source basis.
    Cached per (algebra, degree, weight) and never changed.
    """
    src = cohomology.weight_slice_basis(g, q, k)
    dst = cohomology.weight_slice_basis(g, q + 1, k)
    dst_index = {m: r for r, m in enumerate(dst)}
    entries = {}
    for c, mono in enumerate(src):
        img = differential(g, Form.monomial(g, mono))
        for m, v in img.terms.items():
            entries[(dst_index[m], c)] = v
    return SliceMatrix(len(dst), len(src), entries, row_labels=dst, col_labels=src)


def _require_closed(g, c_form):
    if not differential(g, c_form).is_zero():
        raise NotACocycle("form is not closed")


def coboundary_preimage(g, c_form):
    """The particular solution x of d x = c for a closed degree-homogeneous
    form c, a Form of degree deg(c) - 1, or None when c is not exact: the h
    of each weight's slice contraction, merged.  A c that solves at every
    weight is d x, closed since d^2 = 0 (Jacobi is checked at construction),
    so the differential of c is taken only when a weight has no solution
    (None or NotACocycle) and before the refusal past the cutoff.
    """
    if c_form.is_zero():
        return Form.zero(c_form.alg)
    g_ = c_form.alg
    if g_ is not g and g_ != g:
        raise NotACocycle("ambient mismatch")
    q = c_form.degree()
    if q == 0:
        raise NotACocycle("cannot take a preimage of a scalar")
    parts = weight_parts(c_form)
    top = max(parts)
    if top > g.cutoff:
        _require_closed(g, c_form)
        raise CutoffTooSmall(top, g.cutoff, "coboundary preimage")
    particular = {}
    for k, terms in parts.items():
        h, p = cohomology.cohomology_slice(g, q, k).contract(terms)
        if p is None or any(p):
            _require_closed(g, c_form)
            return None
        particular.update(h)
    return Form(g, particular)
