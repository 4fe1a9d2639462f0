"""Exact sparse rational linear algebra on (degree, weight) slices.

One kernel runs every elimination, on sparse primitive integer rows
{column: int}: ``_eliminate`` clears a column of a row with a pivot row.  The
batch pass takes columns in ascending order, pivots on the shortest row
leading at each column and back-substitutes in integers; Fractions appear
only in the final normalisation.  The pivot choice never reaches the output:
columns in order give the same pivot columns whichever row pivots, and the
reduced row echelon form is unique.  A rank is the forward pass alone.  A matrix
queried many times is reduced once (``Reduction``) and keeps its transform
as integer columns with one denominator per row, so a solve or coordinate
query of a {index: nonzero value} vector is one integer product; ``solve``
is one such reduction.  A coboundary preimage is, weight by weight, the h of
the (h, p) contraction of the target's cohomology slice, read off the one
reduction the slice keeps.  Solves and preimages return the echelon
particular solution (free variables zero) or None; a null space comes only
from ``kernel_basis``.  A preimage that solves at every weight certifies its
target closed, since it is d x; only an unsolvable or past-cutoff target has
its differential taken.  No floats.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from . import cohomology   # cohomology imports linalg; read at call time only
from .errors import CutoffTooSmall, NotACocycle
from .forms import Form, _exact, differential, weight_parts


class SliceMatrix:
    """Sparse rational matrix whose rows/cols are indexed by monomial lists;
    entries {(row, col): value} hold ints where integral (forms._exact)."""

    __slots__ = ("nrows", "ncols", "entries", "row_labels", "col_labels")

    def __init__(self, nrows, ncols, entries=None, row_labels=None, col_labels=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {k: _exact(v) for k, v in (entries or {}).items() if v != 0}
        self.row_labels = row_labels
        self.col_labels = col_labels

    def rows(self):
        """The rows as fresh {column: value} dicts."""
        rows = [{} for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows


def _integer_row(vec):
    """(d times the nonzero entries of vec as {column: int}, d) for a dense or
    {column: value} row of exact rationals, d their least common denominator."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    row = {c: v for c, v in items if v}
    for v in row.values():
        if type(v) is not int:
            denom = lcm(*[v.denominator for v in row.values()])
            return {c: v.numerator * (denom // v.denominator) for c, v in row.items()}, denom
    return row, 1


def _integer_rows(m):
    """({column: int} rows, ncols) of a SliceMatrix or a list of dense rows;
    {column: value} rows convert too, but their ncols means nothing."""
    rows, ncols = (m.rows(), m.ncols) if isinstance(m, SliceMatrix) else (m, len(m[0]) if m else 0)
    return [_integer_row(row)[0] for row in rows], ncols


def _primitive(row):
    """A {column: int} row divided by its content (the gcd of its entries)."""
    content = gcd(*row.values())
    return {c: v // content for c, v in row.items()} if content > 1 else row


def _eliminate(row, pivot_row, col):
    """Primitive integer combination of row and pivot_row that is zero at col."""
    piv, f = pivot_row[col], row[col]
    h = gcd(piv, f)
    a, b = piv // h, f // h
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in pivot_row.items():
        x = out.get(c, 0) - b * v
        if x:
            out[c] = x
        else:
            out.pop(c, None)
    return _primitive(out)


def _echelon(rows):
    """Forward elimination of {column: int} rows: (primitive rows leading at
    the ascending pivots, pivots).  Of the rows leading at the next column the
    shortest pivots; the others are cleared there and filed anew."""
    leading = {}
    for row in rows:
        if row:
            leading.setdefault(min(row), []).append(row)
    heap = list(leading)
    heapify(heap)
    out, pivots = [], []
    while heap:
        col = heappop(heap)
        bucket = leading.pop(col)
        pivot = min(bucket, key=len)
        for row in bucket:
            if row is not pivot:
                row = _eliminate(row, pivot, col)
                if row:
                    lead = min(row)
                    if lead not in leading:
                        heappush(heap, lead)
                    leading.setdefault(lead, []).append(row)
        out.append(_primitive(pivot))
        pivots.append(col)
    return out, pivots


def _integer_rref(rows):
    """(primitive {column: int} rows, pivot columns): row i divided by its
    entry at pivots[i] is row i of the reduced row echelon form."""
    work, pivots = _echelon(rows)
    # integer back-substitution: clear each pivot column above its pivot row
    for i in reversed(range(len(pivots))):
        pc, pivot = pivots[i], work[i]
        for j in range(i):
            if pc in work[j]:
                work[j] = _eliminate(work[j], pivot, pc)
    return work, pivots


_ZERO = Fraction(0)


def rref(rows, ncols=None):
    """(Fraction rows, pivot columns) of the reduced row echelon form, zero
    rows dropped.  Rows are dense or {column: value}, of exact rationals;
    ncols defaults to the length of the first row."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work, pivots = _integer_rref([_integer_row(row)[0] for row in rows])
    out = []
    for row, pc in zip(work, pivots):
        dense, p = [_ZERO] * ncols, row[pc]
        for c, v in row.items():
            dense[c] = Fraction(v, p)
        out.append(dense)
    return out, pivots


def rank(m):
    """The rank of a SliceMatrix or a list of dense or {column: value} rows,
    from one forward elimination (no back-substitution, no Fractions)."""
    return len(_echelon(_integer_rows(m)[0])[1])


def kernel_basis(m):
    """Basis of the null space, one vector per free column, in reduced
    echelon form (vector j has 1 at its free column, 0 at other free columns)."""
    rows, ncols = _integer_rows(m)
    work, pivots = _integer_rref(rows)
    basis = {fc: [_ZERO] * ncols for fc in sorted(set(range(ncols)).difference(pivots))}
    for fc, vec in basis.items():
        vec[fc] = Fraction(1)
    # a reduced row's entries off its pivot sit at free columns
    for row, pc in zip(work, pivots):
        p = row[pc]
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = Fraction(-v, p)
    return list(basis.values())


class Reduction:
    """One elimination of an n x m matrix M, reused by every later query.

    rref([M | I]) = [R | E] gives the reduced form R of M (its first ``rank``
    rows; the others are zero) and an invertible n x n transform E with
    E M = R.  So a vector v lies in the column span of M iff the rows of E v
    past the rank vanish, and M x = t is solved by reading E t.

    [M | I] goes through the sparse kernel (columns in order, shortest-row
    pivots), each row (dense or {column: value}) scaled to integers whole,
    its identity entry with it; E is unique, so the pivot choice does not
    reach it.  Row i of [R | E] leaves the kernel primitive, to be divided by
    its pivot entry, so E is kept as sparse integer columns plus that one
    denominator per row: E v is an integer product and one Fraction per row.
    """

    __slots__ = ("ncols", "rank", "pivots", "columns", "denominators")

    def __init__(self, rows, ncols):
        augmented = list(map(_integer_row, rows))
        for r, (row, denom) in enumerate(augmented):
            row[ncols + r] = denom
        work, pivots = _integer_rref([row for row, _ in augmented])
        self.ncols = ncols
        self.rank = bisect_left(pivots, ncols)
        self.pivots = pivots[:self.rank]
        self.denominators = [row[pc] for row, pc in zip(work, pivots)]
        # E by sparse columns: E v touches only the columns where v is nonzero
        self.columns = [[(i, row[c]) for i, row in enumerate(work) if c in row]
                        for c in range(ncols, ncols + len(rows))]

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
    if len(target) != len(m):
        raise ValueError(f"target length {len(target)} != {len(m)} rows")
    return Reduction(m, len(m[0]) if m else 0).solve({r: v for r, v in enumerate(target) if v})


# -- slice-level operations ---------------------------------------------------


@lru_cache(maxsize=None)
def d_matrix(g, q, k):
    """Matrix of the differential from the (q, k) slice to the (q+1, k) slice.

    Rows are indexed by the target slice basis, columns by the source basis;
    the labels are the cached basis tuples themselves.  Cached per (algebra,
    degree, weight) and never changed.
    """
    src = cohomology._slice_basis_cached(g, q, k)
    dst = cohomology._slice_basis_cached(g, q + 1, k)
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
