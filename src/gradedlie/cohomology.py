"""Weight-graded Lie algebra cohomology, slice by slice.

H^q_k = ker(d on the (q,k) slice) / im(d from the (q-1,k) slice), all over
exact rationals.  A (q, k) query needs algebra cutoff >= k; results for
k <= cutoff are truncation-stable.

Dimensions alone come from ranks: betti is ncols(d_q) - rank(d_q) -
rank(d_{q-1}) by rank-nullity, and builds no slice.  Each d-matrix is
eliminated once, forward only, and keeps its rank, so neighbouring degrees
share it.  The full slice below computes its own dimension from its cocycle
and coboundary bases; every degree, 0 included, takes that one path, since
the (-1, k) slice is empty.

Canonical representatives: closed single monomials are preferred (greedily,
in lexicographic order), the remainder is completed by reduced-echelon
vectors; on the m0 truncation (algebra.is_m0, the one owner of that test)
the omega cocycles are returned verbatim whenever they span the slice, since
the explicit constructions downstream quote omega classes.

Each slice has one homotopy-transfer contraction (h, p), read off the one
reduction of [d | representatives] it builds on first use: for a component
z, p(z) are its class coordinates and h(z) the echelon d-preimage of
z - i p(z).  Class coordinates are p and coboundary preimages (linalg) are
h, both read through CohomologySlice.contract, which keeps each reading
per component on the slice, unbounded like the cup-product tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

from . import linalg
from .errors import CutoffTooSmall, NotACocycle, internal_check
from .forms import Form, _exact, slice_basis, wedge, weight_parts
from .algebra import is_m0, load_preset
from .mzero import omega, omega_index_lists


@lru_cache(maxsize=None)
def _slice_basis_cached(g, q, k):
    """The (q, k) slice monomials as a tuple, the one copy that slices and
    d-matrices share."""
    return tuple(slice_basis(g, q, k))


@dataclass(frozen=True)
class CohomologySlice:
    algebra: object
    q: int
    k: int
    basis: tuple                 # slice monomials, lexicographic
    index: dict = field(compare=False, repr=False)   # {monomial: position in basis}
    cocycles: tuple              # coordinate vectors over basis
    coboundaries: tuple
    representatives: tuple       # Forms, one per cohomology class
    rep_vectors: tuple
    dimension: int = field(default=0)
    # {(q, k) of a right slice: product table}, see product_terms
    products: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # {component key: (h, p)}, see contract
    contractions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def product_terms(self, right):
        """The cup-product table with a right slice of the same algebra:
        {(i, j): class_terms(wedge(r_i, s_j))} over the representatives r_i
        of this slice and s_j of right, nonzero entries only.  Filled on the
        first query of the pair and kept; a table whose computation raises
        is not stored."""
        key = (right.q, right.k)
        table = self.products.get(key)
        if table is None:
            table = {}
            for i, r in enumerate(self.representatives):
                for j, s in enumerate(right.representatives):
                    terms = class_terms(self.algebra, wedge(r, s))
                    if terms:
                        table[i, j] = terms
            self.products[key] = table
        return table

    @cached_property
    def cocycle_forms(self):
        """The cocycles as Forms, built on first use and kept."""
        return tuple(Form(self.algebra, {m: _exact(c) for m, c in zip(self.basis, vec)})
                     for vec in self.cocycles)

    @cached_property
    def reduction(self):
        """Reduction of the columns [d | representatives], d the differential
        into this slice.  Of E v (see linalg.Reduction), the first
        len(coboundaries) rows are the echelon d-preimage of v (d comes first,
        so its pivots are those of rref(d)), the next dimension rows its class
        coordinates; the rows past the rank vanish exactly on cocycles."""
        d = linalg.d_matrix(self.algebra, self.q - 1, self.k)
        rows = d.rows()
        for r, row in enumerate(rows):
            row.update((d.ncols + j, vec[r]) for j, vec in enumerate(self.rep_vectors) if vec[r])
        red = linalg.Reduction(rows, d.ncols + len(self.rep_vectors))
        internal_check(red.rank == len(self.coboundaries) + len(self.rep_vectors)
                       == len(self.cocycles)
                       and not any(any(red.image({i: v for i, v in enumerate(c) if v})[red.rank:])
                                   for c in self.cocycles),
                       "coboundaries and representatives must be a basis of the cocycles")
        return red

    def contract(self, terms):
        """(h, p) of a component {monomial: coefficient} of this slice, the
        homotopy-transfer contraction read off one E v of the reduction: p
        the class coordinates (a tuple), h the echelon d-preimage of
        z - i p(z) as a tuple of (monomial of the (q-1, k) slice, nonzero
        coefficient), both normalised by _exact; both None when the component
        is not closed.  Kept per component, keyed on plain ints (an int and
        the equal Fraction share an entry); raises NotACocycle for a monomial
        outside the slice."""
        key = tuple([(m, c.numerator, c.denominator) for m, c in terms.items()])
        hp = self.contractions.get(key)
        if hp is None:
            index = self.index
            try:
                vec = {index[m]: c for m, c in terms.items()}
            except KeyError:
                raise NotACocycle(f"form is not homogeneous of (q={self.q}, k={self.k})") from None
            red, exact = self.reduction, len(self.coboundaries)
            image = red.image(vec)
            if any(image[red.rank:]):
                hp = None, None
            else:
                labels = _slice_basis_cached(self.algebra, self.q - 1, self.k)
                hp = (tuple((labels[pc], _exact(v))
                            for pc, v in zip(red.pivots, image[:exact]) if v),
                      tuple(map(_exact, image[exact:red.rank])))
            self.contractions[key] = hp
        return hp


def _require_cutoff(g, q, k):
    """The refusal of a (q, k) query past the algebra's cutoff, shared by
    the full slice and the rank-only betti."""
    if k > g.cutoff:
        raise CutoffTooSmall(k, g.cutoff, f"cohomology slice (q={q}, k={k})")


@lru_cache(maxsize=None)
def cohomology_slice(g, q, k):
    """Compute the full (q, k) slice data with canonical representatives."""
    _require_cutoff(g, q, k)
    basis = _slice_basis_cached(g, q, k)
    index = {m: i for i, m in enumerate(basis)}
    dmat = linalg.d_matrix(g, q, k)
    cocycles = tuple(tuple(v) for v in linalg.kernel_basis(dmat))
    # image vectors = columns of the previous differential, reduced
    prev = linalg.d_matrix(g, q - 1, k)
    columns = [{} for _ in range(prev.ncols)]
    for (r, c), v in prev.entries.items():
        columns[c][r] = v
    coboundaries = tuple(tuple(r) for r in linalg.rref(columns, prev.nrows)[0])
    dim = len(cocycles) - len(coboundaries)

    reps = _choose_representatives(g, q, k, basis, index, dmat, cocycles, coboundaries, dim)
    rep_vectors = tuple(tuple(_vec(index, f)) for f in reps)
    return CohomologySlice(g, q, k, basis, index, cocycles, coboundaries,
                           tuple(reps), rep_vectors, dim)


def _vec(index, form):
    vec = [Fraction(0)] * len(index)
    for m, c in form.terms.items():
        vec[index[m]] = c
    return vec


def _choose_representatives(g, q, k, basis, index, dmat, cocycles, coboundaries, dim):
    if dim <= 0:
        return []
    # m0 preference: omega cocycles verbatim when they span the slice
    if is_m0(g) and q >= 2:
        lists = omega_index_lists(q - 1, k)
        if len(lists) == dim:
            forms = [omega(g, idx) for idx in lists]
            vectors = [*coboundaries, *(_vec(index, f) for f in forms)]
            if linalg.rank(vectors) == len(vectors):
                return forms
    span = linalg.Echelon(coboundaries)
    chosen = islice(filter(span.add, _candidates(basis, dmat, cocycles, coboundaries)), dim)
    return [Form(g, {basis[i]: _exact(v) for i, v in vec.items()}) for vec in chosen]


def _candidates(basis, dmat, cocycles, coboundaries):
    """Representative candidates as {position: value} rows, in order: the
    closed single monomials, lexicographic (a monomial is closed iff its
    column of the differential is zero), then the completion, the cocycles
    reduced modulo the coboundaries (zero on coboundary pivot columns) and
    re-echelonized with leading coefficient 1.  The completion's reduction
    runs only when the caller reads past the monomials."""
    nonclosed = {c for _, c in dmat.entries}
    yield from ({i: 1} for i in range(len(basis)) if i not in nonclosed)
    cob_span = linalg.Echelon(coboundaries)
    reduced = [vec for vec in map(cob_span.reduce, cocycles) if vec]
    for vec in linalg.rref(reduced, len(basis))[0]:
        yield {i: v for i, v in enumerate(vec) if v}


def betti(g, q, k):
    """dim H^q_k = ncols(d_q) - rank(d_q) - rank(d_{q-1}) by rank-nullity,
    d_q the differential out of the (q, k) slice.  Builds no slice: each
    d-matrix is eliminated once, forward only, and keeps its rank, so the
    queries (q, k) and (q+1, k) share the elimination of d_q."""
    _require_cutoff(g, q, k)
    dmat = linalg.d_matrix(g, q, k)
    return dmat.ncols - linalg.rank(dmat) - linalg.rank(linalg.d_matrix(g, q - 1, k))


def representatives(g, q, k):
    return list(cohomology_slice(g, q, k).representatives)


def class_coordinates(slc, c):
    """Unique coordinates of [c] in the representative basis of the slice,
    as a tuple: p of the slice's contraction.  c is a closed form of the
    slice or its term map {monomial: coefficient}."""
    p = slc.contract(c.terms if isinstance(c, Form) else c)[1]
    if p is None:
        raise NotACocycle("form is not closed")
    return p


def class_coordinates_form(g, c_form):
    """Weight-by-weight class coordinates of a closed, degree-homogeneous form;
    returns {weight: coordinate tuple} for the weights it occupies."""
    if c_form.is_zero():
        return {}
    q = c_form.degree()
    return {k: class_coordinates(cohomology_slice(g, q, k), terms)
            for k, terms in weight_parts(c_form).items()}


def class_terms(g, c_form):
    """The nonzero class coordinates of a closed, degree-homogeneous form:
    {(weight, representative index): coefficient}, weights ascending."""
    return {(k, i): c for k, coords in class_coordinates_form(g, c_form).items()
            for i, c in enumerate(coords) if c}


# -- partition counting -------------------------------------------------------

@lru_cache(maxsize=None)
def partition_count(q, k):
    """P_q(k): partitions of k into exactly q positive parts."""
    if q < 0 or k < 0:
        return 0
    if q == 0:
        return 1 if k == 0 else 0
    if k < q:
        return 0
    return partition_count(q - 1, k - 1) + partition_count(q, k - q)


# -- verification oracles -----------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    q: int
    k: int
    computed: int
    expected: int

    @property
    def match(self):
        return self.computed == self.expected


@dataclass(frozen=True)
class Report:
    name: str
    rows: tuple

    @property
    def ok(self):
        return all(r.match for r in self.rows)

    def to_csv(self):
        lines = ["q,k,computed,expected,match"]
        for r in self.rows:
            lines.append(f"{r.q},{r.k},{r.computed},{r.expected},{str(r.match).lower()}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({
            "report": self.name,
            "ok": self.ok,
            "rows": [{"q": r.q, "k": r.k, "computed": r.computed,
                      "expected": r.expected, "match": r.match} for r in self.rows],
        }, indent=2, sort_keys=True)

    def to_table(self):
        lines = [f"{'q':>3} {'k':>4} {'computed':>9} {'expected':>9} match"]
        for r in self.rows:
            lines.append(f"{r.q:>3} {r.k:>4} {r.computed:>9} {r.expected:>9} "
                         f"{'ok' if r.match else 'MISMATCH'}")
        lines.append(f"-- {self.name}: {'all match' if self.ok else 'MISMATCHES FOUND'}")
        return "\n".join(lines)


def pentagonal_weights(q):
    return ((3 * q * q - q) // 2, (3 * q * q + q) // 2)


def _dimension_report(name, g, cutoff_q, cutoff_k, expected):
    """betti(g, q, k) against expected(q, k), q outer and k from 1."""
    return Report(name, tuple(ReportRow(q, k, betti(g, q, k), expected(q, k))
                              for q in range(1, cutoff_q + 1)
                              for k in range(1, cutoff_k + 1)))


def check_goncharova(cutoff_q, cutoff_k):
    """dim H^q_k(L1) = 1 exactly at the pentagonal weights (3q^2 +- q)/2."""
    need = (3 * cutoff_q * cutoff_q + cutoff_q) // 2
    if cutoff_k < need:
        raise CutoffTooSmall(need, cutoff_k, "Goncharova check")
    return _dimension_report("goncharova", load_preset("L1", cutoff_k), cutoff_q, cutoff_k,
                             lambda q, k: 1 if k in pentagonal_weights(q) else 0)


def check_m0_dimensions(cutoff_q, cutoff_k):
    """dim H^q_{k + q(q+1)/2}(m0) = P_q(k) - P_q(k-1) for positive k;
    the q = 1 sector is spanned by e^1, e^2 (weights 1 and 2)."""
    def expected(q, w):
        if q == 1:
            return 1 if w in (1, 2) else 0
        k = w - q * (q + 1) // 2
        return partition_count(q, k) - partition_count(q, k - 1) if k >= 1 else 0
    return _dimension_report("m0dims", load_preset("m0", cutoff_k), cutoff_q, cutoff_k,
                             expected)
