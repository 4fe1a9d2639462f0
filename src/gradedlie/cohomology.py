"""Weight-graded Lie algebra cohomology, slice by slice.

H^q_k = ker(d on the (q,k) slice) / im(d from the (q-1,k) slice), all over
exact rationals.  A (q, k) query needs algebra cutoff >= k; results for
k <= cutoff are truncation-stable.

Canonical representatives: closed single monomials are preferred (greedily,
in lexicographic order), the remainder is completed by reduced-echelon
vectors; for m0 the omega cocycles are returned verbatim whenever they span
the slice, since the explicit constructions downstream quote omega classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .errors import CutoffTooSmall, NotACocycle, internal_check
from .forms import Form, slice_basis
from .algebra import is_m0_like, load_preset


@lru_cache(maxsize=None)
def _slice_basis_cached(g, q, k):
    return tuple(slice_basis(g, q, k))


def weight_slice_basis(g, q, k):
    return list(_slice_basis_cached(g, q, k))


@dataclass(frozen=True)
class CohomologySlice:
    algebra: object
    q: int
    k: int
    basis: tuple                 # slice monomials, lexicographic
    cocycles: tuple              # coordinate vectors over basis
    coboundaries: tuple
    representatives: tuple       # Forms, one per cohomology class
    rep_vectors: tuple
    dimension: int = field(default=0)

    def vector_of(self, form):
        comp = form.weight_part(self.k).degree_part(self.q)
        if comp.terms != form.terms:
            raise NotACocycle(f"form is not homogeneous of (q={self.q}, k={self.k})")
        return _vec(self.basis, form)

    @cached_property
    def coordinate_map(self):
        """Reduction of the columns [coboundaries | representatives]: for a
        cocycle v, the leading rows of E v are its coordinates over those
        columns, and the rows past the rank vanish exactly on cocycles."""
        cols = self.coboundaries + self.rep_vectors
        red = linalg.Reduction([[col[r] for col in cols] for r in range(len(self.basis))],
                               len(cols))
        internal_check(red.rank == len(cols) == len(self.cocycles)
                       and not any(any(red.image(c)[red.rank:]) for c in self.cocycles),
                       "coboundaries and representatives must be a basis of the cocycles")
        return red


@lru_cache(maxsize=None)
def cohomology_slice(g, q, k):
    """Compute the full (q, k) slice data with canonical representatives."""
    if k > g.cutoff:
        raise CutoffTooSmall(k, g.cutoff, f"cohomology slice (q={q}, k={k})")
    basis = _slice_basis_cached(g, q, k)
    dmat = linalg.d_matrix(g, q, k)
    cocycles = tuple(tuple(v) for v in linalg.kernel_basis(dmat))
    if q == 0:
        cocycles = tuple(tuple(v) for v in ([[Fraction(1)]] if k == 0 else []))
    prev = linalg.d_matrix(g, q - 1, k) if q >= 1 else None
    coboundaries = ()
    if prev is not None and prev.ncols:
        # image vectors = columns of the previous differential, reduced
        red, _ = linalg.rref(list(zip(*prev.dense_rows())))
        coboundaries = tuple(tuple(r) for r in red)
    dim = len(cocycles) - len(coboundaries)

    reps = _choose_representatives(g, q, k, basis, dmat, cocycles, coboundaries, dim)
    rep_vectors = tuple(tuple(_vec(basis, f)) for f in reps)
    return CohomologySlice(g, q, k, basis, cocycles, coboundaries,
                           tuple(reps), rep_vectors, dim)


def _vec(basis, form):
    index = {m: i for i, m in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for m, c in form.terms.items():
        vec[index[m]] = c
    return vec


def _choose_representatives(g, q, k, basis, dmat, cocycles, coboundaries, dim):
    if dim <= 0:
        return []
    # m0 preference: omega cocycles verbatim when they span the slice
    if is_m0_like(g) and all(g.weight(i) == i for i in g.indices) and q >= 2:
        from .mzero import omega, omega_index_lists
        lists = omega_index_lists(q - 1, k)
        if len(lists) == dim:
            forms = [omega(g, idx) for idx in lists]
            span = linalg.Echelon(coboundaries)
            if all(span.add(_vec(basis, f)) for f in forms):
                return forms
    # greedy pass: closed single monomials, lexicographic order; a monomial
    # is closed iff its column of the differential is zero
    chosen = []
    span = linalg.Echelon(coboundaries)
    nonclosed = {c for _, c in dmat.entries}
    for i, mono in enumerate(basis):
        if len(chosen) == dim:
            break
        if i in nonclosed:
            continue
        unit = [0] * len(basis)
        unit[i] = 1
        if span.add(unit):
            chosen.append(Form(g, {mono: Fraction(1)}))
    # completion: cocycles reduced modulo the coboundaries (zero on
    # coboundary pivot columns), re-echelonized, leading coefficient 1
    if len(chosen) < dim:
        cob_span = linalg.Echelon(coboundaries)
        reduced = [vec for vec in map(cob_span.reduce, cocycles) if any(vec)]
        red, _ = linalg.rref(reduced)
        for vec in red:
            if len(chosen) == dim:
                break
            if span.add(vec):
                chosen.append(Form(g, {basis[i]: v for i, v in enumerate(vec) if v}))
    return chosen


def betti(g, q, k):
    """dim H^q_k as a kernel/image dimension difference on slices."""
    return cohomology_slice(g, q, k).dimension


def representatives(g, q, k):
    return list(cohomology_slice(g, q, k).representatives)


@dataclass(frozen=True)
class ClassCoordinates:
    """Coordinates of a cohomology class over a slice's representative basis."""

    q: int
    k: int
    coords: tuple

    def is_zero(self):
        return all(c == 0 for c in self.coords)


def class_coordinates(slc, c_form):
    """Unique coordinates of [c] in the representative basis of the slice."""
    red = slc.coordinate_map
    image = red.image(slc.vector_of(c_form))
    if any(image[red.rank:]):
        raise NotACocycle("form is not closed")
    return ClassCoordinates(slc.q, slc.k, tuple(image[len(slc.coboundaries):red.rank]))


def class_coordinates_form(g, c_form):
    """Weight-by-weight class coordinates of a closed, degree-homogeneous form;
    returns {weight: ClassCoordinates} for the weights it occupies."""
    if c_form.is_zero():
        return {}
    q = c_form.degree()
    return {k: class_coordinates(cohomology_slice(g, q, k), c_form.weight_part(k))
            for k in c_form.weights()}


def class_terms(g, c_form):
    """The nonzero class coordinates of a closed, degree-homogeneous form:
    {(weight, representative index): coefficient}, weights ascending."""
    return {(k, i): c for k, cc in class_coordinates_form(g, c_form).items()
            for i, c in enumerate(cc.coords) if c}


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


def check_goncharova(cutoff_q, cutoff_k, algebra=None):
    """dim H^q_k(L1) = 1 exactly at the pentagonal weights (3q^2 +- q)/2."""
    need = (3 * cutoff_q * cutoff_q + cutoff_q) // 2
    if cutoff_k < need:
        raise CutoffTooSmall(need, cutoff_k, "Goncharova check")
    g = algebra if algebra is not None else load_preset("L1", cutoff_k)
    if g.cutoff < cutoff_k:
        raise CutoffTooSmall(cutoff_k, g.cutoff, "Goncharova check")
    rows = []
    for q in range(1, cutoff_q + 1):
        lo, hi = pentagonal_weights(q)
        for k in range(1, cutoff_k + 1):
            expected = 1 if k in (lo, hi) else 0
            rows.append(ReportRow(q, k, betti(g, q, k), expected))
    return Report("goncharova", tuple(rows))


def check_m0_dimensions(cutoff_q, cutoff_k, algebra=None):
    """dim H^q_{k + q(q+1)/2}(m0) = P_q(k) - P_q(k-1) for positive k;
    the q = 1 sector is spanned by e^1, e^2 (weights 1 and 2)."""
    g = algebra if algebra is not None else load_preset("m0", cutoff_k)
    if g.cutoff < cutoff_k:
        raise CutoffTooSmall(cutoff_k, g.cutoff, "m0 dimension check")
    rows = []
    for q in range(1, cutoff_q + 1):
        shift = q * (q + 1) // 2
        for w in range(1, cutoff_k + 1):
            if q == 1:
                expected = 1 if w in (1, 2) else 0
            else:
                k = w - shift
                expected = partition_count(q, k) - partition_count(q, k - 1) if k >= 1 else 0
            rows.append(ReportRow(q, w, betti(g, q, w), expected))
    return Report("m0dims", tuple(rows))
