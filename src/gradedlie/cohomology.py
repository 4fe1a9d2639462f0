"""Weight-graded Lie algebra cohomology, slice by slice.

H^q_k = ker(d on the (q,k) slice) / im(d from the (q-1,k) slice), all over
exact rationals.  A (q, k) query needs algebra cutoff >= k; results for
k <= cutoff are truncation-stable.

Dimensions alone come from an algebraic Morse complex (Forman; Skoldberg,
Trans. AMS 358, 2006), and betti builds no slice and no d-matrix.  When the
algebra has an e1 chain (algebra.e1_chain: m0, L1, m2 and their
relabellings), the e^1 part of d has m0's support and every other bracket
lowers the central-series filtration of cochains, so a greedy matching M_q
of m0's cochains is acyclic for the whole d as well.  H^q_k is then the
cohomology of the critical cells alone, about dim H^q_k(m0) of them, and
its rank is read off D_q, d_q restricted to the matched and critical
cells, eliminated once, forward only, and kept on M_q.  Every other algebra
has the empty matching, and D_q is the whole d_q.  The full slice below
computes its own dimension from its cocycle and coboundary bases; every
degree, 0 included, takes that one path, since the (-1, k) slice is empty.

Canonical representatives are pivots: of one elimination of [d | candidates],
d the differential into the slice, the candidates whose columns are pivots.
The candidates are the closed single monomials in lexicographic order, then
reduced-echelon vectors; on the m0 truncation (algebra.is_m0, the one owner
of that test) the omega cocycles are taken verbatim whenever they span the
slice, since the explicit constructions downstream quote omega classes.

Each slice has one homotopy-transfer contraction (h, p), read off the
reduction of [d | candidates] that picked its representatives: for a
component z, p(z) are its class coordinates and h(z) the echelon d-preimage
of z - i p(z).  Class coordinates are p and coboundary preimages (linalg) are
h, both read through CohomologySlice.contract, which keeps each reading
per component on the slice, unbounded like the cup-product tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import CutoffTooSmall, NotACocycle, internal_check
from .forms import Form, _exact, differential, slice_basis, wedge, weight_parts
from .algebra import e1_chain, is_m0, load_preset
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
    # Reduction of [d | the pick's candidates], d the differential into this
    # slice.  Of E v (see linalg.Reduction), the first len(coboundaries) rows
    # are the echelon d-preimage of v (d comes first, so its pivots are those
    # of rref(d)), the next dimension rows its class coordinates (candidates
    # not kept are free); the rows past the rank vanish exactly on cocycles.
    reduction: object = field(compare=False, repr=False)
    dimension: int = field(default=0)
    # {(q, k) of a right slice: product table}, see product_terms
    products: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # {component key: (h, p)}, see contract
    contractions: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # {(a, c): indeterminacy entry} of the triple products with this target
    # slice, filled by massey.triple_product
    indeterminacies: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    image, exact = linalg.rref(columns, prev.nrows)
    coboundaries = tuple(tuple(r) for r in image)
    dim = len(cocycles) - len(coboundaries)

    reps, red = _choose_representatives(g, q, k, basis, index, prev, dmat, cocycles, exact, dim)
    # the representatives are closed, dim H of them, and the j-th reads class
    # coordinates e_j off red, so they are independent modulo the coboundaries
    b = len(coboundaries)
    internal_check(red.rank == b + len(reps) == len(cocycles)
                   and all(differential(g, f).is_zero() for f in reps)
                   and all(red.image({index[m]: c for m, c in f.terms.items()})[b:]
                           == [int(i == j) for i in range(len(basis) - b)]
                           for j, f in enumerate(reps)),
                   "coboundaries and representatives must be a basis of the cocycles")
    rep_vectors = tuple(tuple(f.terms.get(m, Fraction(0)) for m in basis) for f in reps)
    return CohomologySlice(g, q, k, basis, index, cocycles, coboundaries,
                           tuple(reps), rep_vectors, red, dim)


def _kept(d, columns):
    """(kept, the Reduction of [d | columns]): d the differential into a
    slice, each column a {position: nonzero value} vector over its basis,
    and kept the positions of the columns that leave the span of d's columns
    and of the columns before them, the pivots past d."""
    rows = d.rows()
    for j, col in enumerate(columns, d.ncols):
        for r, v in col.items():
            rows[r][j] = v
    red = linalg.Reduction(rows, d.ncols + len(columns))
    return [pc - d.ncols for pc in red.pivots if pc >= d.ncols], red


def _choose_representatives(g, q, k, basis, index, prev, dmat, cocycles, exact, dim):
    """(Representatives, the Reduction that kept them): the candidates kept
    by _kept against prev, the differential into the slice.  They are the
    omega cocycles when all are kept, else the closed monomials (their
    columns of dmat are zero) and, only when those fall short, the
    completion, the rows of rref(cocycles) whose pivot is not in exact (the
    coboundary pivots).  As B lies in Z, pivots(B) lie in pivots(Z), so
    these rows are the reduced echelon form of Z reduced modulo B."""
    if not dim:
        return [], _kept(prev, [])[1]
    if is_m0(g) and q >= 2:
        lists = omega_index_lists(q - 1, k)
        if len(lists) == dim:
            forms = [omega(g, idx) for idx in lists]
            kept, red = _kept(prev, [{index[m]: c for m, c in f.terms.items()} for f in forms])
            if len(kept) == dim:
                return forms, red
    nonclosed = {c for _, c in dmat.entries}
    candidates = [{i: 1} for i in range(len(basis)) if i not in nonclosed]
    kept, red = _kept(prev, candidates)
    if len(kept) < dim:
        rows, pivots = linalg.rref(cocycles, len(basis))
        candidates += [{i: v for i, v in enumerate(row) if v}
                       for row, pc in zip(rows, pivots) if pc not in exact]
        kept, red = _kept(prev, candidates)
    return [Form(g, {basis[i]: _exact(v) for i, v in candidates[j].items()}) for j in kept], red


def betti(g, q, k):
    """dim H^q_k = |crit_q| - r(q) - r(q-1), the Morse complex's count, with
    r(q) = rank(D_q) - |M_q| (see morse_matching and _morse_rank).  As
    |crit_q| = |C^q_k| - |M_q| - |M_{q-1}|, that is |C^q_k| - rank(D_q) -
    rank(D_{q-1}): rank-nullity, since rank(D_q) = rank(d_q).  Along a
    certified pairing, d^2 = 0 puts each column D_q drops (an upper of
    M_{q-1}) in the span of the kept columns, and each row it drops (a lower
    of M_{q+1}) in the span of the kept rows.  Builds no slice and no
    d-matrix; each D_q is eliminated once, forward only, so the queries
    (q, k) and (q+1, k) share it."""
    _require_cutoff(g, q, k)
    return (len(_slice_basis_cached(g, q, k))
            - _morse_rank(g, q, k) - _morse_rank(g, q - 1, k))


class Matching:
    """M_q of one (q, k) slice, {lower cell: its partner}, monomials of the
    (q, k) and (q+1, k) slices, in Kahn's order (see _morse_order, which
    certified the pairing when it was built).  images holds the lower
    cells' differentials until D_q has read them; rank is that of D_q, set
    once betti has eliminated it."""

    __slots__ = ("pairs", "images", "rank")

    def __init__(self, pairs, images):
        self.pairs = pairs
        self.images = images
        self.rank = None


@lru_cache(maxsize=None)
def morse_matching(g, q, k):
    """The greedy matching M_q of the (q, k) slice, in weight coordinates
    x_w (algebra.e1_chain).  A lower cell σ has no x_1; its candidates
    lower one x_i, i >= 3, with x_{i-1} not in σ, to x_{i-1}, in order of
    position; σ, taken in lexicographic order of weights, pairs with
    x_1^σ' for the first candidate σ' not yet used.  Empty unless g has an
    e1 chain, so D_q is then the whole d_q.  The lower cells are
    differentiated here, and the pairing is certified before any block
    reads it."""
    chain = e1_chain(g)
    cells = _slice_basis_cached(g, q, k) if chain is not None and q >= 1 else ()
    if not cells:
        return Matching({}, {})
    # the basis is lexicographic, so it is in weight coordinates when x_w = e_w
    relabelled = chain != tuple(range(1, len(chain) + 1))
    if relabelled:
        cells = sorted(tuple(sorted(map(g.weight, m))) for m in cells)
    pairs, used = {}, set()
    for s in cells:
        if 1 in s:
            continue
        below = 1       # i - 1 > below: i >= 3 and weight i - 1 is absent
        for p, i in enumerate(s):
            if i - 1 > below:
                t = (1, *s[:p], i - 1, *s[p + 1:])
                if t not in used:
                    used.add(t)
                    pairs[s] = t
                    break
            below = i
    if relabelled:
        pairs = {tuple(sorted(chain[w - 1] for w in s)): tuple(sorted(chain[w - 1] for w in t))
                 for s, t in pairs.items()}
    images = {s: differential(g, Form(g, {s: 1})).terms for s in pairs}
    return Matching({s: pairs[s] for s in _morse_order(images, pairs)}, images)


def _morse_rank(g, q, k):
    """rank(D_q), D_q the differential d_q restricted to the columns
    lowers(M_q) + crit_q (the cells that are not uppers of M_{q-1}) and the
    rows uppers(M_q) + crit_{q+1} (the cells that are not lowers of
    M_{q+1}).  Only those columns are differentiated.  The elimination runs
    on the transpose, one row per column of D_q: the critical targets keep
    their place in the basis, and the matched ones follow in Kahn's order,
    so each lower cell's row leads at its partner once the critical columns
    are cleared.  Eliminated once and kept on M_q."""
    matching = morse_matching(g, q, k)
    if matching.rank is None:
        images = matching.images
        uppers = set(morse_matching(g, q - 1, k).pairs.values())
        for mono in _slice_basis_cached(g, q, k):
            if mono not in uppers and mono not in images:
                images[mono] = differential(g, Form(g, {mono: 1})).terms
        targets = _slice_basis_cached(g, q + 1, k)
        column = {t: c for c, t in enumerate(targets)}
        column.update((t, len(targets) + i) for i, t in enumerate(matching.pairs.values()))
        lowers = morse_matching(g, q + 1, k).pairs
        matching.rank = linalg.rank([{column[t]: c for t, c in img.items() if t not in lowers}
                                     for img in images.values()])
        matching.images = None
    return matching.rank


def _morse_order(images, pairs):
    """The lower cells of pairs in Kahn's order over the edges σ -> σ' with
    partner(σ') in images[σ], σ' != σ, after the checks that make pairs a
    Morse matching of the matrix whose columns are images: every matched
    incidence is nonzero, and the order exists (the matched block is
    acyclic).  With partner(σ) numbered by the place of σ, the matched block
    is triangular with a nonzero diagonal."""
    internal_check(all(images.get(s, {}).get(t) for s, t in pairs.items()),
                   "every matched incidence must be nonzero")
    lower = {t: s for s, t in pairs.items()}
    successors, indegree = {}, dict.fromkeys(pairs, 0)
    for s, t in pairs.items():
        successors[s] = succ = [lower[u] for u in images[s] if u in lower and u != t]
        for u in succ:
            indegree[u] += 1
    order = [s for s, n in indegree.items() if not n]
    for s in order:     # the loop reads what it appends
        for u in successors[s]:
            indegree[u] -= 1
            if not indegree[u]:
                order.append(u)
    internal_check(len(order) == len(pairs), "the matched block must be acyclic")
    return order


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
