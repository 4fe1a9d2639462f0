"""Formal connections and n-fold Massey products.

A connection matrix is a strictly upper triangular (n+1) x (n+1) matrix of
forms; it is a formal connection when the Maurer-Cartan residual
mu(A) = dA - bar(A).A is supported in the one-dimensional center (the
corner).  Defining systems fix the corner to zero, so the corner residual is
exactly -c(A) with c(A) = sum_r bar(a(1,r)) a(r+1,n) the related cocycle.
_residual is the one evaluation of these equations; every check reads it,
and the exact triple rung reads its windows off the same _window_sum.

Entry coordinates: a(i,j) for 1 <= i <= j <= n denotes the window of classes
i..j and sits at matrix position [i-1][j] (0-based).  The second diagonal
a(i,i) carries the given cocycles.

Triviality decisions are exact for n = 2 (the class of the related cocycle),
for n = 3 (affine geometry of the triple value set) and for products of
1-classes over an m0-type algebra (the residual of the unique graded
thread-module candidate: off the corner it decides definedness, at the
corner triviality).  Otherwise the gauge-fixed defining-system family
(parameters on cohomology representatives) is solved diagonal by diagonal;
the related-cocycle class is a polynomial in the free parameters and the
decision hierarchy is: exact linear solve when the dependence is affine,
bounded grid search for witnesses, sampling certificates for the explicit
omega-tail shapes, and an honest Undecided otherwise.  NotDefined needs an
obstruction whose affine class coordinates have no common zero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product as iter_product

from . import linalg
from .algebra import is_m0, is_m0_like
from .cohomology import class_coordinates_form, class_terms, cohomology_slice, representatives
from .errors import (AlgebraFormatError, CutoffTooSmall, MasseyNotDefined, NotACocycle,
                     NotApplicable, UnverifiedInput, UsageError, internal_check)
from .forms import Form, differential, parse_form, render_form, sort_with_sign
from .mzero import Dm1, omega, omega_index_lists, omega_weight
from .params import ParamPoly


# ---------------------------------------------------------------------------
# connection matrices
# ---------------------------------------------------------------------------

class ConnectionMatrix:
    """Strictly upper triangular matrix of forms over one algebra, stored as
    its nonzero entries {(i, j): a(i, j)}."""

    __slots__ = ("alg", "n", "entries")

    def __init__(self, alg, n, rows=None):
        """From an (n+1) x (n+1) grid of forms, a(i, j) at rows[i-1][j]."""
        self.alg = alg
        self.n = n
        self.entries = {}
        self._store({(r + 1, c): form for r, row in enumerate(rows or ())
                     for c, form in enumerate(row)})

    @classmethod
    def from_entries(cls, alg, n, entries):
        """The matrix with a(i, j) = entries[(i, j)] and zeros elsewhere."""
        matrix = cls(alg, n)
        matrix._store(entries)
        return matrix

    def _store(self, entries):
        for (i, j), form in entries.items():
            if not form.is_zero():
                if not 1 <= i <= j <= self.n:
                    raise NotApplicable("matrix must be strictly upper triangular")
                self.entries[(i, j)] = form

    @property
    def size(self):
        return self.n + 1

    @property
    def rows(self):
        """The (n+1) x (n+1) grid, built on each access."""
        return [[self.entry(r + 1, c) for c in range(self.size)] for r in range(self.size)]

    def entry(self, i, j):
        """a(i, j): window classes i..j, 1-based."""
        return self.entries.get((i, j)) or Form.zero(self.alg)

    def with_entry(self, i, j, form):
        return ConnectionMatrix.from_entries(self.alg, self.n, {**self.entries, (i, j): form})

    def second_diagonal(self):
        return [self.entry(i, i) for i in range(1, self.n + 1)]

    def corner(self):
        return self.entry(1, self.n)

    def render(self):
        return [[render_form(e) for e in row] for row in self.rows]

    def __eq__(self, other):
        return (isinstance(other, ConnectionMatrix) and self.alg == other.alg
                and self.n == other.n and self.entries == other.entries)


def mc_residual(a):
    """mu(A) = dA - bar(A).A as a matrix: _residual of its entries, each the
    one constant piece {(): a(i, j)}."""
    residual = _residual(a.alg, a.n, {key: {(): form} for key, form in a.entries.items()})
    return ConnectionMatrix.from_entries(a.alg, a.n, {key: r[()] for key, r in residual.items()})


def is_formal_connection(a):
    """(yes/no, corner residual tau).  Yes iff the residual vanishes outside
    the corner; tau is then closed."""
    res = mc_residual(a)
    return res.entries.keys() <= {(1, a.n)}, res.corner()


# ---------------------------------------------------------------------------
# defining systems
# ---------------------------------------------------------------------------

class DefiningSystem:
    """Connection matrix with zero corner and prescribed second diagonal.

    Its Maurer-Cartan residual is computed once, when it is built.  The system
    is verified when the residual vanishes off the corner; verify=False skips
    only that check."""

    def __init__(self, matrix, verify=True):
        self.matrix = matrix
        if not matrix.corner().is_zero():
            raise NotApplicable("defining system must have a zero corner entry")
        self.residual = mc_residual(matrix)
        self.verified = False
        if verify:
            self.verify()

    @property
    def alg(self):
        return self.matrix.alg

    @property
    def n(self):
        return self.matrix.n

    def classes(self):
        return self.matrix.second_diagonal()

    def verify(self):
        if self.residual.entries.keys() - {(1, self.n)}:
            raise UnverifiedInput("defining-system equations fail")
        self.verified = True
        return self


def _window_sum(entries, i, j):
    """sum_{r=i}^{j-1} bar(a(i,r)) a(r+1,j) over the entry dict
    {(k, l): {parameter monomial: nonzero Form}}, where an absent key is a zero
    entry.  Returns the pieces of the sum in the same form, monomials in order
    of first appearance.  Every wedge term goes straight into one term dict per
    monomial, subtracted where the bar sign times the sorting sign is
    negative.  The loops build no comprehension: this runs three times per
    triple product."""
    sums = {}
    for r in range(i, j):
        left_pieces, right_pieces = entries.get((i, r)), entries.get((r + 1, j))
        if not left_pieces or not right_pieces:
            continue
        for pl, lf in left_pieces.items():
            alg, left_terms = lf.alg, lf.terms.items()
            for pr, rf in right_pieces.items():
                pm = tuple(sorted(pl + pr)) if pl and pr else pl or pr
                terms = sums.setdefault(pm, {})
                right_terms = rf.terms.items()
                for ma, ca in left_terms:
                    even = not len(ma) % 2          # bar is -1 on even degrees
                    for mb, cb in right_terms:
                        norm = sort_with_sign(ma + mb)
                        if norm is None:
                            continue
                        sign, mono = norm
                        c, s = ca * cb, terms.get(mono)
                        if (sign < 0) != even:
                            terms[mono] = -c if s is None else s - c
                        else:
                            terms[mono] = c if s is None else s + c
    out = {}
    for pm, terms in sums.items():
        if (form := Form(alg, terms)).terms:
            out[pm] = form
    return out


def _residual(alg, n, entries):
    """mu(A) = dA - bar(A).A, the one evaluation of the defining equations:
    {(i, j): d a(i,j) - sum_r bar(a(i,r)) a(r+1,j)} over the nonzero entries,
    diagonal by diagonal.  Entries come in as the entry dict of _window_sum
    and go out as pieces {parameter monomial: nonzero Form}.  Each window is
    summed once."""
    residual = {}
    for s in range(n):
        for i in range(1, n - s + 1):
            window, entry = _window_sum(entries, i, i + s), {}
            for pm, form in entries.get((i, i + s), {}).items():
                d, w = differential(alg, form), window.pop(pm, None)
                if w is None or d.terms != w.terms:      # no Form for a solved equation
                    entry[pm] = d if w is None else d - w
            entry |= {pm: -form for pm, form in window.items()}
            if entry := {pm: form for pm, form in entry.items() if form.terms}:
                residual[(i, i + s)] = entry
    return residual


def _add_piece(pieces, pm, form):
    pieces[pm] = pieces[pm] + form if pm in pieces else form


def related_cocycle(system):
    """c(A) = sum_{r=1}^{n-1} bar(a(1,r)) a(r+1,n) = -mu(A)(1,n), read off the
    residual the system computed when it was built; closed of degree p(1,n)+2."""
    if not getattr(system, "verified", False):
        raise UnverifiedInput("defining system must be verified first")
    return -system.residual.corner()


# ---------------------------------------------------------------------------
# scalar conjugation
# ---------------------------------------------------------------------------

class ScalarTriangular:
    """Invertible upper triangular scalar matrix (the group GT_n)."""

    def __init__(self, entries):
        self.entries = [[Fraction(v) for v in row] for row in entries]
        n = len(self.entries)
        for r in range(n):
            if len(self.entries[r]) != n:
                raise NotApplicable("matrix must be square")
            if self.entries[r][r] == 0:
                raise NotApplicable("diagonal entries must be nonzero")
            for c in range(r):
                if self.entries[r][c] != 0:
                    raise NotApplicable("matrix must be upper triangular")

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        return cls([[Fraction(values[r]) if r == c else Fraction(0)
                     for c in range(n)] for r in range(n)])

    def inverse(self):
        """M^-1, column by column: the solutions of M x = e_j off one
        Reduction of M (M reduces to I, so each is unique)."""
        n = len(self.entries)
        red = linalg.Reduction(self.entries, n)
        columns = [red.solve({j: 1}) for j in range(n)]
        return ScalarTriangular(list(zip(*columns)))


def conjugate(a, c):
    """C^-1 A C; preserves the formal-connection property."""
    inv = c.inverse().entries
    ce = c.entries
    size = a.size
    if len(ce) != size:
        raise NotApplicable(f"conjugator must be {size}x{size}")
    entries = {}
    for (i, j), form in a.entries.items():     # (C^-1)_{r,i-1} a(i,j) C_{j,col}
        for r, col in iter_product(range(i), range(j, size)):
            coeff = inv[r][i - 1] * ce[j][col]
            if coeff:
                _add_piece(entries, (r + 1, col), form.scaled(coeff))
    return ConnectionMatrix.from_entries(a.alg, a.n, entries)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

TRIVIAL_WITNESS = "TrivialWitness"
NONTRIVIAL_CERTIFIED = "NonTrivialCertified"
VALUE_SET = "ValueSet"
UNDECIDED = "Undecided"


@dataclass(frozen=True)
class ValueClass:
    """Class coordinates of one value, weight slice by weight slice; frozen,
    since the indeterminacy classes of one outer pair are shared by every
    result that reads them."""

    degree: int
    entries: tuple  # ((weight, rep_index, coeff, rep_form_text), ...)

    def is_zero(self):
        return all(e[2] == 0 for e in self.entries)

    def to_json_dict(self):
        return {"degree": self.degree,
                "entries": [{"weight": w, "index": i, "coeff": str(c),
                             "representative": t} for w, i, c, t in self.entries]}


def value_class_of(g, c_form):
    """ValueClass of a closed degree-homogeneous form."""
    if c_form.is_zero():
        return ValueClass(0, ())
    return _value_class(g, c_form.degree(), class_terms(g, c_form))


def _value_class(g, degree, terms):
    """ValueClass of sum coeff * [representative (weight, index)] over the
    class-term dict {(weight, index): coeff}, in its key order."""
    return ValueClass(degree, tuple(
        (k, i, coeff, render_form(cohomology_slice(g, degree, k).representatives[i]))
        for (k, i), coeff in terms.items()))


@dataclass
class MasseyResult:
    status: str
    witness: object = None           # DefiningSystem for TrivialWitness
    value: object = None             # ValueClass of a concrete system, if any
    indeterminacy: tuple = ()        # tuple of ValueClass generators (triple)
    certificate: dict = field(default_factory=dict)
    notes: tuple = ()

    def to_json_dict(self):
        out = {"status": self.status, "notes": list(self.notes)}
        if self.witness is not None:
            out["witness"] = self.witness.matrix.render()
        if self.value is not None:
            out["value"] = self.value.to_json_dict()
        if self.indeterminacy:
            out["indeterminacy"] = [v.to_json_dict() for v in self.indeterminacy]
        if self.certificate:
            out["certificate"] = self.certificate
        return out

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _witness_result(witness, value, certificate, indeterminacy=()):
    """TrivialWitness result, built only after re-checking that the witness's
    related cocycle has a coboundary preimage."""
    internal_check(linalg.coboundary_preimage(witness.alg, related_cocycle(witness)) is not None,
                   f"{certificate['kind']} witness must have an exact related cocycle")
    return MasseyResult(TRIVIAL_WITNESS, witness=witness, value=value,
                        indeterminacy=indeterminacy, certificate=certificate)


def _require_cocycles(g, classes, message):
    """Raise NotACocycle(message) unless every class is a nonzero cocycle, and
    NotApplicable when a class has a degree-0 (scalar) part."""
    if any(a.is_zero() or not differential(g, a).is_zero() for a in classes):
        raise NotACocycle(message)
    if any(() in a.terms for a in classes):
        raise NotApplicable("Massey products need classes of positive degree")


# ---------------------------------------------------------------------------
# the parametrized solver
# ---------------------------------------------------------------------------

@dataclass
class Obstruction:
    position: tuple                  # (i, j) a-coordinates
    coordinates: dict                # {(weight, rep_index): ParamPoly}
    certified: bool                  # its affine members have no common zero


class FamilyResult:
    """Parametrized family of defining systems (or the first obstruction).

    Each entry is stored as pieces {parameter monomial: Form}: the entry is
    sum_pm pm * pieces[pm], with () the constant piece."""

    def __init__(self, alg, classes, complete):
        self.alg = alg
        self.classes = classes
        self.complete = complete
        self.entries = {}
        self.params = []             # (pid, (i, j))
        self.ok = True
        self.obstruction = None

    @property
    def n(self):
        return len(self.classes)

    def param_ids(self):
        return [pid for pid, _ in self.params]

    def substitute(self, assignment):
        """Numeric substitution -> a concrete, verified DefiningSystem: the
        constant piece of each entry of _substituted with every parameter a
        constant (a parameter missing from the assignment is 0)."""
        values = {pid: ParamPoly.const(assignment.get(pid, 0)) for pid, _ in self.params}
        zero = Form.zero(self.alg)
        return DefiningSystem(ConnectionMatrix.from_entries(self.alg, self.n, {
            key: pieces.get((), zero) for key, pieces in self._substituted(values).items()}))

    def _substituted(self, values):
        """The entries with each parameter pid in values replaced by the
        ParamPoly values[pid].  A piece whose monomial is the only one to
        land on its image, with coefficient 1, keeps its Form (a monomial
        with no pid in values is such an image of itself); a monomial that
        becomes zero drops its piece; every other new piece is summed in one
        term dict."""
        out, expansions = {}, {}
        for key, pieces in self.entries.items():
            sums = {}                # new monomial -> [(coefficient, Form)]
            for pm, form in pieces.items():
                if pm not in expansions:
                    expansions[pm] = (ParamPoly({pm: 1}).substitute(values).terms
                                      if any(pid in values for pid in pm) else {pm: 1})
                for new_pm, c in expansions[pm].items():
                    sums.setdefault(new_pm, []).append((c, form))
            out[key] = new = {}
            for pm, parts in sums.items():
                if len(parts) == 1 and parts[0][0] == 1:
                    new[pm] = parts[0][1]
                    continue
                terms = {}
                for c, form in parts:
                    for m, v in form.terms.items():
                        s = terms.get(m)
                        terms[m] = c * v if s is None else s + c * v
                if (form := Form(self.alg, terms)).terms:
                    new[pm] = form
        return out

    def verify(self):
        """Check that the residual vanishes off the corner piece by piece over
        the parameter monomials, so every substitution is a defining system;
        names the first failing entry, diagonal by diagonal.  Returns the
        related cocycle c(A) = -mu(A)(1,n) as pieces."""
        residual, corner = _residual(self.alg, self.n, self.entries), (1, self.n)
        if failing := [key for key in residual if key != corner]:
            raise UnverifiedInput("defining-system equation fails at ({},{})".format(*failing[0]))
        return {pm: -form for pm, form in residual.get(corner, {}).items()}

    def value_polynomial(self):
        """Class coordinates of the verified family's related cocycle as
        ParamPolys: {(weight, rep_index): ParamPoly}, each component closed."""
        return _class_polynomials(self.alg, self.verify())


def _class_polynomials(g, pieces):
    """The class coordinates of the closed pieces {parameter monomial: Form}
    as {(weight, rep_index): ParamPoly}, each built from one term dict."""
    coords = {}
    for pm, comp in pieces.items():
        for key, coeff in class_terms(g, comp).items():
            coords.setdefault(key, {})[pm] = coeff
    return {key: ParamPoly(terms) for key, terms in coords.items()}


def _affine_zeros(polys):
    """Every common zero of the affine ParamPolys as one substitution
    {pid: ParamPoly} of the parameters they contain: the echelon particular
    solution plus one free parameter along each kernel direction, so a free
    parameter maps to itself.  None when there is no common zero."""
    pids = sorted({p for poly in polys for p in poly.variables()})
    rows = [[poly.linear_coeff(p) for p in pids] for poly in polys]
    particular = linalg.solve(rows, [-poly.constant_term() for poly in polys])
    if particular is None:
        return None
    zeros = {pid: {(): v} for pid, v in zip(pids, particular)}
    for vec in linalg.kernel_basis(rows):
        # the free column of a reduced-echelon kernel vector is its last nonzero entry
        free = (pids[max(c for c, v in enumerate(vec) if v)],)
        for pid, v in zip(pids, vec):
            zeros[pid][free] = v
    return {pid: ParamPoly(terms) for pid, terms in zeros.items()}


def solve_defining_system(g, classes, graded=None):
    """The gauge-fixed parametrized family, built diagonal by diagonal.

    The entry at (i, j) is the coboundary preimage of each window piece plus
    one parameter per representative of the slot's slices.  An obstruction
    narrows the family to the common zeros of its affine class coordinates
    (_affine_zeros), and the window is summed again; with no such zero the
    first obstructed (i, j) is reported, with its coordinates as ParamPolys,
    certified when affine ones (a nonzero constant counts) are among them.

    Gauge lemma, in the bar convention of _residual: for B with one entry b
    above the second diagonal, off the corner, and U = 1 + B, the transform
    A^U = A + dB - bar(B).A - A.B has mu(A^U) = mu(A) + B.mu(A) - mu(A).B,
    which is mu(A) when mu(A) lives at the corner.  A^U adds db at b's slot
    and changes only higher diagonals otherwise; dropping its corner entry
    adds an exact form to the related cocycle.  So, slot by slot, a free
    part sum c.rep + db becomes sum c.rep: the family reaches every
    related-cocycle class the full-cocycle family reaches, and complete
    means what it meant there.

    The n = 3 completeness lemma, for weight-homogeneous classes over any
    N-graded algebra: the windows at (1, 2) and (2, 3) are homogeneous, and
    the corner bar(a1).A(2,3) + bar(A(1,2)).a3 is linear in the off-diagonal
    entries, so projecting each entry to its own weight turns any defining
    system into a graded one.  Its corner is the weight-W part of the old
    corner, and a trivial system stays trivial: the graded n = 3 family is
    complete on every graded algebra.
    """
    classes = list(classes)
    n = len(classes)
    if n < 2:
        raise NotApplicable("need at least 2 classes")
    if any(a.alg is not g and a.alg != g for a in classes):
        raise NotApplicable("class ambient mismatch")
    _require_cocycles(g, classes, "product classes must be nonzero cocycles")
    degrees = [a.degree() for a in classes]
    homogeneous = all(len(a.weights()) == 1 for a in classes)
    if graded is None:
        graded = homogeneous
    if graded and not homogeneous:
        raise NotApplicable("graded search requires weight-homogeneous classes")
    weights_max = [max(a.weights()) for a in classes]
    total_weight = sum(weights_max)
    if total_weight > g.cutoff:
        raise CutoffTooSmall(total_weight, g.cutoff, "defining system")

    all_degree_one = all(d == 1 for d in degrees)
    complete = (all_degree_one and not graded) or (graded and (n == 3 or is_m0_like(g)))
    fam = FamilyResult(g, classes, complete)

    for i in range(1, n + 1):
        fam.entries[(i, i)] = {(): classes[i - 1]}

    for s in range(1, n - 1):        # the last diagonal is the corner, kept zero
        for i in range(1, n - s + 1):
            j = i + s
            entry_degree = sum(degrees[r - 1] - 1 for r in range(i, j + 1)) + 1
            while True:
                pieces, bad = {}, {}
                for pm, comp in sorted(_window_sum(fam.entries, i, j).items()):
                    preimage = linalg.coboundary_preimage(g, comp)
                    if preimage is None:
                        bad[pm] = comp
                    else:
                        pieces[pm] = preimage
                if not bad:
                    break
                coords = _class_polynomials(g, bad)
                # the substitution covers every common zero of the affine
                # members and removes at least one parameter
                affine = [poly for poly in coords.values() if poly.is_affine()]
                zeros = _affine_zeros(affine) if affine else None
                if not zeros:
                    fam.ok = False
                    fam.obstruction = Obstruction((i, j), coords, bool(affine) and zeros is None)
                    return fam
                fam.entries = fam._substituted(zeros)
            kernel_weights = ([sum(weights_max[i - 1:j])] if graded
                              else range(1, min(g.cutoff, total_weight) + 1))
            for k in kernel_weights:
                for rep in cohomology_slice(g, entry_degree, k).representatives:
                    pieces[(len(fam.params),)] = rep
                    fam.params.append((len(fam.params), (i, j)))
            fam.entries[(i, j)] = pieces
    return fam


# ---------------------------------------------------------------------------
# triple products (exact)
# ---------------------------------------------------------------------------

def triple_product(g, a, b, c):
    """Exact triple Massey product <[a],[b],[c]>.

    a(1,2) and a(2,3) are the coboundary preimages of their windows
    bar(a) b and bar(b) c, and the value is the corner window
    bar(a) a(2,3) + bar(a(1,2)) c.  Returns a MasseyResult carrying that
    value class, the indeterminacy subspace basis, and the exact decision
    whether 0 lies in the affine set.  Raises MasseyNotDefined when [a][b]
    or [b][c] is nonzero.  The indeterminacy depends only on a, c and the
    target slice (see _indeterminacy), so each triple solves once against it.
    """
    _require_cocycles(g, (a, b, c), "triple product needs nonzero cocycles")
    p, q, r = a.degree(), b.degree(), c.degree()
    total_weight = max(a.weights()) + max(b.weights()) + max(c.weights())
    if total_weight > g.cutoff:
        raise CutoffTooSmall(total_weight, g.cutoff, "triple product")
    entries = {(1, 1): {(): a}, (2, 2): {(): b}, (3, 3): {(): c}}
    for slot, message in (((1, 2), "[a][b] is not exact"), ((2, 3), "[b][c] is not exact")):
        if window := _window_sum(entries, *slot):
            preimage = linalg.coboundary_preimage(g, window[()])
            if preimage is None:
                raise MasseyNotDefined(slot, message)
            entries[slot] = {(): preimage}
    corner = _window_sum(entries, 1, 3)
    value_form = corner[()] if corner else Form.zero(g)
    target_degree = p + q + r - 1
    # the refusal above keeps the target slice within the cutoff
    gen_forms, rows, span, indet_classes = _indeterminacy(
        g, cohomology_slice(g, target_degree, total_weight), a, c)
    value_terms = class_terms(g, value_form)
    # a class that no generator touches lies outside the span; otherwise the
    # echelon particular solution, all zero for a zero value
    coeffs = (span.solve({rows[key]: -v for key, v in value_terms.items()})
              if value_terms.keys() <= rows.keys() else None)
    value_cls = _value_class(g, target_degree, value_terms)

    if coeffs is not None:
        for coeff, (slot, sign, h) in zip(coeffs, gen_forms):
            if coeff:
                _add_piece(entries.setdefault(slot, {}), (), (coeff if sign > 0 else -coeff) * h)
        system = ConnectionMatrix.from_entries(
            g, 3, {key: pieces[()] for key, pieces in entries.items()})
        return _witness_result(DefiningSystem(system), value_cls,
                               {"kind": "exact-affine-triple"}, indet_classes)
    return MasseyResult(NONTRIVIAL_CERTIFIED, value=value_cls,
                        indeterminacy=indet_classes,
                        certificate={"kind": "exact-affine-triple",
                                     "detail": "0 is not in the affine value set"})


def _indeterminacy(g, target, a, c):
    """(generators, rows, span, classes): the indeterminacy
    [a] H^{q+r-1} + H^{p+q-1} [c] of <[a], [b], [c]> in its target slice
    (degree p+q+r-1, weight wa+wb+wc), which fixes q and wb given a and c;
    built on the first query of the outer pair and kept in
    target.indeterminacies, keyed by Form equality.

    The generators (slot, sign, h) are [a ^ h'] for representatives h' of
    degree q+r-1 at a(2,3) and [h ^ c] for h of degree p+q-1 at a(1,2).  In
    c(A) they enter as bar(a) h' and bar(h) c, so each keeps the bar sign of
    its slot in the witness.  A generator of weight up to wa+wb+wc - min_wt(a)
    can still land inside the value weights through the low-weight part of a
    (and symmetrically for c).  Its class is read off the cup-product tables
    of the slices of [a] or [c], since the class of a ^ h' is bilinear in [a]
    and [h'].  span is the Reduction of the matrix with a column per
    generator and a row per class that occurs ((weight, index) ascending,
    rows maps each to its row); its pivots are the generators a greedy span
    test keeps, and classes are their ValueClasses.
    """
    entry = target.indeterminacies.get((a, c))
    if entry is not None:
        return entry
    p, r = a.degree(), c.degree()
    q = target.q - p - r + 1
    gen_forms, gen_terms = [], []
    # target.k is within the cutoff, so every generator slice below is too
    for slot, sign, degree, outer, outer_degree in (((2, 3), (-1) ** (p + 1), q + r - 1, a, p),
                                                    ((1, 2), (-1) ** (p + q), p + q - 1, c, r)):
        # a weight where the class of outer vanishes adds nothing, and its
        # table may lie past the cutoff
        outer_slices = [(cohomology_slice(g, outer_degree, k), coords)
                        for k, coords in class_coordinates_form(g, outer).items() if any(coords)]
        for weight in range(1, target.k - min(outer.weights()) + 1):
            reps = representatives(g, degree, weight)
            if reps:
                gen_forms += [(slot, sign, h) for h in reps]
                gen_terms += _generator_terms(outer_slices, cohomology_slice(g, degree, weight),
                                              slot == (2, 3))
    rows = {key: i for i, key in enumerate(sorted({key for terms in gen_terms for key in terms}))}
    matrix = [{} for _ in rows]
    for j, terms in enumerate(gen_terms):
        for key, v in terms.items():
            matrix[rows[key]][j] = v
    span = linalg.Reduction(matrix, len(gen_terms))
    classes = tuple(_value_class(g, target.q, dict(sorted(gen_terms[j].items())))
                    for j in span.pivots)
    entry = target.indeterminacies[(a, c)] = gen_forms, rows, span, classes
    return entry


def _generator_terms(outer_slices, h_slice, outer_left):
    """class_terms of outer ^ h (outer_left) or h ^ outer for each
    representative h of h_slice.  outer_slices pairs each weight slice of a
    cocycle outer with its class coordinates there, and each result sums the
    cup-product table entries weighted by those coordinates."""
    sums = [{} for _ in h_slice.representatives]
    for slc, coords in outer_slices:
        table = slc.product_terms(h_slice) if outer_left else h_slice.product_terms(slc)
        for (i, j), entry in table.items():
            x = coords[i] if outer_left else coords[j]
            if x:
                acc = sums[j if outer_left else i]
                for key, v in entry.items():
                    acc[key] = acc.get(key, 0) + x * v
    return [{key: v for key, v in acc.items() if v} for acc in sums]


# ---------------------------------------------------------------------------
# products of 1-classes over m0: the graded thread-module decision
# ---------------------------------------------------------------------------

def pairs_of_one_classes(classes):
    """Extract (alpha_i, beta_i) with class_i = alpha e^1 + beta e^2, or None."""
    pairs = []
    for cl in classes:
        if cl.degrees() not in ([1],):
            return None
        extra = [m for m in cl.terms if m not in ((1,), (2,))]
        if extra:
            return None
        pairs.append((cl.terms.get((1,), Fraction(0)), cl.terms.get((2,), Fraction(0))))
    return pairs


def thread_connection(g, pairs):
    """The unique graded thread-module candidate for the second diagonal
    alpha_i e^1 + beta_i e^2, as a connection of 1-forms: a(i,j) =
    c(i,j) e^{j-i+2} above the diagonal, with c(i,i) = beta_i and
    c(i,j) = alpha_i c(i+1,j) - c(i,j-1) alpha_j.  This is
    rho(e_{k+1}) = [rho(e1), rho(e_k)] written on the superdiagonals.

    Its Maurer-Cartan residual decides the product (associated-graded
    representation argument: any defining system of 1-forms degrades to this
    candidate): defined iff it vanishes off the corner, trivial iff it
    vanishes.  Raises CutoffTooSmall at a generator it needs that g lacks."""
    n = len(pairs)
    alpha = [Fraction(a) for a, _ in pairs]
    c = {(i, i): Fraction(b) for i, (_, b) in enumerate(pairs, 1)}
    entries = {(i, i): Form(g, {(1,): alpha[i - 1], (2,): c[(i, i)]}) for i in range(1, n + 1)}
    for s in range(1, n):
        for i in range(1, n - s + 1):
            j = i + s
            c[(i, j)] = coeff = alpha[i - 1] * c[(i + 1, j)] - c[(i, j - 1)] * alpha[j - 1]
            if coeff:
                if not g.has_index(s + 2):
                    raise CutoffTooSmall(s + 2, g.cutoff, "thread witness")
                entries[(i, j)] = Form(g, {(s + 2,): coeff})
    return ConnectionMatrix.from_entries(g, n, entries)


def _one_class_result(g, classes, pairs):
    total_weight = sum(max(cl.weights()) for cl in classes)
    if total_weight > g.cutoff:
        raise CutoffTooSmall(total_weight, g.cutoff, "thread witness")
    n = len(pairs)
    conn = thread_connection(g, pairs)
    system = DefiningSystem(conn.with_entry(1, n, Form.zero(g)), verify=False)
    # e^a^e^b (1 < a < b) has coefficient -[rho(e_a), rho(e_b)]; a window
    # is the 1-based matrix position (i, j+1) of a(i, j)
    off_corner = [(mono, (i, j + 1)) for (i, j), form in system.residual.entries.items()
                  if (i, j) != (1, n) for mono in form.terms]
    if off_corner:
        (a, b), position = min(off_corner)
        raise MasseyNotDefined(position, "graded thread candidate obstructed off-corner at "
                                         f"{position} (relation [e{a},e{b}])")
    cocycle = related_cocycle(system.verify())
    value = value_class_of(g, cocycle)
    corner = differential(g, conn.corner()) - cocycle      # mu of the candidate at the corner
    if corner.is_zero():
        return _witness_result(system, value, {"kind": "graded-thread-module",
                                               "corner": render_form(conn.corner())})
    internal_check(not value.is_zero(), "corner violations must give a nonzero class")
    violations = [f"[e{a},e{b}] -> {-v}" for (a, b), v in sorted(corner.terms.items())]
    return MasseyResult(
        NONTRIVIAL_CERTIFIED, witness=None, value=value,
        certificate={"kind": "graded-thread-module", "violations": violations,
                     "detail": "no thread module carries the prescribed diagonal"})


# ---------------------------------------------------------------------------
# general evaluation
# ---------------------------------------------------------------------------

GRID_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
               Fraction(-1, 2), Fraction(2), Fraction(-2))


def evaluate_product(g, classes, budget=2000, samples=100, seed=0):
    """Evaluate the n-fold Massey product of the given cocycles.

    Exact for n = 2, n = 3 and for products of 1-classes over an m0-type
    algebra; otherwise works through the gauge-fixed family (exact affine
    solve, bounded grid search, sampling certificate, honest Undecided).
    Raises MasseyNotDefined when the product is not defined, on the family
    path only for a certified obstruction of a complete family; any other
    obstruction is Undecided, its notes naming the position.  Raises
    UsageError for budget < 0 (the number of grid systems tried) or
    samples < 1, whether or not the grid or the sampling rung is reached.
    """
    if budget < 0:
        raise UsageError(f"a grid search needs budget >= 0, got {budget}")
    _require_samples(samples)
    classes = list(classes)
    n = len(classes)
    if n < 2:
        raise NotApplicable("need at least 2 classes")
    _require_cocycles(g, classes, "all product classes must be nonzero cocycles")
    if n == 2:
        system = DefiningSystem(ConnectionMatrix.from_entries(
            g, 2, {(1, 1): classes[0], (2, 2): classes[1]}))
        value = value_class_of(g, related_cocycle(system))
        if value.is_zero():
            return _witness_result(system, value, {"kind": "direct-product"})
        return MasseyResult(NONTRIVIAL_CERTIFIED, value=value,
                            certificate={"kind": "direct-product"})
    if n == 3:
        return triple_product(g, *classes)
    pairs = pairs_of_one_classes(classes) if is_m0_like(g) else None
    if pairs is not None:
        return _one_class_result(g, classes, pairs)

    # the ungraded family over degree-1 classes is complete (closed 1-forms
    # exhaust the entry freedom), so prefer it for decisions
    graded = False if all(cl.degree() == 1 for cl in classes) else None
    fam = solve_defining_system(g, classes, graded=graded)
    notes = []
    if not fam.ok:
        position = fam.obstruction.position
        if fam.complete and fam.obstruction.certified:
            raise MasseyNotDefined(position, f"defining system obstructed at {position}")
        return MasseyResult(UNDECIDED, notes=(f"family obstructed at {position}", (
            "nonlinear obstruction; the product may be defined" if fam.complete
            else "family not known complete; product may still be defined")))

    corner = _window_sum(fam.entries, 1, n)
    coords = _class_polynomials(g, corner)
    base_value = value_class_of(g, corner.get((), Form.zero(g)))

    if not coords:
        return _witness_result(fam.substitute({}), base_value,
                               {"kind": "identically-zero-class"})

    if fam.complete:
        for key, poly in sorted(coords.items()):
            if poly.is_constant() and poly.constant_term() != 0:
                return MasseyResult(
                    NONTRIVIAL_CERTIFIED, value=base_value,
                    certificate={"kind": "constant-coordinate",
                                 "weight": key[0], "index": key[1],
                                 "coefficient": str(poly.constant_term()),
                                 "detail": "coordinate independent of all free "
                                           "parameters over the complete family"})

    if all(poly.is_affine() for poly in coords.values()):
        zeros = _affine_zeros(list(coords.values()))
        if zeros is not None:       # the zero with every free parameter 0
            assignment = {pid: poly.constant_term() for pid, poly in zeros.items()}
            return _witness_result(fam.substitute(assignment), base_value,
                                   {"kind": "exact-affine-family"})
        if fam.complete:
            return MasseyResult(NONTRIVIAL_CERTIFIED, value=base_value,
                                certificate={"kind": "exact-affine-family",
                                             "detail": "affine system has no zero"})
        notes.append("affine over an incomplete family: no witness found")

    witness = _grid_search(fam, coords, budget)
    if witness is not None:
        return _witness_result(witness, base_value, {"kind": "grid-witness"})

    cert = leading_coefficient_certificate(g, classes, samples=samples, seed=seed)
    if cert is not None:
        return MasseyResult(NONTRIVIAL_CERTIFIED, value=base_value, certificate=cert,
                            notes=tuple(notes))
    status = VALUE_SET if fam.complete else UNDECIDED
    notes.append("value coordinates are polynomial in "
                 f"{len(fam.params)} parameters; no decision reached")
    return MasseyResult(status, value=base_value, notes=tuple(notes))


def _grid_search(fam, coords, budget):
    """The first of `budget` grid systems whose value class is zero (so exact;
    _witness_result re-checks that), or None."""
    pids = sorted({p for poly in coords.values() for p in poly.variables()})
    if not pids:
        return None
    for combo in islice(iter_product(GRID_VALUES, repeat=len(pids)), budget):
        assignment = dict(zip(pids, combo))
        if all(poly.evaluate(assignment) == 0 for poly in coords.values()):
            return fam.substitute(assignment)
    return None


# ---------------------------------------------------------------------------
# explicit paper systems and the sampling certificate
# ---------------------------------------------------------------------------

def _paper_entries(g, n):
    """Entries of an n-fold paper system before its last column: e^{s+1} with
    sign (-1)^{s+1} at a(1, s) and e^1 at a(i, i) for 1 < i < n."""
    entries = {(1, s): Form.generator(g, s + 1, 1 if s % 2 else -1)
               for s in range(1, n)}
    return entries | {(i, i): Form.generator(g, 1) for i in range(2, n)}


def paper_connection_two_e2(g, k):
    """The explicit defining system for <e^2, e^1, ..., e^1, e^2> with 2k-3
    middle classes: alternating powers along the first row, e^1 on the
    superdiagonal, descending powers down the last column.

    The displayed source pattern stops the first row at e^{k+1}; the defining
    equations force the alternation to continue through e^{2k-1}, which is
    what this constructor produces (they agree at k = 2).
    """
    if k < 2:
        raise NotApplicable("need k >= 2")
    n = 2 * k - 1
    if g.cutoff < 2 * k + 1:
        raise CutoffTooSmall(2 * k + 1, g.cutoff, "two-e2 connection")
    entries = _paper_entries(g, n)
    for s in range(2, n + 1):              # s = n puts e^2 at a(n, n)
        entries[(s, n)] = Form.generator(g, 2 * k + 1 - s)
    return DefiningSystem(ConnectionMatrix.from_entries(g, n, entries))


def paper_connection_main(g, i1, tail):
    """Defining system for <e^2, e^1, ..., e^1, omega(tail)> with i1 - 2
    middle e^1 classes: alternating powers along the first row, e^1 on the
    superdiagonal, D_{-1} iterates of omega(tail) down the last column.

    Its related cocycle is (-1)^{i1} omega([i1] + tail)."""
    tail = list(tail)
    if i1 < 2 or not tail or i1 >= tail[0]:
        raise NotApplicable("need 2 <= i1 < first tail index")
    power = omega(g, tail)
    n = i1
    entries = _paper_entries(g, n)
    for s in range(n, 1, -1):
        entries[(s, n)] = power
        if s > 2:
            power = Dm1(power)
    return DefiningSystem(ConnectionMatrix.from_entries(g, n, entries))


def _main_shape(g, classes):
    """Detect <e^2, e^1, ..., e^1, omega(tail)>; returns (i1, tail) or None,
    always None off the m0 truncation, where omega is not defined."""
    if not is_m0(g) or len(classes) < 2:
        return None
    e2 = Form.generator(g, 2)
    e1 = Form.generator(g, 1)
    if classes[0] != e2:
        return None
    for middle in classes[1:-1]:
        if middle != e1:
            return None
    last = classes[-1]
    if last.is_zero() or len(last.weights()) != 1 or len(last.degrees()) != 1:
        return None
    q = last.degree()
    if q < 2:
        return None
    for idx in omega_index_lists(q - 1, last.weights()[0]):
        if omega(g, idx) == last:
            i1 = len(classes)
            if i1 < idx[0]:
                return i1, idx
    return None


def _require_samples(samples):
    if samples < 1:
        raise UsageError(f"a sampling certificate needs samples >= 1, got {samples}")


def leading_coefficient_certificate(g, classes, samples=100, seed=0):
    """Sampling certificate for <e^2, e^1, ..., e^1, omega(tail)> shapes.

    Verifies the graded defining-system family once, identically in its
    parameters, and reads each random rational sample off the value
    polynomial: no sampled class may be zero, and its coordinate on the
    representative omega([i1] + tail) must equal (-1)^i1.  Returns the
    certificate record, or None when the shape does not apply or a sample fails.

    The residual freedom e^1 ^ Omega of an arbitrary system is only sampled,
    not proved away; the certificate records this caveat.  Raises UsageError
    for samples < 1: a certificate needs at least one sample.
    """
    _require_samples(samples)
    shape = _main_shape(g, classes)
    if shape is None:
        return None
    i1, tail = shape
    target = omega(g, [i1] + list(tail))
    target_weight = omega_weight([i1] + list(tail))
    target_degree = target.degree()
    reps = cohomology_slice(g, target_degree, target_weight).representatives
    if target not in reps:
        return None
    rep_index = reps.index(target)
    expected = Fraction((-1) ** i1)

    fam = solve_defining_system(g, classes, graded=True)
    if not fam.ok:
        return None
    coords = fam.value_polynomial()
    target_poly = coords.get((target_weight, rep_index), ParamPoly())
    rng = random.Random(seed)
    pids = fam.param_ids()
    sampled = []
    for _ in range(samples):
        assignment = {pid: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for pid in pids}
        if not any(poly.evaluate(assignment) for poly in coords.values()):
            return None
        if target_poly.evaluate(assignment) != expected:
            return None
        sampled.append({pid: str(v) for pid, v in assignment.items()})
    return {"kind": "leading-coefficient",
            "shape": {"i1": i1, "tail": list(tail)},
            "coefficient": str(expected),
            "representative": render_form(target),
            "samples": samples, "seed": seed,
            "assignments": sampled[:5],
            "notes": "the e^1^Omega freedom of arbitrary systems is sampled, "
                     "not excluded symbolically"}


# ---------------------------------------------------------------------------
# classification of trivial products of 1-classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationTag:
    kind: str                      # A, B, C, D, NotTrivial, NotDefined, Decomposable
    params: tuple = ()

    def to_json_dict(self):
        return {"kind": self.kind,
                "params": [str(p) for p in self.params]}

    def __str__(self):
        if self.kind in ("NotTrivial", "NotDefined", "Decomposable"):
            return self.kind
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"


def _triple_criterion(p1, p2, p3):
    """beta1 (a2 b3 - a3 b2) - beta3 (a1 b2 - a2 b1); zero iff trivial."""
    (a1, b1), (a2, b2), (a3, b3) = p1, p2, p3
    return b1 * (a2 * b3 - a3 * b2) - b3 * (a1 * b2 - a2 * b1)


def _projectively_equal(p, q):
    return p[0] * q[1] - p[1] * q[0] == 0


def _match_table(pairs):
    """Match the classification table up to per-class scaling; returns a tag
    for rows A, B, C, D, or None, as for a triple that fails the criterion."""
    n = len(pairs)
    if n == 3 and _triple_criterion(*pairs) != 0:
        return None
    first = pairs[0]
    if all(_projectively_equal(first, p) for p in pairs[1:]):
        lam = (Fraction(*first), Fraction(1)) if first[1] != 0 \
            else (Fraction(1), Fraction(0))
        return ClassificationTag("A", lam)
    if all(b != 0 for _, b in pairs):
        lam = [Fraction(a, b) for a, b in pairs]
        diffs = {lam[i + 1] - lam[i] for i in range(n - 1)}
        if len(diffs) == 1:
            alpha = diffs.pop()
            if alpha != 0:
                beta = lam[0] - alpha
                return ClassificationTag("B", (alpha, beta))
        return None
    e1_positions = [i for i, (a, b) in enumerate(pairs) if b == 0]
    special = [i for i in range(n) if i not in e1_positions]
    if len(special) == 1:
        s = special[0]
        alpha = Fraction(*pairs[s])
        return ClassificationTag("C", (s, alpha))
    if (len(special) == 2 and special == [0, n - 1] and n >= 4 and n % 2 == 0):
        alpha = Fraction(*pairs[0])
        beta = Fraction(*pairs[-1])
        return ClassificationTag("D", (alpha, beta))
    return None


def classify_trivial_ones(pairs):
    """Classify <a_1 e^1 + b_1 e^2, ...> by the table recursion: the triple
    criterion at every window, table pattern matching (A: equal classes,
    B: arithmetic progression, C: single e^2-type class, D: matched ends
    with an even run of e^1), and window analysis for NotDefined."""
    pairs = [(Fraction(a), Fraction(b)) for a, b in pairs]
    n = len(pairs)
    if n < 3:
        raise NotApplicable("classification needs n >= 3")
    for a, b in pairs:
        if a == 0 and b == 0:
            raise NotACocycle("zero class in product")
    # proper windows must be trivial for the product to be defined; by
    # induction on length, a window is trivial when the table matches every
    # window in it, so each window is matched once, shortest first
    for length in range(3, n):
        if any(_match_table(pairs[s:s + length]) is None for s in range(n - length + 1)):
            return ClassificationTag("NotDefined")
    tag = _match_table(pairs)
    return tag if tag is not None else ClassificationTag("NotTrivial")


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def parse_product(g, text):
    """Product mini-language: form expressions separated by ';'."""
    chunks = [c.strip() for c in text.split(";")]
    if any(not c for c in chunks):
        raise AlgebraFormatError(0, "empty class in product expression")
    return [parse_form(g, c) for c in chunks]


def sized_file_lines(text, keyword):
    """Lazily read a file of '<keyword> n=<n>' headers (n a nonnegative
    integer) and '<head> = <rhs>' entry lines; '#' starts a comment.

    Yields (line_no, n, None, None) for the header and (line_no, n, head, rhs)
    for each entry.  A bad or second header, an entry before the header and a
    missing header raise AlgebraFormatError when the reader reaches them, so
    errors come in file order."""
    missing = f"missing '{keyword} n=<n>' header"
    n = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(keyword):
            if n is not None:
                raise AlgebraFormatError(line_no, f"second '{keyword} n=<n>' header")
            body = line[len(keyword):].strip()
            try:
                n = int(body[2:]) if body.startswith("n=") else -1
            except ValueError:
                n = -1
            if n < 0:
                raise AlgebraFormatError(line_no, f"expected '{keyword} n=<n>' with a "
                                                  f"nonnegative integer n, got {line!r}")
            yield line_no, n, None, None
        elif n is None:
            raise AlgebraFormatError(line_no, missing)
        else:
            head, _, rhs = line.partition("=")
            yield line_no, n, head.strip(), rhs.strip()
    if n is None:
        raise AlgebraFormatError(0, missing)


def parse_connection(g, text):
    """Connection matrix file:

        connection n=<n>
        (i,j) = <form>        # 1-based matrix coordinates, i < j
    """
    entries = {}
    for line_no, n, head, rhs in sized_file_lines(text, "connection"):
        if head is None:
            continue
        if not (head.startswith("(") and head.endswith(")")):
            raise AlgebraFormatError(line_no, f"bad entry key {head!r}")
        try:
            i_s, j_s = head[1:-1].split(",")
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise AlgebraFormatError(line_no, f"bad entry key {head!r}") from None
        if not (1 <= i < j <= n + 1):
            raise AlgebraFormatError(line_no, f"entry ({i},{j}) outside the matrix")
        if (i, j - 1) in entries:
            raise AlgebraFormatError(line_no, f"second entry ({i},{j})")
        try:
            entries[(i, j - 1)] = parse_form(g, rhs)
        except AlgebraFormatError as exc:
            raise AlgebraFormatError(line_no, exc.message) from None
    return ConnectionMatrix.from_entries(g, n, entries)
