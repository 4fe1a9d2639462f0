"""Formal connections and n-fold Massey products.

A connection matrix is a strictly upper triangular (n+1) x (n+1) matrix of
forms; it is a formal connection when the Maurer-Cartan residual
mu(A) = dA - bar(A).A is supported in the one-dimensional center (the
corner).  Defining systems fix the corner to zero, so the corner residual is
exactly -c(A) with c(A) = sum_r bar(a(1,r)) a(r+1,n) the related cocycle.

Entry coordinates: a(i,j) for 1 <= i <= j <= n denotes the window of classes
i..j and sits at matrix position [i-1][j] (0-based).  The second diagonal
a(i,i) carries the given cocycles.

Triviality decisions are exact for n = 3 (affine geometry of the triple
value set) and for products of 1-classes over an m0-type algebra (existence
of the unique graded thread-module candidate, checked off-corner for
definedness and at the corner for triviality).  Otherwise the parametrized
defining-system family is solved diagonal by diagonal; the related-cocycle
class is a polynomial in the free parameters and the decision hierarchy is:
exact linear solve when the dependence is affine, bounded grid search for
witnesses, sampling certificates for the explicit omega-tail shapes, and an
honest Undecided otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product

from . import linalg
from .algebra import is_m0_like
from .cohomology import class_terms, cohomology_slice, representatives
from .errors import (AlgebraFormatError, CutoffTooSmall, MasseyNotDefined,
                     NotACocycle, NotApplicable, UnverifiedInput, internal_check)
from .forms import Form, bar, differential, parse_form, render_form, wedge
from .params import ParamPoly


# ---------------------------------------------------------------------------
# connection matrices
# ---------------------------------------------------------------------------

class ConnectionMatrix:
    """Strictly upper triangular matrix of forms over one algebra."""

    __slots__ = ("alg", "n", "rows")

    def __init__(self, alg, n, rows=None):
        self.alg = alg
        self.n = n
        size = n + 1
        if rows is None:
            rows = [[Form.zero(alg) for _ in range(size)] for _ in range(size)]
        self.rows = rows
        for r in range(size):
            for c in range(r + 1):
                if not rows[r][c].is_zero():
                    raise NotApplicable("matrix must be strictly upper triangular")

    @property
    def size(self):
        return self.n + 1

    def entry(self, i, j):
        """a(i, j): window classes i..j, 1-based."""
        return self.rows[i - 1][j]

    def with_entry(self, i, j, form):
        rows = [list(r) for r in self.rows]
        rows[i - 1][j] = form
        return ConnectionMatrix(self.alg, self.n, rows)

    def second_diagonal(self):
        return [self.entry(i, i) for i in range(1, self.n + 1)]

    def corner(self):
        return self.rows[0][self.n]

    def render(self):
        return [[render_form(e) for e in row] for row in self.rows]

    def __eq__(self, other):
        return (isinstance(other, ConnectionMatrix) and self.alg == other.alg
                and self.n == other.n and self.rows == other.rows)


def _zero_rows(alg, size):
    return [[Form.zero(alg) for _ in range(size)] for _ in range(size)]


def msub(a, b):
    rows = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    return ConnectionMatrix(a.alg, a.n, rows)


def mmul(a, b):
    size = a.size
    rows = _zero_rows(a.alg, size)
    for r in range(size):
        for k in range(r + 1, size):
            left = a.rows[r][k]
            if left.is_zero():
                continue
            for c in range(k + 1, size):
                right = b.rows[k][c]
                if right.is_zero():
                    continue
                rows[r][c] = rows[r][c] + wedge(left, right)
    return ConnectionMatrix(a.alg, a.n, rows)


def mbar(a):
    return ConnectionMatrix(a.alg, a.n, [[bar(e) for e in row] for row in a.rows])


def mdiff(a):
    g = a.alg
    return ConnectionMatrix(g, a.n, [[differential(g, e) for e in row] for row in a.rows])


def mc_residual(a):
    """mu(A) = dA - bar(A).A, entrywise."""
    return msub(mdiff(a), mmul(mbar(a), a))


def is_formal_connection(a):
    """(yes/no, corner residual tau).  Yes iff the residual vanishes outside
    the corner; tau is then closed."""
    res = mc_residual(a)
    size = a.size
    for r in range(size):
        for c in range(size):
            if (r, c) == (0, size - 1):
                continue
            if not res.rows[r][c].is_zero():
                return False, res.rows[0][size - 1]
    return True, res.rows[0][size - 1]


# ---------------------------------------------------------------------------
# defining systems
# ---------------------------------------------------------------------------

class DefiningSystem:
    """Connection matrix with zero corner and prescribed second diagonal."""

    def __init__(self, matrix, verify=True):
        self.matrix = matrix
        if not matrix.corner().is_zero():
            raise NotApplicable("defining system must have a zero corner entry")
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
        ok, _tau = is_formal_connection(self.matrix)
        if not ok:
            raise UnverifiedInput("defining-system equations fail")
        for a in self.classes():
            if not differential(self.alg, a).is_zero():
                raise UnverifiedInput("second-diagonal entry is not closed")
        self.verified = True
        return self

    def window(self, l, q):
        """Sub defining system for classes l..q together with its corner
        entry a(l, q) from the ambient matrix (a trivialization witness)."""
        m = q - l + 1
        rows = _zero_rows(self.alg, m + 1)
        for i in range(l, q + 1):
            for j in range(i, q + 1):
                if (i, j) != (l, q):
                    rows[i - l][j - l + 1] = self.matrix.entry(i, j)
        sub = DefiningSystem(ConnectionMatrix(self.alg, m, rows))
        return sub, self.matrix.entry(l, q)


def _window_sum(g, entry, i, j):
    """sum_{r=i}^{j-1} bar(a(i,r)) a(r+1,j) for the entries a(i, j) = entry(i, j)."""
    total = Form.zero(g)
    for r in range(i, j):
        left = entry(i, r)
        right = entry(r + 1, j)
        if left.is_zero() or right.is_zero():
            continue
        total = total + wedge(bar(left), right)
    return total


def related_cocycle(system):
    """c(A) = sum_{r=1}^{n-1} bar(a(1,r)) a(r+1,n); closed of degree p(1,n)+2."""
    if not getattr(system, "verified", False):
        raise UnverifiedInput("defining system must be verified first")
    m = system.matrix
    return _window_sum(m.alg, m.entry, 1, m.n)


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
        n = len(self.entries)
        inv = [[Fraction(0)] * n for _ in range(n)]
        for col in range(n):
            x = [Fraction(0)] * n
            x[col] = Fraction(1)
            for r in reversed(range(col + 1)):
                acc = x[r]
                for c in range(r + 1, n):
                    acc -= self.entries[r][c] * inv[c][col]
                inv[r][col] = acc / self.entries[r][r]
        return ScalarTriangular(inv)


def conjugate(a, c):
    """C^-1 A C; preserves the formal-connection property."""
    inv = c.inverse().entries
    ce = c.entries
    size = a.size
    if len(ce) != size:
        raise NotApplicable(f"conjugator must be {size}x{size}")
    tmp = [[Form.zero(a.alg) for _ in range(size)] for _ in range(size)]
    for r in range(size):
        for k in range(size):
            if inv[r][k] == 0:
                continue
            for col in range(size):
                e = a.rows[k][col]
                if not e.is_zero():
                    tmp[r][col] = tmp[r][col] + e.scaled(inv[r][k])
    rows = [[Form.zero(a.alg) for _ in range(size)] for _ in range(size)]
    for r in range(size):
        for k in range(size):
            e = tmp[r][k]
            if e.is_zero():
                continue
            for col in range(size):
                if ce[k][col] != 0:
                    rows[r][col] = rows[r][col] + e.scaled(ce[k][col])
    return ConnectionMatrix(a.alg, a.n, rows)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

TRIVIAL_WITNESS = "TrivialWitness"
NONTRIVIAL_CERTIFIED = "NonTrivialCertified"
VALUE_SET = "ValueSet"
UNDECIDED = "Undecided"


@dataclass
class ValueClass:
    """Class coordinates of one value, weight slice by weight slice."""

    degree: int
    entries: tuple  # ((weight, rep_index, coeff, rep_form_text), ...)

    def is_zero(self):
        return all(e[2] == 0 for e in self.entries)

    def coefficient_on(self, weight, rep_index):
        for w, i, c, _ in self.entries:
            if (w, i) == (weight, rep_index):
                return c
        return Fraction(0)

    def to_json_dict(self):
        return {"degree": self.degree,
                "entries": [{"weight": w, "index": i, "coeff": str(c),
                             "representative": t} for w, i, c, t in self.entries]}


def value_class_of(g, c_form):
    """ValueClass of a closed degree-homogeneous form."""
    if c_form.is_zero():
        return ValueClass(0, ())
    q = c_form.degree()
    return ValueClass(q, tuple(
        (k, i, coeff, render_form(cohomology_slice(g, q, k).representatives[i]))
        for (k, i), coeff in class_terms(g, c_form).items()))


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


# ---------------------------------------------------------------------------
# the parametrized solver
# ---------------------------------------------------------------------------

def _lift(form):
    return Form(form.alg, {m: ParamPoly.const(c) for m, c in form.terms.items()})


def _split_by_param(form):
    """PForm -> {param monomial: Form with Fraction coefficients}."""
    out = {}
    for mono, poly in form.terms.items():
        if isinstance(poly, Fraction):
            poly = ParamPoly.const(poly)
        for pm, c in poly.terms.items():
            out.setdefault(pm, {})[mono] = c
    return {pm: Form(form.alg, terms) for pm, terms in out.items()}


def _substitute_form(form, assignment, numeric=False):
    terms = {}
    for mono, poly in form.terms.items():
        if isinstance(poly, Fraction):
            poly = ParamPoly.const(poly)
        val = poly.evaluate(assignment) if numeric else poly.substitute(assignment)
        if val:
            terms[mono] = val
    return Form(form.alg, terms)


@dataclass
class Obstruction:
    position: tuple                  # (i, j) a-coordinates
    coordinates: dict                # {param monomial: {(weight, rep_index): coeff}}

    def to_json_dict(self):
        return {"position": list(self.position),
                "coordinates": {"*".join(f"p{i}" for i in pm) or "1":
                                {f"{k}/{idx}": str(c) for (k, idx), c in coords.items()}
                                for pm, coords in self.coordinates.items()}}


class FamilyResult:
    """Parametrized family of defining systems (or the first obstruction)."""

    def __init__(self, alg, classes, graded, complete):
        self.alg = alg
        self.classes = classes
        self.graded = graded
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

    def entry(self, i, j):
        return self.entries[(i, j)]

    def substitute(self, assignment, verify=True):
        """Numeric substitution -> a concrete DefiningSystem."""
        assign = {pid: Fraction(assignment.get(pid, 0)) for pid, _ in self.params}
        rows = _zero_rows(self.alg, self.n + 1)
        for (i, j), pform in self.entries.items():
            rows[i - 1][j] = _substitute_form(pform, assign, numeric=True)
        return DefiningSystem(ConnectionMatrix(self.alg, self.n, rows), verify=verify)

    def related_cocycle_family(self):
        return _window_sum(self.alg, self.entry, 1, self.n)

    def value_polynomial(self):
        """Class coordinates of the related cocycle as ParamPolys:
        {(weight, rep_index): ParamPoly}; every component verified closed."""
        coords = {}
        for pm, comp in _split_by_param(self.related_cocycle_family()).items():
            for key, coeff in class_terms(self.alg, comp).items():
                coords[key] = coords.get(key, ParamPoly()) + ParamPoly({pm: coeff})
        return coords


def _kernel_forms(g, degree, weights):
    """All closed forms of the given degree in the given weights (cocycle
    bases of the slices, as Forms)."""
    out = []
    for k in weights:
        if k > g.cutoff:
            raise CutoffTooSmall(k, g.cutoff, "kernel slice")
        slc = cohomology_slice(g, degree, k)
        for vec in slc.cocycles:
            out.append(Form(g, {slc.basis[i]: v for i, v in enumerate(vec) if v}))
    return out


def solve_defining_system(g, classes, graded=None, max_kernel_weight=None):
    """Diagonal-by-diagonal construction of the parametrized family.

    Free parameters are attached to every closed form that may be added at a
    solvable slot; parameter-dependent obstructions are resolved exactly when
    they are affine (substituting the solved parameters), otherwise the first
    obstructed (i, j) is reported with the obstruction class coordinates.
    """
    classes = list(classes)
    n = len(classes)
    if n < 2:
        raise NotApplicable("need at least 2 classes")
    for a in classes:
        if a.alg != g:
            raise NotApplicable("class ambient mismatch")
        if a.is_zero() or not differential(g, a).is_zero():
            raise NotACocycle("product classes must be nonzero cocycles")
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
    complete = (all_degree_one and not graded) or (graded and is_m0_like(g))
    fam = FamilyResult(g, classes, graded, complete)
    if max_kernel_weight is None:
        max_kernel_weight = min(g.cutoff, total_weight)

    for i in range(1, n + 1):
        fam.entries[(i, i)] = _lift(classes[i - 1])

    next_pid = 0
    for s in range(1, n):
        for i in range(1, n - s + 1):
            j = i + s
            if (i, j) == (1, n):
                continue
            entry_degree = sum(degrees[r - 1] - 1 for r in range(i, j + 1)) + 1
            while True:
                pieces = _split_by_param(_window_sum(g, fam.entry, i, j))
                particular = Form.zero(g)
                bad = {}
                for pm, comp in sorted(pieces.items()):
                    if comp.is_zero():
                        continue
                    sol = linalg.coboundary_preimage(g, comp)
                    if sol:
                        part = Form(g, {m: ParamPoly({pm: 1}) * c
                                        for m, c in sol.particular.terms.items()})
                        particular = particular + part
                    else:
                        bad[pm] = class_terms(g, comp)
                if not bad:
                    break
                resolved = _resolve_linear_obstruction(fam, bad)
                if not resolved:
                    fam.ok = False
                    fam.obstruction = Obstruction((i, j), bad)
                    return fam
            if graded:
                kernel_weights = [sum(weights_max[r - 1] for r in range(i, j + 1))]
            else:
                kernel_weights = list(range(1, max_kernel_weight + 1))
            kernel = _kernel_forms(g, entry_degree, kernel_weights)
            for kf in kernel:
                pid = next_pid
                next_pid += 1
                fam.params.append((pid, (i, j)))
                particular = particular + Form(
                    g, {m: ParamPoly({(pid,): c}) for m, c in kf.terms.items()})
            fam.entries[(i, j)] = particular
    return fam


def _resolve_linear_obstruction(fam, bad):
    """Zero an obstruction that is affine in the parameters by solving the
    linear system exactly and substituting pivot parameters by affine
    expressions in the free ones.  Returns True when the family was narrowed,
    False when the obstruction is nonlinear or unsolvable."""
    equations = {}
    for pm, coords in bad.items():
        if len(pm) > 1:
            return False
        for key, coeff in coords.items():
            equations[key] = equations.get(key, ParamPoly()) + ParamPoly({pm: coeff})
    pids = sorted({p for poly in equations.values() for p in poly.variables()})
    if not pids:
        return False
    aug = [[poly.linear_coeff(p) for p in pids] + [-poly.constant_term()]
           for poly in equations.values()]
    red, pivots = linalg.rref(aug)
    if len(pids) in pivots:
        return False
    pivot_set = set(pivots)
    free_cols = [c for c in range(len(pids)) if c not in pivot_set]
    assignment = {}
    for row_i, pc in enumerate(pivots):
        expr = ParamPoly.const(red[row_i][len(pids)])
        for fc in free_cols:
            coeff = -red[row_i][fc]
            if coeff:
                expr = expr + ParamPoly({(pids[fc],): coeff})
        assignment[pids[pc]] = expr
    for key, pform in list(fam.entries.items()):
        fam.entries[key] = _substitute_form(pform, assignment)
    return True


# ---------------------------------------------------------------------------
# triple products (exact)
# ---------------------------------------------------------------------------

def _class_vector_space(g, degree, weight_bound):
    """Representative data for all weights 1..weight_bound of one degree:
    returns (slices, offsets, total_dim) for coordinate concatenation."""
    slices = []
    offsets = {}
    total = 0
    for k in range(1, weight_bound + 1):
        slc = cohomology_slice(g, degree, k)
        if slc.dimension:
            slices.append(slc)
            offsets[k] = total
            total += slc.dimension
    return slices, offsets, total


def _class_vector(g, form, offsets, total):
    vec = [Fraction(0)] * total
    for (k, i), c in class_terms(g, form).items():
        if k not in offsets:
            raise NotApplicable("class escapes the coordinate window")
        vec[offsets[k] + i] = c
    return vec


def triple_product(g, a, b, c):
    """Exact triple Massey product <[a],[b],[c]>.

    Returns a MasseyResult carrying one value class, the indeterminacy
    subspace basis, and the exact decision whether 0 lies in the affine set.
    Raises MasseyNotDefined when [a][b] or [b][c] is nonzero.
    """
    for x in (a, b, c):
        if x.is_zero() or not differential(g, x).is_zero():
            raise NotACocycle("triple product needs nonzero cocycles")
    p, q, r = a.degree(), b.degree(), c.degree()
    total_weight = max(a.weights()) + max(b.weights()) + max(c.weights())
    if total_weight > g.cutoff:
        raise CutoffTooSmall(total_weight, g.cutoff, "triple product")
    ab = wedge(a, b)
    sol_f = linalg.coboundary_preimage(g, ab) if not ab.is_zero() else None
    if ab.is_zero():
        f0 = Form.zero(g)
    elif sol_f:
        f0 = ((-1) ** (p + 1)) * sol_f.particular
    else:
        raise MasseyNotDefined((1, 2), "[a][b] is not exact")
    bc = wedge(b, c)
    sol_g = linalg.coboundary_preimage(g, bc) if not bc.is_zero() else None
    if bc.is_zero():
        g0 = Form.zero(g)
    elif sol_g:
        g0 = ((-1) ** (q + 1)) * sol_g.particular
    else:
        raise MasseyNotDefined((2, 3), "[b][c] is not exact")

    sign_ag = (-1) ** (p + 1)
    sign_fc = (-1) ** (p + q)
    value_form = sign_ag * wedge(a, g0) + sign_fc * wedge(f0, c)
    target_degree = p + q + r - 1

    wa = max(a.weights())
    wb = max(b.weights())
    wc = max(c.weights())
    # mixed-weight outer classes widen the window: a generator of weight up
    # to wb + wc + (wa - min_wt(a)) can still land inside the value weights
    # through the low-weight part of a (and symmetrically for c)
    spread_a = wa - min(a.weights())
    spread_c = wc - min(c.weights())
    bound = min(g.cutoff, wa + wb + wc + max(spread_a, spread_c))
    slices, offsets, total = _class_vector_space(g, target_degree, bound)

    # indeterminacy generators: [a ^ h'] for closed h' (deg q+r-1) and
    # [h ^ c] for closed h (deg p+q-1); classes depend only on [h], [h']
    gens = []
    gen_forms = []
    for h in _reps_up_to(g, q + r - 1, min(g.cutoff - min(a.weights()),
                                           wb + wc + spread_a)):
        form = wedge(a, h)
        gens.append(_class_vector(g, form, offsets, total))
        gen_forms.append(("g", h))
    for h in _reps_up_to(g, p + q - 1, min(g.cutoff - min(c.weights()),
                                           wa + wb + spread_c)):
        form = wedge(h, c)
        gens.append(_class_vector(g, form, offsets, total))
        gen_forms.append(("f", h))

    value_vec = _class_vector(g, value_form, offsets, total)

    span = linalg.Echelon()
    indet = [vec for vec in gens if span.add(vec)]

    if total == 0:
        solvable = True
        coeffs = [Fraction(0)] * len(gens)
    else:
        cols = gens if gens else []
        matrix = [[col[r_] for col in cols] for r_ in range(total)] if cols else \
            [[] for _ in range(total)]
        sol = linalg.solve(matrix, [-v for v in value_vec])
        solvable = bool(sol)
        coeffs = sol.particular if sol else None

    indet_classes = tuple(_vector_to_valueclass(slices, offsets, v, target_degree)
                          for v in indet)
    value_cls = _vector_to_valueclass(slices, offsets, value_vec, target_degree)

    if solvable:
        f_w = f0
        g_w = g0
        for coeff, (kind, h) in zip(coeffs, gen_forms):
            if coeff == 0:
                continue
            if kind == "g":
                g_w = g_w + coeff * h
            else:
                f_w = f_w + coeff * h
        witness = _triple_system(g, a, b, c, f_w, g_w)
        cw = related_cocycle(witness)
        internal_check(linalg.coboundary_preimage(g, cw), "witness related cocycle must be exact")
        return MasseyResult(TRIVIAL_WITNESS, witness=witness, value=value_cls,
                            indeterminacy=indet_classes,
                            certificate={"kind": "exact-affine-triple"})
    return MasseyResult(NONTRIVIAL_CERTIFIED, value=value_cls,
                        indeterminacy=indet_classes,
                        certificate={"kind": "exact-affine-triple",
                                     "detail": "0 is not in the affine value set"})


def _reps_up_to(g, degree, weight_bound):
    out = []
    if degree < 1:
        return out
    for k in range(1, max(weight_bound, 0) + 1):
        out.extend(representatives(g, degree, k))
    return out


def _vector_to_valueclass(slices, offsets, vec, degree):
    entries = []
    for slc in slices:
        base = offsets[slc.k]
        for i in range(slc.dimension):
            if vec[base + i]:
                entries.append((slc.k, i, vec[base + i],
                                render_form(slc.representatives[i])))
    return ValueClass(degree, tuple(entries))


def _triple_system(g, a, b, c, f, gg):
    rows = _zero_rows(g, 4)
    rows[0][1] = a
    rows[1][2] = b
    rows[2][3] = c
    rows[0][2] = f
    rows[1][3] = gg
    return DefiningSystem(ConnectionMatrix(g, 3, rows))


# ---------------------------------------------------------------------------
# products of 1-classes over m0: the graded thread-module decision
# ---------------------------------------------------------------------------

def _superdiag_matrix(values, size, offset=1):
    m = [[Fraction(0)] * size for _ in range(size)]
    for i, v in enumerate(values):
        m[i][i + offset] = Fraction(v)
    return m


def _mat_bracket(a, b):
    size = len(a)
    out = [[Fraction(0)] * size for _ in range(size)]
    for r in range(size):
        for k in range(size):
            if a[r][k]:
                for c in range(size):
                    if b[k][c]:
                        out[r][c] += a[r][k] * b[k][c]
            if b[r][k]:
                for c in range(size):
                    if a[k][c]:
                        out[r][c] -= b[r][k] * a[k][c]
    return out


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


def thread_candidate(pairs):
    """The unique graded thread-module candidate for prescribed second
    diagonals: rho(e1), rho(e2) superdiagonal, rho(e_{k+1}) = [rho(e1), rho(e_k)].

    Returns (matrices rho_k for k = 1..n+1, off-corner violations, corner
    violations); the product is defined iff no off-corner violation exists and
    trivial iff no violation at all (associated-graded representation
    argument: any defining system of 1-forms degrades to this candidate).
    """
    n = len(pairs)
    size = n + 1
    rho = {1: _superdiag_matrix([a for a, _ in pairs], size),
           2: _superdiag_matrix([b for _, b in pairs], size)}
    k = 2
    while True:
        nxt = _mat_bracket(rho[1], rho[k])
        if any(any(row) for row in nxt):
            rho[k + 1] = nxt
            k += 1
        else:
            break
        if k > size:
            break
    off_corner = []
    corner = []
    ks = sorted(rho)
    for ai in range(len(ks)):
        for bi in range(ai + 1, len(ks)):
            i, j = ks[ai], ks[bi]
            if i == 1:
                continue  # [e1, e_k] defines rho(e_{k+1})
            comm = _mat_bracket(rho[i], rho[j])
            for r in range(size):
                for c in range(size):
                    if comm[r][c]:
                        if (r, c) == (0, size - 1):
                            corner.append(((i, j), comm[r][c]))
                        else:
                            off_corner.append(((i, j), (r + 1, c + 1), comm[r][c]))
    return rho, off_corner, corner


def thread_defining_system(g, pairs, rho):
    """Defining system read off the candidate: entry a(i,j) = sum_k
    rho(e_k)[i-1][j] e^k, corner dropped.  Also returns the corner 1-form."""
    n = len(pairs)
    size = n + 1
    rows = _zero_rows(g, size)
    corner_form = Form.zero(g)
    for r in range(size):
        for c in range(r + 1, size):
            terms = {}
            for k, mat in rho.items():
                if mat[r][c]:
                    if not g.has_index(k):
                        raise CutoffTooSmall(k, g.cutoff, "thread witness")
                    terms[(k,)] = mat[r][c]
            form = Form(g, terms)
            if (r, c) == (0, size - 1):
                corner_form = form
            else:
                rows[r][c] = form
    return DefiningSystem(ConnectionMatrix(g, n, rows)), corner_form


def _one_class_result(g, classes, pairs):
    rho, off_corner, corner = thread_candidate(pairs)
    if off_corner:
        raise MasseyNotDefined(off_corner[0][1],
                               "graded thread candidate obstructed off-corner at "
                               f"{off_corner[0][1]} (relation [e{off_corner[0][0][0]},"
                               f"e{off_corner[0][0][1]}])")
    system, corner_form = thread_defining_system(g, pairs, rho)
    cocycle = related_cocycle(system)
    value = value_class_of(g, cocycle)
    if not corner:
        sol = linalg.coboundary_preimage(g, cocycle)
        internal_check(sol, "corner-complete candidate must have exact related cocycle")
        return MasseyResult(TRIVIAL_WITNESS, witness=system, value=value,
                            certificate={"kind": "graded-thread-module",
                                         "corner": render_form(corner_form)})
    internal_check(not value.is_zero(), "corner violations must give a nonzero class")
    return MasseyResult(
        NONTRIVIAL_CERTIFIED, witness=None, value=value,
        certificate={"kind": "graded-thread-module",
                     "violations": [f"[e{i},e{j}] -> {c}" for (i, j), c in corner],
                     "detail": "no thread module carries the prescribed diagonal"})


# ---------------------------------------------------------------------------
# general evaluation
# ---------------------------------------------------------------------------

GRID_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
               Fraction(-1, 2), Fraction(2), Fraction(-2))


def evaluate_product(g, classes, graded=None, budget=2000, samples=100, seed=0):
    """Evaluate the n-fold Massey product of the given cocycles.

    Exact for n = 2, n = 3 and for products of 1-classes over an m0-type
    algebra; otherwise works through the parametrized family (exact affine
    solve, bounded grid search, sampling certificate, honest Undecided).
    Raises MasseyNotDefined when the product is not defined.
    """
    classes = list(classes)
    n = len(classes)
    if n < 2:
        raise NotApplicable("need at least 2 classes")
    for cl in classes:
        if cl.is_zero() or not differential(g, cl).is_zero():
            raise NotACocycle("all product classes must be nonzero cocycles")
    if n == 2:
        c2 = wedge(bar(classes[0]), classes[1])
        value = value_class_of(g, c2)
        if value.is_zero():
            rows = _zero_rows(g, 3)
            rows[0][1], rows[1][2] = classes
            witness = DefiningSystem(ConnectionMatrix(g, 2, rows))
            return MasseyResult(TRIVIAL_WITNESS, witness=witness, value=value,
                                certificate={"kind": "direct-product"})
        return MasseyResult(NONTRIVIAL_CERTIFIED, value=value,
                            certificate={"kind": "direct-product"})
    if n == 3:
        return triple_product(g, *classes)
    pairs = pairs_of_one_classes(classes) if is_m0_like(g) else None
    if pairs is not None:
        return _one_class_result(g, classes, pairs)

    if graded is None and all(cl.degree() == 1 for cl in classes):
        # the ungraded family over degree-1 classes is complete (closed
        # 1-forms exhaust the entry freedom), so prefer it for decisions
        graded = False
    fam = solve_defining_system(g, classes, graded=graded)
    notes = []
    if not fam.ok:
        if fam.complete:
            raise MasseyNotDefined(fam.obstruction.position,
                                   "defining system obstructed at "
                                   f"{fam.obstruction.position}")
        return MasseyResult(UNDECIDED, notes=(
            "family obstructed at " + str(fam.obstruction.position),
            "family not known complete; product may still be defined"))

    coords = fam.value_polynomial()
    base = fam.substitute({})
    base_value = value_class_of(g, related_cocycle(base))

    if not coords:
        return MasseyResult(TRIVIAL_WITNESS, witness=base, value=base_value,
                            certificate={"kind": "identically-zero-class"})

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
        pids = sorted({p for poly in coords.values() for p in poly.variables()})
        rows = [[poly.linear_coeff(p) for p in pids] for poly in coords.values()]
        rhs = [-poly.constant_term() for poly in coords.values()]
        sol = linalg.solve(rows, rhs)
        if sol:
            assignment = {pid: sol.particular[i] for i, pid in enumerate(pids)}
            witness = fam.substitute(assignment)
            cw = related_cocycle(witness)
            internal_check(linalg.coboundary_preimage(g, cw), "affine witness must be exact")
            return MasseyResult(TRIVIAL_WITNESS, witness=witness,
                                value=base_value,
                                certificate={"kind": "exact-affine-family"})
        if fam.complete:
            return MasseyResult(NONTRIVIAL_CERTIFIED, value=base_value,
                                certificate={"kind": "exact-affine-family",
                                             "detail": "affine system has no zero"})
        notes.append("affine over an incomplete family: no witness found")

    witness = _grid_search(g, fam, coords, budget)
    if witness is not None:
        return MasseyResult(TRIVIAL_WITNESS, witness=witness,
                            value=base_value,
                            certificate={"kind": "grid-witness"})

    shape = _main_shape(g, classes)
    if shape is not None:
        cert = leading_coefficient_certificate(g, classes, samples=samples, seed=seed)
        if cert is not None:
            return MasseyResult(NONTRIVIAL_CERTIFIED, value=base_value,
                                certificate=cert,
                                notes=tuple(notes))
    status = VALUE_SET if fam.complete else UNDECIDED
    notes.append("value coordinates are polynomial in "
                 f"{len(fam.params)} parameters; no decision reached")
    return MasseyResult(status, value=base_value, notes=tuple(notes))


def _grid_search(g, fam, coords, budget):
    pids = sorted({p for poly in coords.values() for p in poly.variables()})
    if not pids:
        return None
    tried = 0
    for combo in iter_product(GRID_VALUES, repeat=len(pids)):
        if tried >= budget:
            return None
        tried += 1
        assignment = dict(zip(pids, combo))
        if all(poly.evaluate(assignment) == 0 for poly in coords.values()):
            witness = fam.substitute(assignment)
            cw = related_cocycle(witness)
            if linalg.coboundary_preimage(g, cw):
                return witness
    return None


# ---------------------------------------------------------------------------
# explicit paper systems and the sampling certificate
# ---------------------------------------------------------------------------

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
    rows = _zero_rows(g, n + 1)
    for s in range(1, n):
        rows[0][s] = Form.generator(g, s + 1,
                                    Fraction(1) if (s + 1) % 2 == 0 else Fraction(-1))
    for i in range(2, n):
        rows[i - 1][i] = Form.generator(g, 1)
    rows[n - 1][n] = Form.generator(g, 2)
    for s in range(2, n):
        rows[s - 1][n] = Form.generator(g, 2 * k + 1 - s)
    return DefiningSystem(ConnectionMatrix(g, n, rows))


def paper_connection_main(g, i1, tail):
    """Defining system for <e^2, e^1, ..., e^1, omega(tail)> with i1 - 2
    middle e^1 classes: alternating powers along the first row, e^1 on the
    superdiagonal, D_{-1} iterates of omega(tail) down the last column.

    Its related cocycle is (-1)^{i1} omega([i1] + tail)."""
    from .mzero import Dm1, omega
    tail = list(tail)
    if i1 < 2 or not tail or i1 >= tail[0]:
        raise NotApplicable("need 2 <= i1 < first tail index")
    om = omega(g, tail)
    n = i1
    rows = _zero_rows(g, n + 1)
    for s in range(1, n):
        rows[0][s] = Form.generator(g, s + 1,
                                    Fraction(1) if (s + 1) % 2 == 0 else Fraction(-1))
    for i in range(2, n):
        rows[i - 1][i] = Form.generator(g, 1)
    power = om
    for s in range(n, 1, -1):
        rows[s - 1][n] = power
        if s > 2:
            power = Dm1(power)
    return DefiningSystem(ConnectionMatrix(g, n, rows))


def _main_shape(g, classes):
    """Detect <e^2, e^1, ..., e^1, omega(tail)>; returns (i1, tail) or None."""
    from .mzero import omega, omega_index_lists
    if not is_m0_like(g) or len(classes) < 2:
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


def leading_coefficient_certificate(g, classes, samples=100, seed=0):
    """Sampling certificate for <e^2, e^1, ..., e^1, omega(tail)> shapes.

    Samples random rational parameter assignments of the defining-system
    family and asserts that the coordinate of the related-cocycle class on
    the representative omega([i1] + tail) equals (-1)^i1 in every sample and
    that no sampled class is zero.  Returns the certificate record, or None
    when the shape does not apply.

    The residual freedom e^1 ^ Omega of an arbitrary system is only sampled,
    not proved away; the certificate records this caveat.
    """
    import random

    from .mzero import omega, omega_weight

    shape = _main_shape(g, classes)
    if shape is None:
        return None
    i1, tail = shape
    target = omega(g, [i1] + list(tail))
    target_weight = omega_weight([i1] + list(tail))
    target_degree = target.degree()
    slc = cohomology_slice(g, target_degree, target_weight)
    rep_index = None
    for i, rep in enumerate(slc.representatives):
        if rep == target:
            rep_index = i
            break
    if rep_index is None:
        return None
    expected = Fraction((-1) ** i1)

    fam = solve_defining_system(g, classes, graded=True)
    if not fam.ok:
        return None
    rng = random.Random(seed)
    pids = fam.param_ids()
    sampled = []
    for _ in range(samples):
        assignment = {pid: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for pid in pids}
        system = fam.substitute(assignment)
        cocycle = related_cocycle(system)
        value = value_class_of(g, cocycle)
        if value.is_zero():
            return None
        coeff = value.coefficient_on(target_weight, rep_index)
        if coeff != expected:
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
    for rows A, B, C, D or None."""
    n = len(pairs)
    first = pairs[0]
    if all(_projectively_equal(first, p) for p in pairs[1:]):
        lam = (Fraction(first[0] / first[1]), Fraction(1)) if first[1] != 0 \
            else (Fraction(1), Fraction(0))
        return ClassificationTag("A", lam)
    if all(b != 0 for _, b in pairs):
        lam = [a / b for a, b in pairs]
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
        alpha = pairs[s][0] / pairs[s][1]
        return ClassificationTag("C", (s, alpha))
    if (len(special) == 2 and special == [0, n - 1] and n >= 4 and n % 2 == 0):
        alpha = pairs[0][0] / pairs[0][1]
        beta = pairs[-1][0] / pairs[-1][1]
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
    if n == 3:
        if _triple_criterion(*pairs) != 0:
            return ClassificationTag("NotTrivial")
        tag = _match_table(pairs)
        return tag if tag is not None else ClassificationTag("NotTrivial")
    # proper windows must be trivial for the product to be defined
    for length in range(3, n):
        for start in range(0, n - length + 1):
            sub = classify_trivial_ones(pairs[start:start + length])
            if sub.kind in ("NotTrivial", "NotDefined"):
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


def parse_size_header(line, keyword, line_no):
    """n of a '<keyword> n=<n>' header line, a nonnegative integer."""
    body = line[len(keyword):].strip()
    try:
        n = int(body[2:]) if body.startswith("n=") else -1
    except ValueError:
        n = -1
    if n < 0:
        raise AlgebraFormatError(line_no, f"expected '{keyword} n=<n>' with a "
                                          f"nonnegative integer n, got {line!r}")
    return n


def parse_connection(g, text):
    """Connection matrix file:

        connection n=<n>
        (i,j) = <form>        # 1-based matrix coordinates, i < j
    """
    n = None
    entries = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("connection"):
            n = parse_size_header(line, "connection", line_no)
            continue
        if n is None:
            raise AlgebraFormatError(line_no, "missing 'connection n=<n>' header")
        head, _, rhs = line.partition("=")
        head = head.strip()
        if not (head.startswith("(") and head.endswith(")")):
            raise AlgebraFormatError(line_no, f"bad entry key {head!r}")
        try:
            i_s, j_s = head[1:-1].split(",")
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise AlgebraFormatError(line_no, f"bad entry key {head!r}") from None
        if not (1 <= i < j <= n + 1):
            raise AlgebraFormatError(line_no, f"entry ({i},{j}) outside the matrix")
        entries[(i, j)] = parse_form(g, rhs.strip())
    if n is None:
        raise AlgebraFormatError(0, "missing 'connection n=<n>' header")
    rows = _zero_rows(g, n + 1)
    for (i, j), form in entries.items():
        rows[i - 1][j - 1] = form
    return ConnectionMatrix(g, n, rows)
