"""Upper-triangular representations, thread modules and lifting obstructions.

A representation rho: g -> T_n(K) by strictly upper triangular matrices is
the same data as a connection matrix of 1-forms satisfying the strong
Maurer-Cartan equation dA - bar(A).A = 0 including the corner; defining
systems of 1-forms correspond to homomorphisms into T_n/center, and the
related cocycle class is the obstruction to lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import central_series, is_m0_like
from .cohomology import class_terms
from .errors import (AlgebraFormatError, NotApplicable, UnverifiedInput,
                     internal_check)
from .forms import Form
from .massey import (ClassificationTag, ConnectionMatrix, classify_trivial_ones,
                     parse_size_header, related_cocycle, _mat_bracket, _zero_rows)


def _is_strictly_upper(m):
    return all(m[r][c] == 0 for r in range(len(m)) for c in range(r + 1))


class UpperTriangularRep:
    """Generator images as strictly upper triangular (n+1)x(n+1) matrices."""

    def __init__(self, algebra, n, images):
        self.algebra = algebra
        self.n = n
        self.size = n + 1
        self.images = {}
        for idx, mat in images.items():
            mat = [[Fraction(v) for v in row] for row in mat]
            if len(mat) != self.size or any(len(r) != self.size for r in mat):
                raise AlgebraFormatError(0, f"image of e{idx} must be {self.size}x{self.size}")
            if not _is_strictly_upper(mat):
                raise AlgebraFormatError(0, f"image of e{idx} is not strictly upper triangular")
            self.images[idx] = mat
        self.verified = False

    def image(self, idx):
        return self.images.get(idx, [[Fraction(0)] * self.size for _ in range(self.size)])


def derive_m0_images(g, rep):
    """For m0-type algebras the images of e1, e2 determine the rest:
    rho(e_{i+1}) = [rho(e1), rho(e_i)].  User-supplied extra images are
    re-verified against the derived ones."""
    if 1 not in rep.images or 2 not in rep.images:
        raise NotApplicable("need images of e1 and e2")
    derived = {1: rep.images[1], 2: rep.images[2]}
    for i in g.indices:
        if i < 3:
            continue
        prev = derived.get(i - 1)
        if prev is None:
            break
        derived[i] = _mat_bracket(derived[1], prev)
    for idx, mat in rep.images.items():
        if idx in derived and mat != derived[idx] and idx > 2:
            raise UnverifiedInput(f"supplied image of e{idx} conflicts with the derived one")
    return UpperTriangularRep(g, rep.n, derived)


def check_homomorphism(g, rep, derive=True):
    """Verify bracket preservation on all basis pairs within the cutoff.

    Returns (True, None, full_rep) or (False, (i, j), full_rep); for m0-type
    algebras missing images are derived from e1, e2 first."""
    full = rep
    if derive and is_m0_like(g) and 1 in rep.images and 2 in rep.images:
        full = derive_m0_images(g, rep)
    for i in g.indices:
        if i not in full.images:
            full.images[i] = [[Fraction(0)] * full.size for _ in range(full.size)]
    for i in g.indices:
        for j in g.indices:
            if i >= j:
                continue
            lhs = _mat_bracket(full.image(i), full.image(j))
            rhs = [[Fraction(0)] * full.size for _ in range(full.size)]
            for c, k in g.bracket_terms(i, j):
                mat = full.image(k)
                for r in range(full.size):
                    for s in range(full.size):
                        if mat[r][s]:
                            rhs[r][s] += c * mat[r][s]
            if lhs != rhs:
                return False, (i, j), full
    full.verified = True
    return True, None, full


def connection_of(rep):
    """Connection matrix A with a_{rc} = sum_k rho(e_k)_{rc} e^k; satisfies
    the strong Maurer-Cartan equation (zero residual including the corner)."""
    if not rep.verified:
        raise UnverifiedInput("run check_homomorphism first")
    g = rep.algebra
    size = rep.size
    rows = _zero_rows(g, size)
    for r in range(size):
        for c in range(r + 1, size):
            terms = {}
            for idx, mat in rep.images.items():
                if mat[r][c]:
                    terms[(idx,)] = mat[r][c]
            rows[r][c] = Form(g, terms)
    return ConnectionMatrix(g, size - 1, rows)


def representation_from_connection(matrix):
    """Inverse of connection_of on strong Maurer-Cartan matrices of 1-forms."""
    g = matrix.alg
    size = matrix.size
    images = {}
    for r in range(size):
        for c in range(size):
            entry = matrix.rows[r][c]
            for mono, coeff in entry.terms.items():
                if len(mono) != 1:
                    raise NotApplicable("matrix entries must be 1-forms")
                idx = mono[0]
                images.setdefault(idx, [[Fraction(0)] * size for _ in range(size)])
                images[idx][r][c] = coeff
    rep = UpperTriangularRep(g, size - 1, images)
    ok, pair, rep = check_homomorphism(g, rep, derive=False)
    if not ok:
        raise UnverifiedInput(f"matrix is not strong Maurer-Cartan (fails at {pair})")
    return rep


def generator_gr_levels(g):
    """Filtration level of each generator under the descending central series."""
    filt = central_series(g)
    return {i: filt.level(i) for i in g.indices}


def associated_graded_rep(rep):
    """Truncate each connection entry to its diagonal's forced degree: the
    k-th diagonal keeps only components of filtration degree k-1."""
    if not rep.verified:
        raise UnverifiedInput("run check_homomorphism first")
    g = rep.algebra
    levels = generator_gr_levels(g)
    conn = connection_of(rep)
    size = rep.size
    rows = _zero_rows(g, size)
    for r in range(size):
        for c in range(r + 1, size):
            entry = conn.rows[r][c]
            keep = {m: v for m, v in entry.terms.items() if levels[m[0]] == c - r}
            rows[r][c] = Form(g, keep)
    graded_conn = ConnectionMatrix(g, size - 1, rows)
    rep2 = representation_from_connection(graded_conn)
    return rep2


# -- thread modules -----------------------------------------------------------

@dataclass(frozen=True)
class ThreadModuleView:
    rep: UpperTriangularRep

    def second_diagonal_pairs(self):
        a1 = self.rep.image(1)
        a2 = self.rep.image(2)
        return [(a1[i][i + 1], a2[i][i + 1]) for i in range(self.rep.size - 1)]


def thread_tag(view):
    """Classification tag of a thread module over m0 (delegates to the table);
    Decomposable when some second-diagonal class vanishes."""
    g = view.rep.algebra
    if not is_m0_like(g):
        raise NotApplicable("thread modules are classified over m0")
    pairs = view.second_diagonal_pairs()
    if any(a == 0 and b == 0 for a, b in pairs):
        return ClassificationTag("Decomposable")
    return classify_trivial_ones(pairs)


# -- lifting obstruction --------------------------------------------------------

def lift_obstruction(g, system):
    """Class coordinates of the related cocycle of a defining system of
    1-forms; zero exactly when a corner entry completing the system to a
    strong Maurer-Cartan connection exists (cross-validated by solving)."""
    for i in range(1, system.n + 1):
        for j in range(i, system.n + 1):
            if (i, j) == (1, system.n):
                continue
            e = system.matrix.entry(i, j)
            if not e.is_zero() and e.degrees() != [1]:
                raise NotApplicable("lifting needs a system of 1-forms")
    cocycle = related_cocycle(system)
    if cocycle.is_zero():
        return {}, True
    coords = class_terms(g, cocycle)
    solvable = bool(linalg.coboundary_preimage(g, cocycle))
    obstruction_zero = not coords
    internal_check(obstruction_zero == solvable, "obstruction/coboundary cross-check failed")
    return coords, solvable


# -- file format ---------------------------------------------------------------

def _parse_matrix(text, line_no):
    """Parse [[a,b,...],[...],...] with exact rational entries (p/q allowed)."""
    if not (text.startswith("[[") and text.endswith("]]")):
        raise AlgebraFormatError(line_no, "matrix must look like [[...],[...]]")
    rows = []
    for chunk in text[1:-1].split("],"):
        chunk = chunk.strip().lstrip("[").rstrip("]").strip()
        try:
            row = [Fraction(x.strip()) for x in chunk.split(",")] if chunk else []
        except (ValueError, ZeroDivisionError):
            raise AlgebraFormatError(line_no, f"bad matrix row {chunk!r}") from None
        rows.append(row)
    return rows


def parse_representation(g, text):
    """Representation file:

        rep n=<n>
        e<i> = [[...], [...], ...]    # rational entries, strictly upper
    """
    n = None
    images = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("rep"):
            n = parse_size_header(line, "rep", line_no)
            continue
        if n is None:
            raise AlgebraFormatError(line_no, "missing 'rep n=<n>' header")
        head, _, rhs = line.partition("=")
        head = head.strip()
        if not head.startswith("e"):
            raise AlgebraFormatError(line_no, f"expected 'e<i> = [[...]]', got {head!r}")
        try:
            idx = int(head[1:])
        except ValueError:
            raise AlgebraFormatError(line_no, f"bad generator {head!r}") from None
        images[idx] = _parse_matrix(rhs.strip(), line_no)
    if n is None:
        raise AlgebraFormatError(0, "missing 'rep n=<n>' header")
    return UpperTriangularRep(g, n, images)
