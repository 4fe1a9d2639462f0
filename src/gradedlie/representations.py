"""Upper-triangular representations and lifting obstructions.

A representation rho: g -> T_n(K) by strictly upper triangular matrices is
the same data as a connection matrix of 1-forms satisfying the strong
Maurer-Cartan equation dA - bar(A).A = 0 including the corner; defining
systems of 1-forms correspond to homomorphisms into T_n/center, and the
related cocycle class is the obstruction to lifting.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import central_series, is_m0_like
from .cohomology import class_terms
from .errors import (AlgebraFormatError, CutoffTooSmall, NotApplicable, UnverifiedInput,
                     internal_check)
from .forms import Form
from .massey import ConnectionMatrix, mc_residual, related_cocycle, sized_file_lines


def _checked_image(idx, mat, size, line_no=0):
    """The image of e<idx> with Fraction entries; AlgebraFormatError (at
    line_no) unless it is a strictly upper triangular size x size matrix."""
    mat = [[Fraction(v) for v in row] for row in mat]
    if len(mat) != size or any(len(r) != size for r in mat):
        raise AlgebraFormatError(line_no, f"image of e{idx} must be {size}x{size}")
    if any(mat[r][c] != 0 for r in range(size) for c in range(r + 1)):
        raise AlgebraFormatError(line_no, f"image of e{idx} is not strictly upper triangular")
    return mat


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


def one_form_connection(g, images, size, what):
    """Connection matrix of 1-forms a_rc = sum_k images[k][r][c] e^k.
    Raises CutoffTooSmall (for `what`) at the first index k, entry by entry,
    that has a nonzero image but no generator in g."""
    entries = {}
    for r in range(size):
        for c in range(r + 1, size):
            terms = {}
            for k, mat in images.items():
                if mat[r][c]:
                    if not g.has_index(k):
                        raise CutoffTooSmall(k, g.cutoff, what)
                    terms[(k,)] = mat[r][c]
            entries[(r + 1, c)] = Form(g, terms)
    return ConnectionMatrix.from_entries(g, size - 1, entries)


class UpperTriangularRep:
    """Generator images as strictly upper triangular (n+1)x(n+1) matrices."""

    def __init__(self, algebra, n, images):
        self.algebra = algebra
        self.n = n
        self.size = n + 1
        self.images = {idx: _checked_image(idx, mat, self.size) for idx, mat in images.items()}
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
    """Verify bracket preservation on all basis pairs: rho is a homomorphism
    exactly when its connection of 1-forms has zero Maurer-Cartan residual,
    whose e^i^e^j coefficient is rho([e_i, e_j]) - [rho(e_i), rho(e_j)].

    Returns (True, None, full_rep) or (False, (i, j), full_rep) with (i, j)
    the least monomial of the residual; for m0-type algebras missing images
    are derived from e1, e2 first."""
    full = rep
    if derive and is_m0_like(g) and 1 in rep.images and 2 in rep.images:
        full = derive_m0_images(g, rep)
    # a new rep, so the argument keeps its images and its flag
    full = UpperTriangularRep(g, full.n, {i: full.image(i) for i in g.indices} | full.images)
    residual = mc_residual(one_form_connection(g, {i: full.images[i] for i in g.indices},
                                               full.size, "representation image"))
    if residual.entries:
        return False, min(m for e in residual.entries.values() for m in e.terms), full
    full.verified = True
    return True, None, full


def connection_of(rep):
    """Connection matrix A with a_{rc} = sum_k rho(e_k)_{rc} e^k; satisfies
    the strong Maurer-Cartan equation (zero residual including the corner)."""
    if not rep.verified:
        raise UnverifiedInput("run check_homomorphism first")
    return one_form_connection(rep.algebra, rep.images, rep.size, "representation image")


def representation_from_connection(matrix):
    """Inverse of connection_of on strong Maurer-Cartan matrices of 1-forms."""
    g, size = matrix.alg, matrix.size
    images = {}
    for (i, j), entry in matrix.entries.items():
        for mono, coeff in entry.terms.items():
            if len(mono) != 1:
                raise NotApplicable("matrix entries must be 1-forms")
            images.setdefault(mono[0], [[Fraction(0)] * size for _ in range(size)])
            images[mono[0]][i - 1][j] = coeff
    rep = UpperTriangularRep(g, size - 1, images)
    ok, pair, rep = check_homomorphism(g, rep, derive=False)
    if not ok:
        raise UnverifiedInput(f"matrix is not strong Maurer-Cartan (fails at {pair})")
    return rep


def associated_graded_rep(rep):
    """Truncate each connection entry to its diagonal's forced degree: the
    k-th diagonal keeps only components of filtration degree k-1."""
    if not rep.verified:
        raise UnverifiedInput("run check_homomorphism first")
    g = rep.algebra
    filt = central_series(g)      # filtration level of each generator
    levels = {i: filt.level(i) for i in g.indices}
    conn = connection_of(rep)
    entries = {(i, j): Form(g, {m: v for m, v in form.terms.items() if levels[m[0]] == j - i + 1})
               for (i, j), form in conn.entries.items()}
    return representation_from_connection(ConnectionMatrix.from_entries(g, rep.n, entries))


# -- lifting obstruction --------------------------------------------------------

def lift_obstruction(g, system):
    """Class coordinates of the related cocycle of a defining system of
    1-forms; zero exactly when a corner entry completing the system to a
    strong Maurer-Cartan connection exists (cross-validated by solving)."""
    if any(e.degrees() != [1] for e in system.matrix.entries.values()):   # the corner is zero
        raise NotApplicable("lifting needs a system of 1-forms")
    cocycle = related_cocycle(system)
    if cocycle.is_zero():
        return {}, True
    coords = class_terms(g, cocycle)
    solvable = linalg.coboundary_preimage(g, cocycle) is not None
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
    images = {}
    for line_no, n, head, rhs in sized_file_lines(text, "rep"):
        if head is None:
            continue
        if not head.startswith("e"):
            raise AlgebraFormatError(line_no, f"expected 'e<i> = [[...]]', got {head!r}")
        try:
            idx = int(head[1:])
        except ValueError:
            raise AlgebraFormatError(line_no, f"bad generator {head!r}") from None
        if idx in images:
            raise AlgebraFormatError(line_no, f"second image of e{idx}")
        images[idx] = _checked_image(idx, _parse_matrix(rhs, line_no), n + 1, line_no)
    return UpperTriangularRep(g, n, images)
