"""Exterior forms on the dual of a truncated graded Lie algebra.

Monomials are strictly increasing index tuples e^{i1}^...^e^{iq}; forms are
sparse maps monomial -> exact coefficient with the sign of each term absorbed
into the coefficient (canonical term maps make equality testing trivial).
A coefficient is an int when integral and a Fraction otherwise (both exact
numbers.Rational); _exact is the one normaliser, so the integral constants
of m0 and L1 keep their arithmetic on ints.

The differential is the antiderivation with d e^k = sum c_ij^k e^i^e^j over
the structure constants, which on 1-forms gives (df)(X,Y) = +f([X,Y]); this
sign is locked in because the m0 operator identity d xi = e^1 ^ D_1 xi fails
under the opposite convention.  The constants of each d e^k come from the
algebra's generator_differentials, built once with the algebra; this module
keeps no cache of its own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .errors import AlgebraFormatError, AmbientMismatch, ArityMismatch, CutoffTooSmall


def sort_with_sign(indices):
    """Sort an index sequence, returning (sign, tuple) or None on repeats."""
    seq = list(indices)
    sign = 1
    # insertion sort; counts transpositions exactly
    for a in range(1, len(seq)):
        b = a
        while b > 0 and seq[b - 1] > seq[b]:
            seq[b - 1], seq[b] = seq[b], seq[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and seq[b - 1] == seq[b]:
            return None
    return sign, tuple(seq)


def _exact(value):
    """value as an int when integral, else as a Fraction; TypeError for
    anything but an int or a Fraction, so no float enters a form."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"form coefficients are int or Fraction, not {type(value).__name__}")
    return value.numerator if value.denominator == 1 else value


class Form:
    """Sparse exterior form over an ambient algebra, with int or Fraction
    coefficients.  The constructor keeps them as given (a sum such as
    1/2 + 1/2 may stay Fraction(1)); equality, hashing and rendering do not
    tell an int from the equal Fraction."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=None):
        self.alg = alg
        self.terms = {mono: c for mono, c in terms.items() if c} if terms else {}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, alg):
        return cls(alg, {})

    @classmethod
    def monomial(cls, alg, indices, coeff=1):
        norm = sort_with_sign(indices)
        if norm is None:
            return cls.zero(alg)
        sign, mono = norm
        for i in mono:
            alg.weight(i)  # raises on unknown index
        return cls(alg, {mono: sign * coeff})

    @classmethod
    def generator(cls, alg, index, coeff=1):
        return cls.monomial(alg, (index,), coeff)

    @classmethod
    def scalar(cls, alg, value):
        return cls(alg, {(): _exact(value)})

    # -- structure ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({len(m) for m in self.terms})

    def weights(self):
        """The distinct term weights, ascending, from one pass over the
        terms; an index outside the algebra raises AlgebraFormatError."""
        table = self.alg._weights
        try:
            return sorted({sum(map(table.__getitem__, m)) for m in self.terms})
        except KeyError as missing:
            self.alg.weight(missing.args[0])
            raise

    def degree(self):
        degs = {len(m) for m in self.terms}
        if len(degs) != 1:
            raise ArityMismatch(f"form is not degree-homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic -----------------------------------------------------------
    def _check_ambient(self, other):
        if self.alg is not other.alg and self.alg != other.alg:
            raise AmbientMismatch("forms live over different algebras")

    def __add__(self, other):
        self._check_ambient(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = c if s is None else s + c
        return Form(self.alg, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.alg, {m: -c for m, c in self.terms.items()})

    def scaled(self, scalar):
        if not (scalar := _exact(scalar)):
            return Form.zero(self.alg)
        return Form(self.alg, {m: scalar * c for m, c in self.terms.items()})

    __rmul__ = scaled

    def __eq__(self, other):
        return isinstance(other, Form) and self.alg == other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((self.alg, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Form({render_form(self)})"


# -- wedge, bar, differential -------------------------------------------------

def wedge(a, b):
    """Exterior product; sign from sorting concatenated index tuples."""
    a._check_ambient(b)
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            norm = sort_with_sign(ma + mb)
            if norm is None:
                continue
            sign, mono = norm
            c = ca * cb
            if sign < 0:
                c = -c
            s = terms.get(mono)
            terms[mono] = c if s is None else s + c
    return Form(a.alg, terms)


def weight_parts(a):
    """{weight: {monomial: coefficient}} of a form, weights ascending, from one
    pass over its terms; the parts partition the terms.  An index outside the
    algebra raises AlgebraFormatError, through alg.weight."""
    table = a.alg._weights
    parts = {}
    try:
        for m, c in a.terms.items():
            parts.setdefault(sum(map(table.__getitem__, m)), {})[m] = c
    except KeyError as missing:
        a.alg.weight(missing.args[0])
        raise
    return {k: parts[k] for k in sorted(parts)}


def bar(a):
    """Involution: degree-k component scaled by (-1)^(k+1)."""
    return Form(a.alg, {m: (c if len(m) % 2 == 1 else -c) for m, c in a.terms.items()})


def differential(g, a):
    """Chevalley-Eilenberg differential (trivial coefficients).

    Antiderivation extension of d e^k = sum_{i<j} c_ij^k e^i^e^j, read off
    g.generator_differentials; raises degree by one and preserves weight.
    """
    if a.alg != g:
        raise AmbientMismatch("form ambient does not match the algebra")
    dgens = g.generator_differentials
    out = {}
    for mono, coeff in a.terms.items():
        for r, idx in enumerate(mono):
            dgen = dgens.get(idx)
            if dgen is None:
                continue
            rest = mono[:r] + mono[r + 1:]
            sign = -1 if r % 2 else 1
            for (i, j), c in dgen.items():
                norm = sort_with_sign((i, j) + rest)
                if norm is None:
                    continue
                s2, new_mono = norm
                term = (sign * s2 * c) * coeff
                cur = out.get(new_mono)
                out[new_mono] = term if cur is None else cur + term
    return Form(g, out)


def evaluate(a, vectors):
    """Multilinear alternating evaluation of a homogeneous form on vectors.

    Vectors are dicts index -> coefficient.  A basis monomial evaluated on
    matching basis vectors yields the permutation sign.
    """
    q = a.degree() if a.terms else len(vectors)
    if len(vectors) != q:
        raise ArityMismatch(f"need {q} vectors, got {len(vectors)}")
    total = Fraction(0)
    for mono, coeff in a.terms.items():
        # det of the q x q matrix  M[r][s] = e^{mono_r}(vectors[s])
        det = Fraction(0)
        for perm in permutations(range(q)):
            prod = Fraction(1)
            parity = sort_with_sign(perm)
            sign = parity[0]
            for r in range(q):
                v = vectors[perm[r]].get(mono[r], 0)
                if v == 0:
                    prod = Fraction(0)
                    break
                prod *= v
            if prod:
                det += sign * prod
        total += coeff * det
    return total


# -- monomial bases ----------------------------------------------------------

def slice_basis(g, q, k):
    """All strictly increasing q-tuples of generator indices with weight sum k,
    in lexicographic order.  A level stops at the first position from which
    remaining_q times the least weight still ahead exceeds the weight left,
    which bounds every completion for any positive weights."""
    if k > g.cutoff:
        raise CutoffTooSmall(k, g.cutoff, f"slice basis (q={q}, k={k})")
    if q <= 0:
        return [()] if q == 0 and k == 0 else []
    idx = g.indices
    weights = [g.weight(i) for i in idx]
    least = weights[:]      # least[pos]: the least weight at positions >= pos
    for pos in reversed(range(len(least) - 1)):
        least[pos] = min(least[pos], least[pos + 1])
    out = []

    def rec(start, remaining_q, remaining_k, acc):
        if remaining_q == 0:
            if remaining_k == 0:
                out.append(tuple(acc))
            return
        for pos in range(start, len(idx) - remaining_q + 1):
            if remaining_q * least[pos] > remaining_k:
                break
            w = weights[pos]
            if w > remaining_k:
                continue
            acc.append(idx[pos])
            rec(pos + 1, remaining_q - 1, remaining_k - w, acc)
            acc.pop()

    rec(0, q, k, [])
    return out


def slice_all_degree(g, q):
    """All strictly increasing q-tuples within the cutoff (any weight), in
    lexicographic order (the indices ascend)."""
    return list(combinations(g.indices, q))


# -- text rendering -----------------------------------------------------------
#
# Canonical rendering: terms sorted by monomial, each `c*e{i}^e{j}^...` with an
# exact rational coefficient; parse/print round-trips bit-exactly.

def render_form(a):
    if not a.terms:
        return "0"
    parts = []
    for mono in sorted(a.terms):
        c = a.terms[mono]
        if mono == ():
            parts.append(str(c))
        else:
            body = "^".join(f"e{i}" for i in mono)
            parts.append(f"{c}*{body}")
    return " + ".join(parts)


def _split_signed_terms(text):
    """Split a form expression on top-level +/- separators, keeping signs."""
    terms = []
    current = ""
    sign = 1
    for ch in text:
        if ch in "+-":
            if current.strip():
                terms.append((sign, current.strip()))
                current = ""
                sign = -1 if ch == "-" else 1
            else:
                if ch == "-":
                    sign = -sign
        else:
            current += ch
    if current.strip():
        terms.append((sign, current.strip()))
    return terms


def parse_form(g, text):
    text = text.strip()
    if text == "0" or not text:
        return Form.zero(g)
    total = Form.zero(g)
    for term_sign, term in _split_signed_terms(text):
        neg = term_sign < 0
        if "*" in term:
            c_s, mono_s = term.split("*", 1)
            if not mono_s.strip():
                raise AlgebraFormatError(0, f"bad term {term!r}")
            try:
                coeff = Fraction(c_s.strip())
            except (ValueError, ZeroDivisionError):
                raise AlgebraFormatError(0, f"bad coefficient {c_s!r}") from None
        elif term.startswith("e"):
            coeff, mono_s = 1, term
        else:
            try:
                coeff, mono_s = Fraction(term), ""
            except (ValueError, ZeroDivisionError):
                raise AlgebraFormatError(0, f"bad term {term!r}") from None
        coeff = _exact(-coeff if neg else coeff)
        if mono_s:
            indices = []
            for piece in mono_s.split("^"):
                piece = piece.strip()
                if not piece.startswith("e"):
                    raise AlgebraFormatError(0, f"bad monomial factor {piece!r}")
                try:
                    indices.append(int(piece[1:]))
                except ValueError:
                    raise AlgebraFormatError(0, f"bad monomial factor {piece!r}") from None
            total = total + Form.monomial(g, indices, coeff)
        else:
            total = total + Form.scalar(g, coeff)
    return total
