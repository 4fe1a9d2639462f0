"""Truncated N-graded Lie algebras.

An algebra is given by weighted generators e_i and sparse structure constants
for [e_i, e_j] with i < j; brackets landing above the weight cutoff are
dropped (the quotient by the ideal of weight > W is again a Lie algebra
because the grading is positive).  The two presets are

    m0:  [e_1, e_i] = e_{i+1}           (i >= 2)
    L1:  [e_i, e_j] = (j - i) e_{i+j}   (positive part of the Witt algebra)

with the canonical grading weight(e_i) = i.  Alternative gradings are
representable only through explicit weights in the file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlgebraFormatError,
    InvalidCutoff,
    JacobiViolation,
    NotApplicable,
    WeightViolation,
)
from .forms import _exact


@dataclass(frozen=True)
class GeneratorSpec:
    index: int
    weight: int

    def __post_init__(self):
        if self.index <= 0:
            raise AlgebraFormatError(0, f"generator index must be positive, got {self.index}")
        if self.weight < 1:
            raise WeightViolation(self.index, 0, 0, f"generator weight must be >= 1, got {self.weight}")


class GradedLieAlgebra:
    """Immutable truncated graded Lie algebra.

    brackets maps (i, j) with i < j to a tuple of (coefficient, target index)
    pairs, one per target: repeated targets are summed and zero sums dropped.
    Zero brackets are never stored; absence means zero.  The algebra is the
    only reader of this table.  generator_differentials maps k to the
    structure constants {(i, j): c_ij^k} of d e^k = sum c_ij^k e^i^e^j,
    built once here; a generator with d e^k = 0 has no key.
    """

    def __init__(self, generators, brackets, cutoff, lines=None):
        """lines: {(i, j), "generators" or "cutoff": file line of that
        bracket or header}, named in the errors about it."""
        lines = lines or {}
        if cutoff < 2:
            raise InvalidCutoff(f"{_at(lines, 'cutoff')}cutoff must be >= 2, got {cutoff}")
        gens = tuple(sorted(generators, key=lambda s: s.index))
        indices = [g.index for g in gens]
        if len(set(indices)) != len(indices):
            raise AlgebraFormatError(0, "duplicate generator indices")
        self.generators = gens
        self.cutoff = cutoff
        self._weights = {g.index: g.weight for g in gens}
        for g in gens:
            if g.weight > cutoff:
                raise WeightViolation(g.index, 0, 0, f"{_at(lines, 'generators')}generator "
                                      f"e{g.index} has weight {g.weight} > cutoff {cutoff}")
        norm, dgen = {}, {}
        for (i, j), terms in brackets.items():
            if i >= j:
                raise AlgebraFormatError(0, f"bracket key ({i},{j}) must have i < j")
            summed = {}
            for c, k in terms:
                summed[int(k)] = summed.get(int(k), 0) + _exact(c)
            if clean := tuple((c, k) for k, c in summed.items() if c):
                norm[(i, j)] = clean
                for c, k in clean:
                    dgen.setdefault(k, {})[(i, j)] = c
        self.brackets = norm
        self.generator_differentials = dgen
        self._key = (gens, tuple(sorted(norm.items())), cutoff)
        self._hash = hash(self._key)    # every cache lookup hashes the algebra
        self._check_weights(lines)
        self._check_jacobi()
        # is_m0_like and is_m0, set here: a cached_property would write the
        # instance __dict__ later, and that slows every attribute read of the
        # algebra.  Every bracket target is a generator, so a missing e{i+1}
        # fails is_m0_like; an m0 tail (e1 and e_a..e_cutoff, a > 2) passes
        # it, so is_m0 also asks for e1..e{cutoff} with weight(ei) = i.
        self._m0_like = self.has_index(1) and norm == {
            (1, i): ((Fraction(1), i + 1),) for i in self.indices
            if i >= 2 and self.weight(1) + self.weight(i) <= cutoff}
        self._m0 = self._m0_like and self._weights == {i: i for i in range(1, cutoff + 1)}
        # e1_chain, set here for the same reason: x_w the generator of weight
        # w, one for each w = 1..cutoff, and [x1, xi] reaching x{i+1}
        by_weight = {w: i for i, w in self._weights.items()}
        chain = tuple(by_weight.get(w) for w in range(1, cutoff + 1))
        self._e1_chain = chain if len(gens) == cutoff and None not in chain and all(
            any(t == chain[i] for _, t in self.bracket_terms(chain[0], chain[i - 1]))
            for i in range(2, cutoff)) else None

    # -- identity ---------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, GradedLieAlgebra) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GradedLieAlgebra({len(self.generators)} generators, cutoff={self.cutoff})"

    # -- basic queries ----------------------------------------------------
    @property
    def indices(self):
        return [g.index for g in self.generators]

    def weight(self, index):
        try:
            return self._weights[index]
        except KeyError:
            raise AlgebraFormatError(0, f"unknown generator index {index}") from None

    def has_index(self, index):
        return index in self._weights

    def bracket_terms(self, i, j):
        """Structure constants of [e_i, e_j] for arbitrary i, j (antisymmetry applied)."""
        if i == j:
            return ()
        if i < j:
            return self.brackets.get((i, j), ())
        return tuple((-c, k) for c, k in self.brackets.get((j, i), ()))

    # -- validation -------------------------------------------------------
    def _check_weights(self, lines):
        for (i, j), terms in self.brackets.items():
            wij = self.weight(i) + self.weight(j)
            at = _at(lines, (i, j))
            if wij > self.cutoff:
                raise WeightViolation(i, j, terms[0][1],
                                      f"{at}bracket [{i},{j}] exceeds cutoff and must be dropped")
            for _, k in terms:
                if not self.has_index(k):
                    raise AlgebraFormatError(lines.get((i, j), 0),
                                             f"bracket [{i},{j}] targets unknown generator {k}")
                if self.weight(k) != wij:
                    raise WeightViolation(
                        i, j, k, f"{at}bracket [{i},{j}] -> {k} violates weight additivity")

    def _check_jacobi(self):
        idx = self.indices
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                for c in range(b + 1, len(idx)):
                    i, j, k = idx[a], idx[b], idx[c]
                    if self.weight(i) + self.weight(j) + self.weight(k) > self.cutoff:
                        continue
                    acc = {}
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for c1, t in self.bracket_terms(x, y):
                            for c2, u in self.bracket_terms(t, z):
                                acc[u] = acc.get(u, 0) + c1 * c2
                    if any(v != 0 for v in acc.values()):
                        raise JacobiViolation((i, j, k))


def _at(lines, key):
    """The "line N: " prefix of errors about a file item, "" without a line."""
    return f"line {lines[key]}: " if key in lines else ""


# -- presets ---------------------------------------------------------------

def load_preset(name, cutoff):
    """Return the m0 or L1 truncation at weight <= cutoff."""
    if cutoff < 2:
        raise InvalidCutoff(f"cutoff must be >= 2, got {cutoff}")
    gens = [GeneratorSpec(i, i) for i in range(1, cutoff + 1)]
    brackets = {}
    if name == "m0":
        for i in range(2, cutoff):
            brackets[(1, i)] = ((Fraction(1), i + 1),)
    elif name == "L1":
        for i in range(1, cutoff + 1):
            for j in range(i + 1, cutoff + 1 - i):
                brackets[(i, j)] = ((Fraction(j - i), i + j),)
    else:
        raise AlgebraFormatError(0, f"unknown preset {name!r} (expected 'm0' or 'L1')")
    return GradedLieAlgebra(gens, brackets, cutoff)


def is_m0_like(g):
    """True when g has exactly the m0 bracket relations [e1,ei]=e{i+1}, one for
    every i >= 2 with weight(1) + weight(i) <= cutoff."""
    return g._m0_like


def is_m0(g):
    """True exactly for the m0 truncation: generators e1..e{cutoff} with
    weight(ei) = i and the m0 brackets, the algebras omega is defined on."""
    return g._m0


def e1_chain(g):
    """(x_1, ..., x_cutoff), x_w the generator of weight w, when g has one
    generator of each weight 1..cutoff and [x_1, x_i] has a nonzero x_{i+1}
    coefficient for 2 <= i < cutoff (m0, L1, m2 and relabelled copies of
    them); None otherwise.  Then the e^1 part of d has m0's support, and
    every other bracket lowers the central-series filtration of cochains."""
    return g._e1_chain


# -- bracket of coefficient vectors ----------------------------------------

def bracket(g, x, y):
    """Bilinear antisymmetric extension of the structure constants.

    Vectors are dicts index -> coefficient; the result is the same.
    """
    out = {}
    for i, xi in x.items():
        if xi == 0:
            continue
        for j, yj in y.items():
            if yj == 0 or i == j:
                continue
            for c, k in g.bracket_terms(i, j):
                out[k] = out.get(k, Fraction(0)) + xi * yj * c
    return {k: v for k, v in out.items() if v != 0}


# -- descending central series and gr --------------------------------------

@dataclass(frozen=True)
class Filtration:
    """C^1 g >= C^2 g >= ...  as sets of basis indices (coordinate subspaces)."""

    terms: tuple

    def level(self, index):
        """Largest k with e_index in C^k."""
        lev = 0
        for k, t in enumerate(self.terms, start=1):
            if index in t:
                lev = k
        return lev

    def check_bracket_compatibility(self, g):
        """[C^k, C^l] subset of C^{k+l}, checked on basis elements for
        k + l <= depth (past the last term nothing is asserted)."""
        terms, depth = self.terms, len(self.terms)
        return all(t in terms[k + l - 1]
                   for k in range(1, depth) for l in range(1, depth - k + 1)
                   for i in terms[k - 1] for j in terms[l - 1]
                   for _, t in g.bracket_terms(i, j))


def central_series(g):
    """C^1 = everything; C^{k+1} = span [g, C^k], iterated to stabilization.

    For the supported algebras every term is a coordinate subspace (spanned by
    basis vectors); a bracket with a target mixing new directions with old is
    still coordinate because targets are single weighted lines per slice here.
    """
    current = frozenset(g.indices)
    terms = [current]
    while current:
        nxt = set()
        for i in g.indices:
            for j in current:
                for c, k in g.bracket_terms(i, j):
                    if c != 0:
                        nxt.add(k)
        nxt = frozenset(nxt)
        if nxt == current:
            break
        terms.append(nxt)
        current = nxt
    return Filtration(tuple(t for t in terms if t))   # only the last term can be empty


def associated_graded(g):
    """gr_C g with generator weights equal to filtration levels.

    Quotient bases use the lexicographically smallest generator indices
    spanning C^k modulo C^{k+1} (determinism).  Generators keep their
    original indices; only the weights change.
    """
    filt = central_series(g)
    levels = {i: filt.level(i) for i in g.indices}
    max_level = max(levels.values(), default=1)
    gens = [GeneratorSpec(i, levels[i]) for i in g.indices]
    brackets = {}
    for (i, j), old_terms in g.brackets.items():
        lvl = levels[i] + levels[j]
        if lvl > max_level:
            continue
        # keep only target components living exactly at filtration level lvl;
        # deeper components are zero in the quotient C^lvl / C^{lvl+1}
        keep = tuple((c, k) for c, k in old_terms if levels[k] == lvl)
        deeper_ok = all(levels[k] >= lvl for _, k in old_terms)
        if not deeper_ok:
            raise NotApplicable(
                f"bracket [{i},{j}] leaves filtration level {lvl}; not gr-compatible")
        if keep:
            brackets[(i, j)] = keep
    return GradedLieAlgebra(gens, brackets, max(max_level, 2))


@dataclass(frozen=True)
class NormalFormWitness:
    """Change of basis f_m = sum coeffs[m][i] e_i realizing the m0 relations."""

    ok: bool
    coeffs: tuple = ()
    failure_level: int = 0

    def __bool__(self):
        return self.ok


def m0_normal_form(g):
    """Try to rescale a gr-graded algebra with dimension pattern (2,1,1,...)
    onto the exact m0 relations [f_1, f_i] = f_{i+1}.

    Success returns the change-of-basis witness; failure reports the first
    level where no degree-1 element acts surjectively onto the next level.
    """
    by_weight = {}
    for gen in g.generators:
        by_weight.setdefault(gen.weight, []).append(gen.index)
    depth = max(by_weight)
    pattern_ok = sorted(by_weight) == list(range(1, depth + 1)) and \
        len(by_weight[1]) == 2 and all(len(by_weight[k]) == 1 for k in range(2, depth + 1))
    if not pattern_ok:
        raise NotApplicable("dimension pattern is not (2,1,1,...)")

    u, v = sorted(by_weight[1])

    def vec(i):
        return {i: Fraction(1)}

    candidates = [vec(u), vec(v),
                  {u: Fraction(1), v: Fraction(1)},
                  {u: Fraction(1), v: Fraction(-1)},
                  {u: Fraction(1), v: Fraction(2)}]
    first_bad_level = depth
    for f1 in candidates:
        for f2 in (vec(v), vec(u)):
            if f2.keys() == f1.keys() and all(f1[k] == f2[k] for k in f2):
                continue
            chain = [f1, f2]  # chain[m] = f_{m+1}
            level = 1
            ok = True
            while level < depth:
                nxt = bracket(g, f1, chain[-1])
                if not nxt:
                    ok = False
                    first_bad_level = min(first_bad_level, level)
                    break
                chain.append(nxt)
                level += 1
            if not ok:
                continue
            # verify every m0 relation: [f_i, f_j] = 0 for 2 <= i < j
            relations_ok = True
            for a in range(1, len(chain)):
                for b in range(a + 1, len(chain)):
                    if bracket(g, chain[a], chain[b]):
                        relations_ok = False
                        break
                if not relations_ok:
                    break
            if relations_ok:
                coeffs = tuple(tuple(sorted(c.items())) for c in chain)
                return NormalFormWitness(True, coeffs)
    return NormalFormWitness(False, (), first_bad_level)


# -- text format ------------------------------------------------------------
#
# Line-oriented description:
#     # comment
#     generators: (1:1), (2:2), (3:3)
#     cutoff: 3
#     [1,2] = 1*3
#
# Coefficients are exact rationals p/q; omitted pairs are zero.

def _parse_rational(text, line_no):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise AlgebraFormatError(line_no, f"bad rational {text!r}") from None


def parse_algebra(text):
    generators = None
    cutoff = None
    brackets = {}
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            if generators is not None:
                raise AlgebraFormatError(line_no, "second 'generators:' line")
            generators = []
            lines["generators"] = line_no
            body = line[len("generators:"):].strip()
            if body:
                for part in body.split(","):
                    part = part.strip()
                    if not (part.startswith("(") and part.endswith(")") and ":" in part):
                        raise AlgebraFormatError(line_no, f"bad generator spec {part!r}")
                    idx_s, w_s = part[1:-1].split(":", 1)
                    try:
                        generators.append(GeneratorSpec(int(idx_s), int(w_s)))
                    except ValueError:
                        raise AlgebraFormatError(line_no, f"bad generator spec {part!r}") from None
                    except (AlgebraFormatError, WeightViolation) as err:
                        raise AlgebraFormatError(line_no, getattr(err, "message", str(err))) from None
            if len({spec.index for spec in generators}) < len(generators):
                raise AlgebraFormatError(line_no, "duplicate generator indices")
        elif line.startswith("cutoff:"):
            if cutoff is not None:
                raise AlgebraFormatError(line_no, "second 'cutoff:' line")
            try:
                cutoff = int(line[len("cutoff:"):].strip())
            except ValueError:
                raise AlgebraFormatError(line_no, "bad cutoff") from None
            lines["cutoff"] = line_no
        elif line.startswith("["):
            head, _, rhs = line.partition("=")
            if not rhs:
                raise AlgebraFormatError(line_no, "expected '[i,j] = ...'")
            head = head.strip()
            if not (head.startswith("[") and head.endswith("]")):
                raise AlgebraFormatError(line_no, f"bad bracket key {head!r}")
            try:
                i_s, j_s = head[1:-1].split(",")
                i, j = int(i_s), int(j_s)
            except ValueError:
                raise AlgebraFormatError(line_no, f"bad bracket key {head!r}") from None
            if i >= j:
                raise AlgebraFormatError(line_no, f"bracket key must have i < j, got [{i},{j}]")
            if lines.setdefault((i, j), line_no) != line_no:
                raise AlgebraFormatError(line_no, f"second bracket [{i},{j}]")
            terms = []
            for term in rhs.split("+"):
                term = term.strip()
                if not term:
                    raise AlgebraFormatError(line_no, "empty term")
                if "*" in term:
                    c_s, k_s = term.rsplit("*", 1)
                    coeff = _parse_rational(c_s, line_no)
                else:
                    coeff, k_s = Fraction(1), term
                try:
                    k = int(k_s.strip())
                except ValueError:
                    raise AlgebraFormatError(line_no, f"bad target index {k_s!r}") from None
                terms.append((coeff, k))
            brackets[(i, j)] = tuple(terms)
        else:
            raise AlgebraFormatError(line_no, f"unrecognized line {line!r}")
    if generators is None:
        raise AlgebraFormatError(0, "missing 'generators:' header")
    if cutoff is None:
        cutoff = max([2] + [spec.weight for spec in generators])
    return GradedLieAlgebra(generators, brackets, cutoff, lines)


def write_algebra(g):
    """Canonical text form; round-trips bit-exactly through parse_algebra."""
    lines = ["generators: " + ", ".join(f"({s.index}:{s.weight})" for s in g.generators),
             f"cutoff: {g.cutoff}"]
    for (i, j) in sorted(g.brackets):
        terms = " + ".join(f"{c}*{k}" for c, k in g.brackets[(i, j)])
        lines.append(f"[{i},{j}] = {terms}")
    return "\n".join(lines) + "\n"
