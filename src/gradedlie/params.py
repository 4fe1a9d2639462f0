"""Exact multivariate polynomials in solver parameters.

Defining-system families carry free parameters (one per representative at
each solvable slot).  Their entries are stored as one rational form per
parameter monomial, so the class coordinates of the related cocycle are
polynomials in the parameters with rational coefficients.  A monomial is a
sorted tuple of parameter ids (with repetition); () is the constant term.
Unlike Form coefficients, which are ints where integral, ParamPoly keeps
every coefficient a Fraction: its polynomials are few and small, int
coefficients there measured no gain, and one type keeps its terms uniform.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import _exact


def as_poly(value):
    """value as a ParamPoly (an int or a Fraction becomes a constant)."""
    if isinstance(value, ParamPoly):
        return value
    return ParamPoly({(): value})


class ParamPoly:
    """Coefficients are Fractions; an int is converted and any other number
    (a float above all) raises TypeError."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(_exact(c))
                if c != 0:
                    clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, value):
        return cls({(): value})

    @classmethod
    def var(cls, pid):
        return cls({(pid,): Fraction(1)})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = as_poly(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = c if s is None else s + c
        return ParamPoly(terms)

    def __mul__(self, other):
        return ParamPoly(_times(self.terms, as_poly(other).terms))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_poly(other)
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            body = "*".join(f"p{i}" for i in m)
            parts.append(f"{c}" if not m else f"{c}*{body}")
        return " + ".join(parts)

    # -- structure ----------------------------------------------------------
    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def is_affine(self):
        return self.degree() <= 1

    def is_constant(self):
        return self.degree() == 0

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(m)
        return out

    def linear_coeff(self, pid):
        return self.terms.get((pid,), Fraction(0))

    # -- substitution ---------------------------------------------------------
    def substitute(self, assignment):
        """Replace parameters by Fractions or ParamPolys; unmentioned
        parameters stay symbolic.  Each monomial is multiplied out factor by
        factor on term dicts and added into one, dropping zeros after every
        step as the ring operations do, so the terms come in the same order.
        An assigned number is read as a constant term, so the result is the
        one ParamPoly a call builds."""
        out = {}
        for mono, c in self.terms.items():
            acc = {(): c}
            for pid in mono:
                rep = assignment.get(pid)
                if rep is None:
                    factor = {(pid,): 1}
                elif isinstance(rep, ParamPoly):
                    factor = rep.terms
                else:
                    factor = {(): _exact(rep)}
                acc = _times(acc, factor)
            for m, v in acc.items():
                s = out.get(m)
                out[m] = v if s is None else s + v
            if 0 in out.values():
                out = {m: v for m, v in out.items() if v}
        return ParamPoly(out)

    def evaluate(self, assignment):
        """Full numeric evaluation; every variable must be assigned an int or a
        Fraction."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            prod = c
            for pid in mono:
                v = assignment[pid]
                prod *= v if isinstance(v, Fraction) else _exact(v)
            total += prod
        return total


def _times(left, right):
    """The product of two term dicts, monomials in order of first
    appearance, zero sums dropped."""
    terms = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            m = tuple(sorted(m1 + m2))
            c = c1 * c2
            s = terms.get(m)
            terms[m] = c if s is None else s + c
    return {m: c for m, c in terms.items() if c}
