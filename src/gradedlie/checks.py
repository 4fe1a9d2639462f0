"""Seeded random generators and identity suites.

Shared by the CLI `check identities` command and the test suite: these run
the m0 D-operator identities and the matrix Maurer-Cartan laws (Bianchi,
involution, generalized Leibniz, corner closedness) on random inputs with
exact arithmetic.  The matrix operations of those laws are built here from
wedge, bar and differential alone, so they check massey.mc_residual by a
route that shares no code with it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import load_preset
from .forms import Form, bar, differential, slice_all_degree, wedge
from .massey import ConnectionMatrix, is_formal_connection, mc_residual
from .mzero import D1, Dm1


def random_tail_form(rng, alg, max_weight, max_terms=3):
    """Random nonzero form in Lambda*(e2, e3, ...) of weight <= max_weight."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(1, 3)
        while True:
            indices = sorted(rng.sample(range(2, max_weight), degree))
            if len(set(indices)) == degree and sum(indices) <= max_weight:
                break
        coeff = Fraction(rng.randint(-5, 5))
        if coeff:
            terms[tuple(indices)] = terms.get(tuple(indices), Fraction(0)) + coeff
    return Form(alg, terms)


def random_homogeneous_form(rng, alg, degree, max_weight, max_terms=3):
    candidates = [m for m in slice_all_degree(alg, degree)
                  if sum(alg.weight(i) for i in m) <= max_weight]
    if not candidates:
        return Form.zero(alg)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = rng.choice(candidates)
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(rng.randint(-4, 4))
    return Form(alg, terms)


def random_connection(rng, alg, n, max_weight):
    return ConnectionMatrix.from_entries(alg, n, {
        (i, j): random_homogeneous_form(rng, alg, rng.randint(1, 3), max_weight)
        for i in range(1, n + 1) for j in range(i, n + 1)})


def mbar(a):
    return ConnectionMatrix.from_entries(a.alg, a.n, {key: bar(e) for key, e in a.entries.items()})


def mdiff(a):
    return ConnectionMatrix.from_entries(a.alg, a.n, {
        key: differential(a.alg, e) for key, e in a.entries.items()})


def msub(a, b):
    return ConnectionMatrix.from_entries(a.alg, a.n, {
        key: a.entry(*key) - b.entry(*key) for key in a.entries.keys() | b.entries.keys()})


def mmul(a, b):
    """AB, entry by entry: (AB)(i, j) = sum_r a(i, r) ^ b(r+1, j)."""
    zero = Form.zero(a.alg)
    return ConnectionMatrix.from_entries(a.alg, a.n, {
        (i, j): sum((wedge(a.entry(i, r), b.entry(r + 1, j)) for r in range(i, j)), zero)
        for i in range(1, a.n + 1) for j in range(i + 1, a.n + 1)})


def d_operator_suite(samples=500, max_weight=20, seed=0):
    """d xi = e1 ^ D1 xi,  d D_{-1} xi = e1 ^ xi,  D1 D_{-1} xi = xi."""
    rng = random.Random(seed)
    alg = load_preset("m0", 2 * max_weight + 2)
    e1 = Form.generator(alg, 1)
    for i in range(samples):
        xi = random_tail_form(rng, alg, max_weight)
        if xi.is_zero():
            continue
        if differential(alg, xi) != wedge(e1, D1(xi)):
            return False, f"d xi = e1^D1 xi fails at sample {i}"
        dm = Dm1(xi)
        if differential(alg, dm) != wedge(e1, xi):
            return False, f"d D-1 xi = e1^xi fails at sample {i}"
        if D1(dm) != xi:
            return False, f"D1 D-1 = id fails at sample {i}"
    return True, f"{samples} samples, weight <= {max_weight}"


def bianchi_suite(samples=200, seed=0, max_n=4, max_weight=8):
    """Bianchi, involution laws, generalized Leibniz, corner closedness."""
    rng = random.Random(seed)
    algebras = [load_preset("m0", 2 * max_weight), load_preset("L1", 2 * max_weight)]
    for i in range(samples):
        alg = algebras[i % 2]
        n = rng.randint(2, max_n)
        a = random_connection(rng, alg, n, max_weight)
        b = random_connection(rng, alg, n, max_weight)
        mu = mc_residual(a)
        if msub(mdiff(mu), mmul(mbar(mu), a)) != mmul(a, mu):
            return False, f"Bianchi fails at sample {i}"
        if mbar(mbar(a)) != a:
            return False, f"bar involution fails at sample {i}"
        ab, zero = mmul(a, b), ConnectionMatrix(alg, n)
        if mbar(ab) != msub(zero, mmul(mbar(a), mbar(b))):
            return False, f"bar(AB) = -bar(A)bar(B) fails at sample {i}"
        if mbar(mdiff(a)) != msub(zero, mdiff(mbar(a))):
            return False, f"bar(dA) = -d bar(A) fails at sample {i}"
        if mdiff(ab) != msub(mmul(mdiff(a), b), mmul(mbar(a), mdiff(b))):
            return False, f"generalized Leibniz fails at sample {i}"
        ok, tau = is_formal_connection(a)
        if ok and not differential(alg, tau).is_zero():
            return False, f"corner closedness fails at sample {i}"
    return True, f"{samples} samples, n <= {max_n}, weight <= {max_weight}"
