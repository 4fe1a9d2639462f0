"""Workload definitions: seeded op lists and the judgement of each answer.

An op is one call of a public library function.  ``run`` executes it and
``judge`` turns its outcome (a value or an exception) into a rung name, a
decided flag and a list of oracle problems.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import oracles
from gradedlie import algebra, cohomology, massey, mzero
from gradedlie.errors import CutoffTooSmall, MasseyNotDefined
from gradedlie.forms import Form, parse_form

# algebras each workload loads during set-up: (preset, cutoff)
ALGEBRAS = {
    "betti-sweep": (("L1", 26), ("m0", 24)),
    "triple-grid": (("m0", 10),),
    "massey-ladder": (("m0", 16), ("L1", 16), ("m0", 18)),
}

DECIDED = ("TrivialWitness", "NonTrivialCertified", "ValueSet")

TRIPLE_DRAWS = 4000
# massey-ladder: products per stratum, drawn once with a fixed seed so that
# the rung mix (and with it decided_ratio) is the same for every run seed
LADDER_POOL_SEED = 20061
LADDER_STRATA = (("m0", 4, 100), ("m0", 5, 100), ("L1", 4, 60))
LADDER_CLASSES = {
    "m0": ("e1", "e2", "e2+e1", "omega(2)", "omega(3)"),
    "L1": ("e1", "e2", "e2+e1", "e1^e4", "e2^e5-3*e3^e4"),
}
CERTIFICATE_SHAPES = ((2, (3,)), (3, (4,)), (3, (4, 5)), (4, (5,)))
CERTIFICATE_SAMPLES = 100


@dataclass
class Verdict:
    rung: str | None
    decided: bool
    problems: list


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    judge: Callable[[object, BaseException | None], Verdict]


def load_algebras(workload):
    return {spec: algebra.load_preset(*spec) for spec in ALGEBRAS[workload]}


def build(workload, seed, algebras):
    return BUILDERS[workload](random.Random(seed), seed, algebras)


def _unexpected(exc):
    return Verdict(None, False, [f"unexpected {type(exc).__name__}: {exc}"])


# -- betti-sweep ----------------------------------------------------------------

def _betti_op(g, name, q, k):
    def judge(dim, exc):
        if exc is not None:
            return _unexpected(exc)
        return Verdict(None, True, oracles.check_betti(name, q, k, dim))
    return Op(f"betti {name}/{g.cutoff} q={q} k={k}",
              lambda: cohomology.betti(g, q, k), judge)


def _betti_sweep(rng, seed, algebras):
    # Degrees run in ascending order, so the d-matrix that slices (q, k) and
    # (q+1, k) share is always built by (q, k) and every op does the same
    # work on every seed; the seed shuffles the weights within each degree.
    ops = []
    for (name, cutoff), qmax in ((("L1", 26), 4), (("m0", 24), 5)):
        g = algebras[(name, cutoff)]
        for q in range(1, qmax + 1):
            weights = list(range(1, cutoff + 1))
            rng.shuffle(weights)
            ops += [_betti_op(g, name, q, k) for k in weights]
    return ops


# -- triple-grid ----------------------------------------------------------------

def _rung(result):
    if result.status == "ValueSet":
        return "value-set"
    if result.status == "Undecided":
        return "undecided"
    return result.certificate.get("kind")


def _massey_judge(g, pairs=None, expect_triple=False):
    """Judge for evaluate_product / triple_product outcomes.  ``pairs`` are
    the (a, b) coordinates of 1-class inputs over m0, when they all are."""
    def judge(result, exc):
        if isinstance(exc, MasseyNotDefined):
            problems = []
            if expect_triple:
                problems.append("triple product reported not defined")
            elif pairs is not None:
                problems += oracles.check_classification(pairs, "NotDefined")
            return Verdict("not-defined", True, problems)
        if isinstance(exc, CutoffTooSmall) and not expect_triple:
            return Verdict("refused", False, [])
        if exc is not None:
            return _unexpected(exc)
        problems = oracles.check_result(g, result)
        if expect_triple:
            problems += oracles.check_triple(pairs, result.status)
        if pairs is not None:
            problems += oracles.check_classification(pairs, result.status)
        return Verdict(_rung(result), result.status in DECIDED, problems)
    return judge


def _one_class(g, pair):
    a, b = pair
    return a * Form.generator(g, 1) + b * Form.generator(g, 2)


def _triple_grid(rng, seed, algebras):
    g = algebras[("m0", 10)]
    coords = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    triples = list(itertools.product(coords, repeat=3))
    ops = []
    for pairs in rng.sample(triples, TRIPLE_DRAWS):
        a, b, c = (_one_class(g, p) for p in pairs)
        ops.append(Op(f"triple {pairs}",
                      lambda a=a, b=b, c=c: massey.triple_product(g, a, b, c),
                      _massey_judge(g, pairs, expect_triple=True)))
    return ops


# -- massey-ladder --------------------------------------------------------------

def _ladder_class(g, text):
    if text.startswith("omega("):
        return mzero.omega(g, [int(text[6:-1])])
    return parse_form(g, text)


_ONE_CLASS_PAIRS = {"e1": (1, 0), "e2": (0, 1), "e2+e1": (1, 1)}


def _certificate_op(g, i1, tail, seed):
    classes = [parse_form(g, "e2")] + [parse_form(g, "e1")] * (i1 - 2) + \
        [mzero.omega(g, list(tail))]

    def judge(cert, exc):
        if exc is not None:
            return _unexpected(exc)
        return Verdict("leading-coefficient", cert is not None,
                       oracles.check_certificate(cert, i1, CERTIFICATE_SAMPLES))
    return Op(f"certificate i1={i1} tail={list(tail)}",
              lambda: massey.leading_coefficient_certificate(
                  g, classes, samples=CERTIFICATE_SAMPLES, seed=seed), judge)


def _massey_ladder(rng, seed, algebras):
    pool_rng = random.Random(LADDER_POOL_SEED)
    ops = []
    for name, arity, count in LADDER_STRATA:
        g = algebras[(name, 16)]
        texts = LADDER_CLASSES[name]
        forms = {t: _ladder_class(g, t) for t in texts}
        for words in pool_rng.sample(list(itertools.product(texts, repeat=arity)), count):
            classes = [forms[t] for t in words]
            pairs = None
            if name == "m0" and all(t in _ONE_CLASS_PAIRS for t in words):
                pairs = [_ONE_CLASS_PAIRS[t] for t in words]
            ops.append(Op(f"massey {name}/16 <{'; '.join(words)}>",
                          lambda g=g, classes=classes: massey.evaluate_product(
                              g, classes, seed=seed),
                          _massey_judge(g, pairs)))
    g18 = algebras[("m0", 18)]
    ops += [_certificate_op(g18, i1, tail, seed) for i1, tail in CERTIFICATE_SHAPES]
    rng.shuffle(ops)
    return ops


BUILDERS = {"betti-sweep": _betti_sweep, "triple-grid": _triple_grid,
            "massey-ladder": _massey_ladder}
