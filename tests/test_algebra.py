from fractions import Fraction

import pytest

from gradedlie.algebra import (Filtration, GeneratorSpec, GradedLieAlgebra,
                               associated_graded, bracket, central_series,
                               is_m0, is_m0_like, load_preset, m0_normal_form,
                               parse_algebra, write_algebra)
from gradedlie.errors import (AlgebraFormatError, InvalidCutoff,
                              JacobiViolation, NotApplicable, WeightViolation)


def vec(*pairs):
    return {i: Fraction(c) for i, c in pairs}


def test_preset_m0_brackets():
    g = load_preset("m0", 5)
    assert g.brackets == {(1, 2): ((Fraction(1), 3),),
                         (1, 3): ((Fraction(1), 4),),
                         (1, 4): ((Fraction(1), 5),)}


def test_preset_L1_brackets():
    g = load_preset("L1", 5)
    assert g.brackets == {(1, 2): ((Fraction(1), 3),),
                         (1, 3): ((Fraction(2), 4),),
                         (1, 4): ((Fraction(3), 5),),
                         (2, 3): ((Fraction(1), 5),)}


def test_preset_L1_cutoff2_abelian():
    g = load_preset("L1", 2)
    assert g.brackets == {}


def test_invalid_cutoff():
    with pytest.raises(InvalidCutoff):
        load_preset("m0", 1)


def test_is_m0_like():
    assert is_m0_like(load_preset("m0", 9))
    assert not is_m0_like(load_preset("L1", 9))


def test_bracket_bilinear_antisymmetric(m0, L1):
    assert bracket(m0, vec((1, 1)), vec((4, 1))) == vec((5, 1))
    assert bracket(L1, vec((2, 1)), vec((3, 1))) == vec((5, 1))
    x = vec((1, 2), (3, -1), (4, 5))
    assert bracket(L1, x, x) == {}
    # bilinearity spot check: [e1 + 2 e2, e3] = 2 e4 + 2 e5 in L1
    assert bracket(L1, vec((1, 1), (2, 2)), vec((3, 1))) == vec((4, 2), (5, 2))


def test_central_series_m0():
    cs = central_series(load_preset("m0", 5))
    assert [sorted(t) for t in cs.terms] == [[1, 2, 3, 4, 5], [3, 4, 5], [4, 5], [5]]


def test_central_series_L1_cutoff6():
    cs = central_series(load_preset("L1", 6))
    assert sorted(cs.terms[1]) == [3, 4, 5, 6]
    assert sorted(cs.terms[2]) == [4, 5, 6]


def test_central_series_abelian():
    cs = central_series(load_preset("L1", 2))
    assert len(cs.terms) == 1  # C^2 is already zero


def test_central_series_bracket_compatibility(m0, L1):
    for g in (m0, L1):
        assert central_series(g).check_bracket_compatibility(g)


def test_bracket_compatibility_rejects_bad_filtration():
    g = load_preset("m0", 5)
    everything = frozenset(range(1, 6))
    # [e1, e2] = e3 is not in C^2, and [e1, e3] = e4 (levels 1 + 2) is not in C^3
    assert not Filtration((everything, frozenset({4, 5}))).check_bracket_compatibility(g)
    assert not Filtration((everything, frozenset({3, 4, 5}),
                           frozenset({5}))).check_bracket_compatibility(g)
    assert Filtration((everything, frozenset({3, 4, 5}),
                       frozenset({4, 5}))).check_bracket_compatibility(g)


def test_associated_graded_m0_weights():
    gr = associated_graded(load_preset("m0", 8))
    weights = {s.index: s.weight for s in gr.generators}
    assert weights[1] == 1 and weights[2] == 1
    assert all(weights[i] == i - 1 for i in range(3, 9))
    # same bracket relations as m0
    assert is_m0_like(gr)


def test_associated_graded_L1():
    gr = associated_graded(load_preset("L1", 8))
    for i in range(2, 8):
        assert gr.brackets[(1, i)] == ((Fraction(i - 1), i + 1),)
    assert all((2, i) not in gr.brackets for i in range(3, 8))


def test_associated_graded_idempotent():
    gr = associated_graded(load_preset("L1", 9))
    assert associated_graded(gr) == gr


def test_m0_normal_form_of_gr_L1():
    for w in range(3, 10):
        gr = associated_graded(load_preset("L1", w))
        witness = m0_normal_form(gr)
        assert witness.ok
        # chain scaling: f_{i+1} = (i-1)! e_{i+1}
        fact = 1
        for m, coeffs in enumerate(witness.coeffs[2:], start=2):
            fact *= m - 1
            assert coeffs == ((m + 1, Fraction(fact)),)


def test_m0_normal_form_identity_on_m0():
    gr = associated_graded(load_preset("m0", 7))
    witness = m0_normal_form(gr)
    assert witness.ok
    assert witness.coeffs[0] == ((1, Fraction(1)),)


def test_m0_normal_form_failure_abelian():
    gens = [GeneratorSpec(1, 1), GeneratorSpec(2, 1), GeneratorSpec(3, 2)]
    g = GradedLieAlgebra(gens, {}, 2)
    witness = m0_normal_form(g)
    assert not witness.ok
    assert witness.failure_level == 1


def test_m0_normal_form_wrong_pattern():
    with pytest.raises(NotApplicable):
        m0_normal_form(load_preset("m0", 5))  # pattern (1,1,1,...) not (2,1,...)


def test_parse_roundtrip_m0():
    g = load_preset("m0", 5)
    assert parse_algebra(write_algebra(g)) == g
    assert write_algebra(parse_algebra(write_algebra(g))) == write_algebra(g)


def test_parse_roundtrip_L1():
    g = load_preset("L1", 7)
    assert parse_algebra(write_algebra(g)) == g


def test_parse_weight_violation():
    text = "generators: (1:1), (2:2)\ncutoff: 2\n[1,2] = 1*2\n"
    with pytest.raises(WeightViolation):
        parse_algebra(text)


def test_parse_jacobi_violation():
    # L1 truncation with one perturbed coefficient: Jacobi fails on (1,2,3)
    text = ("generators: (1:1), (2:2), (3:3), (4:4), (5:5), (6:6)\n"
            "cutoff: 6\n"
            "[1,2] = 1*3\n[1,3] = 2*4\n[1,4] = 3*5\n[1,5] = 4*6\n"
            "[2,3] = 7*5\n[2,4] = 2*6\n")
    with pytest.raises(JacobiViolation) as err:
        parse_algebra(text)
    assert err.value.triple == (1, 2, 3)


def test_parse_syntax_error_line_number():
    with pytest.raises(AlgebraFormatError) as err:
        parse_algebra("generators: (1:1), (2:2)\nnot a line\n")
    assert err.value.line_no == 2


def test_parse_comments_and_rationals():
    text = ("# a filiform-ish toy\n"
            "generators: (1:1), (2:2), (3:3)\n"
            "cutoff: 3\n"
            "[1,2] = 1/2*3  # half\n")
    g = parse_algebra(text)
    assert g.brackets[(1, 2)] == ((Fraction(1, 2), 3),)


def test_jacobi_holds_on_presets(m0, L1):
    # construction validates; re-run explicitly
    m0._check_jacobi()
    L1._check_jacobi()


def test_weight_additivity_enforced():
    gens = [GeneratorSpec(1, 1), GeneratorSpec(2, 2), GeneratorSpec(3, 3)]
    with pytest.raises(WeightViolation):
        GradedLieAlgebra(gens, {(1, 3): ((Fraction(1), 2),)}, 4)


def test_filtration_level():
    filt = Filtration((frozenset({1, 2, 3}), frozenset({3})))
    assert filt.level(1) == 1
    assert filt.level(3) == 2
    assert filt.level(9) == 0


def test_associated_graded_abelian():
    g = load_preset("L1", 2)  # abelian truncation
    gr = associated_graded(g)
    assert gr.brackets == {}
    assert [s.index for s in gr.generators] == [1, 2]


def test_constructor_rejects_what_the_parser_cannot_reach():
    # parse_algebra rejects repeated indices and i >= j itself and names no
    # preset, so these checks are reached only through the constructor and
    # load_preset
    with pytest.raises(AlgebraFormatError, match=r"^line 0: duplicate generator indices$"):
        GradedLieAlgebra([GeneratorSpec(1, 1), GeneratorSpec(1, 1)], {}, 2)
    gens = [GeneratorSpec(1, 1), GeneratorSpec(2, 2), GeneratorSpec(3, 3)]
    with pytest.raises(AlgebraFormatError, match=r"^line 0: bracket key \(2,1\) must have i < j$"):
        GradedLieAlgebra(gens, {(2, 1): ((Fraction(1), 3),)}, 3)
    # the parser makes only Fractions; a float would turn inexact
    with pytest.raises(TypeError, match=r"^form coefficients are int or Fraction, not float$"):
        GradedLieAlgebra(gens, {(1, 2): ((0.1, 3),)}, 3)
    with pytest.raises(AlgebraFormatError,
                       match=r"^line 0: unknown preset 'm1' \(expected 'm0' or 'L1'\)$"):
        load_preset("m1", 5)


def _bracket_comparison(g):
    """The m0 test spelled out: g has e1 and exactly the brackets
    [e1, ei] = e{i+1} that fit under its cutoff, each with its e{i+1}."""
    if 1 not in g.indices:
        return False
    fitting = [i for i in g.indices if i >= 2 and g.weight(1) + g.weight(i) <= g.cutoff]
    return (all(i + 1 in g.indices for i in fitting)
            and g.brackets == {(1, i): ((Fraction(1), i + 1),) for i in fitting})


M0_TYPE_FILE = ("# m0 relations with explicit weights\n"
                "generators: (1:1), (2:2), (3:3), (4:4), (5:5), (6:6)\n"
                "cutoff: 6\n"
                "[1,2] = 1*3\n[1,3] = 1*4\n[1,4] = 1*5\n[1,5] = 1*6\n")


@pytest.mark.parametrize("make, known", [
    (lambda: load_preset("m0", 11), True), (lambda: load_preset("L1", 11), False),
    (lambda: associated_graded(load_preset("L1", 11)), False),
    (lambda: parse_algebra(M0_TYPE_FILE), True),
    (lambda: parse_algebra("generators: (1:1), (2:2)\ncutoff: 6\n"), False)],
    ids=["m0", "L1", "gr-L1", "m0-file", "no-e3"])
def test_is_m0_like_is_stored_and_matches_the_brackets(make, known):
    # the answer is computed once, when the algebra is built, and kept on it
    g = make()
    assert g._m0_like is is_m0_like(g) is _bracket_comparison(g) is known


@pytest.mark.parametrize("make, known", [
    (lambda: load_preset("m0", 11), True), (lambda: parse_algebra(M0_TYPE_FILE), True),
    (lambda: associated_graded(load_preset("m0", 11)), False),
    # e2 missing: the m0 brackets hold and the weights are canonical
    (lambda: parse_algebra("generators: (1:1), (3:3), (4:4), (5:5)\ncutoff: 5\n"
                           "[1,3] = 1*4\n[1,4] = 1*5\n"), False),
    (lambda: parse_algebra("generators: (1:1)\ncutoff: 2\n"), False)],
    ids=["m0", "m0-file", "gr-m0", "m0-tail", "e1-only"])
def test_is_m0_is_the_m0_truncation_only(make, known):
    # all of them are m0-like; the m0 truncation also has e1..e{cutoff}
    # with weight(ei) = i, and the answer is stored when the algebra is built
    g = make()
    assert is_m0_like(g)
    assert g._m0 is is_m0(g) is known


def test_repeated_bracket_targets_are_summed():
    # one term per target: [1,2] = e3 - e3 is the zero bracket, so the
    # algebra is abelian and its central series has a single term
    g = parse_algebra("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3 + -1*3\n")
    assert g.brackets == {}
    assert g.generator_differentials == {}
    assert central_series(g).terms == (frozenset({1, 2, 3}),)
    assert g == parse_algebra("generators: (1:1), (2:2), (3:3)\n")
    h = parse_algebra("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3 + 1/2*3\n")
    assert h.brackets == {(1, 2): ((Fraction(3, 2), 3),)}
    assert h.generator_differentials == {3: {(1, 2): Fraction(3, 2)}}


TWO_TARGET_FILE = ("generators: (1:1), (2:1), (3:2), (4:2)\n"
                   "[1,2] = 1*3 + 2*4 + 1/2*3\n")


@pytest.mark.parametrize("make", [
    lambda: load_preset("m0", 12), lambda: load_preset("L1", 12),
    lambda: associated_graded(load_preset("L1", 12)),
    lambda: parse_algebra(M0_TYPE_FILE),
    lambda: parse_algebra("generators: (1:1), (2:2), (3:3)\n[1,2] = 1/2*3\n"),
    lambda: parse_algebra(TWO_TARGET_FILE)],
    ids=["m0", "L1", "gr-L1", "m0-file", "half-file", "two-target-file"])
def test_generator_differentials_sum_the_bracket_terms(make):
    # d e^k = sum_{i<j} c_ij^k e^i^e^j with c_ij^k summed over the terms of
    # [e_i, e_j] that land on e_k; zero sums have no entry
    g = make()
    expected = {}
    for i in g.indices:
        for j in g.indices:
            if i < j:
                for c, k in g.bracket_terms(i, j):
                    column = expected.setdefault(k, {})
                    column[(i, j)] = column.get((i, j), 0) + c
    expected = {k: {ij: c for ij, c in column.items() if c} for k, column in expected.items()}
    assert g.generator_differentials == {k: column for k, column in expected.items() if column}
