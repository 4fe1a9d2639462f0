import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.algebra import GeneratorSpec, GradedLieAlgebra, bracket, load_preset
from gradedlie.errors import AlgebraFormatError, AmbientMismatch, ArityMismatch, CutoffTooSmall
from gradedlie.forms import (Form, bar, differential, evaluate, parse_form, render_form,
                             slice_all_degree, slice_basis, wedge, weight_parts)


def mono(g, *idx):
    return Form.monomial(g, idx)


def vec(*pairs):
    return {i: Fraction(c) for i, c in pairs}


def test_wedge_repeated_index_vanishes(m0):
    assert wedge(mono(m0, 2, 3), mono(m0, 2)).is_zero()


def test_wedge_transposition_sign(m0):
    assert wedge(mono(m0, 3), mono(m0, 2)) == -mono(m0, 2, 3)


def test_wedge_expansion_and_sort(m0):
    a = mono(m0, 2, 5) - 3 * mono(m0, 3, 4)
    out = wedge(a, mono(m0, 1))
    assert out == mono(m0, 1, 2, 5) - 3 * mono(m0, 1, 3, 4)


def test_wedge_graded_commutativity(m0):
    rng = random.Random(3)
    from gradedlie.checks import random_homogeneous_form
    for _ in range(24):
        l, m = rng.randint(1, 3), rng.randint(1, 3)
        a = random_homogeneous_form(rng, m0, l, 12)
        b = random_homogeneous_form(rng, m0, m, 12)
        sign = (-1) ** (l * m)
        assert wedge(a, b) == sign * wedge(b, a)


def test_wedge_ambient_mismatch(m0, L1):
    with pytest.raises(AmbientMismatch):
        wedge(mono(m0, 2), mono(L1, 2))


def test_differential_ambient_mismatch(m0, L1):
    with pytest.raises(AmbientMismatch, match="form ambient does not match the algebra"):
        differential(L1, mono(m0, 2))


def test_degree_of_a_mixed_form(m0):
    with pytest.raises(ArityMismatch, match=r"not degree-homogeneous: degrees \[1, 2\]"):
        (mono(m0, 1) + mono(m0, 2, 3)).degree()


def test_bar_signs(m0):
    assert bar(mono(m0, 1)) == mono(m0, 1)
    assert bar(mono(m0, 2, 3)) == -mono(m0, 2, 3)


def test_bar_involution_random(m0):
    rng = random.Random(5)
    from gradedlie.checks import random_homogeneous_form
    for _ in range(20):
        x = random_homogeneous_form(rng, m0, rng.randint(1, 4), 12)
        y = random_homogeneous_form(rng, m0, rng.randint(1, 4), 12)
        mixed = x + y
        assert bar(bar(mixed)) == mixed


def test_differential_generators(m0, L1):
    assert differential(m0, mono(m0, 3)) == mono(m0, 1, 2)
    assert differential(L1, mono(L1, 5)) == 3 * mono(L1, 1, 4) + mono(L1, 2, 3)
    assert differential(L1, mono(L1, 2, 5) - 3 * mono(L1, 3, 4)).is_zero()


def test_differential_squared_zero_all_slices(m0, L1):
    for g in (m0, L1):
        for q in range(1, 6):
            for k in range(1, g.cutoff + 1):
                for m in slice_basis(g, q, k):
                    ddm = differential(g, differential(g, Form.monomial(g, m)))
                    assert ddm.is_zero()


def test_differential_preserves_weight_raises_degree(L1):
    x = mono(L1, 4, 5)
    dx = differential(L1, x)
    assert dx.degrees() == [3]
    assert dx.weights() == [9]


def test_antiderivation_law(m0, L1):
    rng = random.Random(11)
    from gradedlie.checks import random_homogeneous_form
    for g in (m0, L1):
        for _ in range(25):
            p = rng.randint(1, 3)
            xi = random_homogeneous_form(rng, g, p, 10)
            eta = random_homogeneous_form(rng, g, rng.randint(1, 3), 10)
            lhs = differential(g, wedge(xi, eta))
            rhs = wedge(differential(g, xi), eta) + \
                ((-1) ** p) * wedge(xi, differential(g, eta))
            assert lhs == rhs


def test_evaluate_basis_pairs(m0):
    e12 = mono(m0, 1, 2)
    assert evaluate(e12, [vec((1, 1)), vec((2, 1))]) == 1
    assert evaluate(e12, [vec((2, 1)), vec((1, 1))]) == -1
    de3 = differential(m0, mono(m0, 3))
    assert evaluate(de3, [vec((1, 1)), vec((2, 1))]) == 1


def test_evaluate_arity(m0):
    with pytest.raises(ArityMismatch):
        evaluate(mono(m0, 1, 2), [vec((1, 1))])


def _differential_direct(g, a, basis_tuple):
    """Direct Eq-style expansion of (d a)(X_1, ..., X_{q+1}) on basis vectors.

    Independent cross-check oracle for `differential`: the bracket-insertion
    sum with sign (-1)^(i+j-1) evaluated on basis tuples, sharing only
    `bracket` and `evaluate` with the library.
    """
    total = Fraction(0)
    vecs = [{i: Fraction(1)} for i in basis_tuple]
    n = len(basis_tuple)
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket(g, vecs[i], vecs[j])
            if not br:
                continue
            rest = [vecs[r] for r in range(n) if r not in (i, j)]
            sign = 1 if (i + j) % 2 == 1 else -1  # (-1)^{(i+1)+(j+1)-1} for 0-based i, j
            total += sign * evaluate(a, [br] + rest)
    return total


def test_differential_matches_direct_expansion(m0, L1):
    # evaluate(differential(g, f), basis tuples) equals the direct
    # bracket-insertion expansion, for random 1- and 2-forms
    rng = random.Random(17)
    from gradedlie.checks import random_homogeneous_form
    from gradedlie.forms import slice_all_degree
    for g in (m0, L1):
        for deg in (1, 2):
            for _ in range(6):
                f = random_homogeneous_form(rng, g, deg, 9)
                df = differential(g, f)
                for tup in slice_all_degree(g, deg + 1):
                    if sum(g.weight(i) for i in tup) > 10:
                        continue
                    direct = _differential_direct(g, f, tup)
                    assert evaluate(df, [vec((i, 1)) for i in tup]) == direct


def test_slice_all_degree_order():
    # checks.random_homogeneous_form draws from this list, so its order is pinned
    g = load_preset("m0", 8)
    for q in range(5):
        tuples = [t for t in product(range(1, 9), repeat=q)
                  if all(a < b for a, b in zip(t, t[1:]))]
        assert slice_all_degree(g, q) == sorted(tuples)


def test_slice_basis_examples(L1):
    assert slice_basis(L1, 2, 5) == [(1, 4), (2, 3)]
    assert slice_basis(L1, 3, 12) == [(1, 2, 9), (1, 3, 8), (1, 4, 7), (1, 5, 6),
                                      (2, 3, 7), (2, 4, 6), (3, 4, 5)]
    assert slice_basis(L1, 1, 7) == [(7,)]
    assert slice_basis(L1, 1, 0) == []


def test_slice_basis_cutoff(L1):
    with pytest.raises(CutoffTooSmall):
        slice_basis(L1, 2, 17)


@st.composite
def weighted_algebras(draw):
    """Abelian algebras with random positive weights, non-monotone in the
    index order as often as not: slice_basis reads only the weights."""
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=9))
    cutoff = draw(st.integers(max(2, *weights), 16))
    return GradedLieAlgebra([GeneratorSpec(i, w) for i, w in enumerate(weights, 1)], {}, cutoff)


@settings(max_examples=300, deadline=None)
@given(weighted_algebras(), st.integers(0, 5), st.data())
def test_slice_basis_is_the_weight_filtered_combinations(g, q, data):
    # the pruned recursion keeps exactly the q-subsets of weight k, in
    # lexicographic order, and still refuses a weight past the cutoff
    k = data.draw(st.integers(0, g.cutoff))
    assert slice_basis(g, q, k) == [m for m in combinations(g.indices, q)
                                    if sum(map(g.weight, m)) == k]
    past = g.cutoff + 1
    with pytest.raises(CutoffTooSmall) as info:
        slice_basis(g, q, past)
    assert str(info.value) == (f"cutoff {g.cutoff} too small, need at least {past} "
                               f"for slice basis (q={q}, k={past})")


def test_render_parse_roundtrip(m0):
    rng = random.Random(23)
    from gradedlie.checks import random_homogeneous_form
    for _ in range(30):
        f = random_homogeneous_form(rng, m0, rng.randint(1, 3), 12)
        text = render_form(f)
        assert parse_form(m0, text) == f
        assert render_form(parse_form(m0, text)) == text
    assert render_form(Form.zero(m0)) == "0"
    assert parse_form(m0, "0").is_zero()


def test_parse_form_sugar(m0):
    assert parse_form(m0, "e2") == mono(m0, 2)
    assert parse_form(m0, "e2+1*e1") == mono(m0, 1) + mono(m0, 2)
    assert parse_form(m0, "e2^e5 - 3*e3^e4") == mono(m0, 2, 5) - 3 * mono(m0, 3, 4)
    assert parse_form(m0, "-1/2*e3") == Form.monomial(m0, (3,), Fraction(-1, 2))


def test_parse_form_signs_without_spaces(m0):
    assert parse_form(m0, "e1-e2") == mono(m0, 1) - mono(m0, 2)
    assert parse_form(m0, "-e1 - -2*e3") == -mono(m0, 1) + 2 * mono(m0, 3)
    assert parse_form(m0, "3*e2^e3-1/2*e2^e5") == \
        3 * mono(m0, 2, 3) - Fraction(1, 2) * mono(m0, 2, 5)


@pytest.mark.parametrize("text, term", [
    ("2*", "2*"), ("1/2*", "1/2*"), ("e1 + 3 * ", "3 *"), ("-2*^", None)])
def test_parse_form_dangling_star(m0, text, term):
    # "2*" used to parse as the scalar 2
    message = f"line 0: bad term {term!r}" if term else "line 0: bad monomial factor ''"
    with pytest.raises(AlgebraFormatError) as info:
        parse_form(m0, text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("x", "line 0: bad term 'x'"), ("e1^ex", "line 0: bad monomial factor 'ex'")])
def test_parse_form_bad_term_and_factor(m0, text, message):
    with pytest.raises(AlgebraFormatError) as info:
        parse_form(m0, text)
    assert str(info.value) == message


# -- property tests -------------------------------------------------------------

ALGEBRAS = st.sampled_from([load_preset("m0", 10), load_preset("L1", 10)])
COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def forms(draw, g, degrees):
    """Forms over g whose monomials have degrees drawn from degrees."""
    monomial = st.sampled_from(degrees).flatmap(lambda q: st.lists(
        st.sampled_from(g.indices), min_size=q, max_size=q, unique=True).map(
            lambda idx: tuple(sorted(idx))))
    return Form(g, draw(st.dictionaries(monomial, COEFF, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(ALGEBRAS.flatmap(lambda g: forms(g, range(5))))
def test_weight_components_partition_the_form(a):
    parts = {k: Form(a.alg, terms) for k, terms in weight_parts(a).items()}
    assert list(parts) == sorted(parts)
    for k, part in parts.items():
        assert part.weights() == [k]
    seen = [m for part in parts.values() for m in part.terms]
    assert sorted(seen) == sorted(a.terms) and len(seen) == len(set(seen))
    total = Form.zero(a.alg)
    for part in parts.values():
        total = total + part
    assert total == a
    assert a.weights() == list(parts)


def test_weight_of_an_unknown_index_is_a_format_error(m0):
    # the constructor keeps a term map as given, so no check ran on e99
    stray = Form(m0, {(2,): 1, (1, 99): 1})
    for read in (weight_parts, Form.weights):
        with pytest.raises(AlgebraFormatError, match=r"^line 0: unknown generator index 99$"):
            read(stray)


@settings(max_examples=200, deadline=None)
@given(ALGEBRAS, st.integers(0, 3), st.integers(0, 3), st.data())
def test_wedge_graded_commutative(g, p, q, data):
    a, b = data.draw(forms(g, [p])), data.draw(forms(g, [q]))
    assert wedge(a, b) == (-1) ** (p * q) * wedge(b, a)


# -- exact coefficients only --------------------------------------------------

FLOAT_SITES = {
    "rmul": lambda g: 0.5 * Form.generator(g, 1),
    "scaled": lambda g: Form.generator(g, 1).scaled(0.5),
    "scalar": lambda g: Form.scalar(g, 0.5),
}


@pytest.mark.parametrize("site", FLOAT_SITES)
def test_float_coefficients_are_refused(m0, site):
    with pytest.raises(TypeError, match="^form coefficients are int or Fraction, not float$"):
        FLOAT_SITES[site](m0)


def test_integral_coefficients_become_ints(m0):
    for a in (3 * mono(m0, 1, 2), mono(m0, 1, 2).scaled(Fraction(3)), Form.scalar(m0, 3),
              Form.scalar(m0, Fraction(3))):
        assert [type(c) for c in a.terms.values()] == [int] and set(a.terms.values()) == {3}
    for a in (Fraction(3, 2) * mono(m0, 1, 2), Form.scalar(m0, Fraction(3, 2))):
        assert [type(c) for c in a.terms.values()] == [Fraction]
        assert set(a.terms.values()) == {Fraction(3, 2)}
    assert (0 * mono(m0, 1, 2)).is_zero()
