import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from gradedlie import linalg
from gradedlie import massey as ms
from gradedlie.checks import bianchi_suite
from gradedlie.cohomology import class_coordinates_form, representatives
from gradedlie.errors import (InternalCheckFailed, MasseyNotDefined, NotACocycle,
                              NotApplicable)
from gradedlie.forms import Form, differential, parse_form, slice_basis, wedge
from gradedlie.mzero import Dm1, omega


def F(g, s):
    return parse_form(g, s)


def mono(g, *idx):
    return Form.monomial(g, idx)


GRID = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]


# -- residual and formal connections ----------------------------------------

def test_mc_residual_zero_matrix(m0):
    a = ms.ConnectionMatrix(m0, 3)
    res = ms.mc_residual(a)
    assert all(e.is_zero() for row in res.rows for e in row)


def test_mc_residual_paper_k2(m0):
    system = ms.paper_connection_two_e2(m0, 2)
    res = ms.mc_residual(system.matrix)
    for r in range(4):
        for c in range(4):
            if (r, c) == (0, 3):
                assert res.rows[r][c] == -2 * omega(m0, [2])
            else:
                assert res.rows[r][c].is_zero()


def test_is_formal_connection_paper(m0):
    ok, tau = ms.is_formal_connection(ms.paper_connection_two_e2(m0, 2).matrix)
    assert ok and tau == -2 * omega(m0, [2])
    assert differential(m0, tau).is_zero()


def test_is_formal_connection_perturbed(m0):
    bad = ms.paper_connection_two_e2(m0, 2).matrix.with_entry(1, 2, mono(m0, 2))
    ok, _ = ms.is_formal_connection(bad)
    assert not ok


def test_bianchi_involution_leibniz_random():
    ok, detail = bianchi_suite(samples=40, seed=5)
    assert ok, detail


def test_related_cocycle_examples(m0):
    assert ms.related_cocycle(ms.paper_connection_two_e2(m0, 2)) == 2 * omega(m0, [2])
    sysm = ms.paper_connection_main(m0, 3, [4])
    assert ms.related_cocycle(sysm) == -omega(m0, [3, 4])


def test_corner_convention(m0):
    # with a zero corner the residual corner is exactly -c(A)
    system = ms.paper_connection_two_e2(m0, 3)
    _, tau = ms.is_formal_connection(system.matrix)
    assert tau == -ms.related_cocycle(system)


# -- conjugation --------------------------------------------------------------

def test_conjugate_identity(m0):
    a = ms.paper_connection_two_e2(m0, 2).matrix
    c = ms.ScalarTriangular.diagonal([1, 1, 1, 1])
    assert ms.conjugate(a, c) == a


def test_conjugate_scaling_triple(m0):
    x, y, z = Fraction(2), Fraction(-1), Fraction(3)
    a = ms.paper_connection_two_e2(m0, 2).matrix
    c = ms.ScalarTriangular.diagonal([1, x, x * y, x * y * z])
    conj = ms.conjugate(a, c)
    system = ms.DefiningSystem(conj)
    assert system.classes() == [x * mono(m0, 2), y * mono(m0, 1), z * mono(m0, 2)]
    assert ms.related_cocycle(system) == (x * y * z) * (2 * omega(m0, [2]))


def test_conjugate_preserves_formal_connection(m0):
    rng = random.Random(77)
    a = ms.paper_connection_main(m0, 3, [4]).matrix
    for _ in range(6):
        n = a.n
        entries = [[Fraction(rng.randint(-3, 3)) if c > r else
                    (Fraction(rng.randint(1, 3)) if c == r else Fraction(0))
                    for c in range(n + 1)] for r in range(n + 1)]
        c = ms.ScalarTriangular(entries)
        ok, _ = ms.is_formal_connection(ms.conjugate(a, c))
        assert ok


def test_conjugate_singular_rejected(m0):
    with pytest.raises(NotApplicable):
        ms.ScalarTriangular.diagonal([1, 0, 1, 1])


# -- solver -------------------------------------------------------------------

def test_solver_L1_feigin_fuchs_family(L1):
    classes = [F(L1, "e2"), F(L1, "e1"), F(L1, "e1"), F(L1, "e1")]
    fam = ms.solve_defining_system(L1, classes)
    assert fam.ok
    assert [slot for _, slot in fam.params] == [(2, 3), (3, 4)]
    poly = fam.value_polynomial()
    assert set(poly) == {(5, 0)}
    p = poly[(5, 0)]
    s_id, t_id = fam.param_ids()
    # class = 3 s - 6 t - 1/2 over g2- = [e1^e4]
    assert p.constant_term() == Fraction(-1, 2)
    assert p.linear_coeff(s_id) == 3 and p.linear_coeff(t_id) == -6
    # both 0 and g2- lie in the value set
    w0 = fam.substitute({s_id: Fraction(1, 6)})
    assert linalg.coboundary_preimage(L1, ms.related_cocycle(w0))
    w1 = fam.substitute({s_id: Fraction(1, 2)})
    c1 = ms.related_cocycle(w1)
    coords = class_coordinates_form(L1, c1)
    assert coords[5].coords == (Fraction(1),)


def test_solver_m0_two_e2_window(m0):
    classes = [F(m0, "e2"), F(m0, "e1"), F(m0, "e2")]
    fam = ms.solve_defining_system(m0, classes)
    assert fam.ok
    system = fam.substitute({})
    assert ms.related_cocycle(system) == 2 * omega(m0, [2])


def test_solver_all_e2(m0):
    classes = [F(m0, "e2")] * 4
    fam = ms.solve_defining_system(m0, classes)
    assert fam.ok
    assert fam.value_polynomial() == {}
    # matches the classification tag A with lambda = (0, 1)
    tag = ms.classify_trivial_ones([(0, 1)] * 4)
    assert tag.kind == "A"


def test_solver_obstruction_reported(m0):
    # <e2, e1, e2, e1>: the (1,3) window obstructs (2 omega(e2^e3) class)
    classes = [F(m0, "e2"), F(m0, "e1"), F(m0, "e2"), F(m0, "e1")]
    fam = ms.solve_defining_system(m0, classes)
    assert not fam.ok
    assert fam.obstruction.position == (1, 3)
    coords = fam.obstruction.coordinates[()]
    assert coords == {(5, 0): Fraction(2)}


def test_sub_window_triviality(m0):
    # every proper window of a defining system is trivial, with the witness
    # extracted from the same matrix: d a(l,q) = c(window)
    for system in (ms.paper_connection_two_e2(m0, 3),
                   ms.paper_connection_main(m0, 3, [4])):
        n = system.n
        for l in range(1, n + 1):
            for q in range(l + 1, n + 1):
                if (l, q) == (1, n):
                    continue
                sub, corner = system.window(l, q)
                assert ms.related_cocycle(sub) == differential(m0, corner)


def test_well_definedness_repair(m0):
    # replacing a(i,j) by a(i,j) + db and repairing keeps a formal connection
    # with the same second diagonal and the same value class
    rng = random.Random(123)
    from gradedlie.checks import random_homogeneous_form
    for base in (ms.paper_connection_two_e2(m0, 2),
                 ms.paper_connection_two_e2(m0, 3),
                 ms.paper_connection_main(m0, 3, [4])):
        a = base.matrix
        n = a.n
        value0 = class_coordinates_form(m0, ms.related_cocycle(base))
        slots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if (i, j) != (1, n)]
        for i, j in slots[:4]:
            deg = sum(base.classes()[r - 1].degree() - 1 for r in range(i, j + 1)) + 1
            b = random_homogeneous_form(rng, m0, deg - 1, 6) if deg >= 2 else \
                Form.scalar(m0, Fraction(rng.randint(-2, 2)))
            r0, c0 = i - 1, j  # matrix coordinates of a(i, j)
            be = ms.ConnectionMatrix(m0, n).with_entry(i, j, b) if deg >= 2 else None
            if be is None:
                continue
            prime = madd3(a, differential(m0, b), (r0, c0),
                          ms.mmul(a, be), ms.mmul(mbar_single(be), a))
            ok, _tau = ms.is_formal_connection(prime)
            assert ok
            assert prime.second_diagonal() == a.second_diagonal()
            repaired = prime.with_entry(1, n, Form.zero(m0))
            system = ms.DefiningSystem(repaired)
            value1 = class_coordinates_form(m0, ms.related_cocycle(system))
            assert {k: v.coords for k, v in value0.items() if not v.is_zero()} == \
                   {k: v.coords for k, v in value1.items() if not v.is_zero()}


def madd3(a, db, pos, m1, m2):
    rows = [list(r) for r in a.rows]
    rows[pos[0]][pos[1]] = rows[pos[0]][pos[1]] + db
    rows = [[x + y - z for x, y, z in zip(r, s, t)]
            for r, s, t in zip(rows, m1.rows, m2.rows)]
    return ms.ConnectionMatrix(a.alg, a.n, rows)


def mbar_single(be):
    return ms.mbar(be)


# -- triple products ----------------------------------------------------------

def test_triple_e2_e1_e2(m0):
    r = ms.triple_product(m0, F(m0, "e2"), F(m0, "e1"), F(m0, "e2"))
    assert r.status == ms.NONTRIVIAL_CERTIFIED
    assert r.value.entries == ((5, 0, Fraction(2), "1*e2^e3"),)
    assert r.indeterminacy == ()


def test_triple_ones_trivial(m0):
    r = ms.triple_product(m0, F(m0, "e1"), F(m0, "e1"), F(m0, "e1"))
    assert r.status == ms.TRIVIAL_WITNESS
    assert r.value.is_zero()
    assert ms.related_cocycle(r.witness).is_zero() or \
        linalg.coboundary_preimage(m0, ms.related_cocycle(r.witness))


def test_witness_recheck_failure_raises(m0, monkeypatch):
    # the re-check of a witness is an explicit check that python -O keeps
    monkeypatch.setattr(linalg, "coboundary_preimage", lambda g, c: linalg.NO_SOLUTION)
    with pytest.raises(InternalCheckFailed):
        ms.triple_product(m0, F(m0, "e1"), F(m0, "e1"), F(m0, "e1"))


def test_triple_L1_e2_e2_e1(L1):
    r = ms.triple_product(L1, F(L1, "e2"), F(L1, "e2"), F(L1, "e1"))
    assert r.status == ms.NONTRIVIAL_CERTIFIED
    assert r.indeterminacy == ()
    # single class: a nonzero multiple of g2-; the coefficient is +3 under
    # the locked sign conventions (criterion 07 in test_acceptance.py derives
    # it by hand and names the step where the published derivation reaches -3)
    assert r.value.entries == ((5, 0, Fraction(3), "1*e1^e4"),)


def test_triple_not_defined(m0):
    # [e2][omega(e3^e4)] = [omega(e2^e3^e4)] is a nonzero class, so the
    # product <e2, omega(e3^e4), e1> is undefined
    with pytest.raises(MasseyNotDefined):
        ms.triple_product(m0, F(m0, "e2"), omega(m0, [3]), F(m0, "e1"))


def _class_dict(value):
    return {(w, i): c for w, i, c, _ in value.entries}


def _in_class_span(vec, generators):
    """Whether the class dict vec lies in the span of the ValueClass
    generators, by plain Fraction elimination (no gradedlie.linalg)."""
    keys = sorted(set(vec).union(*(_class_dict(gen) for gen in generators)))
    basis = []                      # (pivot, row with 1 at pivot, 0 at earlier pivots)

    def reduce(row):
        for p, brow in basis:
            if row[p]:
                row = [x - row[p] * y for x, y in zip(row, brow)]
        return row

    for gen in generators:
        row = reduce([_class_dict(gen).get(key, 0) for key in keys])
        p = next((i for i, x in enumerate(row) if x), None)
        if p is not None:
            basis.append((p, [x / row[p] for x in row]))
    return not any(reduce([vec.get(key, 0) for key in keys]))


def test_triple_invariant_under_coboundary_change(m0):
    """Kraines (1966): a triple product depends only on the classes, so
    changing the last cocycle c to c + dx keeps the verdict, the
    indeterminacy, and the value class up to the indeterminacy."""
    rng = random.Random(1966)
    ones = [F(m0, "e1"), F(m0, "e2")]
    lasts = [(q, k, rep) for q in (2, 3) for k in range(1, 13)
             for rep in representatives(m0, q, k)]
    changed = nontrivial = 0
    for a, b in iter_product(ones, repeat=2):
        for q, k, c in lasts:
            x = Form(m0, {m: Fraction(rng.randint(-3, 3)) for m in slice_basis(m0, q - 1, k)})
            c2 = c + differential(m0, x)
            try:
                r1 = ms.triple_product(m0, a, b, c)
            except MasseyNotDefined:
                with pytest.raises(MasseyNotDefined):
                    ms.triple_product(m0, a, b, c2)
                continue
            r2 = ms.triple_product(m0, a, b, c2)
            assert r2.status == r1.status
            assert all(_in_class_span(_class_dict(v), r1.indeterminacy) for v in r2.indeterminacy)
            assert all(_in_class_span(_class_dict(v), r2.indeterminacy) for v in r1.indeterminacy)
            v1, v2 = _class_dict(r1.value), _class_dict(r2.value)
            diff = {key: v1.get(key, 0) - v2.get(key, 0) for key in set(v1) | set(v2)}
            assert _in_class_span(diff, r1.indeterminacy)
            changed += c2 != c
            nontrivial += r1.status == ms.NONTRIVIAL_CERTIFIED
    assert changed >= 15 and nontrivial >= 3


def test_triple_criterion_grid(m0):
    # triviality of <a1 e1 + b1 e2, ...> agrees with the closed-form criterion
    rng = random.Random(42)
    sample = rng.sample(list(iter_product(GRID, repeat=3)), 400)
    for (p1, p2, p3) in sample:
        classes = [Fraction(a) * mono(m0, 1) + Fraction(b) * mono(m0, 2)
                   for a, b in (p1, p2, p3)]
        res = ms.triple_product(m0, *classes)
        criterion = ms._triple_criterion(p1, p2, p3)
        assert (res.status == ms.TRIVIAL_WITNESS) == (criterion == 0)


# -- one-class products over m0 ------------------------------------------------

def test_one_class_D_type(m0):
    r = ms.evaluate_product(m0, [F(m0, "e2"), F(m0, "e1"), F(m0, "e1"), F(m0, "e2")])
    assert r.status == ms.TRIVIAL_WITNESS
    assert ms.related_cocycle(r.witness) == differential(
        m0, parse_form(m0, r.certificate["corner"]))


def test_one_class_not_defined(m0):
    with pytest.raises(MasseyNotDefined):
        ms.evaluate_product(m0, [F(m0, "e2"), F(m0, "e1"), F(m0, "e2"), F(m0, "e1")])


def test_one_class_two_e2_k3(m0):
    classes = [F(m0, "e2"), F(m0, "e1"), F(m0, "e1"), F(m0, "e1"), F(m0, "e2")]
    r = ms.evaluate_product(m0, classes)
    assert r.status == ms.NONTRIVIAL_CERTIFIED
    assert r.value.coefficient_on(7, 0) == Fraction(-2)


def test_d_extension_lemma_k1(m0):
    # <e2+a e1, e1, e1, e2+b e1, e1> and <e1, e2+a e1, e1, e1, e2+b e1> are
    # defined and non-trivial with leading term 3 omega(e3^e4)
    for a in (-2, -1, 0, 1, 2):
        for b in (-2, 0, 2):
            first = [F(m0, f"e2+{a}*e1"), F(m0, "e1"), F(m0, "e1"),
                     F(m0, f"e2+{b}*e1"), F(m0, "e1")]
            second = [F(m0, "e1"), F(m0, f"e2+{a}*e1"), F(m0, "e1"),
                      F(m0, "e1"), F(m0, f"e2+{b}*e1")]
            for classes in (first, second):
                r = ms.evaluate_product(m0, classes)
                assert r.status == ms.NONTRIVIAL_CERTIFIED
                assert r.value.coefficient_on(7, 0) == Fraction(3)


def test_scaling_invariance(m0):
    rng = random.Random(8)
    for _ in range(20):
        pairs = [rng.choice(GRID) for _ in range(4)]
        scales = [rng.choice([1, -1, 2, -2, Fraction(1, 2)]) for _ in range(4)]
        scaled = [(x * a, x * b) for x, (a, b) in zip(scales, pairs)]
        t1 = ms.classify_trivial_ones(pairs)
        t2 = ms.classify_trivial_ones(scaled)
        trivial_kinds = ("A", "B", "C", "D")
        assert (t1.kind in trivial_kinds) == (t2.kind in trivial_kinds)
        assert (t1.kind == "NotDefined") == (t2.kind == "NotDefined")


# -- evaluate_product, mixed degrees --------------------------------------------

def test_evaluate_two_fold(m0):
    r = ms.evaluate_product(m0, [F(m0, "e2"), omega(m0, [3])])
    assert r.status == ms.NONTRIVIAL_CERTIFIED
    assert r.value.coefficient_on(9, 0) == Fraction(1)  # omega(e2^e3^e4), weight 9


def test_evaluate_L1_trivial_with_g2minus_in_set(L1):
    classes = [F(L1, "e2"), F(L1, "e1"), F(L1, "e1"), F(L1, "e1")]
    r = ms.evaluate_product(L1, classes)
    assert r.status == ms.TRIVIAL_WITNESS
    assert linalg.coboundary_preimage(L1, ms.related_cocycle(r.witness))


def test_evaluate_main_shape(m0_big):
    classes = [F(m0_big, "e2"), F(m0_big, "e1"), omega(m0_big, [4, 5])]
    r = ms.evaluate_product(m0_big, classes)
    # n = 3 goes through the exact triple machinery
    assert r.status == ms.NONTRIVIAL_CERTIFIED


# -- paper systems ---------------------------------------------------------------

def test_paper_two_e2_series(m0):
    for k in (2, 3, 4, 5, 6):
        system = ms.paper_connection_two_e2(m0, k)
        ok, _ = ms.is_formal_connection(system.matrix)
        assert ok
        c = ms.related_cocycle(system)
        assert c == ((-1) ** k * 2) * omega(m0, [k])


def test_paper_two_e2_matrix_k2(m0):
    matrix = ms.paper_connection_two_e2(m0, 2).matrix
    assert matrix.entry(1, 1) == mono(m0, 2)
    assert matrix.entry(1, 2) == -mono(m0, 3)
    assert matrix.entry(2, 2) == mono(m0, 1)
    assert matrix.entry(2, 3) == mono(m0, 3)
    assert matrix.entry(3, 3) == mono(m0, 2)


def test_paper_main_examples(m0, m0_big):
    assert ms.related_cocycle(ms.paper_connection_main(m0, 3, [4])) == \
        -omega(m0, [3, 4])
    assert ms.related_cocycle(ms.paper_connection_main(m0, 2, [3])) == \
        omega(m0, [2, 3])
    # defining equations hold via d(D_{-1}^k omega) = e1 ^ D_{-1}^{k-1} omega
    om = omega(m0_big, [5])
    e1 = mono(m0_big, 1)
    assert differential(m0_big, Dm1(om)) == wedge(e1, om)
    assert differential(m0_big, Dm1(Dm1(om))) == wedge(e1, Dm1(om))


def test_paper_main_rejects_bad_indices(m0):
    with pytest.raises(NotApplicable):
        ms.paper_connection_main(m0, 4, [3])


# -- certificates -----------------------------------------------------------------

def test_leading_certificate_23(m0):
    cert = ms.leading_coefficient_certificate(
        m0, [F(m0, "e2"), omega(m0, [3])], samples=20, seed=1)
    assert cert is not None
    assert cert["coefficient"] == "1"


def test_leading_certificate_34(m0_big):
    classes = [F(m0_big, "e2"), F(m0_big, "e1"), omega(m0_big, [4])]
    cert = ms.leading_coefficient_certificate(m0_big, classes, samples=20, seed=1)
    assert cert is not None
    assert cert["coefficient"] == "-1"
    assert cert["samples"] == 20 and cert["seed"] == 1


def test_leading_certificate_inapplicable(m0):
    cert = ms.leading_coefficient_certificate(
        m0, [F(m0, "e1"), omega(m0, [3])], samples=5, seed=0)
    assert cert is None


# -- classification ----------------------------------------------------------------

def test_classify_table_rows():
    assert ms.classify_trivial_ones([(1, 0)] * 4) == \
        ms.ClassificationTag("A", (Fraction(1), Fraction(0)))
    tag = ms.classify_trivial_ones([(1, 1), (2, 1), (3, 1)])
    assert tag.kind == "B" and tag.params == (Fraction(1), Fraction(0))
    tag = ms.classify_trivial_ones([(0, 1), (1, 0), (1, 0), (0, 1)])
    assert tag.kind == "D" and tag.params == (Fraction(0), Fraction(0))
    assert ms.classify_trivial_ones([(0, 1), (1, 0), (0, 1)]).kind == "NotTrivial"
    tag = ms.classify_trivial_ones([(1, 0), (1, 1), (1, 0), (1, 0)])
    assert tag.kind == "C" and tag.params == (1, Fraction(1))


def test_classify_zero_class_rejected():
    with pytest.raises(NotACocycle):
        ms.classify_trivial_ones([(1, 0), (0, 0), (1, 0)])


def test_classify_not_defined():
    tag = ms.classify_trivial_ones([(0, 1), (1, 0), (0, 1), (1, 0)])
    assert tag.kind == "NotDefined"


def test_classify_needs_three():
    with pytest.raises(NotApplicable):
        ms.classify_trivial_ones([(1, 0), (0, 1)])


# -- parsers ------------------------------------------------------------------------

def test_parse_product(m0):
    classes = ms.parse_product(m0, "e2; e1; e1; e2")
    assert classes == [mono(m0, 2), mono(m0, 1), mono(m0, 1), mono(m0, 2)]


def test_parse_connection_roundtrip(m0):
    text = ("connection n=3\n"
            "(1,2) = 1*e2\n(1,3) = -1*e3\n(2,3) = 1*e1\n"
            "(2,4) = 1*e3\n(3,4) = 1*e2\n")
    matrix = ms.parse_connection(m0, text)
    assert matrix == ms.paper_connection_two_e2(m0, 2).matrix


def test_one_form_representatives_are_rigid(m0):
    # cohomologous replacements of a second-diagonal 1-form differ by d of a
    # scalar, which vanishes: decidable statuses trivially survive them
    scalar = Form.scalar(m0, Fraction(5))
    assert differential(m0, scalar).is_zero()


def test_family_obstruction_raises_not_defined_L1(L1):
    # the <e2,e2,e1> window is non-trivial over L1, so the 4-fold product is
    # undefined; the complete degree-1 family certifies it
    with pytest.raises(MasseyNotDefined):
        ms.evaluate_product(L1, [F(L1, "e2"), F(L1, "e2"),
                                 F(L1, "e1"), F(L1, "e1")])


def test_evaluate_all_ones_L1(L1):
    r = ms.evaluate_product(L1, [F(L1, "e1")] * 4)
    assert r.status == ms.TRIVIAL_WITNESS


def test_mixed_weight_triples(m0, L1):
    r = ms.triple_product(m0, F(m0, "e1+e2"), F(m0, "e2"), F(m0, "e1-e2"))
    assert r.status == ms.TRIVIAL_WITNESS
    r2 = ms.triple_product(L1, F(L1, "e1+e2"), F(L1, "e1"), F(L1, "e1+e2"))
    assert r2.status == ms.NONTRIVIAL_CERTIFIED


def test_classifier_thread_candidate_concordance_random():
    # the recursion and the exact graded thread-module decision agree on
    # random products at n = 4, 5, 6 (any trivial instance unmatched by a
    # table row would show up here as a disagreement)
    rng = random.Random(99)
    for n in (4, 5, 6):
        for _ in range(200):
            pairs = [rng.choice(GRID) for _ in range(n)]
            tag = ms.classify_trivial_ones(pairs)
            _, off_corner, corner = ms.thread_candidate(pairs)
            if tag.kind == "NotDefined":
                assert off_corner
            elif tag.kind == "NotTrivial":
                assert not off_corner and corner
            else:
                assert not off_corner and not corner


def test_error_paths():
    from gradedlie.algebra import load_preset
    from gradedlie.errors import CutoffTooSmall
    g = load_preset("m0", 6)
    with pytest.raises(CutoffTooSmall):
        ms.evaluate_product(g, [F(g, "e2"), F(g, "e1"), F(g, "e1"),
                                F(g, "e1"), F(g, "e2")])
    with pytest.raises(NotACocycle):
        ms.evaluate_product(g, [F(g, "e3"), F(g, "e1"), F(g, "e1")])
    with pytest.raises(NotACocycle):
        ms.evaluate_product(g, [Form.zero(g), F(g, "e1"), F(g, "e1")])
    with pytest.raises(CutoffTooSmall):
        ms.paper_connection_two_e2(g, 4)


def test_thread_branch_family_solver_never_conflict(m0):
    # the exact thread-module decision and the complete ungraded family may
    # differ in decisiveness but must never contradict each other
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.choice([4, 5])
        pairs = [rng.choice(GRID) for _ in range(n)]
        classes = [Fraction(a) * mono(m0, 1) + Fraction(b) * mono(m0, 2)
                   for a, b in pairs]
        try:
            rep_status = ms.evaluate_product(m0, classes).status
        except MasseyNotDefined:
            rep_status = "NotDefined"
        fam = ms.solve_defining_system(m0, classes, graded=False)
        if not fam.ok:
            assert rep_status == "NotDefined"
            continue
        assert rep_status != "NotDefined"
        coords = fam.value_polynomial()
        if not coords:
            assert rep_status == ms.TRIVIAL_WITNESS
        elif any(p.is_constant() and p.constant_term() != 0
                 for p in coords.values()):
            assert rep_status == ms.NONTRIVIAL_CERTIFIED
