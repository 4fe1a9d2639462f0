from fractions import Fraction

import pytest

from gradedlie import massey as ms
from gradedlie import representations as reps
from gradedlie.errors import NotApplicable, UnverifiedInput
from gradedlie.forms import Form


PAPER_E1 = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
PAPER_E2 = [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]


def mono(g, *idx):
    return Form.monomial(g, idx)


@pytest.fixture()
def paper_rep(m0):
    rep = reps.UpperTriangularRep(m0, 3, {1: PAPER_E1, 2: PAPER_E2})
    ok, pair, full = reps.check_homomorphism(m0, rep)
    assert ok and pair is None
    return full


def test_paper_example_is_homomorphism(paper_rep):
    assert paper_rep.verified


def test_zero_representation(m0):
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    rep = reps.UpperTriangularRep(m0, 3, {1: zero, 2: zero})
    ok, _, _ = reps.check_homomorphism(m0, rep)
    assert ok


def test_perturbed_representation_fails(m0):
    bad = [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]]
    rep = reps.UpperTriangularRep(m0, 3, {1: PAPER_E1, 2: bad})
    ok, pair, _ = reps.check_homomorphism(m0, rep)
    assert not ok and pair is not None


def test_connection_of_paper_example(m0, paper_rep):
    a = reps.connection_of(paper_rep)
    assert a.entry(1, 1) == mono(m0, 2)
    assert a.entry(1, 2) == -mono(m0, 3)
    assert a.entry(1, 3) == mono(m0, 4) + mono(m0, 1)
    assert a.entry(2, 2) == mono(m0, 1)
    assert a.entry(2, 3) == mono(m0, 2)
    assert a.entry(3, 3) == mono(m0, 1)
    ok, tau = ms.is_formal_connection(a)
    assert ok and tau.is_zero()  # strong Maurer-Cartan, corner included


def test_connection_of_n1_closed_form(m0):
    rep = reps.UpperTriangularRep(m0, 1, {1: [[0, 1], [0, 0]],
                                          2: [[0, 2], [0, 0]]})
    ok, _, full = reps.check_homomorphism(m0, rep, derive=False)
    assert ok
    a = reps.connection_of(full)
    form = a.entry(1, 1)
    from gradedlie.forms import differential
    assert differential(m0, form).is_zero()


def test_strong_mc_iff_homomorphism(m0, paper_rep):
    a = reps.connection_of(paper_rep)
    ok, tau = ms.is_formal_connection(a)
    assert ok and tau.is_zero()
    # break one entry: no longer strong MC, and the rep read back fails
    bad = a.with_entry(2, 3, mono(m0, 2) + mono(m0, 1))
    with pytest.raises(UnverifiedInput):
        reps.representation_from_connection(bad)


def test_representation_from_connection_roundtrip(m0, paper_rep):
    a = reps.connection_of(paper_rep)
    back = reps.representation_from_connection(a)
    assert back.images == paper_rep.images
    assert reps.connection_of(back) == a


def test_associated_graded_rep_paper(m0, paper_rep):
    graded = reps.associated_graded_rep(paper_rep)
    at = reps.connection_of(graded)
    assert at.entry(1, 3) == mono(m0, 4)     # the e1 summand dropped
    assert at.entry(2, 3).is_zero()          # degree-1 entry zeroed on diagonal 2
    assert at.entry(1, 1) == mono(m0, 2)
    ok, pair, _ = reps.check_homomorphism(m0, graded, derive=False)
    assert ok, pair


def test_associated_graded_rep_idempotent(m0, paper_rep):
    graded = reps.associated_graded_rep(paper_rep)
    again = reps.associated_graded_rep(graded)
    assert again.images == graded.images


def test_thread_tag_arithmetic_progression(m0):
    # e2 v_i = v_{i-1}, e1 v_i = lambda_i v_{i-1} with lambda arithmetic -> B
    lam = [Fraction(i + 2) for i in range(1, 5)]  # 3,4,5,6 = i*1+2
    e1 = [[Fraction(0)] * 5 for _ in range(5)]
    e2 = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(4):
        e1[i][i + 1] = lam[i]
        e2[i][i + 1] = Fraction(1)
    rep = reps.UpperTriangularRep(m0, 4, {1: e1, 2: e2})
    ok, _, full = reps.check_homomorphism(m0, rep)
    assert ok
    tag = reps.thread_tag(reps.ThreadModuleView(full))
    assert tag.kind == "B" and tag.params == (Fraction(1), Fraction(2))


def test_thread_tag_decomposable(m0):
    e1 = [[Fraction(0)] * 4 for _ in range(4)]
    e2 = [[Fraction(0)] * 4 for _ in range(4)]
    e1[0][1] = Fraction(1)
    e2[2][3] = Fraction(1)  # middle class is zero -> decomposable
    rep = reps.UpperTriangularRep(m0, 3, {1: e1, 2: e2})
    ok, _, full = reps.check_homomorphism(m0, rep)
    assert ok
    assert reps.thread_tag(reps.ThreadModuleView(full)).kind == "Decomposable"


def test_thread_tag_all_equal(m0):
    e1 = [[Fraction(0)] * 4 for _ in range(4)]
    e2 = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(3):
        e1[i][i + 1] = Fraction(2)
        e2[i][i + 1] = Fraction(1)
    rep = reps.UpperTriangularRep(m0, 3, {1: e1, 2: e2})
    ok, _, full = reps.check_homomorphism(m0, rep)
    assert ok
    assert reps.thread_tag(reps.ThreadModuleView(full)).kind == "A"


def test_thread_tag_requires_m0(L1):
    e1 = [[Fraction(0)] * 3 for _ in range(3)]
    rep = reps.UpperTriangularRep(L1, 2, {1: e1, 2: e1})
    rep.verified = True
    with pytest.raises(NotApplicable):
        reps.thread_tag(reps.ThreadModuleView(rep))


def test_lift_obstruction_ones(m0):
    fam = ms.solve_defining_system(
        m0, [mono(m0, 1), mono(m0, 1), mono(m0, 1)])
    system = fam.substitute({})
    coords, solvable = reps.lift_obstruction(m0, system)
    assert coords == {} and solvable


def test_lift_obstruction_e2_e1_e2(m0):
    system = ms.paper_connection_two_e2(m0, 2)
    coords, solvable = reps.lift_obstruction(m0, system)
    assert not solvable
    assert coords == {(5, 0): Fraction(2)}


def test_lift_obstruction_strong_mc_restriction(m0, paper_rep):
    a = reps.connection_of(paper_rep)
    corner = a.entry(1, 3)
    system = ms.DefiningSystem(a.with_entry(1, 3, Form.zero(m0)))
    coords, solvable = reps.lift_obstruction(m0, system)
    assert solvable and coords == {}
    from gradedlie.forms import differential
    assert ms.related_cocycle(system) == differential(m0, corner)


def test_lift_obstruction_rejects_higher_degree(m0):
    system = ms.paper_connection_main(m0, 3, [4])
    with pytest.raises(NotApplicable):
        reps.lift_obstruction(m0, system)


def test_parse_representation(m0):
    text = ("rep n=3\n"
            "e1 = [[0,0,0,1],[0,0,1,0],[0,0,0,1],[0,0,0,0]]\n"
            "e2 = [[0,1,0,0],[0,0,0,1],[0,0,0,0],[0,0,0,0]]\n")
    rep = reps.parse_representation(m0, text)
    ok, _, full = reps.check_homomorphism(m0, rep)
    assert ok
    assert full.image(1) == [[Fraction(v) for v in row] for row in PAPER_E1]


def test_parse_representation_rejects_lower_triangular(m0):
    text = "rep n=1\ne1 = [[0,0],[1,0]]\n"
    from gradedlie.errors import AlgebraFormatError
    with pytest.raises(AlgebraFormatError):
        reps.parse_representation(m0, text)


@pytest.mark.parametrize("header", ["rep n=abc", "rep n=-1", "rep"])
def test_parse_representation_rejects_bad_header(m0, header):
    from gradedlie.errors import AlgebraFormatError
    with pytest.raises(AlgebraFormatError) as info:
        reps.parse_representation(m0, header + "\ne1 = [[0,1],[0,0]]\n")
    assert info.value.line_no == 1
