import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import massey as ms
from gradedlie import representations as reps
from gradedlie.algebra import is_m0_like, load_preset, parse_algebra
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


def test_check_homomorphism_leaves_its_argument_unchanged():
    # without derivation, or over an algebra that is not m0-like, the missing
    # images are filled with zeros on a copy
    from gradedlie.algebra import load_preset
    m8, L8 = load_preset("m0", 8), load_preset("L1", 8)
    for g, derive in ((m8, False), (L8, True)):
        rep = reps.UpperTriangularRep(g, 1, {1: [[0, 1], [0, 0]], 2: [[0, 2], [0, 0]]})
        before = {i: [list(row) for row in mat] for i, mat in rep.images.items()}
        ok, _, full = reps.check_homomorphism(g, rep, derive=derive)
        assert ok and full.verified and full is not rep
        assert sorted(full.images) == list(g.indices)
        assert rep.images == before and not rep.verified


def test_connection_of_rejects_an_image_outside_the_algebra(m0):
    # an image of e20 over m0/16 has no 1-form e^20 to carry it
    from gradedlie.errors import CutoffTooSmall
    rep = reps.UpperTriangularRep(m0, 1, {1: [[0, 1], [0, 0]], 20: [[0, 1], [0, 0]]})
    ok, _, full = reps.check_homomorphism(m0, rep, derive=False)
    assert ok
    with pytest.raises(CutoffTooSmall, match="need at least 20 for representation image"):
        reps.connection_of(full)


def _dense_check(g, rep, derive):
    """Bracket preservation checked with dense matrices, pair by pair in
    i < j order: the reference for check_homomorphism's verdict."""
    full = rep
    if derive and is_m0_like(g) and 1 in rep.images and 2 in rep.images:
        full = reps.derive_m0_images(g, rep)
    full = reps.UpperTriangularRep(g, full.n, {i: full.image(i) for i in g.indices} | full.images)
    for i in g.indices:
        for j in g.indices:
            if i >= j:
                continue
            lhs = reps._mat_bracket(full.image(i), full.image(j))
            rhs = [[Fraction(0)] * full.size for _ in range(full.size)]
            for c, k in g.bracket_terms(i, j):
                mat = full.image(k)
                for r in range(full.size):
                    for s in range(full.size):
                        if mat[r][s]:
                            rhs[r][s] += c * mat[r][s]
            if lhs != rhs:
                return False, (i, j)
    return True, None


HALF_FILE = ("generators: (1:1), (2:1), (3:2), (4:3), (5:3)\n"
             "[1,2] = 1/2*3\n[1,3] = 1*4\n[2,3] = 1/2*5\n")
REP_ALGEBRAS = {"m0": load_preset("m0", 8), "L1": load_preset("L1", 8),
                "half-file": parse_algebra(HALF_FILE)}


@st.composite
def sparse_images(draw, g):
    """Strictly upper triangular images of some generators of g, mostly
    zero, so that a good share of them are homomorphisms."""
    size = draw(st.integers(2, 4))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    indices = draw(st.lists(st.sampled_from(g.indices), unique=True, max_size=4))
    return reps.UpperTriangularRep(g, size - 1, {
        idx: [[draw(entry) if c > r else 0 for c in range(size)] for r in range(size)]
        for idx in indices})


@pytest.mark.parametrize("derive", [True, False], ids=["derive", "no-derive"])
@pytest.mark.parametrize("name", REP_ALGEBRAS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_check_homomorphism_matches_the_dense_bracket_check(name, derive, data):
    # a homomorphism is a connection of 1-forms with zero Maurer-Cartan
    # residual; the failing pair is the one the dense i < j loop finds first
    g = REP_ALGEBRAS[name]
    rep = data.draw(sparse_images(g))
    try:
        expected = _dense_check(g, rep, derive)
    except UnverifiedInput as err:
        with pytest.raises(UnverifiedInput, match=f"^{re.escape(str(err))}$"):
            reps.check_homomorphism(g, rep, derive=derive)
        return
    ok, pair, full = reps.check_homomorphism(g, rep, derive=derive)
    assert (ok, pair) == expected
    assert full.verified is ok and not rep.verified


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


def _thread_tag(rep):
    """Classification tag of a thread module over m0, from the second
    diagonals of e1 and e2; Decomposable when some second-diagonal class
    vanishes."""
    if not is_m0_like(rep.algebra):
        raise NotApplicable("thread modules are classified over m0")
    a1, a2 = rep.image(1), rep.image(2)
    pairs = [(a1[i][i + 1], a2[i][i + 1]) for i in range(rep.size - 1)]
    if any(a == 0 and b == 0 for a, b in pairs):
        return ms.ClassificationTag("Decomposable")
    return ms.classify_trivial_ones(pairs)


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
    tag = _thread_tag(full)
    assert tag.kind == "B" and tag.params == (Fraction(1), Fraction(2))


def test_thread_tag_decomposable(m0):
    e1 = [[Fraction(0)] * 4 for _ in range(4)]
    e2 = [[Fraction(0)] * 4 for _ in range(4)]
    e1[0][1] = Fraction(1)
    e2[2][3] = Fraction(1)  # middle class is zero -> decomposable
    rep = reps.UpperTriangularRep(m0, 3, {1: e1, 2: e2})
    ok, _, full = reps.check_homomorphism(m0, rep)
    assert ok
    assert _thread_tag(full).kind == "Decomposable"


def test_thread_tag_all_equal(m0):
    e1 = [[Fraction(0)] * 4 for _ in range(4)]
    e2 = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(3):
        e1[i][i + 1] = Fraction(2)
        e2[i][i + 1] = Fraction(1)
    rep = reps.UpperTriangularRep(m0, 3, {1: e1, 2: e2})
    ok, _, full = reps.check_homomorphism(m0, rep)
    assert ok
    assert _thread_tag(full).kind == "A"


def test_thread_tag_requires_m0(L1):
    e1 = [[Fraction(0)] * 3 for _ in range(3)]
    rep = reps.UpperTriangularRep(L1, 2, {1: e1, 2: e1})
    rep.verified = True
    with pytest.raises(NotApplicable):
        _thread_tag(rep)


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


# calls past the checks of the representation layer, with the error and its
# message; the supplied image of e3 is not [rho(e1), rho(e2)]
RAISE_SITES = {
    "derive-missing-image": (
        lambda m0: reps.derive_m0_images(m0, reps.UpperTriangularRep(
            m0, 1, {1: [[0, 1], [0, 0]]})),
        NotApplicable, "need images of e1 and e2"),
    "derive-conflicting-image": (
        lambda m0: reps.derive_m0_images(m0, reps.UpperTriangularRep(
            m0, 3, {1: PAPER_E1, 2: PAPER_E2, 3: PAPER_E2})),
        UnverifiedInput, "supplied image of e3 conflicts with the derived one"),
    "connection-of-unverified": (
        lambda m0: reps.connection_of(reps.UpperTriangularRep(
            m0, 3, {1: PAPER_E1, 2: PAPER_E2})),
        UnverifiedInput, "run check_homomorphism first"),
    "associated-graded-unverified": (
        lambda m0: reps.associated_graded_rep(reps.UpperTriangularRep(
            m0, 3, {1: PAPER_E1, 2: PAPER_E2})),
        UnverifiedInput, "run check_homomorphism first"),
    "from-connection-two-form": (
        lambda m0: reps.representation_from_connection(
            ms.ConnectionMatrix.from_entries(m0, 1, {(1, 1): mono(m0, 1, 2)})),
        NotApplicable, "matrix entries must be 1-forms"),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_raise_sites(m0, site):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(m0)


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


@pytest.mark.parametrize("text, message", [
    ("e1 = [[0,1],[0,0]]\nrep n=1\n", "line 1: missing 'rep n=<n>' header"),
    ("", "line 0: missing 'rep n=<n>' header"),
    ("rep n=1\nf1 = [[0,1],[0,0]]\n", "line 2: expected 'e<i> = [[...]]', got 'f1'"),
    ("rep n=1\nex = [[0,1],[0,0]]\n", "line 2: bad generator 'ex'"),
    # errors come in file order: a bad entry before a bad header, and back
    ("rep n=1\nex = [[0,1],[0,0]]\nrep n=abc\n", "line 2: bad generator 'ex'"),
    ("rep n=abc\nex = [[0,1],[0,0]]\n",
     "line 1: expected 'rep n=<n>' with a nonnegative integer n, got 'rep n=abc'"),
    # one header sets the size of the whole file
    ("rep n=2\ne1 = [[0,1,0],[0,0,0],[0,0,0]]\nrep n=1\n",
     "line 3: second 'rep n=<n>' header"),
    # an image that does not fit the header names its own line
    ("rep n=1\ne1 = [[0,1,0],[0,0,0],[0,0,0]]\n", "line 2: image of e1 must be 2x2"),
    ("rep n=1\ne2 = [[0,1],[0,0]]\n# comment\ne1 = [[0,0],[1,0]]\n",
     "line 4: image of e1 is not strictly upper triangular"),
    # a repeated image used to replace the earlier one silently
    ("rep n=1\ne1 = [[0,1],[0,0]]\ne2 = [[0,0],[0,0]]\ne1 = [[0,2],[0,0]]\n",
     "line 4: second image of e1"),
    ("rep n=1\ne1 = [0,1]\n", "line 2: matrix must look like [[...],[...]]"),
    ("rep n=1\ne1 = [[0,x],[0,0]]\n", "line 2: bad matrix row '0,x'"),
])
def test_parse_representation_errors(m0, text, message):
    from gradedlie.errors import AlgebraFormatError
    with pytest.raises(AlgebraFormatError) as info:
        reps.parse_representation(m0, text)
    assert str(info.value) == message
