import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedlie import cohomology as coh
from gradedlie import linalg
from gradedlie.algebra import associated_graded, e1_chain, load_preset, parse_algebra
from gradedlie.errors import CutoffTooSmall, InternalCheckFailed, NotACocycle
from gradedlie.forms import Form, differential, slice_basis, wedge
from gradedlie.mzero import omega, omega_index_lists, omega_weight


def mono(g, *idx):
    return Form.monomial(g, idx)


def test_betti_examples(m0, L1):
    assert coh.betti(L1, 2, 5) == 1
    assert coh.betti(L1, 2, 6) == 0
    assert coh.betti(L1, 2, 7) == 1
    assert coh.betti(L1, 3, 12) == 1
    assert coh.betti(L1, 3, 15) == 1
    assert coh.betti(m0, 1, 1) == 1
    assert coh.betti(m0, 1, 2) == 1
    assert coh.betti(m0, 1, 3) == 0


def test_betti_cutoff_error(L1):
    with pytest.raises(CutoffTooSmall):
        coh.betti(L1, 2, 17)


def test_representatives_named_generators(m0, L1):
    assert coh.representatives(L1, 2, 5) == [mono(L1, 1, 4)]
    assert coh.representatives(L1, 2, 7) == [mono(L1, 2, 5) - 3 * mono(L1, 3, 4)]
    assert coh.representatives(m0, 2, 5) == [omega(m0, [2])]
    assert coh.representatives(m0, 2, 5) == [mono(m0, 2, 3)]


def test_representatives_are_omegas_on_m0(m0):
    for q in (2, 3, 4):
        for k in range(1, 17):
            reps = coh.representatives(m0, q, k)
            lists = omega_index_lists(q - 1, k)
            assert len(reps) == len(lists)
            assert reps == [omega(m0, idx) for idx in lists]


def test_representatives_on_an_m0_tail(m0_tail):
    # omega needs e2, so a tail's slices take the greedy and completion
    # path; the omega preference used to raise KeyError: (2, 5) here
    assert coh.representatives(m0_tail, 2, 7) == [mono(m0_tail, 3, 4)]
    for q in range(1, 5):
        for k in range(1, 9):
            slc = coh.cohomology_slice(m0_tail, q, k)
            assert slc.dimension == coh.betti(m0_tail, q, k) == len(slc.representatives)
            assert all(differential(m0_tail, rep).is_zero() for rep in slc.representatives)


def test_degree_zero_slices_take_the_common_path(m0, L1, m0_tail):
    # the (-1, k) slice is empty, so d_{-1} has no columns and H^0_k is
    # the kernel of d_0 alone: the scalars at k = 0, nothing above
    for g in (m0, L1, m0_tail):
        slc = coh.cohomology_slice(g, 0, 0)
        assert slc.representatives == (Form.scalar(g, 1),)
        assert slc.cocycles == ((1,),) and slc.coboundaries == ()
        for k in range(1, 5):
            slc = coh.cohomology_slice(g, 0, k)
            assert slc.basis == slc.cocycles == slc.coboundaries == slc.representatives == ()
            assert slc.dimension == 0


def test_class_coordinates_examples(L1):
    slc = coh.cohomology_slice(L1, 2, 5)
    cc = coh.class_coordinates(slc, mono(L1, 2, 3))
    assert cc == (Fraction(-3),)
    # coboundaries reduce to zero
    d5 = differential(L1, mono(L1, 5))
    assert coh.class_coordinates(slc, d5) == (Fraction(0),)
    slc7 = coh.cohomology_slice(L1, 2, 7)
    g2p = mono(L1, 2, 5) - 3 * mono(L1, 3, 4)
    assert coh.class_coordinates(slc7, g2p) == (Fraction(1),)


def test_class_coordinates_rejects_noncocycle(L1):
    slc = coh.cohomology_slice(L1, 2, 6)
    with pytest.raises(NotACocycle):
        coh.class_coordinates(slc, mono(L1, 2, 4))


def test_class_coordinates_rejects_monomials_outside_the_slice(L1):
    # a term of another weight or degree must not be dropped or misplaced
    slc = coh.cohomology_slice(L1, 2, 5)
    g2m = mono(L1, 1, 4)
    for stray in (mono(L1, 1, 5), mono(L1, 1, 2, 3), mono(L1, 5)):
        with pytest.raises(NotACocycle, match="not homogeneous of"):
            coh.class_coordinates(slc, g2m + stray)


@pytest.mark.parametrize("name", ["m0", "L1"])
def test_class_coordinates_recover_random_combinations(name):
    g = load_preset(name, 14)
    rng = random.Random(14)
    checked = 0
    for q in range(1, 5):
        for k in range(1, 15):
            slc = coh.cohomology_slice(g, q, k)
            if not slc.dimension:
                continue
            c = [Fraction(rng.randint(-5, 5)) for _ in slc.rep_vectors]
            b = [Fraction(rng.randint(-5, 5)) for _ in slc.coboundaries]
            v = Form.zero(g)
            for coeff, vec in zip(c + b, slc.rep_vectors + slc.coboundaries):
                v = v + Form(g, {m: coeff * x for m, x in zip(slc.basis, vec)})
            assert coh.class_coordinates(slc, v) == tuple(c), (q, k)
            nonclosed = [m for m in slc.basis
                         if not differential(g, Form.monomial(g, m)).is_zero()]
            if nonclosed:
                with pytest.raises(NotACocycle):
                    coh.class_coordinates(slc, v + Form.monomial(g, rng.choice(nonclosed)))
            checked += 1
    assert checked >= 5


# a filiform algebra read from a file, with rational structure constants:
# [e1, ei] = e{i+1} and [e2, ej] = 1/2 e{j+2}
FILIFORM_FILE = ("generators: " + ", ".join(f"({i}:{i})" for i in range(1, 15))
                 + "\ncutoff: 14\n"
                 + "".join(f"[1,{i}] = 1*{i + 1}\n" for i in range(2, 14))
                 + "".join(f"[2,{j}] = 1/2*{j + 2}\n" for j in range(3, 13)))
CONTRACTION_ALGEBRAS = {"m0": load_preset("m0", 14), "L1": load_preset("L1", 14),
                        "filiform-file": parse_algebra(FILIFORM_FILE)}
COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _combination(data, g, basis, vectors):
    """A random rational combination of coordinate vectors over basis."""
    terms = {}
    for vec in vectors:
        x = data.draw(COEFF)
        for m, v in zip(basis, vec):
            terms[m] = terms.get(m, 0) + x * v
    return Form(g, terms)


def _outcome(call):
    try:
        return call()
    except NotACocycle as err:
        return str(err)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(CONTRACTION_ALGEBRAS)), st.integers(1, 4), st.integers(1, 14),
       st.data())
def test_contraction_identities(name, q, k, data):
    # z = d(h z) + sum_j p_j(z) rep_j on cocycles, p(rep_j) = e_j with
    # h(rep_j) = 0, and p(d y) = 0 with d(h d y) = d y; a memo hit returns
    # the first reading, which is that of a fresh E v
    g = CONTRACTION_ALGEBRAS[name]
    slc = coh.cohomology_slice(g, q, k)
    assume(slc.cocycles)
    z = _combination(data, g, slc.basis, slc.cocycles)
    h, p = slc.contract(z.terms)
    transferred = Form.zero(g)
    for x, rep in zip(p, slc.representatives):
        transferred = transferred + x * rep
    assert differential(g, Form(g, dict(h))) + transferred == z
    assert slc.contract(dict(z.terms)) == (h, p)
    red, exact = slc.reduction, len(slc.coboundaries)
    image = red.image({slc.index[m]: c for m, c in z.terms.items()})
    labels = slice_basis(g, q - 1, k)
    assert p == tuple(image[exact:red.rank])
    assert h == tuple((labels[pc], v) for pc, v in zip(red.pivots, image[:exact]) if v)
    for j, rep in enumerate(slc.representatives):
        assert slc.contract(rep.terms) == ((), tuple(int(i == j) for i in range(slc.dimension)))
    if labels:
        dy = differential(g, Form(g, {m: data.draw(COEFF) for m in labels}))
        h, p = slc.contract(dy.terms)
        assert not any(p) and differential(g, Form(g, dict(h))) == dy


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CONTRACTION_ALGEBRAS)), st.integers(1, 4), st.integers(1, 14),
       st.data())
def test_contraction_refusals_repeat(name, q, k, data):
    # a component that is not closed reads (None, None), and one with a
    # monomial outside the slice raises; class_coordinates (and
    # coboundary_preimage on the unclosed one) raise the same NotACocycle on
    # the first call and on every later one
    g = CONTRACTION_ALGEBRAS[name]
    slc = coh.cohomology_slice(g, q, k)
    z = _combination(data, g, slc.basis, slc.cocycles)
    nonclosed = [m for m in slc.basis if not differential(g, Form.monomial(g, m)).is_zero()]
    strays = [m for w in range(1, g.cutoff + 1) if w != k for m in slice_basis(g, q, w)]
    if nonclosed:
        bad = z + Form.monomial(g, data.draw(st.sampled_from(nonclosed)))
        for _ in range(2):
            assert slc.contract(bad.terms) == (None, None)
            assert _outcome(lambda: coh.class_coordinates(slc, bad)) == "form is not closed"
            assert _outcome(lambda: linalg.coboundary_preimage(g, bad)) == "form is not closed"
    off = z + Form.monomial(g, data.draw(st.sampled_from(strays)))
    message = f"form is not homogeneous of (q={q}, k={k})"
    for _ in range(2):
        assert _outcome(lambda: slc.contract(off.terms)) == message
        assert _outcome(lambda: coh.class_coordinates(slc, off)) == message


# _kept with its last kept position dropped, or with its first one repeated,
# and an omega that gives the monomial e^3^e^4 (not closed on m0): picks that
# publish too few representatives, dependent ones or one that is not closed
BROKEN_PICKS = ("from gradedlie.forms import Form\n"
                "kept = coh._kept\n"
                "def dropped(d, columns):\n"
                "    positions, red = kept(d, columns)\n"
                "    return positions[:-1], red\n"
                "def repeated(d, columns):\n"
                "    positions, red = kept(d, columns)\n"
                "    return positions[:1] * len(positions), red\n"
                "def unclosed(g, indices):\n"
                "    return Form(g, {(3, 4): 1})\n")
# its (1, 1) slice has the two closed monomials e^1 and e^2
HEISENBERG = "generators: (1:1), (2:1), (3:2)\ncutoff: 3\n[1,2] = 1*3\n"
BASIS_CHECK = "coboundaries and representatives must be a basis of the cocycles"


def test_slice_build_rejects_a_broken_pick(m0, L1, monkeypatch):
    # every slice is checked at build, contracted or not
    scope = {"coh": coh}
    exec(BROKEN_PICKS, scope)
    heisenberg = parse_algebra(HEISENBERG)
    assert not differential(m0, Form(m0, {(3, 4): 1})).is_zero()
    for name, broken, g, q, k in (("_kept", "dropped", L1, 2, 7),
                                  ("_kept", "repeated", heisenberg, 1, 1),
                                  ("omega", "unclosed", m0, 2, 7)):
        monkeypatch.setattr(coh, name, scope[broken])
        coh.cohomology_slice.cache_clear()
        with pytest.raises(InternalCheckFailed, match=f"^{BASIS_CHECK}$"):
            coh.cohomology_slice(g, q, k)
        monkeypatch.undo()
    coh.cohomology_slice.cache_clear()
    assert coh.representatives(heisenberg, 1, 1) == [mono(heisenberg, 1), mono(heisenberg, 2)]


def test_slice_basis_check_survives_python_O():
    script = ("assert False, 'python -O strips this assert'\n"
              "from gradedlie import cohomology as coh\n"
              "from gradedlie.algebra import parse_algebra\n" + BROKEN_PICKS
              + f"coh._kept = repeated\ncoh.cohomology_slice(parse_algebra({HEISENBERG!r}), 1, 1)\n")
    src = os.path.dirname(os.path.dirname(coh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.rstrip().endswith(f"InternalCheckFailed: {BASIS_CHECK}")


def test_product_table_entries_and_refusal():
    # entries are the class terms of wedges of representatives, zero ones
    # left out; a table past the cutoff raises where class_terms raises and
    # is not stored, and a stored table is reused
    g = load_preset("m0", 8)
    e2 = coh.cohomology_slice(g, 1, 2)
    past = coh.cohomology_slice(g, 2, 7)
    for _ in range(2):
        with pytest.raises(CutoffTooSmall,
                           match=r"^cutoff 8 too small, need at least 9 for cohomology "
                                 r"slice \(q=3, k=9\)$"):
            e2.product_terms(past)
        assert (2, 7) not in e2.products
    g = load_preset("m0", 10)
    e2, omega_7 = coh.cohomology_slice(g, 1, 2), coh.cohomology_slice(g, 2, 7)
    for left, right, entries in ((e2, omega_7, 1), (omega_7, e2, 1),
                                 (e2, coh.cohomology_slice(g, 2, 5), 0)):
        table = left.product_terms(right)
        assert left.product_terms(right) is table and len(table) == entries
        assert table == {(i, j): terms
                         for i, r in enumerate(left.representatives)
                         for j, h in enumerate(right.representatives)
                         if (terms := coh.class_terms(g, wedge(r, h)))}


def test_partition_count():
    assert all(coh.partition_count(1, k) == 1 for k in range(1, 30))
    assert coh.partition_count(2, 4) == 2
    assert coh.partition_count(3, 12) == 12
    assert coh.partition_count(3, 11) == 10
    assert coh.partition_count(3, 12) - coh.partition_count(3, 11) == 2
    assert coh.partition_count(0, 0) == 1
    assert coh.partition_count(2, 1) == 0


def test_partition_count_matches_brute_force():
    def brute(q, k):
        # partitions of k into exactly q positive nonincreasing parts
        def rec(remaining, parts, maximum):
            if parts == 0:
                return 1 if remaining == 0 else 0
            return sum(rec(remaining - p, parts - 1, p)
                       for p in range(1, min(remaining, maximum) + 1))
        return rec(k, q, k)

    for q in range(1, 5):
        for k in range(0, 16):
            assert coh.partition_count(q, k) == brute(q, k)


def test_check_goncharova_small():
    report = coh.check_goncharova(2, 8)
    assert report.ok
    nonzero = {(r.q, r.k) for r in report.rows if r.computed}
    assert nonzero == {(1, 1), (1, 2), (2, 5), (2, 7)}


def test_check_goncharova_requires_range():
    with pytest.raises(CutoffTooSmall):
        coh.check_goncharova(3, 10)


def test_check_m0_dimensions_q2_weights():
    report = coh.check_m0_dimensions(2, 9)
    assert report.ok
    dims = {(r.q, r.k): r.computed for r in report.rows}
    assert [dims[(2, k)] for k in range(4, 10)] == [0, 1, 0, 1, 0, 1]
    assert dims[(1, 1)] == 1 and dims[(1, 2)] == 1


def test_m0_dim_weight18_degree3(m0_big):
    assert coh.betti(m0_big, 3, 18) == 2


def test_betti_builds_no_slice_and_eliminates_each_d_matrix_once(monkeypatch):
    # betti is rank-only: no cohomology slice, no d-matrix, no
    # back-substitution, and one forward elimination per Morse block D_q,
    # kept on the cached matching M_q, so the queries (q, k) and (q+1, k)
    # share the elimination of D_q
    echelon, eliminated = linalg._echelon, []

    def counted(rows):
        eliminated.append(1)
        return echelon(rows)

    def refused(rows):
        raise AssertionError("betti back-substituted")

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(linalg, "_integer_rref", refused)
    linalg.d_matrix.cache_clear()
    coh.morse_matching.cache_clear()
    for name in ("m0", "L1"):
        g = load_preset(name, 15)
        slices, dmats = coh.cohomology_slice.cache_info(), linalg.d_matrix.cache_info()
        eliminated.clear()
        for q in range(1, 5):
            for k in range(1, 16):
                coh.betti(g, q, k)
        assert coh.cohomology_slice.cache_info() == slices, name
        assert linalg.d_matrix.cache_info() == dmats, name
        assert len(eliminated) == 5 * 15, name     # D_0 .. D_4 at each weight
        for q in range(1, 5):
            coh.betti(g, q, 15)
        assert len(eliminated) == 5 * 15, name


def _relabelled(g, perm):
    """g read from a file with generator i renamed perm[i]; each generator
    keeps its weight, so the weights are no longer monotone in index order."""
    lines = ["generators: " + ", ".join(f"({perm[s.index]}:{s.weight})"
                                         for s in g.generators), f"cutoff: {g.cutoff}"]
    for (i, j), terms in g.brackets.items():
        sign = 1 if perm[i] < perm[j] else -1
        rhs = " + ".join(f"{sign * c}*{perm[t]}" for c, t in terms)
        lines.append(f"[{min(perm[i], perm[j])},{max(perm[i], perm[j])}] = {rhs}")
    return parse_algebra("\n".join(lines) + "\n")


def _shuffled_labels(g, seed):
    labels = list(g.indices)
    random.Random(seed).shuffle(labels)
    return dict(zip(g.indices, labels))


def _morse_graph_is_acyclic(g, q, k):
    """Whether M_q leaves no directed cycle σ -> σ' (d σ meets partner(σ'),
    σ' != σ) among its lower cells, by depth-first search over the full
    d-matrix: a route that shares no code with the certificate."""
    pairs = coh.morse_matching(g, q, k).pairs
    d = linalg.d_matrix(g, q, k)
    lower = {d.row_labels.index(t): s for s, t in pairs.items()}
    succ = {s: [] for s in pairs}
    for (r, c), v in d.entries.items():
        s = d.col_labels[c]
        if s in pairs and r in lower and lower[r] != s:
            succ[s].append(lower[r])
    state = dict.fromkeys(pairs, 0)     # 0 new, 1 on the path, 2 done

    def cyclic(s):
        state[s] = 1
        if any(state[t] == 1 or state[t] == 0 and cyclic(t) for t in succ[s]):
            return True
        state[s] = 2
        return False
    return not any(state[s] == 0 and cyclic(s) for s in pairs)


def test_betti_agrees_with_the_full_slice(m0_tail):
    # betti's Morse route and the full slice's kernel/image count are two
    # routes to one dimension; the dimension oracles read the first, the
    # Massey path the second.  The matching applies to L1, m0 and the m2
    # file, shuffled or not, and not to gr L1 (two generators of weight 1)
    # or to the m0 tail (no e2), where D_q is the whole d_q
    L1_12, m2, m0_24 = load_preset("L1", 12), parse_algebra(M2_FILE), load_preset("m0", 24)
    shuffled = _relabelled(L1_12, _shuffled_labels(L1_12, 5))
    weights = [shuffled.weight(i) for i in shuffled.indices]
    assert weights != sorted(weights)
    cases = [(load_preset("L1", 26), 4), (load_preset("L1", 30), 6), (m0_24, 6),
             (associated_graded(L1_12), 4), (shuffled, 4), (m2, 4),
             (_relabelled(m2, _shuffled_labels(m2, 8)), 4), (m0_tail, 4)]
    assert [e1_chain(g) is not None for g, _ in cases] == [True] * 3 + [False] + [True] * 3 + [False]
    for g, qmax in cases:
        for q in range(0, qmax + 1):
            for k in range(0, g.cutoff + 1):
                slc = coh.cohomology_slice(g, q, k)
                assert coh.betti(g, q, k) == slc.dimension == \
                    len(slc.cocycles) - len(slc.coboundaries), (g, q, k)
    for q in range(0, 5):
        for k in range(0, 13):
            assert coh.betti(shuffled, q, k) == coh.betti(L1_12, q, k), (q, k)
    # on m0 the matching is perfect, its critical cells are a basis of the
    # cohomology, and it is acyclic
    for q in range(0, 7):
        for k in range(0, 25):
            cells = len(coh._slice_basis_cached(m0_24, q, k))
            critical = cells - sum(len(coh.morse_matching(m0_24, p, k).pairs) for p in (q - 1, q))
            assert critical == coh.betti(m0_24, q, k), (q, k)
            assert _morse_graph_is_acyclic(m0_24, q, k), (q, k)


CYCLIC_PAIRING = ("images = {'a': {'A': 1, 'B': 1}, 'b': {'A': 2, 'B': 1}}\n"
                  "pairs = {'a': 'A', 'b': 'B'}\n")


def test_morse_certificate_refuses_a_cycle_and_a_zero_incidence():
    # a and b each meet the other's partner, a cycle a -> b -> a; then a
    # pairing whose matched incidence is zero; then a -> b alone, acyclic
    scope = {}
    exec(CYCLIC_PAIRING, scope)
    with pytest.raises(InternalCheckFailed, match="^the matched block must be acyclic$"):
        coh._morse_order(scope["images"], scope["pairs"])
    with pytest.raises(InternalCheckFailed, match="^every matched incidence must be nonzero$"):
        coh._morse_order({"a": {"A": 0, "B": 1}, "b": {"B": 1}}, scope["pairs"])
    assert coh._morse_order({"a": {"A": 1, "B": 1}, "b": {"B": 3}}, scope["pairs"]) == ["a", "b"]


def test_morse_certificate_survives_python_O():
    script = ("assert False, 'python -O strips this assert'\n"
              "from gradedlie.cohomology import _morse_order\n" + CYCLIC_PAIRING
              + "_morse_order(images, pairs)\n")
    src = os.path.dirname(os.path.dirname(coh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.rstrip().endswith(
        "InternalCheckFailed: the matched block must be acyclic")


def test_goncharova_frontier():
    # past weight 40 the whole d_q fills in under elimination; the Morse
    # blocks D_q keep these cheap
    assert coh.check_goncharova(5, 40).ok
    assert coh.betti(load_preset("L1", 51), 6, 51) == 1


def test_betti_edges():
    g = parse_algebra("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3\n")
    for k in range(0, 4):
        assert coh.betti(g, 0, k) == (1 if k == 0 else 0)
        assert coh.betti(g, -1, k) == coh.betti(g, -3, k) == 0
        assert coh.betti(g, 4, k) == coh.betti(g, 7, k) == 0
    assert [coh.betti(g, q, 0) for q in range(-1, 5)] == [0, 1, 0, 0, 0, 0]
    # e^1 and e^2 are closed, d e^3 = e^1^e^2 kills H^2_3, and q = 3 needs weight 6
    assert [coh.betti(g, 1, k) for k in (1, 2, 3)] == [1, 1, 0]
    assert [coh.betti(g, q, 3) for q in (2, 3)] == [0, 0]
    # past the cutoff both routes refuse at the one shared site, before any
    # d-matrix is built
    for q in (-1, 0, 2, 4):
        built = linalg.d_matrix.cache_info().misses
        with pytest.raises(CutoffTooSmall) as betti_info:
            coh.betti(g, q, 4)
        assert linalg.d_matrix.cache_info().misses == built
        with pytest.raises(CutoffTooSmall) as slice_info:
            coh.cohomology_slice(g, q, 4)
        assert str(betti_info.value) == str(slice_info.value) == \
            f"cutoff 3 too small, need at least 4 for cohomology slice (q={q}, k=4)"


def test_truncation_stability():
    for q in range(1, 5):
        for k in range(2, 15):
            for name in ("m0", "L1"):
                d1 = coh.betti(load_preset(name, k), q, k)
                d2 = coh.betti(load_preset(name, k + 3), q, k)
                assert d1 == d2, (name, q, k)


def test_representatives_closed_and_reduce_to_unit(m0, L1):
    for g in (m0, L1):
        for q in (1, 2, 3):
            for k in range(1, 14):
                slc = coh.cohomology_slice(g, q, k)
                for i, rep in enumerate(slc.representatives):
                    assert differential(g, rep).is_zero()
                    cc = coh.class_coordinates(slc, rep)
                    expected = tuple(Fraction(1 if j == i else 0)
                                     for j in range(slc.dimension))
                    assert cc == expected


def test_omega_cocycles_independent_mod_coboundaries(m0):
    for q in (2, 3):
        for k in range(1, 17):
            lists = omega_index_lists(q - 1, k)
            if not lists:
                continue
            slc = coh.cohomology_slice(m0, q, k)
            coords = [coh.class_coordinates(slc, omega(m0, idx))
                      for idx in lists]
            assert all(any(c != 0 for c in row) for row in coords)
            # linear independence of the coordinate rows
            from gradedlie import linalg
            assert linalg.rank([list(r) for r in coords]) == len(coords)


def test_multiplication_rules(m0_big):
    # classes of e^1 ^ omega vanish; e^2 ^ omega(xi...) = omega(e^2 ^ xi ...)
    e1 = mono(m0_big, 1)
    e2 = mono(m0_big, 2)
    for q_idx in (1, 2):
        for k in range(5, 18):
            for idx in omega_index_lists(q_idx, k):
                om = omega(m0_big, idx)
                prod1 = wedge(e1, om)
                if not prod1.is_zero():
                    coords = coh.class_coordinates_form(m0_big, prod1)
                    assert not any(any(c) for c in coords.values())
                if idx[0] > 2 and omega_weight([2] + idx) <= m0_big.cutoff:
                    assert wedge(e2, om) == omega(m0_big, [2] + idx)


def test_h1_identification(m0, L1):
    # dim H^1(g) = dim H^1(gr g) = dim g/[g,g] for both presets
    for g in (m0, L1):
        h1 = sum(coh.betti(g, 1, k) for k in range(1, g.cutoff + 1))
        gr = associated_graded(g)
        h1gr = sum(coh.betti(gr, 1, k) for k in range(1, gr.cutoff + 1))
        targets = {k for terms in g.brackets.values() for _, k in terms}
        abelianization = len(g.indices) - len(targets)
        assert h1 == h1gr == abelianization == 2


def test_report_formats():
    report = coh.check_goncharova(1, 2)
    csv = report.to_csv()
    assert csv.splitlines()[0] == "q,k,computed,expected,match"
    import json
    data = json.loads(report.to_json())
    assert data["report"] == "goncharova" and data["ok"] is True
    assert "all match" in report.to_table()


# m2: [e1, ei] = e{i+1} and [e2, ej] = 1/2 e{j+2}, a filiform algebra read
# from a file, with rational structure constants
M2_FILE = ("generators: " + ", ".join(f"({i}:{i})" for i in range(1, 17)) + "\ncutoff: 16\n"
           + "".join(f"[1,{i}] = 1*{i + 1}\n" for i in range(2, 16))
           + "".join(f"[2,{j}] = 1/2*{j + 2}\n" for j in range(3, 15)))


def test_euler_characteristic_per_weight(m0, L1):
    # the alternating sums of cochain-slice dimensions and Betti numbers
    # agree in every weight: an independent global check of all the
    # kernel/image ranks
    from gradedlie.forms import slice_basis
    for g in (m0, L1, parse_algebra(M2_FILE)):
        for k in range(1, 17):
            chi_cochain = sum((-1) ** q * len(slice_basis(g, q, k))
                              for q in range(0, k + 2))
            chi_betti = sum((-1) ** q * coh.betti(g, q, k)
                            for q in range(0, k + 2))
            assert chi_cochain == chi_betti, (g, k)


# sha256 over (q, k, dimension, rep_vectors, coboundaries) of every slice
# below.  Computed with the Fraction back-substitution and solve-based span
# tests that preceded the integer elimination kernel, before any change to
# src/, so it pins "identical canonical representatives" across that rewrite.
GOLDEN_SLICE_DIGEST = "e771289c8da7c60ff8e8dd49351173502b29f31f4cd4fd4dbaa3c29dfd9ce08c"


def test_golden_slice_digest():
    digest = hashlib.sha256()
    for name, cutoff, qmax in (("L1", 26, 4), ("m0", 24, 5)):
        g = load_preset(name, cutoff)
        for q in range(1, qmax + 1):
            for k in range(1, cutoff + 1):
                s = coh.cohomology_slice(g, q, k)
                row = [name, q, k, s.dimension,
                       [[str(x) for x in v] for v in s.rep_vectors],
                       [[str(x) for x in v] for v in s.coboundaries]]
                digest.update(json.dumps(row).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SLICE_DIGEST
