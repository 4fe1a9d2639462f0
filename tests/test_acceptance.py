"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each (run with -s or read the captured output).

The sign of a Massey product depends on the conventions for bar(A) and d
(Kraines, Trans. AMS 124, 1966).  Criteria 06 and 07 therefore assert the
signs that the defining equations force under the conventions of
`gradedlie.forms` and `gradedlie.massey`, derive each sign by a second route
that does not share the code path under test, and keep the published value
as an asserted relation: c(A) = (-1)^k * 2 omega(e^k ^ e^{k+1}) against the
stated +2 omega, and <e2, e2, e1> = +3 [e1 ^ e4] over L1 against the stated -3.
"""

import time
from fractions import Fraction
from itertools import product as iter_product

import pytest

from gradedlie import cohomology as coh
from gradedlie import linalg
from gradedlie import massey as ms
from gradedlie import representations as reps
from gradedlie.algebra import associated_graded, load_preset, m0_normal_form
from gradedlie.checks import bianchi_suite, d_operator_suite
from gradedlie.cohomology import class_coordinates_form
from gradedlie.forms import Form, differential, parse_form, wedge
from gradedlie.mzero import omega


GRID_PAIRS = [(Fraction(a), Fraction(b))
              for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]


def _coefficient(value, weight, index):
    """The coefficient of a ValueClass on the representative (weight, index)."""
    return next((c for w, i, c, _ in value.entries if (w, i) == (weight, index)), Fraction(0))


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def F(g, s):
    return parse_form(g, s)


@pytest.fixture(scope="module")
def m0_10():
    return load_preset("m0", 10)


@pytest.fixture(scope="module")
def triple_grid(m0_10):
    """Exact triple-product triviality verdicts over the full rational grid."""
    verdicts = {}
    for p1, p2, p3 in iter_product(GRID_PAIRS, repeat=3):
        classes = [a * Form.generator(m0_10, 1) + b * Form.generator(m0_10, 2)
                   for a, b in (p1, p2, p3)]
        res = ms.triple_product(m0_10, *classes)
        verdicts[(p1, p2, p3)] = (res.status == ms.TRIVIAL_WITNESS)
    return verdicts


def test_criterion_01_goncharova():
    t0 = time.time()
    g = load_preset("L1", 16)
    expected = {1: {1, 2}, 2: {5, 7}, 3: {12, 15}}
    bad = []
    for q in range(1, 4):
        for k in range(1, 17):
            dim = coh.betti(g, q, k)
            want = 1 if k in expected[q] else 0
            if dim != want:
                bad.append((q, k, dim, want))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60
    assert report(1, ok, f"Goncharova dims q<=3 k<=16, {elapsed:.1f}s "
                         f"({len(bad)} mismatches)")


def test_criterion_02_m0_dimension_oracle():
    g = load_preset("m0", 20)
    bad = []
    for q in range(1, 5):
        shift = q * (q + 1) // 2
        # the partition formula, over its domain (positive k)
        for k in range(1, 21 - shift):
            w = k + shift
            want = coh.partition_count(q, k) - coh.partition_count(q, k - 1)
            got = coh.betti(g, q, w)
            if got != want:
                bad.append((q, w, got, want))
        # below the formula's domain the slices vanish for q >= 2
        if q >= 2:
            for w in range(1, min(shift + 1, 21)):
                if coh.betti(g, q, w) != 0:
                    bad.append((q, w, "nonzero", 0))
    # the degree-1 sector is spanned by e^1 and e^2
    for w in range(1, 21):
        want = 1 if w in (1, 2) else 0
        if coh.betti(g, 1, w) != want:
            bad.append((1, w, "h1", want))
    assert report(2, not bad, f"m0 dims vs partition formula, q<=4 w<=20 "
                              f"({len(bad)} mismatches)")


def test_criterion_03_omega_expansions():
    g = load_preset("m0", 22)
    expected_56 = {(5, 6, 7): 1, (4, 6, 8): -1, (3, 6, 9): 1, (4, 5, 9): 1,
                   (2, 6, 10): -1, (3, 5, 10): -2, (2, 5, 11): 3, (3, 4, 11): 2,
                   (2, 4, 12): -5, (2, 3, 13): 5}
    ok = omega(g, [5, 6]).terms == {m: Fraction(c) for m, c in expected_56.items()}
    ok = ok and omega(g, [2]).terms == {(2, 3): Fraction(1)}
    ok = ok and omega(g, [3]).terms == {(3, 4): Fraction(1), (2, 5): Fraction(-1)}
    ok = ok and omega(g, [4]).terms == {(4, 5): Fraction(1), (3, 6): Fraction(-1),
                                        (2, 7): Fraction(1)}
    assert report(3, ok, "omega([5,6]) and omega([2..4]) byte-exact expansions")


def test_criterion_04_d_operator_suite():
    ok, detail = d_operator_suite(samples=500, max_weight=20, seed=2024)
    assert report(4, ok, f"D-operator identities, {detail}")


def test_criterion_05_maurer_cartan_suite():
    ok, detail = bianchi_suite(samples=200, seed=2024, max_n=4, max_weight=8)
    assert report(5, ok, f"Maurer-Cartan matrix laws, {detail}")


def test_criterion_06_paper_defining_systems():
    # Conventions: bar scales a degree-q form by (-1)^(q+1), d e^k =
    # sum_{i<j} c_ij^k e^i ^ e^j, mu(A) = dA - bar(A) A and c(A) =
    # sum_r bar(a(1,r)) ^ a(r+1,n).  Under them the defining equations force
    # c(A) = (-1)^k STATED_k, where STATED_k = 2 omega(e^k ^ e^{k+1}) is the
    # published value: equal at even k (k = 2 is the printed case), opposite
    # at odd k.  The sign is derived a second time, without the paper
    # matrices, by the decision ladder on <e2, e1 x (2k-3), e2>: the exact
    # triple product at k = 2, the graded thread module at k >= 3.  At
    # k = 2, 3 the complete graded family has the constant value (-1)^k * 2,
    # so the sign is the whole value set; from k = 4 on the family stops at
    # a nonlinear p1*p3 obstruction and that check does not apply.
    g = load_preset("m0", 14)
    e1, e2 = F(g, "e1"), F(g, "e2")
    results = []
    for k in range(2, 7):
        sign = (-1) ** k
        key = (2 * k + 1, 0)
        stated = 2 * omega(g, [k])
        paper_ok = ms.related_cocycle(ms.paper_connection_two_e2(g, k)) == \
            sign * stated
        classes = [e2] + [e1] * (2 * k - 3) + [e2]
        res = ms.evaluate_product(g, classes)
        ladder_ok = (res.status == ms.NONTRIVIAL_CERTIFIED
                     and coh.representatives(g, 2, key[0])[0] == omega(g, [k])
                     and _coefficient(res.value, *key) == sign * 2)
        family_ok = True
        if k <= 3:
            fam = ms.solve_defining_system(g, classes)
            family_ok = (fam.ok and fam.complete
                         and fam.value_polynomial() == {key: sign * 2})
        results.append((k, paper_ok and ladder_ok and family_ok))
    main_ok = ms.related_cocycle(ms.paper_connection_main(g, 3, [4])) == \
        -omega(g, [3, 4])
    ok = all(r for _, r in results) and main_ok
    detail = ("two-e2 k=2..6 -> (-1)^k*2*omega, paper matrix = ladder "
              "(= family, k<=3): "
              + ", ".join(f"k={k}:{'ok' if r else 'FAIL'}" for k, r in results)
              + f"; main(3,[4]) -> -omega: {'ok' if main_ok else 'FAIL'}")
    assert report(6, ok, detail)


def test_criterion_07_triple_criterion_grid(m0_10, triple_grid):
    mismatches = sum(
        1 for (p1, p2, p3), trivial in triple_grid.items()
        if trivial != (ms._triple_criterion(p1, p2, p3) == 0))
    # the ungraded family, which evaluate_product picks for 1-classes, over
    # the same grid: trivial iff its affine corner coordinates have a zero
    family_mismatches = 0
    for pairs, trivial in triple_grid.items():
        classes = [a * Form.generator(m0_10, 1) + b * Form.generator(m0_10, 2) for a, b in pairs]
        fam = ms.solve_defining_system(m0_10, classes, graded=False)
        coords = list(fam.value_polynomial().values()) if fam.ok else None
        family_mismatches += not (coords is not None and fam.complete
                                  and all(poly.is_affine() for poly in coords)
                                  and trivial == (not coords or ms._affine_zeros(coords) is not None))
    grid_ok = mismatches == 0 and family_mismatches == 0
    # <e2, e2, e1> over L1 ([e_i, e_j] = (j - i) e_{i+j}) by hand.
    # d a(1,2) = bar(e2) ^ e2 = 0, so a(1,2) = 0.
    # d a(2,3) = bar(e2) ^ e1 = -e1 ^ e2 = -d e3, so a(2,3) = -e3.  The
    # printed derivation solves d g = +e1 ^ e2 at this step, takes g = +e3
    # (which fails the defining equations), and so reaches +e2 ^ e3 and the
    # published -3 [e1 ^ e4].
    # c = bar(e2) ^ a(2,3) = -e2 ^ e3, and d e5 = 3 e1 ^ e4 + e2 ^ e3 gives
    # c = 3 e1 ^ e4 - d e5, the class +3 [e1 ^ e4].
    published = Fraction(-3)
    L1 = load_preset("L1", 12)
    e = {i: Form.generator(L1, i) for i in range(1, 6)}
    matrix = (ms.ConnectionMatrix(L1, 3).with_entry(1, 1, e[2])
              .with_entry(2, 2, e[2]).with_entry(3, 3, e[1])
              .with_entry(2, 3, -e[3]))
    system = ms.DefiningSystem(matrix, verify=True)
    c = ms.related_cocycle(system)
    hand_ok = (c == -wedge(e[2], e[3])
               and c - 3 * wedge(e[1], e[4]) == -differential(L1, e[5])
               and not ms.is_formal_connection(matrix.with_entry(2, 3, e[3]))[0])
    res = ms.triple_product(L1, F(L1, "e2"), F(L1, "e2"), F(L1, "e1"))
    coeff = _coefficient(res.value, 5, 0)
    # the graded family is complete at n = 3 on L1 too, and its value is
    # the constant +3 [e1 ^ e4]
    fam = ms.solve_defining_system(L1, [F(L1, "e2"), F(L1, "e2"), F(L1, "e1")])
    value_ok = (res.indeterminacy == () and
                res.value.entries == ((5, 0, Fraction(3), "1*e1^e4"),) and
                coeff == -published and
                fam.ok and fam.complete and fam.value_polynomial() == {(5, 0): 3})
    detail = (f"triple criterion {len(triple_grid) - mismatches}/"
              f"{len(triple_grid)} grid agreement, ungraded family "
              f"{len(triple_grid) - family_mismatches}/{len(triple_grid)}; <e2,e2,e1> over L1 = "
              f"{coeff}*g2- (published {published}), hand-built "
              f"system: {'ok' if hand_ok else 'FAIL'}, triple product: "
              f"{'ok' if value_ok else 'FAIL'}")
    assert report(7, grid_ok and hand_ok and value_ok, detail)


def _table_instances(n):
    """All four table rows instantiated at arity n with parameters in -2..2."""
    out = []
    for a, b in GRID_PAIRS:
        out.append(("A", [(a, b)] * n))
    for alpha in (-2, -1, 1, 2):
        for beta in range(-2, 3):
            out.append(("B", [(Fraction(i * alpha + beta), Fraction(1))
                              for i in range(1, n + 1)]))
    for l in range(n):
        for alpha in range(-2, 3):
            pairs = [(Fraction(1), Fraction(0))] * n
            pairs[l] = (Fraction(alpha), Fraction(1))
            out.append(("C", pairs))
    if n >= 4 and n % 2 == 0:
        for alpha in range(-2, 3):
            for beta in range(-2, 3):
                pairs = [(Fraction(alpha), Fraction(1))] + \
                    [(Fraction(1), Fraction(0))] * (n - 2) + \
                    [(Fraction(beta), Fraction(1))]
                out.append(("D", pairs))
    return out


def test_criterion_08_classification_concordance(m0_10, triple_grid):
    bad = 0
    total = 0
    # n = 3: classifier vs the exact solver on the full grid
    for (p1, p2, p3), trivial in triple_grid.items():
        tag = ms.classify_trivial_ones([p1, p2, p3])
        total += 1
        if trivial != (tag.kind in ("A", "B", "C", "D")):
            bad += 1
    # table rows at n = 4, 5: the classifier tags them and the exact solver
    # confirms the trivial witness
    g = load_preset("m0", 14)
    for n in (4, 5):
        for kind, pairs in _table_instances(n):
            total += 1
            tag = ms.classify_trivial_ones(pairs)
            classes = [a * Form.generator(g, 1) + b * Form.generator(g, 2)
                       for a, b in pairs]
            res = ms.evaluate_product(g, classes)
            if tag.kind != kind or res.status != ms.TRIVIAL_WITNESS:
                bad += 1
    # D-type windows do not extend: leading term 3*omega(e3^e4) at k = 1
    lemma_ok = True
    for alpha in (-2, 0, 2):
        for beta in (-1, 0, 1):
            first = [F(g, f"e2+{alpha}*e1"), F(g, "e1"), F(g, "e1"),
                     F(g, f"e2+{beta}*e1"), F(g, "e1")]
            second = [F(g, "e1"), F(g, f"e2+{alpha}*e1"), F(g, "e1"),
                      F(g, "e1"), F(g, f"e2+{beta}*e1")]
            for classes in (first, second):
                res = ms.evaluate_product(g, classes)
                if res.status != ms.NONTRIVIAL_CERTIFIED or \
                        _coefficient(res.value, 7, 0) != 3:
                    lemma_ok = False
    ok = bad == 0 and lemma_ok
    assert report(8, ok, f"classification concordance {total - bad}/{total}; "
                         f"D-extension lemma (3*omega(e3^e4) lead): "
                         f"{'ok' if lemma_ok else 'FAIL'}")


def test_criterion_09_feigin_fuchs_q2():
    t0 = time.time()
    L1 = load_preset("L1", 12)
    classes = [F(L1, "e2"), F(L1, "e1"), F(L1, "e1"), F(L1, "e1")]
    fam = ms.solve_defining_system(L1, classes)
    assert fam.ok
    poly = fam.value_polynomial()
    assert set(poly) == {(5, 0)}
    s_id, t_id = fam.param_ids()
    # value class = (3 s - 6 t - 1/2) g2-: both 0 and g2- are attained
    zero_witness = fam.substitute({s_id: Fraction(1, 6), t_id: 0})
    contains_zero = linalg.coboundary_preimage(
        L1, ms.related_cocycle(zero_witness)) is not None
    g2_witness = fam.substitute({s_id: Fraction(1, 2), t_id: 0})
    coords = class_coordinates_form(L1, ms.related_cocycle(g2_witness))
    contains_g2 = coords[5] == (Fraction(1),)
    res = ms.evaluate_product(L1, classes)
    elapsed = time.time() - t0
    ok = (contains_zero and contains_g2 and res.status == ms.TRIVIAL_WITNESS
          and elapsed < 30)
    assert report(9, ok, f"<e2,e1,e1,e1> over L1: trivial witness and g2- in "
                         f"the value set (affine solve, {elapsed:.1f}s)")


def test_criterion_10_gr_check():
    ok = True
    for w in range(3, 13):
        L1 = load_preset("L1", w)
        gr = associated_graded(L1)
        if not m0_normal_form(gr).ok:
            ok = False
        h1 = sum(coh.betti(L1, 1, k) for k in range(1, w + 1))
        h1gr = sum(coh.betti(gr, 1, k) for k in range(1, gr.cutoff + 1))
        if h1 != h1gr:
            ok = False
    assert report(10, ok, "gr(L1, W) normalizes onto m0 for W <= 12 and "
                          "H^1 dimensions agree")


def test_criterion_11_main_theorem_certificates():
    g = load_preset("m0", 18)
    ok = True
    details = []
    for i1, tail in ((2, [3]), (3, [4]), (3, [4, 5]), (4, [5])):
        classes = [F(g, "e2")] + [F(g, "e1")] * (i1 - 2) + [omega(g, tail)]
        cert = ms.leading_coefficient_certificate(g, classes, samples=100, seed=0)
        good = cert is not None and cert["coefficient"] == str((-1) ** i1) \
            and cert["samples"] == 100
        ok = ok and good
        details.append(f"({i1},{tail}):{'ok' if good else 'FAIL'}")
    assert report(11, ok, "leading-coefficient certificates, 100 samples each: "
                          + ", ".join(details))


def _thread_system(g, pairs):
    """(off-corner residual?, corner residual terms, defining system) of the
    thread connection for pairs; the system drops the corner and exists only
    when the residual vanishes off the corner."""
    n = len(pairs)
    conn = ms.thread_connection(g, pairs)
    residual = ms.mc_residual(conn)
    if residual.entries.keys() - {(1, n)}:
        return True, None, None
    system = ms.DefiningSystem(conn.with_entry(1, n, Form.zero(g)))
    return False, residual.corner().terms, system


def test_criterion_12_lifting_obstruction():
    g = load_preset("m0", 14)
    checked = 0
    ok = True
    # trivial table instances: obstruction vanishes and the corner solves
    for n in (3, 4):
        for kind, pairs in _table_instances(n):
            off_corner, corner, system = _thread_system(g, pairs)
            if off_corner:
                ok = False
                continue
            coords, solvable = reps.lift_obstruction(g, system)
            checked += 1
            if not solvable or coords or corner:
                ok = False
    # defined but non-liftable instances at n = 3, 4
    for pairs in ([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                   (Fraction(0), Fraction(1))],
                  [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                   (Fraction(1), Fraction(0)),
                   (Fraction(1), Fraction(1))]):
        off_corner, corner, system = _thread_system(g, pairs)
        if off_corner:
            continue
        coords, solvable = reps.lift_obstruction(g, system)
        checked += 1
        if solvable != (not coords) or solvable != (not corner):
            ok = False
    assert report(12, ok, f"lift obstruction = 0 iff corner completion solves "
                          f"({checked} systems)")
