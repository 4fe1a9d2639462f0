import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from gradedlie import cohomology as coh
from gradedlie.algebra import associated_graded, load_preset
from gradedlie.errors import CutoffTooSmall, InternalCheckFailed, NotACocycle
from gradedlie.forms import Form, differential, wedge
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


def test_class_coordinates_examples(L1):
    slc = coh.cohomology_slice(L1, 2, 5)
    cc = coh.class_coordinates(slc, mono(L1, 2, 3))
    assert cc.coords == (Fraction(-3),)
    # coboundaries reduce to zero
    d5 = differential(L1, mono(L1, 5))
    assert coh.class_coordinates(slc, d5).coords == (Fraction(0),)
    slc7 = coh.cohomology_slice(L1, 2, 7)
    g2p = mono(L1, 2, 5) - 3 * mono(L1, 3, 4)
    assert coh.class_coordinates(slc7, g2p).coords == (Fraction(1),)


def test_class_coordinates_rejects_noncocycle(L1):
    slc = coh.cohomology_slice(L1, 2, 6)
    with pytest.raises(NotACocycle):
        coh.class_coordinates(slc, mono(L1, 2, 4))


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
            assert coh.class_coordinates(slc, v).coords == tuple(c), (q, k)
            nonclosed = [m for m in slc.basis
                         if not differential(g, Form.monomial(g, m)).is_zero()]
            if nonclosed:
                with pytest.raises(NotACocycle):
                    coh.class_coordinates(slc, v + Form.monomial(g, rng.choice(nonclosed)))
            checked += 1
    assert checked >= 5


def test_class_coordinates_rejects_dependent_representatives(L1):
    slc = coh.cohomology_slice(L1, 2, 7)
    broken = dataclasses.replace(slc, rep_vectors=slc.coboundaries[:1])
    with pytest.raises(InternalCheckFailed):
        coh.class_coordinates(broken, mono(L1, 2, 5) - 3 * mono(L1, 3, 4))


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
                    assert cc.coords == expected


def test_omega_cocycles_independent_mod_coboundaries(m0):
    for q in (2, 3):
        for k in range(1, 17):
            lists = omega_index_lists(q - 1, k)
            if not lists:
                continue
            slc = coh.cohomology_slice(m0, q, k)
            coords = [coh.class_coordinates(slc, omega(m0, idx)).coords
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
                    assert all(c.is_zero() for c in coords.values())
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


def test_euler_characteristic_per_weight(m0, L1):
    # the alternating sums of cochain-slice dimensions and Betti numbers
    # agree in every weight: an independent global check of all the
    # kernel/image ranks
    from gradedlie.forms import slice_basis
    for g in (m0, L1):
        for k in range(1, 13):
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
