"""Answer checks that do not share the code path that produced the answer.

Dimension tables and the triple criterion are closed formulas kept here on
purpose, so a defect in the library's own copies cannot hide itself.  The
certificate checks re-verify what a result claims: a witness must be a formal
connection with zero corner whose related cocycle is exact, and a
nonvanishing claim must carry a nonzero value.

Every check returns a list of problems; an empty list means the answer is
accepted.
"""

from __future__ import annotations

from functools import lru_cache

TRIVIAL = "TrivialWitness"
NONTRIVIAL = "NonTrivialCertified"
TABLE_ROWS = ("A", "B", "C", "D")


@lru_cache(maxsize=None)
def partitions(q, k):
    """Number of partitions of k into exactly q positive parts."""
    if q == 0:
        return 1 if k == 0 else 0
    if q < 0 or k < q:
        return 0
    return partitions(q - 1, k - 1) + partitions(q, k - q)


def l1_betti(q, k):
    """dim H^q_k(L1): 1 exactly at the pentagonal weights (3q^2 -+ q)/2."""
    return 1 if k in ((3 * q * q - q) // 2, (3 * q * q + q) // 2) else 0


def m0_betti(q, k):
    """dim H^q_k(m0): e^1, e^2 in degree 1, else P_q(j) - P_q(j-1) at j = k - q(q+1)/2."""
    if q == 1:
        return 1 if k in (1, 2) else 0
    j = k - q * (q + 1) // 2
    return partitions(q, j) - partitions(q, j - 1) if j >= 1 else 0


def check_betti(algebra_name, q, k, dim):
    expected = l1_betti(q, k) if algebra_name == "L1" else m0_betti(q, k)
    if dim != expected:
        return [f"dim H^{q}_{k}({algebra_name}) = {dim}, oracle says {expected}"]
    return []


def triple_is_trivial(p1, p2, p3):
    """<a1 e1 + b1 e2, a2 e1 + b2 e2, a3 e1 + b3 e2> over m0 vanishes iff
    b1 (a2 b3 - a3 b2) - b3 (a1 b2 - a2 b1) = 0."""
    (a1, b1), (a2, b2), (a3, b3) = p1, p2, p3
    return b1 * (a2 * b3 - a3 * b2) - b3 * (a1 * b2 - a2 * b1) == 0


def check_triple(pairs, status):
    expected = triple_is_trivial(*pairs)
    if (status == TRIVIAL) != expected:
        return [f"triple {pairs}: {status}, criterion says "
                f"{'trivial' if expected else 'nontrivial'}"]
    return []


def check_result(g, result):
    """Re-verify the certificate a Massey result carries."""
    from gradedlie import linalg, massey

    if result.status == TRIVIAL:
        matrix = result.witness.matrix
        ok, _tau = massey.is_formal_connection(matrix)
        if not ok or not matrix.corner().is_zero():
            return ["witness is not a formal connection with zero corner"]
        if not linalg.coboundary_preimage(g, massey.related_cocycle(result.witness)):
            return ["witness related cocycle is not exact"]
    elif result.status == NONTRIVIAL:
        if result.value is None or result.value.is_zero():
            return ["NonTrivialCertified result with a zero value"]
    return []


def check_classification(pairs, verdict):
    """Products of 1-classes a e1 + b e2 over m0: the A-D table tags exactly
    the trivial products, and its window recursion finds exactly the
    products that are not defined.  ``verdict`` is a result status or
    "NotDefined"."""
    from gradedlie.massey import classify_trivial_ones

    tag = classify_trivial_ones(pairs).kind
    allowed = {TRIVIAL: TABLE_ROWS, NONTRIVIAL: ("NotTrivial",),
               "NotDefined": ("NotDefined",)}.get(verdict, ())
    if tag not in allowed:
        return [f"classification {pairs}: tag {tag} against {verdict}"]
    return []


def check_certificate(cert, i1, samples):
    """Leading-coefficient certificate for <e2, e1, ..., e1, omega(tail)>."""
    if cert is None:
        return ["no leading-coefficient certificate"]
    expected = str((-1) ** i1)
    if cert.get("kind") != "leading-coefficient" or cert.get("coefficient") != expected \
            or cert.get("samples") != samples:
        return [f"certificate {cert.get('kind')} coefficient {cert.get('coefficient')} "
                f"samples {cert.get('samples')}, expected {expected} with {samples}"]
    return []
