"""The m0-specific operators D_1, D_{-1} and the omega cocycle constructor.

Both operators act on the tail algebra Lambda*(e^2, e^3, ...): D_1 is the
derivation with D_1 e^2 = 0, D_1 e^i = e^{i-1}; D_{-1} is its right inverse,
defined monomial-by-monomial on normalized monomials via

    D_{-1}(xi ^ e^i) = sum_{l>=0} (-1)^l D_1^l(xi) ^ e^{i+1+l}.

They satisfy d xi = e^1 ^ D_1 xi,  e^1 ^ xi = d D_{-1} xi,  D_1 D_{-1} = id.
"""

from __future__ import annotations

from .algebra import is_m0
from .errors import AmbientMismatch, CutoffTooSmall, NotApplicable, internal_check
from .forms import Form, sort_with_sign, wedge


def _require_m0(alg):
    if not is_m0(alg):
        raise AmbientMismatch("operator requires an m0 algebra with canonical weights")


def require_tail(x):
    """A TailForm has no index-1 factor (lives in Lambda*(e2, e3, ...))."""
    for mono in x.terms:
        if mono and mono[0] == 1:
            raise NotApplicable("form has an index-1 factor; not a tail form")
    return x


def D1(x):
    """Weight-lowering derivation: D1(e^2) = 0, D1(e^i) = e^{i-1}."""
    require_tail(x)
    out = {}
    for mono, coeff in x.terms.items():
        for r, idx in enumerate(mono):
            if idx == 2:
                continue
            norm = sort_with_sign(mono[:r] + (idx - 1,) + mono[r + 1:])
            if norm is None:
                continue
            sign, new = norm
            c = sign * coeff
            cur = out.get(new)
            out[new] = c if cur is None else cur + c
    return Form(x.alg, out)


def _expand(xi, i):
    """sum_{l>=0} (-1)^l D_1^l(xi) ^ e^{i+1+l} for a tail form xi whose
    indices are all below i + 1 (D_1 only lowers them, so every monomial
    stays normalized)."""
    alg = xi.alg
    out = Form.zero(alg)
    l = 0
    while not xi.is_zero():
        top = i + 1 + l
        if top > alg.cutoff:
            raise CutoffTooSmall(top, alg.cutoff, "D_{-1} expansion")
        out = out + Form(alg, {m + (top,): (c if l % 2 == 0 else -c)
                               for m, c in xi.terms.items()})
        xi = D1(xi)
        l += 1
    return out


def Dm1(x):
    """Right inverse of D1, monomial-by-monomial on normalized monomials
    (last factor = highest index, so the xi ^ e^i decomposition is canonical)."""
    require_tail(x)
    out = Form.zero(x.alg)
    for mono, coeff in x.terms.items():
        if not mono:
            raise NotApplicable("D_{-1} is undefined on scalars")
        out = out + _expand(Form(x.alg, {mono[:-1]: coeff}), mono[-1])
    return out


def omega(alg, indices):
    """The closed (q+1)-form omega(e^{i1}^...^e^{iq}^e^{iq+1}) given the
    strictly increasing index list [i1, ..., iq] with i1 >= 2."""
    _require_m0(alg)
    idx = list(indices)
    if not idx or idx[0] < 2 or any(a >= b for a, b in zip(idx, idx[1:])):
        raise NotApplicable(f"omega needs strictly increasing indices >= 2, got {idx}")
    weight = omega_weight(idx)
    if weight > alg.cutoff:
        raise CutoffTooSmall(weight, alg.cutoff, f"omega({idx})")
    return _expand(Form(alg, {tuple(idx): 1}), idx[-1])


def omega_weight(indices):
    idx = list(indices)
    return sum(idx[:-1]) + 2 * idx[-1] + 1


def omega_index_lists(q_indices, weight):
    """All strictly increasing lists of q_indices indices >= 2 whose omega has
    the given weight, in lexicographic order."""
    out = []

    def rec(start, remaining, acc, used):
        if remaining == 1:
            # last index i_q contributes 2*i_q + 1
            rest = weight - used - 1
            if rest % 2 == 0:
                iq = rest // 2
                if iq >= start:
                    out.append(acc + [iq])
            return
        i = start
        while used + i + (i + 1) * (remaining - 1) * 2 // 2 < weight:  # loose bound
            rec(i + 1, remaining - 1, acc + [i], used + i)
            i += 1

    if q_indices <= 0:
        return []
    rec(2, q_indices, [], 0)
    return out


def sum_identity_check(alg, i1, tail_indices):
    """Return sum_k (-1)^k D1^k e^{i1} ^ D_{-1}^k omega(tail), re-checked
    against omega([i1] + tail) (InternalCheckFailed when they differ)."""
    tail = list(tail_indices)
    if not tail or i1 >= tail[0]:
        raise NotApplicable("need i1 < first tail index")
    om = omega(alg, tail)
    total = Form.zero(alg)
    power = om
    for k in range(0, i1 - 1):
        e_part = Form.generator(alg, i1 - k, 1 if k % 2 == 0 else -1)
        total = total + wedge(e_part, power)
        if k < i1 - 2:
            power = Dm1(power)
    internal_check(total == omega(alg, [i1] + tail),
                   f"summation identity failed: i1={i1}, tail={tail}")
    return total
