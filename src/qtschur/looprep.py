"""The vector superspace, its tensor powers, and current-mode actions.

A basis vector of the ell-fold tensor power over the Laurent ring in
xi_1, ..., xi_ell is keyed by (labels, nu): labels is a tuple of slot
labels in 1..kappa, nu the tuple of xi-exponents.  Three layers of
operators act here:

  * Chevalley generators e_i, f_i, t_i for every affine node, via the
    iterated coproduct (tails of t's for e, heads of inverse t's for f)
    with Koszul signs when an odd operator passes odd slots; node 0
    reads its labels cyclically (kappa, then 1) and times xi_j^{+-1};
  * current modes x_i^{+-}[r] and k_i^{+-}[r] for finite nodes, as the
    exact z^{-r} coefficients of delta/psi products at the q-shifted
    points q^{mu_s(i)} xi_p;
  * the two-slot Hecke operator on adjacent labels.

The published mode formulas hold on nondecreasing label tuples, and
mode_apply_plain raises off that cone.

This module states operators only: the finite Schur-Weyl relations
(the Hecke quadratic and braid relations on slots, and commutation
with the finite Chevalley action) and the zero-mode dictionary, which
writes the wrap-node generators through finite-node modes, are
relation tables in verify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from qtschur.scalar import SparseVector, delta_psi_mode, psi_product_mode
from qtschur.superdata import ParityData, koszul_sign, mu, node_parity

TensorKey = tuple[tuple[int, ...], tuple[int, ...]]  # (labels, xi-exponents)


class TensorSpace:
    """Bundle of parity data, tensor length, and coefficient context."""

    def __init__(self, pd: ParityData, ell: int, coeffs):
        if ell < 1:
            raise ValueError(f"tensor length must be >= 1, got {ell}")
        self.pd = pd
        self.ell = ell
        self.R = coeffs
        self.kappa = pd.kappa

    def basis(self, labels, nu=None) -> "PlainTensor":
        labels = tuple(labels)
        nu = (0,) * self.ell if nu is None else tuple(nu)
        if len(labels) != self.ell or len(nu) != self.ell:
            raise ValueError(f"expected {self.ell} labels and shifts, got {labels}, {nu}")
        if not all(1 <= j <= self.kappa for j in labels):
            raise ValueError(f"labels must lie in 1..{self.kappa}: {labels}")
        return PlainTensor(self, {(labels, nu): self.R.one})

    def all_labels(self):
        return itertools.product(range(1, self.kappa + 1), repeat=self.ell)


class PlainTensor(SparseVector):
    """Finite sum of coefficient * xi^nu v(labels) over a TensorSpace."""

    __slots__ = ()
    space = SparseVector.owner

    def _term(self, key: TensorKey, coeff) -> str:
        labels, nu = key
        return (
            f"({self.space.R.render(coeff)}) * xi^({','.join(map(str, nu))})"
            f" * v({','.join(map(str, labels))})"
        )


# ----------------------------------------------------------------------
# single-slot operators and the shared tensor-leg helper


def slot_ops(space):
    """Single-slot operator constructors on the label alphabet.

    Each operator is a pair (parity, fn) with fn(j) -> (j', coeff) or
    None; all of them are monomial maps, which keeps the tensor-leg
    helper a single pass.  Node i sits between labels lo = i (kappa at
    node 0) and hi = i mod kappa + 1: e(i) lowers hi to lo, f(i) raises
    lo to hi with coefficient s_i, and t(i, exp) is q^(exp s_j) on lo,
    its inverse on hi.  space, here and in tensor_leg_apply and
    _chevalley_summands, is any bundle with parity data pd, coefficient
    context R, length ell and label count kappa: a TensorSpace or a
    balanced space.
    """
    pd, R, kappa = space.pd, space.R, space.kappa

    def ends(i):
        return i or kappa, i % kappa + 1

    def ident():
        return (0, lambda j: (j, R.one))

    def e(i):
        lo, hi = ends(i)
        return (node_parity(pd, i), lambda j: (lo, R.one) if j == hi else None)

    def f(i):
        lo, hi = ends(i)
        ci = R.rational(pd.sign(i))
        return (node_parity(pd, i), lambda j: (hi, ci) if j == lo else None)

    def t(i, exp):
        lo, hi = ends(i)

        def fn(j):
            return (j, R.qpow(exp * pd.sign(j) * ((j == lo) - (j == hi))))

        return (0, fn)

    return ident, e, f, t


def tensor_leg_apply(space, legs, labels):
    """Apply one single-slot operator per leg, with the Koszul sign.

    The sign for leg b is (-1)^(|op_b| * sum of |v_{labels[a]}|, a < b),
    all parities read off the input labels.  Returns (labels', coeff)
    or None if any leg annihilates its slot.
    """
    pd, R = space.pd, space.R
    out = []
    coeff = R.one
    negate = False
    prefix = 0
    for b, (par, fn) in enumerate(legs):
        hit = fn(labels[b])
        if hit is None:
            return None
        j2, c = hit
        out.append(j2)
        if c is not R.one:
            coeff = coeff * c
        if par and (prefix & 1):
            negate = not negate
        prefix += pd.vector_parity(labels[b])
    return tuple(out), (-coeff if negate else coeff)


# ----------------------------------------------------------------------
# Chevalley action over the whole affine node set


@dataclass(frozen=True)
class ChevalleyGen:
    kind: str  # "e" | "f" | "t" | "tinv"
    node: int

    def __post_init__(self):
        if self.kind not in ("e", "f", "t", "tinv") or self.node < 0:
            raise ValueError(f"bad Chevalley generator {self.kind!r} at node {self.node}")


def _chevalley_summands(space, g: ChevalleyGen):
    """Yield (legs, xi-shift slot or None, shift) per summand of g; only node 0
    shifts, the xi-exponent of the slot it acts on, by +1 for e and -1 for f."""
    ident, e, f, t = slot_ops(space)
    ell, i = space.ell, g.node
    if not 0 <= i < space.kappa:
        raise ValueError(f"node {i} out of range")
    if g.kind == "e":
        for r in range(1, ell + 1):
            legs = [ident()] * (r - 1) + [e(i)] + [t(i, 1)] * (ell - r)
            yield legs, None if i else r - 1, 1
    elif g.kind == "f":
        for r in range(1, ell + 1):
            legs = [t(i, -1)] * (r - 1) + [f(i)] + [ident()] * (ell - r)
            yield legs, None if i else r - 1, -1
    else:
        yield [t(i, 1 if g.kind == "t" else -1)] * ell, None, 0


def chevalley_apply(g: ChevalleyGen, v: PlainTensor) -> PlainTensor:
    space = v.space
    summands = list(_chevalley_summands(space, g))

    def terms(key):
        labels, nu = key
        for legs, shift_slot, shift in summands:
            hit = tensor_leg_apply(space, legs, labels)
            if hit is None:
                continue
            labels2, c = hit
            if shift_slot is None:
                nu2 = nu
            else:
                nu2 = nu[:shift_slot] + (nu[shift_slot] + shift,) + nu[shift_slot + 1 :]
            yield (labels2, nu2), c

    return v.linear(terms)


# ----------------------------------------------------------------------
# the two-slot Hecke operator


def hecke_exchange_terms(space, i: int, labels):
    """Two-slot exchange on slots i, i+1 of one key, as (labels, coeff) terms.

    space is any bundle with parity data pd and coefficient context R.
    """
    pd, R = space.pd, space.R
    a, b = labels[i - 1], labels[i]
    if a == b:
        sa = pd.sign(a)
        return [(labels, R.rational(sa) * R.qpow(1 + sa))]
    swapped = labels[: i - 1] + (b, a) + labels[i + 1 :]
    sgn = -1 if pd.vector_parity(a) and pd.vector_parity(b) else 1
    out = [(swapped, R.rational(sgn) * R.qpow(1))]
    if a > b:
        out.append((labels, R.qpow(2) - R.one))
    return out


def hecke_T_apply(i: int, v: PlainTensor) -> PlainTensor:
    """Adjacent-slot action on labels (xi-exponents ride along unchanged)."""
    space = v.space
    if not 1 <= i < space.ell:
        raise ValueError(f"slot index {i} out of range")

    def terms(key):
        labels, nu = key
        return [((labels2, nu), c) for labels2, c in hecke_exchange_terms(space, i, labels)]

    return v.linear(terms)


# ----------------------------------------------------------------------
# current modes


def mode_terms(space, family: str, i: int, r: int, labels, power, inverted: bool):
    """Summands of one current mode (family E, F, K+ or K-) on one label tuple.

    Yields (labels', sign, multiplier) with multiplier a map from
    per-slot exponent vectors to coefficients.  psi factors occupy every
    slot carrying label i or i+1 on the relevant side of the delta
    slot: after it for E, before it for F.  power is the context
    power whose mu_i-th powers scale the arguments (qpow on the loop
    legs, q1pow on the algebra side); inverted selects arguments of
    shape scale*var*z, which negates each psi coefficient.  space is any
    bundle with parity data pd, coefficient context R and length ell.
    """
    pd, R, ell = space.pd, space.R, space.ell
    mu_i = mu(pd, i)
    scale = lambda e: power(mu_i * e)
    flip = -1 if inverted else 1

    def psi_c(label: int) -> int:
        return flip * (pd.sign(i) if label == i else -pd.sign(i + 1))

    if family == "E":
        for ridx, lab in enumerate(labels):
            if lab != i + 1:
                continue
            slots = [
                (p, psi_c(labels[p]))
                for p in range(ridx + 1, ell)
                if labels[p] in (i, i + 1)
            ]
            mult = delta_psi_mode(R, ell, r, "+", ridx, slots, scale, inverted)
            out = labels[:ridx] + (i,) + labels[ridx + 1 :]
            yield out, koszul_sign(pd, i, ridx + 1, labels), mult
    elif family == "F":
        si = pd.sign(i)
        for ridx, lab in enumerate(labels):
            if lab != i:
                continue
            slots = [
                (p, psi_c(labels[p])) for p in range(ridx) if labels[p] in (i, i + 1)
            ]
            mult = delta_psi_mode(R, ell, r, "-", ridx, slots, scale, inverted)
            out = labels[:ridx] + (i + 1,) + labels[ridx + 1 :]
            yield out, si * koszul_sign(pd, i, ridx + 1, labels), mult
    elif family in ("K+", "K-"):
        slots = [(p, psi_c(lab)) for p, lab in enumerate(labels) if lab in (i, i + 1)]
        mult = psi_product_mode(R, ell, r, family[1], slots, scale, inverted)
        yield labels, 1, mult
    else:
        raise ValueError(f"unknown mode family {family!r}")


def mode_apply_plain(family: str, i: int, r: int, v: PlainTensor) -> PlainTensor:
    """Exact z^{-r} mode of the labeled current on nondecreasing keys."""
    space = v.space
    if not 1 <= i < space.kappa:
        raise ValueError(f"node {i} not a finite node")

    def terms(key):
        labels, nu = key
        if any(labels[a] > labels[a + 1] for a in range(space.ell - 1)):
            raise ValueError(f"non-monotone key {labels}")
        for labels2, sign, mult in mode_terms(space, family, i, r, labels, space.R.qpow, False):
            for vec, c in mult.items():
                yield (labels2, tuple(n + d for n, d in zip(nu, vec))), c if sign > 0 else -c

    return v.linear(terms)
