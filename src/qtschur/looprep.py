"""The vector superspace, its tensor powers, and current-mode actions.

A basis vector of the ell-fold tensor power over the Laurent ring in
xi_1, ..., xi_ell is keyed by (labels, nu): labels is a tuple of slot
labels in 1..kappa, nu the tuple of xi-exponents.  Three layers of
operators act here:

  * Chevalley generators e_i, f_i, t_i for every affine node, via the
    iterated coproduct (tails of t's for e, heads of inverse t's for f)
    with Koszul signs when an odd operator passes odd slots; node 0
    acts through the theta operators times xi_j^{+-1};
  * current modes x_i^{+-}[r] and k_i^{+-}[r] for finite nodes, as the
    exact z^{-r} coefficients of delta/psi products at the q-shifted
    points q^{mu_s(i)} xi_p;
  * the two-slot Hecke operator on adjacent labels.

The published mode formulas hold on nondecreasing label tuples, and
mode_apply_plain enforces that cone.  Compositions inside the affine
bracket trees must pass through arbitrary keys, so the internal
evaluator extends the same coproduct structure to every key: psi
factors sit at whichever slots carry the two relevant labels, on the
head side for x^- and the tail side for x^+.  On the nondecreasing
cone the two agree by construction.

This module states operators only: the finite Schur-Weyl relations
(the Hecke quadratic and braid relations on slots, and commutation
with the finite Chevalley action) are a relation table in verify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from qtschur.hecke import _accumulate
from qtschur.scalar import delta_psi_mode, psi_product_mode
from qtschur.superdata import ParityData, koszul_sign, mu, node_parity

TensorKey = tuple[tuple[int, ...], tuple[int, ...]]  # (labels, xi-exponents)


class TensorSpace:
    """Bundle of parity data, tensor length, and coefficient context."""

    def __init__(self, pd: ParityData, ell: int, coeffs):
        assert ell >= 1
        self.pd = pd
        self.ell = ell
        self.R = coeffs
        self.kappa = pd.kappa

    def zero(self) -> "PlainTensor":
        return PlainTensor(self, {})

    def basis(self, labels, nu=None, coeff=None) -> "PlainTensor":
        labels = tuple(labels)
        nu = (0,) * self.ell if nu is None else tuple(nu)
        if len(labels) != self.ell or len(nu) != self.ell:
            raise ValueError(f"expected {self.ell} labels and shifts, got {labels}, {nu}")
        if not all(1 <= j <= self.kappa for j in labels):
            raise ValueError(f"labels must lie in 1..{self.kappa}: {labels}")
        coeff = self.R.one if coeff is None else coeff
        if not coeff:
            return self.zero()
        return PlainTensor(self, {(labels, nu): coeff})

    def all_labels(self):
        return itertools.product(range(1, self.kappa + 1), repeat=self.ell)


class PlainTensor:
    __slots__ = ("space", "support")

    def __init__(self, space: TensorSpace, support: dict):
        self.space = space
        self.support = support

    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlainTensor)
            and self.space is other.space
            and self.support == other.support
        )

    def __add__(self, other: "PlainTensor") -> "PlainTensor":
        assert self.space is other.space
        support = dict(self.support)
        for key, coeff in other.support.items():
            _accumulate(support, key, coeff)
        return PlainTensor(self.space, support)

    def __neg__(self) -> "PlainTensor":
        return PlainTensor(self.space, {k: -c for k, c in self.support.items()})

    def __sub__(self, other: "PlainTensor") -> "PlainTensor":
        return self + (-other)

    def scale(self, coeff) -> "PlainTensor":
        if not coeff:
            return PlainTensor(self.space, {})
        return PlainTensor(self.space, {k: coeff * c for k, c in self.support.items()})

    def render(self) -> str:
        if not self.support:
            return "0"
        R = self.space.R
        parts = []
        for labels, nu in sorted(self.support):
            coeff = self.support[(labels, nu)]
            parts.append(
                f"({R.render(coeff)}) * xi^({','.join(map(str, nu))})"
                f" * v({','.join(map(str, labels))})"
            )
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PlainTensor<{self.render()}>"


# ----------------------------------------------------------------------
# single-slot operators and the shared tensor-leg helper


def slot_ops(space: TensorSpace):
    """Single-slot operator constructors on the label alphabet.

    Each operator is a pair (parity, fn) with fn(j) -> (j', coeff) or
    None; all of them are monomial maps, which keeps the tensor-leg
    helper a single pass.
    """
    pd, R, kappa = space.pd, space.R, space.kappa

    def ident():
        return (0, lambda j: (j, R.one))

    def e(i):
        return (node_parity(pd, i), lambda j: (j - 1, R.one) if j == i + 1 else None)

    def f(i):
        ci = R.rational(pd.sign(i))
        return (node_parity(pd, i), lambda j: (j + 1, ci) if j == i else None)

    def t(i, exp):
        def fn(j):
            return (j, R.qpow(exp * pd.sign(j) * ((j == i) - (j == i + 1))))

        return (0, fn)

    def etheta():
        return (node_parity(pd, 0), lambda j: (1, R.one) if j == kappa else None)

    def ftheta():
        return (node_parity(pd, 0), lambda j: (kappa, R.one) if j == 1 else None)

    def ktheta(exp):
        def fn(j):
            return (j, R.qpow(exp * pd.sign(j) * ((j == 1) - (j == kappa))))

        return (0, fn)

    return ident, e, f, t, etheta, ftheta, ktheta


def tensor_leg_apply(space: TensorSpace, legs, labels):
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
        assert self.kind in ("e", "f", "t", "tinv"), self.kind
        assert self.node >= 0


def _chevalley_summands(space: TensorSpace, g: ChevalleyGen):
    """Yield (legs, nu-shift slot or None, nu-shift amount, extra coeff)."""
    ident, e, f, t, etheta, ftheta, ktheta = slot_ops(space)
    ell, R = space.ell, space.R
    i = g.node
    if i == 0:
        if g.kind == "e":
            for j in range(1, ell + 1):
                legs = [ident()] * (j - 1) + [ftheta()] + [ktheta(-1)] * (ell - j)
                yield legs, j - 1, 1, R.one
        elif g.kind == "f":
            sk = R.rational(space.pd.sign(space.kappa))
            for j in range(1, ell + 1):
                legs = [ktheta(1)] * (j - 1) + [etheta()] + [ident()] * (ell - j)
                yield legs, j - 1, -1, sk
        elif g.kind == "t":
            yield [ktheta(-1)] * ell, None, 0, R.one
        else:
            yield [ktheta(1)] * ell, None, 0, R.one
        return
    assert 1 <= i < space.kappa, f"node {i} out of range"
    if g.kind == "e":
        for r in range(1, ell + 1):
            yield [ident()] * (r - 1) + [e(i)] + [t(i, 1)] * (ell - r), None, 0, R.one
    elif g.kind == "f":
        for r in range(1, ell + 1):
            yield [t(i, -1)] * (r - 1) + [f(i)] + [ident()] * (ell - r), None, 0, R.one
    elif g.kind == "t":
        yield [t(i, 1)] * ell, None, 0, R.one
    else:
        yield [t(i, -1)] * ell, None, 0, R.one


def chevalley_apply(g: ChevalleyGen, v: PlainTensor) -> PlainTensor:
    space = v.space
    acc: dict = {}
    summands = list(_chevalley_summands(space, g))
    for (labels, nu), cin in v.support.items():
        for legs, shift_slot, shift, extra in summands:
            hit = tensor_leg_apply(space, legs, labels)
            if hit is None:
                continue
            labels2, c = hit
            if shift_slot is None:
                nu2 = nu
            else:
                lst = list(nu)
                lst[shift_slot] += shift
                nu2 = tuple(lst)
            coeff = cin * c
            if extra is not space.R.one:
                coeff = coeff * extra
            _accumulate(acc, (labels2, nu2), coeff)
    return PlainTensor(space, acc)


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
    assert 1 <= i < space.ell, f"slot index {i} out of range"
    acc: dict = {}
    for (labels, nu), cin in v.support.items():
        for labels2, c in hecke_exchange_terms(space, i, labels):
            _accumulate(acc, (labels2, nu), cin * c)
    return PlainTensor(space, acc)


# ----------------------------------------------------------------------
# current modes


def mode_terms(space, family: str, i: int, r: int, labels, power, inverted: bool):
    """Summands of one current mode on one label tuple.

    Yields (labels', sign, multiplier) with multiplier a map from
    per-slot exponent vectors to coefficients.  psi factors occupy every
    slot carrying label i or i+1 on the relevant side of the delta
    slot: after it for x^+, before it for x^-.  power is the context
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

    if family == "x+":
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
    elif family == "x-":
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
    elif family in ("k+", "k-"):
        slots = [(p, psi_c(lab)) for p, lab in enumerate(labels) if lab in (i, i + 1)]
        mult = psi_product_mode(R, ell, r, family[1], slots, scale, inverted)
        yield labels, 1, mult
    else:
        raise ValueError(f"unknown mode family {family!r}")


def _mode_general(space: TensorSpace, family: str, i: int, r: int, v: PlainTensor):
    acc: dict = {}
    for (labels, nu), cin in v.support.items():
        terms = mode_terms(space, family, i, r, labels, space.R.qpow, False)
        for labels2, sign, mult in terms:
            base = cin if sign > 0 else -cin
            for vec, c in mult.items():
                nu2 = tuple(n + d for n, d in zip(nu, vec))
                _accumulate(acc, (labels2, nu2), base * c)
    return PlainTensor(space, acc)


def mode_apply_plain(family: str, i: int, r: int, v: PlainTensor) -> PlainTensor:
    """Exact z^{-r} mode of the labeled current on nondecreasing keys."""
    space = v.space
    assert 1 <= i < space.kappa, f"node {i} not a finite node"
    for labels, _ in v.support:
        if any(labels[a] > labels[a + 1] for a in range(space.ell - 1)):
            raise ValueError(f"non-monotone key {labels}")
    return _mode_general(space, family, i, r, v)


# ----------------------------------------------------------------------
# bracket expression trees for the affine node

# tree grammar:
#   ("mode", family, i, r)
#   ("bracket", left, right, qexp)   [L, R]_{q^qexp}
#   ("compose", left, right)         left after right
#   ("scale", rational, tree)


def tree_parity(tree, pd: ParityData) -> int:
    tag = tree[0]
    if tag == "mode":
        return node_parity(pd, tree[2]) if tree[1] in ("x+", "x-") else 0
    if tag == "bracket":
        return (tree_parity(tree[1], pd) + tree_parity(tree[2], pd)) % 2
    if tag == "compose":
        return (tree_parity(tree[1], pd) + tree_parity(tree[2], pd)) % 2
    if tag == "scale":
        return tree_parity(tree[2], pd)
    raise ValueError(f"unknown tree tag {tree[0]!r}")


def tree_apply(tree, v: PlainTensor, leaf_apply=None) -> PlainTensor:
    """Evaluate an operator tree; leaf_apply defaults to the plain modes."""
    space = v.space
    if leaf_apply is None:
        leaf_apply = lambda fam, i, r, vec: _mode_general(space, fam, i, r, vec)
    tag = tree[0]
    if tag == "mode":
        return leaf_apply(tree[1], tree[2], tree[3], v)
    if tag == "compose":
        return tree_apply(tree[1], tree_apply(tree[2], v, leaf_apply), leaf_apply)
    if tag == "scale":
        return tree_apply(tree[2], v, leaf_apply).scale(space.R.rational(tree[1]))
    if tag == "bracket":
        _, left, right, qexp = tree
        lr = tree_apply(left, tree_apply(right, v, leaf_apply), leaf_apply)
        rl = tree_apply(right, tree_apply(left, v, leaf_apply), leaf_apply)
        deform = space.R.qpow(qexp)
        if tree_parity(left, space.pd) & tree_parity(right, space.pd):
            deform = -deform
        return lr - rl.scale(deform)
    raise ValueError(f"unknown tree tag {tree[0]!r}")


def dj_drinfeld_zero_modes(m: int, n: int):
    """Bracket trees realizing e_0, f_0, t_0 from finite-node modes.

    Stated for the standard parity sequence; evaluation spaces must
    carry it.  Requires kappa = m + n >= 3 (the f_0 chain starts from
    a two-node bracket).
    """
    kappa = m + n
    assert kappa >= 3, "need at least three labels"
    assert m >= 1 and n >= 1
    pd = ParityData.standard(m, n)
    sk = pd.sign(kappa)

    kinv = ("mode", "k-", 1, 0)
    kplus = ("mode", "k+", 1, 0)
    for i in range(2, kappa):
        kinv = ("compose", ("mode", "k-", i, 0), kinv)
        kplus = ("compose", ("mode", "k+", i, 0), kplus)

    # lowering chain deforms by q^{-s_j}, raising chain by q^{+s_j}
    a_tree = ("mode", "x-", 1, 1)
    for j in range(2, kappa):
        a_tree = ("bracket", ("mode", "x-", j, 0), a_tree, -pd.sign(j))
    e0 = ("scale", (-1) ** n * sk, ("compose", a_tree, kinv))

    b_tree = ("bracket", ("mode", "x+", 1, -1), ("mode", "x+", 2, 0), pd.sign(2))
    for j in range(3, kappa):
        b_tree = ("bracket", b_tree, ("mode", "x+", j, 0), pd.sign(j))
    f0 = ("scale", sk, ("compose", kplus, b_tree))

    t0 = kinv
    return {"e0": e0, "f0": f0, "t0": t0}


def _peel_step(op, op_parity, j, pd, lowering_chain):
    """Strip the outermost bracket of a nested chain, as an operator.

    The opposite-sign Chevalley generator at node j super-commutes past
    every other factor of the chain, so a super-commutator with it plus
    a Cartan correction inverts one bracket.  For the lowering chain the
    step is s_j [e_j, .] k_j^{-1}; for the raising chain it is
    s_j q^{-s_j} [f_j, .]-flipped times k_j.
    """
    neg = node_parity(pd, j) & op_parity
    sj = pd.sign(j)
    probe = "e" if lowering_chain else "f"
    cartan = "tinv" if lowering_chain else "t"

    def stripped(v):
        R = v.space.R
        w = chevalley_apply(ChevalleyGen(cartan, j), v)
        probe_after = chevalley_apply(ChevalleyGen(probe, j), op(w))
        probe_first = op(chevalley_apply(ChevalleyGen(probe, j), w))
        if neg:
            inner = probe_after + probe_first
        elif lowering_chain:
            inner = probe_after - probe_first
        else:
            inner = probe_first - probe_after
        coeff = R.rational(sj)
        if not lowering_chain:
            coeff = coeff * R.qpow(-sj)
        return inner.scale(coeff)

    return stripped


def recovered_shift_modes(m: int, n: int):
    """All-key action of the two degree-shifted modes in the dictionary.

    The slotwise coefficient formulas only hold on nondecreasing keys;
    composing them inside bracket trees passes through keys where they
    drop genuine cross terms.  Inverting the dictionary instead writes
    x^-_1[1] and x^+_1[-1] as nested super-commutators of zero-node and
    finite Chevalley operators, all of which act correctly everywhere.
    Standard parity sequence, kappa >= 3.
    """
    kappa = m + n
    assert kappa >= 3
    pd = ParityData.standard(m, n)
    sk = pd.sign(kappa)

    def cartan_all(v, inv):
        out = v
        for i in range(1, kappa):
            out = chevalley_apply(ChevalleyGen("tinv" if inv else "t", i), out)
        return out

    def lowering_seed(v):
        out = chevalley_apply(ChevalleyGen("e", 0), cartan_all(v, inv=False))
        return out.scale(v.space.R.rational((-1) ** n * sk))

    def raising_seed(v):
        out = cartan_all(chevalley_apply(ChevalleyGen("f", 0), v), inv=True)
        return out.scale(v.space.R.rational(sk))

    xminus = lowering_seed
    xplus = raising_seed
    parity = sum(node_parity(pd, i) for i in range(1, kappa)) % 2
    for j in range(kappa - 1, 1, -1):
        xminus = _peel_step(xminus, parity, j, pd, lowering_chain=True)
        xplus = _peel_step(xplus, parity, j, pd, lowering_chain=False)
        parity = (parity + node_parity(pd, j)) % 2

    return {("x-", 1, 1): xminus, ("x+", 1, -1): xplus}


def dictionary_leaf_apply(m: int, n: int):
    """Leaf evaluator for the zero-node trees, sound on every key.

    Zero modes coincide with the Chevalley coproduct action everywhere,
    so the slotwise evaluator is safe for them; the two shifted modes
    come from recovered_shift_modes.
    """
    recovered = recovered_shift_modes(m, n)

    def leaf(family, i, r, v):
        if r == 0:
            return _mode_general(v.space, family, i, r, v)
        try:
            return recovered[(family, i, r)](v)
        except KeyError:
            raise ValueError(f"no all-key evaluator for mode {family} {i} {r}")

    return leaf
