"""Tensor-power action checks.

The frozen mode values below were computed by hand from the delta/psi
expansion (lead q^c, jumps (q^c - q^{-c}) times powers of the shifted
point) before running the engine.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qtschur.looprep import (
    ChevalleyGen,
    PlainTensor,
    TensorSpace,
    chevalley_apply,
    dictionary_leaf_apply,
    dj_drinfeld_zero_modes,
    hecke_T_apply,
    mode_apply_plain,
    recovered_shift_modes,
    slot_ops,
    tensor_leg_apply,
    tree_apply,
    tree_parity,
)
from qtschur.scalar import NumericContext, SymbolicContext, specialize
from qtschur.superdata import ParityData, node_parity
from qtschur.verify import SuiteContext, Verdicts, finite_instances


def space_for(m, n, ell):
    return TensorSpace(ParityData.standard(m, n), ell, SymbolicContext(formal_zeta=True))


# ----------------------------------------------------------------------
# Chevalley action


def test_e1_on_22_standard():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = chevalley_apply(ChevalleyGen("e", 1), sp.basis((2, 2)))
    assert got.support == {
        ((1, 2), (0, 0)): R.qpow(-1),
        ((2, 1), (0, 0)): R.one,
    }


def test_e1_odd_sign():
    # s = (+,-,-): e_1 is odd, so the slot-2 summand passes the odd v_2
    sp = TensorSpace(ParityData.from_string("+--"), 2, SymbolicContext(formal_zeta=True))
    R = sp.R
    got = chevalley_apply(ChevalleyGen("e", 1), sp.basis((2, 2)))
    assert got.support == {
        ((1, 2), (0, 0)): R.qpow(1),
        ((2, 1), (0, 0)): -R.one,
    }


def test_t_eigenvalue_product():
    sp = space_for(3, 1, 3)
    pd, R = sp.pd, sp.R
    for labels in [(1, 2, 2), (2, 3, 4), (4, 4, 4)]:
        for i in (1, 2, 3):
            got = chevalley_apply(ChevalleyGen("t", i), sp.basis(labels))
            expo = sum(
                pd.sign(j) * ((j == i) - (j == i + 1)) for j in labels
            )
            assert got.support == {(labels, (0, 0, 0)): R.qpow(expo)}, (labels, i)


def test_node0_action():
    sp1 = space_for(3, 1, 1)
    got = chevalley_apply(ChevalleyGen("e", 0), sp1.basis((1,)))
    assert got.support == {((4,), (1,)): sp1.R.one}
    got = chevalley_apply(ChevalleyGen("f", 0), sp1.basis((4,)))
    assert got.support == {((1,), (-1,)): -sp1.R.one}

    sp = space_for(3, 1, 2)
    R = sp.R
    got = chevalley_apply(ChevalleyGen("e", 0), sp.basis((1, 1)))
    assert got.support == {
        ((4, 1), (1, 0)): R.qpow(-1),
        ((1, 4), (0, 1)): R.one,
    }


def test_t_product_over_all_nodes_is_identity():
    sp = space_for(2, 2, 2)
    for labels in sp.all_labels():
        v = sp.basis(labels)
        for i in range(sp.kappa):
            v = chevalley_apply(ChevalleyGen("t", i), v)
        assert v == sp.basis(labels), labels


# ----------------------------------------------------------------------
# Hecke operator


def test_hecke_cases():
    sp = space_for(3, 1, 2)
    R = sp.R
    assert hecke_T_apply(1, sp.basis((1, 1))).support == {((1, 1), (0, 0)): R.qpow(2)}
    assert hecke_T_apply(1, sp.basis((4, 4))).support == {((4, 4), (0, 0)): -R.one}
    assert hecke_T_apply(1, sp.basis((1, 2))).support == {((2, 1), (0, 0)): R.qpow(1)}
    assert hecke_T_apply(1, sp.basis((2, 1))).support == {
        ((1, 2), (0, 0)): R.qpow(1),
        ((2, 1), (0, 0)): R.qpow(2) - R.one,
    }
    # odd with odd picks up the Koszul sign
    sp2 = TensorSpace(ParityData.from_string("+--"), 2, SymbolicContext(formal_zeta=True))
    assert hecke_T_apply(1, sp2.basis((2, 3))).support == {
        ((3, 2), (0, 0)): -sp2.R.qpow(1)
    }


def test_hecke_inverse_roundtrip():
    sp = space_for(2, 2, 2)
    R = sp.R

    def t_inv(v):
        return hecke_T_apply(1, v).scale(R.qpow(-2)) + v.scale(R.qpow(-2) - R.one)

    for labels in sp.all_labels():
        v = sp.basis(labels)
        assert t_inv(hecke_T_apply(1, v)) == v, labels


def test_schur_weyl_commutation():
    # the finite relation table, on every label tuple, through the suite evaluator
    for m, n, ell in [(2, 2, 2), (1, 2, 3)]:
        pd = ParityData.standard(m, n)
        sp = TensorSpace(pd, ell, SymbolicContext(formal_zeta=True))
        battery = [(str(labels), sp.basis(labels)) for labels in sp.all_labels()]
        instances = finite_instances(pd, ell)
        suite = SuiteContext(instances, [("symbolic", sp.R, battery)])
        rows = list(Verdicts(suite, suite.verdicts(0, len(instances))))
        bad = [row for row in rows if row["status"] != "pass"]
        assert len(rows) == len(instances) and not bad, bad[:5]


# ----------------------------------------------------------------------
# current modes, frozen by hand for standard (3,1)


def test_mode_single_slot():
    sp = space_for(3, 1, 1)
    R = sp.R
    for r in (-2, 0, 1, 3):
        got = mode_apply_plain("x+", 1, r, sp.basis((2,)))
        # mu_s(1) = 1: coefficient (q xi_1)^r
        assert got.support == {((1,), (r,)): R.qpow(r)}
    assert mode_apply_plain("x+", 1, 0, sp.basis((4,))).is_zero()
    assert mode_apply_plain("k+", 1, 0, sp.basis((1,))).support == {
        ((1,), (0,)): R.qpow(1)
    }
    assert mode_apply_plain("k+", 1, -1, sp.basis((1,))).is_zero()
    assert mode_apply_plain("k-", 1, 1, sp.basis((1,))).is_zero()


def test_mode_xplus_frozen():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = mode_apply_plain("x+", 1, 0, sp.basis((2, 2)))
    assert got.support == {
        ((1, 2), (0, 0)): R.qpow(-1),
        ((2, 1), (0, 0)): R.one,
    }
    got = mode_apply_plain("x+", 1, 1, sp.basis((2, 2)))
    assert got.support == {
        ((1, 2), (1, 0)): R.one,
        ((1, 2), (0, 1)): R.one - R.qpow(2),
        ((2, 1), (0, 1)): R.qpow(1),
    }


def test_mode_xminus_frozen():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = mode_apply_plain("x-", 1, 0, sp.basis((1, 1)))
    assert got.support == {
        ((2, 1), (0, 0)): R.one,
        ((1, 2), (0, 0)): R.qpow(-1),
    }
    got = mode_apply_plain("x-", 1, -1, sp.basis((1, 1)))
    assert got.support == {
        ((2, 1), (-1, 0)): R.qpow(-1),
        ((1, 2), (0, -1)): R.qpow(-2),
        ((1, 2), (-1, 0)): R.qpow(-2) - R.one,
    }


def test_mode_k_frozen():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = mode_apply_plain("k+", 1, 1, sp.basis((1, 2)))
    assert got.support == {
        ((1, 2), (1, 0)): R.qpow(1) - R.qpow(-1),
        ((1, 2), (0, 1)): R.qpow(1) - R.qpow(3),
    }


def test_mode_xi_linearity():
    sp = space_for(3, 1, 2)
    plain = mode_apply_plain("x+", 1, 1, sp.basis((2, 2)))
    shifted = mode_apply_plain("x+", 1, 1, sp.basis((2, 2), nu=(3, -2)))
    assert shifted.support == {
        (labels, (n1 + 3, n2 - 2)): c
        for (labels, (n1, n2)), c in plain.support.items()
    }


def test_mode_rejects_unsorted():
    sp = space_for(3, 1, 2)
    with pytest.raises(ValueError):
        mode_apply_plain("x+", 1, 0, sp.basis((2, 1)))


def test_zero_mode_agreement():
    for m, n in [(3, 1), (2, 2)]:
        for ell in (1, 2):
            sp = space_for(m, n, ell)
            keys = [j for j in sp.all_labels() if all(a <= b for a, b in zip(j, j[1:]))]
            for i in range(1, sp.kappa):
                for labels in keys:
                    b = sp.basis(labels)
                    assert mode_apply_plain("x+", i, 0, b) == chevalley_apply(
                        ChevalleyGen("e", i), b
                    ), (m, n, i, labels)
                    assert mode_apply_plain("x-", i, 0, b) == chevalley_apply(
                        ChevalleyGen("f", i), b
                    ), (m, n, i, labels)
                    assert mode_apply_plain("k+", i, 0, b) == chevalley_apply(
                        ChevalleyGen("t", i), b
                    )
                    assert mode_apply_plain("k-", i, 0, b) == chevalley_apply(
                        ChevalleyGen("tinv", i), b
                    )


# ----------------------------------------------------------------------
# affine bracket trees


def test_tree_parity():
    pd = ParityData.standard(3, 1)
    trees = dj_drinfeld_zero_modes(3, 1)
    # e_0 composes x^-_1, x^-_2, x^-_3; only node 3 is odd here
    assert tree_parity(trees["e0"], pd) == node_parity(pd, 0)
    assert tree_parity(trees["t0"], pd) == 0


def test_tree_paper_values():
    sp = space_for(3, 1, 1)
    trees = dj_drinfeld_zero_modes(3, 1)
    got = tree_apply(trees["e0"], sp.basis((1,)))
    assert got.support == {((4,), (1,)): sp.R.one}
    got = tree_apply(trees["f0"], sp.basis((4,)))
    assert got.support == {((1,), (-1,)): -sp.R.one}


@pytest.mark.parametrize("ell", [1, 2])
def test_tree_agreement(ell):
    # the shifted leaf modes come from the inverse dictionary, so the
    # trees must reproduce the node-0 Chevalley action on every key,
    # ordered or not
    sp = space_for(3, 1, ell)
    trees = dj_drinfeld_zero_modes(3, 1)
    leaf = dictionary_leaf_apply(3, 1)
    pairs = [("e0", "e"), ("f0", "f"), ("t0", "t")]
    for labels in sp.all_labels():
        for nu in [(0,) * ell, tuple(range(1, ell + 1))]:
            b = sp.basis(labels, nu=nu)
            for tree_name, kind in pairs:
                lhs = tree_apply(trees[tree_name], b, leaf_apply=leaf)
                rhs = chevalley_apply(ChevalleyGen(kind, 0), b)
                assert lhs == rhs, (tree_name, labels, nu)


@pytest.mark.parametrize("m,n,ell", [(3, 1, 1), (3, 1, 2), (2, 2, 2), (1, 2, 2)])
def test_recovered_modes_match_cone(m, n, ell):
    # on nondecreasing keys the dictionary-recovered operators must agree
    # with the slotwise current formulas; off the cone only the recovered
    # ones are meaningful
    sp = space_for(m, n, ell)
    recovered = recovered_shift_modes(m, n)
    for labels in sp.all_labels():
        if any(a > b for a, b in zip(labels, labels[1:])):
            continue
        for nu in [(0,) * ell, tuple(range(1, ell + 1))]:
            b = sp.basis(labels, nu=nu)
            for (fam, i, r), op in recovered.items():
                assert op(b) == mode_apply_plain(fam, i, r, b), (fam, r, labels, nu)


def test_tree_t0_all_keys():
    # k-modes are diagonal, so the t_0 chain is insensitive to key order
    sp = space_for(3, 1, 2)
    trees = dj_drinfeld_zero_modes(3, 1)
    for labels in sp.all_labels():
        b = sp.basis(labels)
        assert tree_apply(trees["t0"], b) == chevalley_apply(ChevalleyGen("t", 0), b)


def test_tree_agreement_25():
    sp = space_for(2, 3, 1)
    trees = dj_drinfeld_zero_modes(2, 3)
    leaf = dictionary_leaf_apply(2, 3)
    for labels in sp.all_labels():
        b = sp.basis(labels)
        for tree_name, kind in [("e0", "e"), ("f0", "f"), ("t0", "t")]:
            assert tree_apply(trees[tree_name], b, leaf_apply=leaf) == chevalley_apply(
                ChevalleyGen(kind, 0), b
            ), (tree_name, labels)


# ----------------------------------------------------------------------
# sign bookkeeping


def test_super_sign_rule():
    """Disjoint-slot operators in both orders differ by the Koszul sign."""
    sp = TensorSpace(ParityData.standard(2, 2), 3, SymbolicContext(formal_zeta=True))
    ident, e, f, t, etheta, ftheta, ktheta = slot_ops(sp)
    candidates = [
        (f(2), 1, 2),  # odd op, fires on label 2
        (ftheta(), 1, 1),  # odd, fires on 1
        (etheta(), 1, 4),  # odd, fires on 4
        (t(2, 1), 0, None),  # even, fires everywhere
    ]
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        (op_a, par_a, trig_a), (op_b, par_b, trig_b) = rng.sample(candidates, 2)
        a, b = rng.sample(range(3), 2)
        labels = [rng.randrange(1, 5) for _ in range(3)]
        labels[a] = trig_a if trig_a else labels[a]
        labels[b] = trig_b if trig_b else labels[b]
        legs_a = [ident()] * 3
        legs_a[a] = op_a
        legs_b = [ident()] * 3
        legs_b[b] = op_b

        def compose(first, second):
            hit = tensor_leg_apply(sp, first, tuple(labels))
            assert hit is not None
            lab1, c1 = hit
            hit = tensor_leg_apply(sp, second, lab1)
            assert hit is not None
            lab2, c2 = hit
            return lab2, c1 * c2

        lab_ab, c_ab = compose(legs_b, legs_a)
        lab_ba, c_ba = compose(legs_a, legs_b)
        assert lab_ab == lab_ba
        if par_a and par_b:
            assert c_ab == -c_ba
        else:
            assert c_ab == c_ba
        checked += 1


# ----------------------------------------------------------------------
# numeric coherence


def test_mode_specialization_agrees():
    q0, d0 = Fraction(2), Fraction(3)
    pd = ParityData.standard(3, 1)
    ssp = TensorSpace(pd, 2, SymbolicContext(formal_zeta=True))
    nsp = TensorSpace(pd, 2, NumericContext(q0, d0, m=3, n=1))
    jobs = [
        ("x+", 1, 1, (2, 2)),
        ("x-", 2, -2, (2, 3)),
        ("k+", 3, 2, (3, 4)),
        ("k-", 1, -1, (1, 2)),
    ]
    for family, i, r, labels in jobs:
        se = mode_apply_plain(family, i, r, ssp.basis(labels))
        ne = mode_apply_plain(family, i, r, nsp.basis(labels))
        spec = {}
        for key, coeff in se.support.items():
            val = specialize(coeff, q0, d0, zeta0=(d0 / q0) ** (1 - 3))
            if val:
                spec[key] = val
        assert spec == ne.support, (family, i, r)
