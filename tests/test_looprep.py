"""Tensor-power action checks.

The frozen mode values below were computed by hand from the delta/psi
expansion (lead q^c, jumps (q^c - q^{-c}) times powers of the shifted
point) before running the engine.
"""

import collections
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qtschur import verify
from qtschur.looprep import (
    ChevalleyGen,
    PlainTensor,
    TensorSpace,
    chevalley_apply,
    hecke_T_apply,
    mode_apply_plain,
    slot_ops,
    tensor_leg_apply,
)
from qtschur.scalar import ZL, NumericContext, SymbolicContext
from qtschur.superdata import ParityData, node_parity
from qtschur.verify import (
    SuiteContext,
    Verdicts,
    _difference,
    dictionary_battery,
    dictionary_instances,
    finite_instances,
)

from oracles import specialize


SRC = Path(__file__).resolve().parent.parent / "src"


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
        return hecke_T_apply(1, v) * R.qpow(-2) + v * (R.qpow(-2) - R.one)

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
        got = mode_apply_plain("E", 1, r, sp.basis((2,)))
        # mu_s(1) = 1: coefficient (q xi_1)^r
        assert got.support == {((1,), (r,)): R.qpow(r)}
    assert mode_apply_plain("E", 1, 0, sp.basis((4,))).is_zero()
    assert mode_apply_plain("K+", 1, 0, sp.basis((1,))).support == {
        ((1,), (0,)): R.qpow(1)
    }
    assert mode_apply_plain("K+", 1, -1, sp.basis((1,))).is_zero()
    assert mode_apply_plain("K-", 1, 1, sp.basis((1,))).is_zero()


def test_mode_xplus_frozen():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = mode_apply_plain("E", 1, 0, sp.basis((2, 2)))
    assert got.support == {
        ((1, 2), (0, 0)): R.qpow(-1),
        ((2, 1), (0, 0)): R.one,
    }
    got = mode_apply_plain("E", 1, 1, sp.basis((2, 2)))
    assert got.support == {
        ((1, 2), (1, 0)): R.one,
        ((1, 2), (0, 1)): R.one - R.qpow(2),
        ((2, 1), (0, 1)): R.qpow(1),
    }


def test_mode_xminus_frozen():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = mode_apply_plain("F", 1, 0, sp.basis((1, 1)))
    assert got.support == {
        ((2, 1), (0, 0)): R.one,
        ((1, 2), (0, 0)): R.qpow(-1),
    }
    got = mode_apply_plain("F", 1, -1, sp.basis((1, 1)))
    assert got.support == {
        ((2, 1), (-1, 0)): R.qpow(-1),
        ((1, 2), (0, -1)): R.qpow(-2),
        ((1, 2), (-1, 0)): R.qpow(-2) - R.one,
    }


def test_mode_k_frozen():
    sp = space_for(3, 1, 2)
    R = sp.R
    got = mode_apply_plain("K+", 1, 1, sp.basis((1, 2)))
    assert got.support == {
        ((1, 2), (1, 0)): R.qpow(1) - R.qpow(-1),
        ((1, 2), (0, 1)): R.qpow(1) - R.qpow(3),
    }


def test_mode_xi_linearity():
    sp = space_for(3, 1, 2)
    plain = mode_apply_plain("E", 1, 1, sp.basis((2, 2)))
    shifted = mode_apply_plain("E", 1, 1, sp.basis((2, 2), nu=(3, -2)))
    assert shifted.support == {
        (labels, (n1 + 3, n2 - 2)): c
        for (labels, (n1, n2)), c in plain.support.items()
    }


def test_mode_rejects_unsorted():
    sp = space_for(3, 1, 2)
    with pytest.raises(ValueError):
        mode_apply_plain("E", 1, 0, sp.basis((2, 1)))


def test_bad_letters_raise():
    sp = TensorSpace(ParityData.standard(3, 1), 2, SymbolicContext(m=3, n=1))
    v = sp.basis((1, 4))
    bad = [
        lambda: ChevalleyGen("x", 0),
        lambda: ChevalleyGen("e", -1),
        lambda: chevalley_apply(ChevalleyGen("f", sp.kappa), v),
        lambda: mode_apply_plain("E", 7, 0, v),
        lambda: mode_apply_plain("K-", 0, 0, v),
        lambda: hecke_T_apply(2, v),
        lambda: hecke_T_apply(0, v),
        lambda: TensorSpace(sp.pd, 0, sp.R),
    ]
    for call in bad:
        with pytest.raises(ValueError):
            call()


def test_bad_letters_raise_under_optimize():
    # python -O strips assert statements; these checks must not be asserts
    setup = (
        "from qtschur.looprep import ChevalleyGen, TensorSpace, chevalley_apply, "
        "mode_apply_plain; "
        "from qtschur.scalar import SymbolicContext; "
        "from qtschur.superdata import ParityData; "
        "v = TensorSpace(ParityData.standard(3, 1), 2, SymbolicContext(m=3, n=1)).basis((1, 4)); "
    )
    for call in ('chevalley_apply(ChevalleyGen("x", 0), v)', 'mode_apply_plain("E", 7, 0, v)'):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", setup + call],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode != 0, call
        assert "ValueError" in proc.stderr, call


def test_zero_mode_agreement():
    for m, n in [(3, 1), (2, 2)]:
        for ell in (1, 2):
            sp = space_for(m, n, ell)
            keys = [j for j in sp.all_labels() if all(a <= b for a, b in zip(j, j[1:]))]
            for i in range(1, sp.kappa):
                for labels in keys:
                    b = sp.basis(labels)
                    assert mode_apply_plain("E", i, 0, b) == chevalley_apply(
                        ChevalleyGen("e", i), b
                    ), (m, n, i, labels)
                    assert mode_apply_plain("F", i, 0, b) == chevalley_apply(
                        ChevalleyGen("f", i), b
                    ), (m, n, i, labels)
                    assert mode_apply_plain("K+", i, 0, b) == chevalley_apply(
                        ChevalleyGen("t", i), b
                    )
                    assert mode_apply_plain("K-", i, 0, b) == chevalley_apply(
                        ChevalleyGen("tinv", i), b
                    )


# ----------------------------------------------------------------------
# the zero-mode dictionary, a relation table in verify

RINGS = [
    ("numeric", NumericContext(Fraction(2), Fraction(3))),
    ("symbolic", SymbolicContext(formal_zeta=True)),
]


def dictionary_rows(m, n, ell):
    """Rows of the dictionary table on its battery, numeric stage first."""
    instances = dictionary_instances(m, n, ell)
    ctx = SuiteContext(
        instances, [(stage, R, dictionary_battery(m, n, ell, R)) for stage, R in RINGS]
    )
    return list(Verdicts(ctx, ctx.verdicts(0, len(instances))))


def wrap_node_sides(instances):
    return {form: lhs for rel, _, _, form, lhs, *_ in instances if rel == "wrap-node"}


def test_tree_parity():
    # every word on either side of a dictionary row has one parity, so
    # the e_0 and f_0 chains have the parity of node 0
    for m, n in [(3, 1), (2, 3)]:
        pd = ParityData.standard(m, n)
        for relation, _, _, form, lhs, rhs, _ in dictionary_instances(m, n, 1):
            parities = {
                sum(node_parity(pd, node) for op, node, _ in word if op in "efEF") % 2
                for _, word in lhs + rhs
            }
            assert len(parities) == 1, (m, n, relation, form)
            if relation == "wrap-node" and form != "t":
                assert parities == {node_parity(pd, 0)}


def test_tree_paper_values():
    # the e_0 chain alone on v(1) and the f_0 chain alone on v(4), each
    # evaluated through the plan of a table that holds the two chains
    sp = space_for(3, 1, 1)
    sides = wrap_node_sides(dictionary_instances(3, 1, 1))
    table = [("chain", (0,), (), kind, sides[kind], [], range(k, k + 1))
             for k, kind in enumerate("ef")]
    battery = [("v1", sp.basis((1,))), ("v4", sp.basis((4,)))]
    ctx = SuiteContext(table, [("symbolic", sp.R, battery)])
    _, _, values = ctx.stages[0]
    wants = [{((4,), (1,)): sp.R.one}, {((1,), (-1,)): -sp.R.one}]
    for k, ((_, u), want) in enumerate(zip(battery, wants)):
        images = [u] + [None] * (len(ctx.letters) - 1)
        got = _difference(images, ctx.letters, ctx.parents, values, ctx.slots[k], ctx.nodes[k])
        assert got.support == want


@pytest.mark.parametrize("ell", [1, 2])
def test_tree_agreement(ell):
    # the shifted modes inside the chains are written through Chevalley
    # letters, so the chains reproduce the node-0 Chevalley action on
    # every key, ordered or not, with xi-shifts 0 and (1, ..., ell)
    rows = [row for row in dictionary_rows(3, 1, ell) if row["relation"] == "wrap-node"]
    assert len(rows) == 3 * 2 * 4**ell
    assert all(row["status"] == "pass" for row in rows)


@pytest.mark.parametrize("m,n,ell", [(3, 1, 1), (3, 1, 2), (2, 2, 2), (1, 2, 2)])
def test_recovered_modes_match_cone(m, n, ell):
    # on nondecreasing keys the super-commutator forms of x^-_1[1] and
    # x^+_1[-1] agree with the slotwise current formulas
    rows = [row for row in dictionary_rows(m, n, ell) if row["relation"] == "shift-mode"]
    assert len(rows) == 2 * 2 * math.comb(m + n + ell - 1, ell)
    assert all(row["status"] == "pass" for row in rows)


def test_tree_t0_all_keys():
    # t_0 is the inverse Cartan chain over the finite nodes, on every key
    assert wrap_node_sides(dictionary_instances(3, 1, 2))["t"] == [
        (((1, 0, 0, 0),), tuple(("tinv", i, None) for i in (3, 2, 1)))
    ]
    rows = [row for row in dictionary_rows(3, 1, 2) if row["form"] == "t"]
    assert len(rows) == 2 * 16 and all(row["status"] == "pass" for row in rows)


def test_tree_agreement_25():
    rows = dictionary_rows(2, 3, 1)
    assert {row["relation"] for row in rows} == {"zero-mode", "shift-mode", "wrap-node"}
    assert all(row["status"] == "pass" for row in rows)


def _negated_exponent(bracket):
    return lambda x, y, odd, qexp: bracket(x, y, odd, -qexp)


def _flipped_sign(bracket):
    return lambda x, y, odd, qexp: bracket(x, y, 1 - odd, qexp)


# a fault in verify's one q-bracket helper, and the dictionary rows it
# fails at ell = 2 (numeric stage, symbolic skipped); at ell = 1 every
# row still passes
BRACKET_FAULTS = [
    (_negated_exponent, 3, 1, {("wrap-node", "e"): 8, ("wrap-node", "f"): 8}),
    (_negated_exponent, 2, 3, {("wrap-node", "e"): 12, ("wrap-node", "f"): 12}),
    (_flipped_sign, 3, 1, {("shift-mode", "F"): 4, ("shift-mode", "E"): 4,
                           ("wrap-node", "e"): 12, ("wrap-node", "f"): 10}),
]


@pytest.mark.parametrize(
    "fault, m, n, counts", BRACKET_FAULTS, ids=["exponent-31", "exponent-23", "sign-31"]
)
def test_dictionary_catches_bracket_faults(monkeypatch, fault, m, n, counts):
    monkeypatch.setattr(verify, "_qbracket", fault(verify._qbracket))
    assert all(row["status"] == "pass" for row in dictionary_rows(m, n, 1))
    fails = [row for row in dictionary_rows(m, n, 2) if row["status"] == "fail"]
    assert collections.Counter((row["relation"], row["form"]) for row in fails) == counts
    assert all(row["numeric"] == "fail" and row["symbolic"] == "skipped" for row in fails)


# ----------------------------------------------------------------------
# sign bookkeeping


def test_super_sign_rule():
    """Disjoint-slot operators in both orders differ by the Koszul sign."""
    sp = TensorSpace(ParityData.standard(2, 2), 3, SymbolicContext(formal_zeta=True))
    ident, e, f, t = slot_ops(sp)
    candidates = [
        (f(2), 1, 2),  # odd op, fires on label 2
        (e(0), 1, 1),  # odd, fires on 1
        (f(0), 1, 4),  # odd, fires on 4
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
        ("E", 1, 1, (2, 2)),
        ("F", 2, -2, (2, 3)),
        ("K+", 3, 2, (3, 4)),
        ("K-", 1, -1, (1, 2)),
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
        assert all(type(c) is ZL for c in ne.support.values())
