"""Balanced tensor vectors, rotation, and current modes over the algebra."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtschur.hecke import (
    AffinePermutation,
    DahaElement,
    apply_word,
    default_battery,
    right_mul_T,
    right_mul_X,
    right_mul_Y,
)
from qtschur import hecke
from qtschur import toroidal as tor
from qtschur.looprep import (
    ChevalleyGen,
    _chevalley_summands,
    mode_terms,
    tensor_leg_apply,
)
from qtschur.scalar import NumericContext, SymbolicContext
from qtschur.superdata import ParityData
from qtschur.cli import _dump_rows
from qtschur.verify import (
    RunConfig,
    SuiteContext,
    Verdicts,
    affine_instances,
    apply_letter,
    rotation_instances,
    toroidal_instances,
)
from qtschur.toroidal import (
    FunctorSpace,
    functor_battery,
    functor_chevalley_apply,
    psi_apply,
    psi_inverse,
    toroidal_mode_apply,
    weight_apply,
)

from oracles import weight_exponent, wrap_current_by_conjugation

R31 = SymbolicContext(m=3, n=1)
PD31 = ParityData.standard(3, 1)
R22 = SymbolicContext(formal_zeta=True)
PD22 = ParityData.standard(2, 2)


def space31(ell):
    return FunctorSpace(PD31, ell, R31)


def evaluated(space, battery, bound=0, balance=False):
    """Report rows of the rotation table on battery, in space's ring.

    balance selects the balancing instances, whose battery holds raw
    vectors of hecke.default_battery elements in blocks of eight per
    label tuple; otherwise the rotation identities run on all of battery.
    """
    table = rotation_instances(space.pd, space.ell, bound, 8)
    instances = [inst for inst in table if inst[0].startswith("psi-balance") == balance]
    if not balance:
        instances = [inst[:6] + (None,) for inst in instances]
    ctx = SuiteContext(instances, [("symbolic", space.R, battery)])
    return list(Verdicts(ctx, ctx.verdicts(0, len(instances))))


# ----------------------------------------------------------------------
# descent sorting


def test_sort_single_descent_even_pair():
    sp = space31(2)
    got = sp.basis((2, 1))
    want = sp.basis((1, 2), right_mul_T(sp.daha.one(), 1)) * R31.qpow(-1)
    assert got == want
    assert list(got.support) == [(1, 2)]


def test_sort_fixes_nondecreasing_key():
    sp = space31(2)
    v = sp.basis((1, 3))
    assert list(v.support) == [(1, 3)]
    assert v.support[(1, 3)] == sp.daha.one()


def test_sort_odd_pair_flips_sign():
    sp = FunctorSpace(PD22, 2, R22)
    got = sp.basis((4, 3))
    want = sp.basis((3, 4), right_mul_T(sp.daha.one(), 1)) * -R22.qpow(-1)
    assert got == want


def test_sort_confluence_through_braid():
    # leftmost insertion gives T1 T2 T1; the rightmost order gives
    # T2 T1 T2, and the two agree through the braid relation
    sp = space31(3)
    one = sp.daha.one()
    left = sp.basis((3, 2, 1))
    w = right_mul_T(right_mul_T(right_mul_T(one, 2), 1), 2)
    right = sp.basis((1, 2, 3), w) * R31.qpow(-3)
    assert left == right


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_sort_schedule_counts_inversions(labels):
    sp = space31(3)
    word, coeff, out = sp.sort_schedule(tuple(labels))
    assert out == tuple(sorted(labels))
    inv = sum(
        1
        for a in range(3)
        for b in range(a + 1, 3)
        if labels[a] > labels[b]
    )
    assert len(word) == inv
    assert coeff in (R31.qpow(-inv), -R31.qpow(-inv))


def test_repeated_label_kernel():
    sp = space31(2)
    one = sp.daha.one()
    # even repeated label: T_1 acts by q^2, so (T_1 - q^2) w kills the key
    w = right_mul_T(one, 1) - one * R31.qpow(2)
    assert sp.basis((1, 1), w).is_zero()
    assert not sp.basis((1, 1), right_mul_T(one, 1)).is_zero()
    # odd repeated label: T_1 acts by -1
    w = right_mul_T(one, 1) + one
    assert sp.basis((4, 4), w).is_zero()
    assert not sp.basis((4, 4), one).is_zero()
    # the kernel test respects the balanced identification
    assert sp.basis((1, 1), right_mul_T(one, 1)) == sp.basis((1, 1)) * R31.qpow(2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_symmetrizer_has_one_reduced_word_per_permutation(k):
    # one block of k equal labels: a reduced word in the local letters
    # 1..k-1 for each permutation of the block, alternating for an odd label
    sp = space31(k)
    for label, odd in ((1, False), (4, True)):
        terms = sp.symmetrizer((label,) * k)
        rebuilt = set()
        for word, coeff in terms:
            assert all(kind == "T" and 1 <= i < k and e == 1 for kind, i, e in word)
            w = AffinePermutation.identity(k)
            for _, i, _ in word:
                w = w.right_mul_s(i)
            assert len(word) == w.length()
            rebuilt.add(w.window)
            want = R31.qpow(-2 * len(word)) if odd else R31.one
            assert coeff == (-want if odd and len(word) % 2 else want)
        assert len(terms) == math.factorial(k)
        assert rebuilt == set(itertools.permutations(range(1, k + 1)))


# ----------------------------------------------------------------------
# current modes at finite nodes


@pytest.mark.parametrize("r", [-2, -1, 0, 1, 2])
def test_raising_mode_single_slot(r):
    # one slot carrying the upper label: every mode is the Laurent
    # monomial (q1^{mu} Y_1)^{-r} with the label lowered
    sp = space31(1)
    got = toroidal_mode_apply("E", 1, r, sp.basis((2,)))
    w = right_mul_Y(sp.daha.one(), 1, -r) * R31.q1pow(-r)
    assert got == sp.basis((1,), w)


@pytest.mark.parametrize("r", [-1, 0, 2])
def test_lowering_mode_single_slot(r):
    sp = space31(1)
    got = toroidal_mode_apply("F", 1, r, sp.basis((1,)))
    w = right_mul_Y(sp.daha.one(), 1, -r) * R31.q1pow(-r)
    assert got == sp.basis((2,), w)


def test_modes_vanish_without_matching_label():
    sp = space31(1)
    assert toroidal_mode_apply("E", 1, 1, sp.basis((3,))).is_zero()
    assert toroidal_mode_apply("E", 2, 0, sp.basis((1,))).is_zero()
    assert toroidal_mode_apply("F", 1, -1, sp.basis((2,))).is_zero()


def test_diagonal_mode_tail():
    # first tail coefficient of the diagonal current on a single slot
    sp = space31(1)
    one = sp.daha.one()
    got = toroidal_mode_apply("K+", 1, 1, sp.basis((1,)))
    jump = R31.qpow(1) - R31.qpow(-1)
    w = right_mul_Y(one, 1, -1) * (jump * R31.q1pow(-1))
    assert got == sp.basis((1,), w)
    got = toroidal_mode_apply("K-", 1, -1, sp.basis((1,)))
    w = right_mul_Y(one, 1, 1) * ((R31.qpow(-1) - R31.qpow(1)) * R31.q1pow(1))
    assert got == sp.basis((1,), w)
    # out-of-range modes vanish
    assert toroidal_mode_apply("K+", 1, -1, sp.basis((1,))).is_zero()
    assert toroidal_mode_apply("K-", 1, 1, sp.basis((1,))).is_zero()


@pytest.mark.parametrize("pd,R", [(PD31, R31), (PD22, R22)])
def test_zero_modes_match_chevalley(pd, R):
    sp = FunctorSpace(pd, 2, R)
    for labels in sp.all_keys():
        u = sp.basis(labels)
        for i in range(1, pd.kappa):
            assert toroidal_mode_apply("E", i, 0, u) == functor_chevalley_apply("e", i, u)
            assert toroidal_mode_apply("F", i, 0, u) == functor_chevalley_apply("f", i, u)
            assert toroidal_mode_apply("K+", i, 0, u) == functor_chevalley_apply("t", i, u)
            assert toroidal_mode_apply("K-", i, 0, u) == functor_chevalley_apply("tinv", i, u)


@pytest.mark.parametrize("ell", [1, 2])
def test_diagonal_weights(ell):
    sp = space31(ell)
    for labels in sp.all_keys():
        u = sp.basis(labels)
        for i in range(pd_kappa := sp.kappa):
            if i == 0:
                got = apply_letter("K+", 0, 0, u)
            else:
                got = toroidal_mode_apply("K+", i, 0, u)
            want = u * R31.qpow(weight_exponent(sp.pd, labels, i))
            assert got == want
            assert weight_apply(i, u) == want


def test_k_chain_is_identity():
    for ell in (1, 2):
        sp = space31(ell)
        battery = functor_battery(sp)
        for _, u in battery[:: max(1, len(battery) // 25)]:
            out = u
            for i in range(sp.kappa - 1, -1, -1):
                out = apply_letter("K+", i, 0, out)
            assert out == u


# ----------------------------------------------------------------------
# label rotation


def test_rotation_example():
    sp = space31(2)
    one = sp.daha.one()
    got = psi_apply(sp.basis((2, 4)))
    w = right_mul_T(right_mul_X(one, 2, -1), 1)
    want = sp.rotated(1).basis((1, 3), w) * R31.qpow(-1)
    assert got == want


def test_rotation_tags_parity():
    sp = space31(1)
    out = psi_apply(sp.basis((1,)))
    assert out.space.pd.s == (-1, 1, 1, 1)


def test_rotation_roundtrip():
    sp = space31(2)
    battery = functor_battery(sp)
    for _, u in battery[:: max(1, len(battery) // 40)]:
        assert psi_inverse(psi_apply(u)) == u
        assert psi_apply(psi_inverse(u)) == u
    u = battery[3][1]
    assert psi_inverse(psi_inverse(psi_apply(psi_apply(u)))) == u


def test_rotation_balance_all_cases():
    sp = space31(2)
    raw = [
        (wname, tor.FunctorVector(sp, {labels: w}))
        for labels in itertools.product(range(1, 5), repeat=2)
        for wname, w in default_battery(sp.daha)[:8]
    ]
    rows = evaluated(sp, raw, balance=True)
    assert rows and all(r["status"] == "pass" for r in rows)
    cases = {r["relation"] for r in rows}
    assert cases == {
        "psi-balance-plain-plain",
        "psi-balance-plain-wrap",
        "psi-balance-wrap-plain",
        "psi-balance-wrap-wrap",
    }


# ----------------------------------------------------------------------
# the rotation and the dead-key test through cached Hecke words, against
# their formulas on whole factors


def _whole_factor_dead(space, labels, w):
    """w times the symmetrizer of labels, letter by letter, is zero."""
    acc = space.daha.zero()
    for word, coeff in space.symmetrizer(labels):
        acc = acc + apply_word(w, word) * coeff
    return acc.is_zero()


def _rotation_formula(space, step, labels, w):
    """(sorted key, factor) of the rotation by step = +1 or -1 of w tensor labels.

    Wrapped slots (top label for +1, label 1 for -1) multiply the whole
    factor by X^{-step} letter by letter, all labels shift by step
    cyclically, and the key is re-sorted in the rotated space.
    """
    kappa = space.kappa
    wrap = kappa if step == 1 else 1
    for a, j in enumerate(labels, 1):
        if j == wrap:
            w = right_mul_X(w, a, -step)
    labels2 = tuple((j + step - 1) % kappa + 1 for j in labels)
    word, coeff, target = space.rotated(step).sort_schedule(labels2)
    return target, apply_word(w, word) * coeff


def _whole_factor_rotate(space, items, step):
    """The rotation formula on each whole factor, pruned letter by letter."""
    acc = {}
    for labels, w in items:
        key, image = _rotation_formula(space, step, labels, w)
        acc[key] = acc[key] + image if key in acc else image
    target = space.rotated(step)
    return {k: w for k, w in acc.items() if not _whole_factor_dead(target, k, w)}


@pytest.mark.parametrize(
    "R", [R31, NumericContext(Fraction(2), Fraction(3), 3, 1)], ids=["symbolic", "numeric"]
)
def test_kernels_match_whole_factor_formulas(R):
    sp = FunctorSpace(PD31, 2, R)
    battery = functor_battery(sp)
    factors = [w for _, w in default_battery(sp.daha)]
    for _, u in battery:
        items = list(u.support.items())
        for step, op in ((1, psi_apply), (-1, psi_inverse)):
            got = op(u)
            assert got.space is sp.rotated(step)
            assert got.support == _whole_factor_rotate(sp, items, step)
    # unsorted keys, alone and as the balance check's exchange sums
    for labels in itertools.product(range(1, sp.kappa + 1), repeat=sp.ell):
        for w in factors:
            raw = tor.FunctorVector(sp, {labels: w})
            for step, op in ((1, psi_apply), (-1, psi_inverse)):
                assert op(raw).support == _whole_factor_rotate(sp, [(labels, w)], step)
            exchanged = tor.key_T_apply(1, raw)
            items = list(exchanged.support.items())
            assert psi_apply(exchanged).support == _whole_factor_rotate(sp, items, 1)
    # dead-key test: battery factors, and factors that kill a repeated key
    seen = set()
    for labels in sp.all_keys():
        for w in factors:
            tw = right_mul_T(w, 1)
            for v in (w, tw - w * R.qpow(2), tw + w, sp.daha.zero()):
                dead = sp.key_is_dead(labels, v)
                assert dead == _whole_factor_dead(sp, labels, v), (labels, v)
                seen.add(dead)
    assert seen == {True, False}


def _ell2_suite(suite):
    """A suite's context at m3 n1 ell 2 (R0 for toroidal), both stages."""
    return SuiteContext.for_suite(suite, RunConfig(m=3, n=1, ell=2, modes=0))


@pytest.mark.parametrize("suite", ["toroidal", "affine"])
def test_one_term_factors_never_kill_a_repeated_key(suite):
    # _collect keeps a one-term part without the product; the full
    # product must agree on every repeated-label key of the battery
    checked = 0
    for _, battery, _ in _ell2_suite(suite).stages:
        sp = battery[0][1].space
        R = sp.R
        for _, u in battery:
            for labels, w in u.support.items():
                if len(set(labels)) == len(labels):
                    continue
                assert len(sp.symmetrizer(labels)) > 1
                for key, c in w.support.items():
                    for coeff in (c, R.one, -R.qpow(3), R.one + R.qpow(2)):
                        one_term = DahaElement(sp.daha, {key: coeff})
                        assert not sp.key_is_dead(labels, one_term), (labels, key, coeff)
                        checked += 1
    assert checked


@pytest.mark.parametrize("suite", ["toroidal", "affine"])
def test_collect_matches_the_full_product_on_every_part(monkeypatch, suite):
    # a whole run of the suite's table on its ell-2 batteries, each
    # normalize (letter images and relation differences) checked against
    # one that tests every part by the product
    seen = {"one-term repeated": 0, "dead": 0}

    def checked(space, acc, orig=tor._collect):
        out = orig(space, acc)
        want = {}
        for labels, part in acc.items():
            # a part is a dict or an element, a scaled view read by its value
            part = part if type(part) is dict else part.support
            w = DahaElement(space.daha, part)
            if part and not space.key_is_dead(labels, w):
                want[labels] = w
            seen["one-term repeated"] += len(part) == 1 and len(set(labels)) < len(labels)
            seen["dead"] += bool(part) and labels not in want
        assert out.support == want
        return out

    monkeypatch.setattr(tor, "_collect", checked)
    ctx = _ell2_suite(suite)
    blocks = ctx.verdicts(0, len(ctx.instances))
    assert not any(any(block[0]) for block in blocks if block is not None)
    assert seen["one-term repeated"] and seen["dead"]


@pytest.mark.parametrize("R", [
    SymbolicContext(m=3, n=1), NumericContext(2, 3, 3, 1)
], ids=["symbolic", "numeric"])
def test_a_word_term_cancelled_by_a_later_one_leaves_no_key(R):
    # _add_product's word loop adds in place: w T_1, added to a non-empty
    # support at basis keys it did not hold and then taken away again,
    # must leave no key behind, so the support is the first part's alone
    daha = hecke.DahaContext(2, R)
    one = daha.one()
    first, w = right_mul_T(one, 1) + one, right_mul_X(one, 2)
    word, coeff = (("T", 1, 1),), R.qpow(1)
    acc = {}
    tor._add_product(acc, first, None, (), R.one)
    want = dict(acc)
    tor._add_product(acc, w, None, word, coeff)
    assert acc.keys() - want.keys()
    tor._add_product(acc, w, None, word, -coeff)
    assert acc == want


@pytest.mark.parametrize("R", [
    SymbolicContext(m=3, n=1), NumericContext(2, 3, 3, 1)
], ids=["symbolic", "numeric"])
def test_a_view_equals_hashes_and_renders_like_its_copy(R):
    # a weight letter only rescales a factor, so its image holds a scaled
    # view of the input's factor; the view equals (either way round),
    # hashes and renders like the copied element, vector operations on it
    # build plain elements, and nothing writes into the shared base
    space = FunctorSpace(PD31, 2, R)
    one = space.daha.one()
    w = right_mul_T(one, 1) + right_mul_X(one, 2)
    base = dict(w.support)
    view = weight_apply(2, tor.FunctorVector(space, {(1, 2): w})).support[1, 2]
    assert type(view) is tor.ScaledView and view.base is w.support
    c = view.scale
    copy = DahaElement(space.daha, {key: x * c for key, x in w.support.items()})
    assert c == R.qpow(1) and view.support == copy.support
    assert view == copy and copy == view and not view != copy and not copy != view
    assert view != w and w != view
    assert hash(view) == hash(copy) and view.render() == copy.render()
    for got, want in [(-view, -copy), (view * c, copy * c), (view * R.zero, copy * R.zero),
                      (view + w, copy + w), (w + view, w + copy), (view - view, copy - copy)]:
        assert type(got) is DahaElement and got == want
    assert w.support == base


def test_second_rotation_reuses_kernels(monkeypatch):
    # the fold's one X rule, which builds every cached word with an X letter
    calls = []

    def counted(ctx, support, j, exp, orig=hecke._mul_X):
        calls.append(j)
        return orig(ctx, support, j, exp)

    monkeypatch.setattr(hecke, "_mul_X", counted)
    sp = space31(2)
    u = functor_battery(sp)[-1][1]
    first = psi_apply(u)
    assert calls
    calls.clear()
    assert psi_apply(u).support == first.support
    assert calls == []


# ----------------------------------------------------------------------
# cached letter terms against the per-summand formulas


def _sorted_add(space, acc, labels, w):
    """Add w tensor labels into acc, sorting the key letter by letter."""
    if w.is_zero():
        return
    word, coeff, key = space.sort_schedule(tuple(labels))
    w = apply_word(w, word) * coeff
    acc[key] = acc[key] + w if key in acc else w


def _pruned(space, acc):
    return {k: w for k, w in acc.items() if not _whole_factor_dead(space, k, w)}


def _reference_mode(family, i, r, fv):
    """A current mode summand by summand, with no cache."""
    space = fv.space
    acc = {}
    for labels, w in fv.support.items():
        for labels2, sign, mult in mode_terms(space, family, i, r, labels, space.R.q1pow, True):
            for vec, coeff in mult.items():
                w2 = w
                for j, e in enumerate(vec, 1):
                    w2 = right_mul_Y(w2, j, e) if e else w2
                w2 = w2 * (coeff if sign > 0 else -coeff)
                _sorted_add(space, acc, labels2, w2)
    return _pruned(space, acc)


def _reference_chevalley(kind, node, fv, variant):
    """A Chevalley operator summand by summand, with no cache."""
    space = fv.space
    acc = {}
    for labels, w in fv.support.items():
        for legs, shift_slot, shift in _chevalley_summands(space, ChevalleyGen(kind, node)):
            hit = tensor_leg_apply(space, legs, labels)
            if hit is None:
                continue
            labels2, c = hit
            w2 = w
            if shift_slot is not None:
                j = shift_slot + 1
                if variant == "horizontal":
                    w2 = right_mul_X(w2, j, shift)
                else:
                    w2 = right_mul_Y(w2, j, -shift)
                    if variant == "vertical":
                        c = c * space.R.dpow(-shift)
            _sorted_add(space, acc, labels2, w2 * c)
    return _pruned(space, acc)


def _letters(kappa):
    """(cached operator, reference formula) for every letter of one space."""
    out = []
    for kind in ("e", "f", "t", "tinv"):
        for node in range(kappa):
            for variant in ("affine", "vertical", "horizontal"):
                args = (kind, node, variant)
                out.append((
                    lambda u, a=args: functor_chevalley_apply(a[0], a[1], u, variant=a[2]),
                    lambda u, a=args: _reference_chevalley(a[0], a[1], u, a[2]),
                ))
    for family in ("E", "F", "K+", "K-"):
        for i in range(1, kappa):
            for r in (-1, 0, 1):
                args = (family, i, r)
                out.append((
                    lambda u, a=args: toroidal_mode_apply(*a, u),
                    lambda u, a=args: _reference_mode(*a, u),
                ))
    return out


@pytest.mark.parametrize(
    "pd,ell,R,step",
    [
        (PD31, 2, R31, 1),
        (PD31, 2, NumericContext(Fraction(2), Fraction(3), 3, 1), 1),
        # three slots sort through T-words of length up to three
        (PD22, 3, R22, 11),
    ],
    ids=["symbolic", "numeric", "odd-ell3-sampled"],
)
def test_letter_terms_match_per_summand_formulas(pd, ell, R, step):
    sp = FunctorSpace(pd, ell, R)
    battery = [u for _, u in functor_battery(sp)][::step]
    letters = _letters(sp.kappa)
    assert len(letters) == 4 * 4 * 3 + 4 * 3 * 3
    want = [[reference(u) for u in battery] for _, reference in letters]
    assert all(letter == "sort" for letter, _ in sp._letter_terms)
    for _ in ("cold", "warm"):
        for (apply, _), images in zip(letters, want):
            for u, image in zip(battery, images):
                assert apply(u).support == image
    assert any(image for images in want for image in images)


def test_second_application_reuses_letter_terms(monkeypatch):
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(tor, "tensor_leg_apply", counted(tor.tensor_leg_apply))
    monkeypatch.setattr(tor, "mode_terms", counted(tor.mode_terms))
    sp = space31(2)
    battery = [u for _, u in functor_battery(sp)]
    letters = [apply for apply, _ in _letters(sp.kappa)]
    u = battery[-1]
    for apply in letters:
        calls.clear()
        first = apply(u)
        assert calls
        calls.clear()
        assert apply(u).support == first.support
        assert calls == []
    for apply in letters:
        for v in battery:
            apply(v)
    keys = len(list(sp.all_keys()))
    # one entry per (letter, key), the descent sort included, whatever
    # the number of factors per key
    assert len(battery) > keys
    assert len(sp._letter_terms) <= (len(letters) + 1) * keys


def test_bad_letters_raise_before_the_cache():
    sp = space31(1)
    u = sp.basis((2,))
    bad = [
        lambda: functor_chevalley_apply("e", 0, u, variant="diagonal"),
        lambda: functor_chevalley_apply("x", 1, u),
        lambda: functor_chevalley_apply("f", sp.kappa, u),
        lambda: functor_chevalley_apply("t", -1, u),
        lambda: toroidal_mode_apply("E", -1, 0, u),
        lambda: toroidal_mode_apply("F", sp.kappa, 1, u),
        lambda: toroidal_mode_apply("G", 1, 0, u),
    ]
    for call in bad:
        with pytest.raises(ValueError):
            call()
    assert all(letter == "sort" for letter, _ in sp._letter_terms)


# ----------------------------------------------------------------------
# wrap-around node


@pytest.mark.parametrize("ell", [1, 2])
def test_wrap_node_mode_zero_matches_chevalley(ell):
    sp = space31(ell)
    for labels in sp.all_keys():
        u = sp.basis(labels)
        got = apply_letter("E", 0, 0, u)
        assert got == functor_chevalley_apply("e", 0, u, variant="horizontal")
        got = apply_letter("F", 0, 0, u)
        assert got == functor_chevalley_apply("f", 0, u, variant="horizontal")
        got = apply_letter("K+", 0, 0, u)
        assert got == functor_chevalley_apply("t", 0, u)
        got = apply_letter("K-", 0, 0, u)
        assert got == functor_chevalley_apply("tinv", 0, u)


@pytest.mark.parametrize("r", [-1, 1, 2])
def test_wrap_node_higher_modes_single_slot(r):
    # conjugating the node-1 current through the rotation gives
    # Y_1^{-r} X_1 on the single-slot vector with top label target
    sp = space31(1)
    one = sp.daha.one()
    got = apply_letter("E", 0, r, sp.basis((1,)))
    w = right_mul_X(right_mul_Y(one, 1, -r), 1, 1)
    assert got == sp.basis((4,), w)


WRAP_SPACES = [(PD31, 1), (PD31, 2), (ParityData.from_string("+-++"), 2)]


@pytest.mark.parametrize("ring", ["symbolic", "numeric"])
@pytest.mark.parametrize("pd, ell", WRAP_SPACES, ids=["m3n1-ell1", "m3n1-ell2", "+-++-ell2"])
def test_wrap_node_letter_is_the_conjugated_node_one_current(pd, ell, ring):
    # the composed node-0 letter against psi^-1, the node-1 mode and psi
    # applied one whole vector at a time, on every battery vector
    R = R31 if ring == "symbolic" else NumericContext(Fraction(2), Fraction(3), 3, 1)
    sp = FunctorSpace(pd, ell, R)
    for _, u in functor_battery(sp):
        for family in ("E", "F", "K+", "K-"):
            for r in range(-2, 4):
                want = wrap_current_by_conjugation(family, r, u)
                assert toroidal_mode_apply(family, 0, r, u) == want, (family, r)


def test_chevalley_variants_differ_by_letter():
    sp = space31(1)
    one = sp.daha.one()
    u = sp.basis((1,))
    aff = functor_chevalley_apply("e", 0, u)
    assert aff == sp.basis((4,), right_mul_Y(one, 1, -1))
    vert = functor_chevalley_apply("e", 0, u, variant="vertical")
    assert vert == aff * R31.dpow(-1)
    u4 = sp.basis((4,))
    aff = functor_chevalley_apply("f", 0, u4)
    assert aff == sp.basis((1,), right_mul_Y(one, 1, 1)) * R31.rational(-1)
    vert = functor_chevalley_apply("f", 0, u4, variant="vertical")
    assert vert == aff * R31.dpow(1)


def test_symbolic_images_keep_int_coefficients():
    # every coefficient of the symbolic stage is integral and must stay a
    # plain int: an integral Fraction here means the fast path has decayed
    sp = space31(1)
    seen = 0
    for _, u in functor_battery(sp):
        for image in (u, toroidal_mode_apply("E", 1, 1, u), apply_letter("K-", 0, -2, u)):
            for w in image.support.values():
                for coeff in w.support.values():
                    assert all(type(c) is int for c in coeff._terms.values()), coeff
                    seen += len(coeff._terms)
    assert seen  # not vacuous


# ----------------------------------------------------------------------
# rotation identities


def test_rotation_identities_single_slot():
    sp = space31(1)
    rows = evaluated(sp, functor_battery(sp), bound=1)
    assert rows and all(r["status"] == "pass" for r in rows)
    names = {r["relation"] for r in rows}
    assert names == {
        "rot-E", "rot-F", "rot-K+", "rot-K-",
        "wrap-E", "wrap-F-as-F", "wrap-K+", "wrap-K-",
    }


def test_rotation_identities_formal_central_charge():
    # the central-letter exponents cancel identically, so the suite
    # holds without folding the extra parameter
    R = SymbolicContext(formal_zeta=True)
    sp = FunctorSpace(PD31, 1, R)
    rows = evaluated(sp, functor_battery(sp), bound=1)
    assert rows and all(r["status"] == "pass" for r in rows)


def test_rotation_identities_two_slots_sampled():
    sp = space31(2)
    battery = functor_battery(sp)
    rows = evaluated(sp, battery[::9], bound=1)
    assert rows and all(r["status"] == "pass" for r in rows)


# ----------------------------------------------------------------------
# left-linearity: every balanced letter changes the key and multiplies
# the factor on the right, so L(w (x) k) = w . L(1 (x) k)


def _table_letters(table):
    """The distinct letters of a relation table's sides, in first-use order."""
    return list(dict.fromkeys(
        letter for *_, lhs, rhs, _ in table for _, word in lhs + rhs for letter in word
    ))


# each suite's letters in its own ring: zeta folded (toroidal) or formal (affine)
LETTERS = {
    "toroidal": (R31, _table_letters(toroidal_instances(PD31, 1))),
    "affine": (SymbolicContext(formal_zeta=True), _table_letters(affine_instances(PD31))),
}


def _spelled(key):
    """The basis word Q^k T_w Y^mu of a Hecke basis key as generator letters.

    T_w is the product over w.reduced_word(), with T_0 spelled Q^-1 T_1 Q.
    """
    k, window, mu = key
    word = [("Q", 0, 1 if k > 0 else -1)] * abs(k)
    for i in AffinePermutation(window).reduced_word():
        word += [("Q", 0, -1), ("T", 1, 1), ("Q", 0, 1)] if i == 0 else [("T", i, 1)]
    for j, e in enumerate(mu, 1):
        word += [("Y", j, 1 if e > 0 else -1)] * abs(e)
    return word


def _left_times(w, fv, space):
    """w times every factor of fv, as a vector of space: w by each spelled basis word."""
    parts = {}
    for labels, f in fv.support.items():
        parts[labels] = w.ctx.zero()
        for key, c in f.support.items():
            parts[labels] = parts[labels] + apply_word(w, _spelled(f.ctx.decode(key))) * c
    return tor.FunctorVector(space, parts)


def _left_linearity_failures(suite, ell):
    """Counts of (letter, battery vector) pairs, over one suite's letters and
    psi^{+-1}: those where L(v) differs from the sum over v's keys k of
    w_k . L(1 (x) k), and those where that sum is nonzero.
    """
    R, letters = LETTERS[suite]
    sp = FunctorSpace(PD31, ell, R)
    battery = functor_battery(sp)
    failures = nonzero = 0
    for letter in letters + [("psi", 0, 1), ("psi", 0, -1)]:
        out = sp.rotated(letter[2]) if letter[0] == "psi" else sp
        for _, v in battery:
            want = out.zero()
            for labels, w in v.support.items():
                unit = apply_letter(*letter, tor.FunctorVector(sp, {labels: sp.daha.one()}))
                want = want + _left_times(w, unit, out)
            failures += apply_letter(*letter, v) != want
            nonzero += not want.is_zero()
    return failures, nonzero


@pytest.mark.parametrize("ell", [1, 2])
def test_spelled_basis_words_rebuild_the_basis(ell):
    ctx = space31(ell).daha
    for w in hecke.affine_permutations_upto(ell, 3):
        for k in (-1, 0, 2):
            for mu in hecke.bounded_tuples(ell, 2):
                key = (k, w.window, mu)
                assert apply_word(ctx.one(), _spelled(key)) == ctx.basis(*key)


@pytest.mark.parametrize("suite", ["toroidal", "affine"])
@pytest.mark.parametrize("ell", [1, 2])
def test_letters_are_left_linear(suite, ell):
    failures, nonzero = _left_linearity_failures(suite, ell)
    assert failures == 0 and nonzero


def test_left_linearity_catches_a_flipped_exchange_correction(monkeypatch):
    # the sign of the Bernstein-Lusztig correction flipped: right
    # multiplication stops being associative, and w . L(1 (x) k) parts
    # from L(w (x) k)
    exchange = hecke._bl_exchange

    def flipped(ctx, mu, i):
        swapped, corrections = exchange(ctx, mu, i)
        return swapped, [(-sign, vec) for sign, vec in corrections]

    monkeypatch.setattr(hecke, "_bl_exchange", flipped)
    for suite in LETTERS:
        assert _left_linearity_failures(suite, 2)[0] > 0, suite


# dead vectors: x (T_i - q^2) (x) k is zero in the balanced product when
# slots i, i+1 of k hold one even label, x (T_i + 1) (x) k when they hold
# one odd label; a letter must map such a vector, stored unpruned, to one
# that normalizes to zero (the evaluator's single normalize rests on it)


def _normalized(fv):
    return tor._collect(fv.space, {labels: w.support for labels, w in fv.support.items()})


def _dead_vectors(sp):
    """x (T_i - q^2) (x) k, or x (T_i + 1) (x) k for an odd label, unpruned,
    for each battery factor x, key k and slot i with k_i = k_{i+1}."""
    R, out = sp.R, []
    for _, x in default_battery(sp.daha):
        for labels in sp.all_keys():
            for i in range(1, sp.ell):
                if labels[i - 1] == labels[i]:
                    eigen = -R.one if sp.pd.vector_parity(labels[i]) else R.qpow(2)
                    w = right_mul_T(x, i) - x * eigen
                    out.append(tor.FunctorVector(sp, {labels: w}))
    return out


@pytest.mark.parametrize("ring", ["symbolic", "numeric"])
@pytest.mark.parametrize("suite", ["toroidal", "affine"])
def test_letters_map_dead_vectors_to_zero(suite, ring):
    R, letters = LETTERS[suite]
    R = R if ring == "symbolic" else NumericContext(Fraction(2), Fraction(3), 3, 1)
    sp = FunctorSpace(PD31, 2, R)
    vectors = _dead_vectors(sp)
    assert all(v.support and _normalized(v).is_zero() for v in vectors)
    live = [
        (letter, v) for letter in letters for v in vectors
        if not _normalized(apply_letter(*letter, v)).is_zero()
    ]
    assert not live, live[:3]
    assert len(letters) * len(vectors) == {"toroidal": 4864, "affine": 2432}[suite]


# ----------------------------------------------------------------------
# dumps


def test_dump_tables_serialize():
    sp = space31(1)
    rows = _dump_rows(sp, {"op": "E", "node": 1, "mode": 1}, ("E", 1, 1))
    blob = json.loads(json.dumps(rows))
    assert blob[0]["op"] == "E" and blob[0]["node"] == 1 and blob[0]["mode"] == 1
    hit = [r for r in blob if r["input"] == "1|2"]
    assert hit and hit[0]["output"]
    rows = _dump_rows(sp, {"op": "psi"}, ("psi", 0, 1))
    assert json.loads(json.dumps(rows))[0]["op"] == "psi"
