"""Rewriting-engine checks: window combinatorics, exchange rules, presentation.

Frozen expectations were derived by hand from the quadratic relation
(T + 1)(T - q^2) = 0, the exchange T^-1 Y_i T^-1 = q^-2 Y_{i+1}, and the
rotation conjugation, before the engine existed.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtschur import hecke
from qtschur.hecke import (
    KEY_BITS,
    AffinePermutation,
    DahaContext,
    DahaElement,
    affine_permutations_upto,
    apply_word,
    composite,
    default_battery,
    right_mul_Q,
    right_mul_T,
    right_mul_X,
    right_mul_Y,
    word_table,
    x_letter_word,
)
from qtschur.scalar import NumericContext, SymbolicContext
from qtschur.verify import RunConfig, SuiteContext, Verdicts, daha_instances

from oracles import (
    compose,
    inverse,
    inverse_word,
    rotate_down,
    rotate_up,
    specialize,
    stepwise_word,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def sym_ctx(ell):
    return DahaContext(ell, SymbolicContext(formal_zeta=True))


def decoded(e):
    """e's support by decoded key (k, window, mu)."""
    return {e.ctx.decode(key): c for key, c in e.support.items()}


# ----------------------------------------------------------------------
# affine permutations


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation((1, 1))
    with pytest.raises(ValueError):
        AffinePermutation((2, 3))  # residues fine, not normalized


def test_value_extension_and_s0():
    w = AffinePermutation((2, 1))
    assert [w(i) for i in (-1, 0, 1, 2, 3, 4)] == [0, -1, 2, 1, 4, 3]
    ws0 = w.right_mul_s(0)
    assert ws0.window == (-1, 4)
    assert w.right_mul_s(1).window == (1, 2)


def test_length_frozen():
    assert AffinePermutation((1, 2)).length() == 0
    assert AffinePermutation((2, 1)).length() == 1
    assert AffinePermutation((0, 3)).length() == 1
    assert AffinePermutation((3, 0)).length() == 2
    assert AffinePermutation((-1, 4)).length() == 2
    assert AffinePermutation((2, 3, 1)).length() == 2


def test_reduced_word_frozen():
    assert AffinePermutation((3, 0)).reduced_word() == (0, 1)
    assert AffinePermutation((-1, 4)).reduced_word() == (1, 0)
    assert AffinePermutation((1, 2)).reduced_word() == ()


words = st.lists(st.integers(min_value=0, max_value=2), max_size=8)


@settings(max_examples=80, deadline=None)
@given(words)
def test_reduced_word_reconstructs(word):
    w = AffinePermutation.identity(3)
    for i in word:
        w = w.right_mul_s(i)
    assert w.length() <= len(word)
    rebuilt = AffinePermutation.identity(3)
    for i in w.reduced_word():
        rebuilt = rebuilt.right_mul_s(i)
    assert rebuilt == w


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_compose_inverse(u_word, v_word):
    ident = AffinePermutation.identity(3)
    u = v = ident
    for i in u_word:
        u = u.right_mul_s(i)
    for i in v_word:
        v = v.right_mul_s(i)
    assert compose(u, inverse(u)) == ident
    assert compose(inverse(u), u) == ident
    # right multiplication is precomposition
    both = u
    for i in v_word:
        both = both.right_mul_s(i)
    assert both == compose(u, v)


def test_rotation_conjugation():
    s1 = AffinePermutation((2, 1))
    s0 = AffinePermutation((0, 3))
    assert rotate_down(s1) == s0
    assert rotate_up(s1) == s0
    assert rotate_down(s0) == s1
    for w in affine_permutations_upto(3, 3):
        assert rotate_up(rotate_down(w)) == w
        assert rotate_down(w).length() == w.length()


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_q_letter_rotates_the_window_in_closed_form(ell):
    # _basis_mul_Q shifts the window by one slot without building an
    # AffinePermutation; the conjugation by the rotation is the reference,
    # and the shifted window must itself be a valid one
    ctx = DahaContext(ell, SymbolicContext(formal_zeta=True))
    mu = tuple(range(ell))
    for w in affine_permutations_upto(ell, 3):
        for exp, rotate in ((1, rotate_down), (-1, rotate_up)):
            (k, window, _), _ = hecke._basis_mul_Q(ctx, (0, w.window, mu), exp)
            assert k == exp
            assert AffinePermutation(window) == rotate(w)


def test_enumeration_frozen():
    got = {w.window for w in affine_permutations_upto(2, 2)}
    assert got == {(1, 2), (2, 1), (0, 3), (3, 0), (-1, 4)}
    assert len(affine_permutations_upto(1, 5)) == 1


# ----------------------------------------------------------------------
# basis keys: k * 2**KEY_BITS + the pair number of (window, mu)

KEY_CONTEXT = sym_ctx(3)
BAND = 1 << 32  # the Q-degree distance of two vectors of a batch (toroidal)


@given(
    st.integers(-3, 3),
    st.integers(-1, 19),
    st.sampled_from(affine_permutations_upto(3, 2)),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_keys_decode_to_what_they_encode(k, band, w, mu):
    # a Q-power in any batch band keeps the pair number and reads back whole
    ctx = KEY_CONTEXT
    q = k + band * BAND
    key = ctx.key(q, w.window, mu)
    assert ctx.decode(key) == (q, w.window, tuple(mu))
    assert key >> KEY_BITS == q
    assert key - ctx.key(k, w.window, mu) == (band * BAND) << KEY_BITS
    assert ctx.key(*ctx.decode(key)) == key


def test_key_numbering_raises_past_its_width(monkeypatch):
    monkeypatch.setattr(hecke, "KEY_BITS", 3)
    monkeypatch.setattr(hecke, "KEY_MASK", 7)
    ctx = sym_ctx(2)
    pairs = [((1, 2), (a, -a)) for a in range(9)]
    keys = [ctx.key(-1, window, mu) for window, mu in pairs[:8]]
    assert keys == [-8 + i for i in range(8)]
    assert [ctx.decode(key) for key in keys] == [(-1, *pair) for pair in pairs[:8]]
    # the ninth pair does not fit in three bits: refused, never wrapped
    with pytest.raises(ValueError):
        ctx.key(0, *pairs[8])
    assert ctx.key(2, *pairs[7]) == (2 << 3) + 7
    with pytest.raises(ValueError):
        ctx.basis(0, *pairs[8])


def test_render_follows_decoded_keys_not_numbering():
    # numbered in the reverse of (k, window, mu) order, the terms still
    # render in that order, as in a context that numbered them in it
    triples = sorted([
        (-1, (1, 2), (0, 1)), (0, (1, 2), (0, 0)), (0, (1, 2), (1, 0)),
        (0, (2, 1), (0, 0)), (1, (0, 3), (-1, 0)), (1, (2, 1), (1, 0)),
    ])
    backward, forward = sym_ctx(2), sym_ctx(2)
    R = backward.R
    coeffs = {t: R.qpow(n) - R.one for n, t in enumerate(triples)}
    e = DahaElement(backward, {backward.key(*t): coeffs[t] for t in reversed(triples)})
    f = DahaElement(forward, {forward.key(*t): coeffs[t] for t in triples})
    assert sorted(e.support) != sorted(e.support, key=backward.decode)
    assert e.render() == f.render()
    assert e.render(limit=2) == f.render(limit=2)
    assert e.render().index("Q^-1") < e.render().index("T[0,3]")


# ----------------------------------------------------------------------
# single-letter rewrites, frozen by hand at l = 2


def test_tfold_frozen():
    ctx = sym_ctx(2)
    R = ctx.R
    t1 = ctx.basis(0, (2, 1), (0, 0))
    sq = right_mul_T(t1, 1)
    assert decoded(sq) == {
        (0, (1, 2), (0, 0)): R.qpow(2),
        (0, (2, 1), (0, 0)): R.qpow(2) - R.one,
    }


def test_tinverse_frozen():
    ctx = sym_ctx(2)
    R = ctx.R
    e = right_mul_T(ctx.one(), 1, -1)
    assert decoded(e) == {
        (0, (2, 1), (0, 0)): R.qpow(-2),
        (0, (1, 2), (0, 0)): R.qpow(-2) - R.one,
    }
    assert right_mul_T(e, 1, 1) == ctx.one()


def test_exchange_frozen():
    ctx = sym_ctx(2)
    R = ctx.R
    qq = R.qpow(2) - R.one
    # Y_1 T_1 = T_1 Y_2 + (q^2 - 1) Y_1
    e = right_mul_T(ctx.basis(0, (1, 2), (1, 0)), 1)
    assert decoded(e) == {
        (0, (2, 1), (0, 1)): R.one,
        (0, (1, 2), (1, 0)): qq,
    }
    # Y_2 T_1 = T_1 Y_1 - (q^2 - 1) Y_1
    e = right_mul_T(ctx.basis(0, (1, 2), (0, 1)), 1)
    assert decoded(e) == {
        (0, (2, 1), (1, 0)): R.one,
        (0, (1, 2), (1, 0)): -qq,
    }
    # Y_1^2 T_1 = T_1 Y_2^2 + (q^2 - 1)(Y_1^2 + Y_1 Y_2)
    e = right_mul_T(ctx.basis(0, (1, 2), (2, 0)), 1)
    assert decoded(e) == {
        (0, (2, 1), (0, 2)): R.one,
        (0, (1, 2), (2, 0)): qq,
        (0, (1, 2), (1, 1)): qq,
    }
    # symmetric exponents slide through untouched
    e = right_mul_T(ctx.basis(0, (1, 2), (1, 1)), 1)
    assert decoded(e) == {(0, (2, 1), (1, 1)): R.one}


def test_exchange_roundtrip():
    ctx = sym_ctx(2)
    for a in range(-2, 3):
        for b in range(-2, 3):
            e = ctx.basis(0, (1, 2), (a, b))
            assert right_mul_T(right_mul_T(e, 1), 1, -1) == e
            assert right_mul_T(right_mul_T(e, 1, -1), 1) == e


def test_q_rotation_frozen():
    ctx = sym_ctx(2)
    R = ctx.R
    e = right_mul_Q(ctx.basis(0, (1, 2), (3, 5)))
    assert decoded(e) == {(1, (1, 2), (5, 3)): R.zetapow(-3)}
    assert right_mul_Q(e, -1) == ctx.basis(0, (1, 2), (3, 5))
    # the rotation shifts windows: Q^-1 T_1 Q = T_0
    e = right_mul_Q(right_mul_T(right_mul_Q(ctx.one(), -1), 1), 1)
    assert decoded(e) == {(0, (0, 3), (0, 0)): R.one}


def test_q_roundtrip_battery():
    ctx = sym_ctx(3)
    for _, vec in default_battery(ctx):
        assert right_mul_Q(right_mul_Q(vec, 1), -1) == vec
        assert right_mul_Q(right_mul_Q(vec, -1), 1) == vec


def test_x_letter_words_frozen():
    assert x_letter_word(1, 1, 1) == [("Q", 0, 1)]
    assert x_letter_word(2, 1, 1) == [("Q", 0, 1), ("T", 1, -1)]
    assert x_letter_word(3, 2, 1) == [("T", 1, 1), ("Q", 0, 1), ("T", 2, -1)]
    assert x_letter_word(3, 2, -1) == [("T", 2, 1), ("Q", 0, -1), ("T", 1, -1)]
    assert x_letter_word(3, 3, 1) == [("T", 2, 1), ("T", 1, 1), ("Q", 0, 1)]


def test_x_at_window_one():
    ctx = sym_ctx(1)
    e = right_mul_X(ctx.one(), 1)
    assert decoded(e) == {(1, (1,), (0,)): ctx.R.one}
    # X_1 Y_1 = zeta Y_1 X_1 in the smallest case
    lhs = right_mul_Y(right_mul_X(ctx.one(), 1), 1)
    rhs = right_mul_X(right_mul_Y(ctx.one(), 1), 1) * ctx.R.zetapow(1)
    assert lhs == rhs


def test_x_roundtrip():
    ctx = sym_ctx(3)
    for j in (1, 2, 3):
        e = right_mul_X(right_mul_X(ctx.one(), j, 1), j, -1)
        assert e == ctx.one()


def test_composite_frozen():
    assert composite("T_range_up", i=1, j=3) == [("T", 1, 1), ("T", 2, 1), ("T", 3, 1)]
    assert composite("Qij", i=2, j=3) == [("X", 2, 1), ("T", 2, 1), ("T", 3, 1)]
    assert composite("Pr", r=1, ell=3) == [
        ("X", 2, 1),
        ("T", 2, 1),
        ("X", 1, 1),
        ("T", 1, 1),
    ]
    with pytest.raises(ValueError):
        composite("nope")


def test_render_frozen():
    ctx = sym_ctx(2)
    e = right_mul_T(ctx.basis(0, (2, 1), (0, 0)), 1)
    assert e.render() == (
        "(1*q^2) * Q^0 * T[1,2] * Y^(0,0)"
        " + (-1 + 1*q^2) * Q^0 * T[2,1] * Y^(0,0)"
    )
    assert ctx.zero().render() == "0"


# ----------------------------------------------------------------------
# presentation batteries


def _assert_all_pass(ctx, presented: bool):
    """The presentation, or the conjugation identities, on the default battery.

    Evaluated through the suite evaluator, in ctx's ring.
    """
    battery = default_battery(ctx)
    words = len(battery)
    if presented:
        instances = daha_instances(ctx.ell, words, 0)
    else:
        instances = daha_instances(ctx.ell, 0, words)
    suite = SuiteContext(instances, [("symbolic", ctx.R, battery)])
    rows = list(Verdicts(suite, suite.verdicts(0, len(instances))))
    bad = [row for row in rows if row["status"] != "pass"]
    assert rows and not bad, bad[:5]


@pytest.mark.parametrize("ell", [1, 2])
def test_presentation_symbolic(ell):
    _assert_all_pass(sym_ctx(ell), presented=True)


def test_presentation_numeric_ell3():
    coeffs = NumericContext(Fraction(5, 2), Fraction(7, 3), zeta0=Fraction(4, 9))
    _assert_all_pass(DahaContext(3, coeffs), presented=True)


def test_toshow_battery():
    _assert_all_pass(sym_ctx(2), presented=False)


@pytest.mark.parametrize("ell, relation, side", [(3, "braid T0 T1", 0), (4, "T0 T2 commute", 1)])
def test_daha_table_spells_t0_as_q_t_last_q_inverse(ell, relation, side):
    # below ell 5 every T0 row of the table also holds for T2 = Q T1 Q^-1,
    # so the T0 word the rows use is pinned here: T0 = Q T_{l-1} Q^-1.  At
    # ell 2 the two words coincide.  Table words run in evaluation order
    # (the algebra product reversed), apply_word reads products left to right.
    ctx = SuiteContext.for_suite("daha", RunConfig(ell=ell))
    (sides,) = [(lhs, rhs) for name, *_, lhs, rhs, _ in ctx.instances if name == relation]
    (_, word), = sides[side]
    t0 = list(reversed(word[:3]))
    want = [("Q", 0, 1), ("T", ell - 1, 1), ("Q", 0, -1)]
    for _, battery, _ in ctx.stages:
        for _, w in battery:
            assert apply_word(w, t0) == apply_word(w, want), (relation, w)
    # the test tells T0 from T2 at this length
    one = battery[0][1].ctx.one()
    assert apply_word(one, want) != apply_word(one, [("Q", 0, 1), ("T", 1, 1), ("Q", 0, -1)])


# ----------------------------------------------------------------------
# word-level coherence

LETTERS = [
    ("T", 1, 1),
    ("T", 1, -1),
    ("Y", 1, 1),
    ("Y", 2, -1),
    ("X", 1, 1),
    ("X", 2, -1),
    ("Q", 0, 1),
    ("Q", 0, -1),
]


def test_word_concatenation_and_inverses():
    ctx = sym_ctx(2)
    rng = random.Random(411)
    for _ in range(20):
        u = [LETTERS[rng.randrange(len(LETTERS))] for _ in range(rng.randrange(1, 5))]
        v = [LETTERS[rng.randrange(len(LETTERS))] for _ in range(rng.randrange(1, 5))]
        assert apply_word(apply_word(ctx.one(), u), v) == apply_word(ctx.one(), u + v)
        assert apply_word(apply_word(ctx.one(), u), inverse_word(u)) == ctx.one()


# one context per window size and ring, its word cache kept warm across
# examples, so that an entry stored under too coarse a key shows
WORD_CONTEXTS = {
    (ell, i): DahaContext(ell, R)
    for ell in (2, 3)
    for i, R in enumerate([
        SymbolicContext(formal_zeta=True),
        NumericContext(Fraction(5, 2), Fraction(7, 3), zeta0=Fraction(4, 9)),
    ])
}


@st.composite
def cached_words(draw):
    """(context, Q exponent, window, mu, word) over T, X, Y and Q letters of both signs."""
    ell = draw(st.sampled_from([2, 3]))
    ctx = WORD_CONTEXTS[ell, draw(st.sampled_from([0, 1]))]
    letter = st.one_of(
        st.tuples(st.just("T"), st.integers(1, ell - 1), st.sampled_from([1, -1])),
        st.tuples(st.sampled_from(["X", "Y"]), st.integers(1, ell), st.sampled_from([1, -1])),
        st.tuples(st.just("Q"), st.just(0), st.sampled_from([1, -1])),
    )
    window = draw(st.sampled_from(affine_permutations_upto(ell, 2))).window
    mu = tuple(draw(st.lists(st.integers(-2, 2), min_size=ell, max_size=ell)))
    word = tuple(draw(st.lists(letter, max_size=5)))
    return ctx, draw(st.integers(-1, 1)), window, mu, word


@given(cached_words())
@settings(max_examples=60, deadline=None)
def test_word_terms_match_apply_word(case):
    ctx, k, window, mu, word = case
    calls = []

    def counted(*args, orig=hecke._basis_mul_T):
        calls.append(args)
        return orig(*args)

    saved, hecke._basis_mul_T = hecke._basis_mul_T, counted
    try:
        i = ctx.key(0, window, mu)
        terms = word_table(ctx, word)[i]
        built = len(calls)
        assert word_table(ctx, word)[i] is terms
        assert len(calls) == built
    finally:
        hecke._basis_mul_T = saved
    shifted, key = {}, ctx.key(k, window, mu)
    for delta, coeff in terms:
        assert coeff and ctx.decode(key + delta) not in shifted
        shifted[ctx.decode(key + delta)] = coeff
    # the reference multiplies whole elements letter by letter, with no cache
    want = decoded(stepwise_word(ctx.basis(k, window, mu), word))
    assert shifted == want
    assert decoded(apply_word(ctx.basis(k, window, mu), word)) == want


def test_specialization_coherence():
    """Symbolic run specialized at a point equals the numeric run."""
    q0, d0, z0 = Fraction(3), Fraction(5, 2), Fraction(7, 4)
    sctx = sym_ctx(2)
    nctx = DahaContext(2, NumericContext(q0, d0, zeta0=z0))
    rng = random.Random(20260819)
    for _ in range(25):
        word = [LETTERS[rng.randrange(len(LETTERS))] for _ in range(rng.randrange(1, 8))]
        se = apply_word(sctx.one(), word)
        ne = apply_word(nctx.one(), word)
        spec = {}
        for key, coeff in decoded(se).items():
            val = specialize(coeff, q0, d0, zeta0=z0)
            if val:
                spec[key] = val
        # by decoded key: the two contexts number their pairs apart
        assert spec == decoded(ne), word


def test_bad_letters_raise_under_optimize():
    # python -O strips assert statements; these checks must not be asserts
    setup = (
        "from qtschur.hecke import *; "
        "from qtschur.scalar import SymbolicContext; "
        "from qtschur.superdata import ParityData, koszul_sign, mu; "
        "R = SymbolicContext(formal_zeta=True); one = DahaContext(2, R).one(); "
        "pd = ParityData.standard(3, 1); "
    )
    for call in (
        "right_mul_T(one, 0)",
        "right_mul_T(one, 1, 2)",
        "right_mul_Y(one, 3)",
        "right_mul_Q(one, 2)",
        "right_mul_X(one, 1, 5)",
        "right_mul_X(one, 3)",
        "x_letter_word(2, 0, 1)",
        "DahaContext(0, R)",
        'composite("Pr", r=5, ell=2)',
        'composite("Qij", i=2, j=1)',
        "AffinePermutation.identity(2).right_mul_s(2)",
        "AffinePermutation.identity(2).has_right_descent(-1)",
        "mu(pd, 5)",
        "koszul_sign(pd, 3, 0, (1, 4))",
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", setup + call],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode != 0, call
        assert "ValueError" in proc.stderr, call
