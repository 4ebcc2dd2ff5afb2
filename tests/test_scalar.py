"""Ring axioms, interning and memos, psi expansions, and the numeric oracle."""

import copy
import itertools
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtschur import scalar
from qtschur.scalar import (
    NumericContext,
    Scalar,
    SymbolicContext,
    ZL,
    _ONE,
    _ZERO,
    d_pow,
    delta_psi_mode,
    psi_product_mode,
    q_pow,
    table_sizes,
    zeta_pow,
)
from qtschur.verify import RunConfig, SuiteContext

from oracles import psi_coeffs, specialize, terms_product, terms_sum

coeffs = st.integers(min_value=-20, max_value=20)
keys = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-2, max_value=2),
)
term_dicts = st.dictionaries(keys, coeffs, max_size=4)
scalars = term_dicts.map(Scalar)


@given(scalars, scalars, scalars)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + _ZERO == x
    assert x * _ONE == x
    assert x - x == _ZERO


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_canonical_form_has_no_zero_terms(x):
    assert all(c != 0 for c in x._terms.values())
    assert (x - x)._terms == {}


def test_non_integral_coefficients_raise():
    sizes = table_sizes()
    with pytest.raises(ValueError):
        Scalar({(0, 0, 0): Fraction(3, 2)})
    with pytest.raises(ValueError):
        Scalar({(0, 0, 0): 2, (1, 0, 0): 2.0})
    assert table_sizes() == sizes
    with pytest.raises(ValueError):
        Scalar.monomial(1.5)
    with pytest.raises(ValueError):
        SymbolicContext(3, 1).rational(Fraction(1, 2))


def test_equal_values_from_every_constructor_are_one_object():
    a, b, c = (1, 0, 0), (0, -2, 1), (3, 3, 0)
    x = Scalar({a: 2, b: -1, c: 0})
    assert Scalar({c: 0, b: -1, a: 2}) is x
    assert Scalar({b: -1, a: 2}) is x
    assert Scalar.monomial(2, *a) + Scalar.monomial(-1, *b) is x
    assert Scalar.monomial(5, qhalf=4) is Scalar({(4, 0, 0): 5})
    assert q_pow(2) is Scalar.monomial(1, qhalf=4)
    assert d_pow(-1) is Scalar({(0, -2, 0): 1})
    assert zeta_pow(3) is Scalar.monomial(zeta=3)
    assert Scalar() is Scalar({}) is Scalar({a: 0}) is _ZERO
    assert Scalar.monomial() is _ONE
    for ctx in (SymbolicContext(3, 1), SymbolicContext(2, 3), SymbolicContext(formal_zeta=True)):
        assert ctx.qpow(-2) is q_pow(-2)
        assert ctx.dpow(1) is d_pow(1)
        assert ctx.rational(-7) is Scalar.monomial(-7)
        assert ctx.one is _ONE and ctx.zero is _ZERO


@given(scalars, scalars)
@settings(max_examples=120, deadline=None)
def test_ring_results_are_interned(a, b):
    assert a * b is b * a
    assert a + b is b + a
    assert (a + b) - b is a
    assert -(-a) is a
    assert a - a is _ZERO
    assert Scalar(dict(reversed(list(a._terms.items())))) is a


@given(scalars)
@settings(max_examples=40, deadline=None)
def test_pickle_and_copy_keep_identity(a):
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.deepcopy(a) is a
    assert copy.copy(a) is a
    assert copy.deepcopy({"x": [a]})["x"][0] is a


def test_a_scalar_is_never_equal_to_an_int():
    assert (Scalar.monomial(1) == 1) is False
    assert (_ZERO == 0) is False
    assert Scalar.monomial(3) != 3


# a term with a zeta exponent no other example uses, so that every
# operand built with it is a new value and its first product and sum miss
_FRESH = itertools.count(1000)

OPS = [
    (operator.mul, terms_product),
    (operator.add, terms_sum),
    (operator.sub, lambda x, y: terms_sum(x, y, -1)),
]


@given(term_dicts, term_dicts, term_dicts)
@settings(max_examples=120, deadline=None)
def test_memo_misses_and_hits_match_the_reference(tx, ty, tz):
    tx, ty, tz = ({**t, (0, 0, next(_FRESH)): 1} for t in (tx, ty, tz))
    x, y, z = Scalar(tx), Scalar(ty), Scalar(tz)
    for right, tr in ((y, ty), (z, tz), (x, tx)):
        for op, reference in OPS:
            want = reference(tx, tr)
            first = op(x, right)
            assert first._terms == want
            assert op(x, right) is first
            assert op(x, right)._terms == want


def test_a_repeated_run_adds_no_value_and_no_memo_entry():
    ctx = SuiteContext.for_suite("toroidal", RunConfig(m=3, n=1, ell=1, modes=0, mode="symbolic"))
    first = ctx.verdicts(0, len(ctx.instances))
    sizes = table_sizes()
    assert ctx.verdicts(0, len(ctx.instances)) == first
    assert table_sizes() == sizes


def test_context_constants_are_memoized():
    calls = [("qpow", -2), ("dpow", 3), ("q1pow", 1), ("zetapow", -1), ("rational", -1)]
    for make in (lambda: SymbolicContext(3, 1), lambda: NumericContext(2, 3, 3, 1)):
        ctx, fresh = make(), make()
        for name, arg in calls:
            first = getattr(ctx, name)(arg)
            assert getattr(ctx, name)(arg) is first
            assert getattr(fresh, name)(arg) == first
    assert NumericContext(2, 3).qpow(-2) == Fraction(1, 4)


def test_memo_keys_on_the_argument_type():
    # an equal argument of another type misses the memo: the symbolic
    # context still refuses a non-int after rational(2), the numeric one
    # takes all three
    ctx = SymbolicContext(3, 1)
    assert ctx.rational(2) == Scalar.monomial(2)
    for x in (Fraction(2), 2.0):
        with pytest.raises(ValueError):
            ctx.rational(x)
    num = NumericContext(2, 3, 3, 1)
    assert num.rational(2) == num.rational(Fraction(2)) == num.rational(2.0) == 2


# numeric contexts and the exact point values of their generators; the
# last zeta0 brings a prime (7) that q0 and d0 lack
NUMERIC_POINTS = [
    (NumericContext(2, 3, 3, 1), Fraction(2), Fraction(3), Fraction(4, 9)),
    (
        NumericContext(Fraction(-9, 7), Fraction(5, 3), 3, 1),
        Fraction(-9, 7), Fraction(5, 3), Fraction(729, 1225),
    ),
    (
        NumericContext(Fraction(3), Fraction(5, 2), zeta0=Fraction(7, 4)),
        Fraction(3), Fraction(5, 2), Fraction(7, 4),
    ),
]
# a sum of c * q^a * d^b * zeta^z terms; unequal exponents give operands with unequal k
numeric_terms = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-4, 4), st.integers(-4, 4), st.integers(-2, 2)),
    min_size=1,
    max_size=3,
)


def _numeric_pair(point, terms):
    """The sum of terms in the context of point, and the same sum as a Fraction."""
    ctx, q0, d0, z0 = point
    got, want = ctx.zero, Fraction(0)
    for c, a, b, z in terms:
        got = got + ctx.rational(c) * ctx.qpow(a) * ctx.dpow(b) * ctx.zetapow(z)
        want += c * q0**a * d0**b * z0**z
    return got, want


@given(st.sampled_from(NUMERIC_POINTS), numeric_terms, numeric_terms, st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_numeric_values_match_fraction(point, xs, ys, c):
    x, fx = _numeric_pair(point, xs)
    y, fy = _numeric_pair(point, ys)
    cases = [
        (x, fx), (x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (-x, -fx), (x - x, 0),
        (x + c, fx + c), (c + x, c + fx), (x - c, fx - c), (c * x, c * fx),
    ]
    for got, want in cases:
        assert type(got) is ZL
        assert got == want and want == got
        assert bool(got) == bool(want)
        assert hash(got) == hash(want)
        assert str(got) == str(Fraction(want))
    assert (x == y) == (fx == fy)
    assert (x != y) == (fx != fy)


def test_numeric_context_values_lie_in_its_ring():
    ctx = NumericContext(2, 3)
    assert ctx.L == 6
    assert ctx.rational(Fraction(5, 12)) == Fraction(5, 12)
    with pytest.raises(ValueError):
        ctx.rational(Fraction(1, 7))
    with pytest.raises(ValueError):
        NumericContext(2, 3, zeta0=0)
    # a numerator with a large prime factor needs no factoring
    big = NumericContext(Fraction(2**61 - 1, 3), 5)
    assert big.qpow(-2) * big.qpow(2) == 1


def test_derived_params():
    # q1 = d q^{-1}, q2 = q^2, q3 = d^{-1} q^{-1}, zeta = q1^{n-m}
    for m, n in [(3, 1), (2, 3), (1, 4), (2, 2 + 1)]:
        R = SymbolicContext(m, n)
        q1, q2, q3 = R.q1pow(1), R.qpow(2), R.dpow(-1) * R.qpow(-1)
        assert q1 * q2 * q3 == _ONE
        assert q1 == d_pow(1) * q_pow(-1)
        assert q2 == q_pow(2)
        assert R.zetapow(1) == d_pow(n - m) * q_pow(m - n)
    assert SymbolicContext(3, 1).zetapow(1) == d_pow(-2) * q_pow(2)
    assert SymbolicContext(2, 3).zetapow(1) == d_pow(1) * q_pow(-1)
    with pytest.raises(ValueError):
        SymbolicContext(2, 2)


def test_psi_coeffs_frozen_values():
    assert psi_coeffs(1, "-", 1) == [q_pow(1)]
    assert psi_coeffs(1, "+", 3) == [
        q_pow(-1),
        q_pow(-1) - q_pow(1),
        q_pow(-1) - q_pow(1),
    ]
    for r in range(-3, 4):
        lead_inf = psi_coeffs(r, "+", 1)[0]
        lead_zero = psi_coeffs(r, "-", 1)[0]
        assert lead_inf * lead_zero == _ONE


def test_psi_inversion_identity():
    # psi_{-c}(1/u) = psi_c(u): matching the expansions at the two ends
    # swaps both the subscript sign and the direction.
    for c in range(-3, 4):
        assert psi_coeffs(-c, "+", 8) == psi_coeffs(c, "-", 8)
        assert psi_coeffs(-c, "-", 8) == psi_coeffs(c, "+", 8)


def test_specialize_frozen_values():
    assert specialize(q_pow(1) + q_pow(-1), 2, 3) == Fraction(5, 2)
    assert specialize(_ONE, 7, 11) == 1
    assert specialize(SymbolicContext(3, 1).zetapow(1), 2, 3) == Fraction(4, 9)


def test_specialize_rejects_bad_points():
    x = q_pow(1)
    with pytest.raises(ValueError):
        specialize(x, 0, 3)
    with pytest.raises(ValueError):
        specialize(x, 2, 0)
    with pytest.raises(ValueError):
        specialize(x, 1, 3)
    with pytest.raises(ValueError):
        specialize(x, -1, 3)


def test_specialize_half_exponents():
    h = Scalar.monomial(1, qhalf=1)
    assert specialize(h, Fraction(4, 9), 3) == Fraction(2, 3)
    with pytest.raises(ValueError):
        specialize(h, 2, 3)
    hd = Scalar.monomial(1, dhalf=3)
    assert specialize(hd, 2, 4) == 8


def test_specialize_formal_zeta():
    z = zeta_pow(2)
    with pytest.raises(ValueError):
        specialize(z, 2, 3)
    assert specialize(z, 2, 3, zeta0=Fraction(1, 2)) == Fraction(1, 4)


@given(scalars, scalars)
@settings(max_examples=200, deadline=None)
def test_specialize_is_a_homomorphism(x, y):
    q0, d0 = Fraction(4), Fraction(9)  # squares, so halves always work
    z0 = Fraction(5, 7)
    sx = specialize(x, q0, d0, zeta0=z0)
    sy = specialize(y, q0, d0, zeta0=z0)
    assert specialize(x + y, q0, d0, zeta0=z0) == sx + sy
    assert specialize(x * y, q0, d0, zeta0=z0) == sx * sy


def test_render_examples():
    x = Scalar.monomial(-1, qhalf=-2, dhalf=4) + Scalar.monomial(3, qhalf=4)
    assert x.render() == "-1*q^-1*d^2 + 3*q^2"
    assert _ZERO.render() == "0"
    assert _ONE.render() == "1"
    assert Scalar.monomial(1, qhalf=1).render() == "1*q^{1/2}"
    assert Scalar.monomial(-5, qhalf=2, zeta=1).render() == "-5*q*zeta"
    assert zeta_pow(-2).render() == "1*zeta^-2"


def test_contexts_agree_under_specialization():
    sym = SymbolicContext(3, 1)
    num = NumericContext(2, 3, 3, 1)
    for e in range(-3, 4):
        assert specialize(sym.qpow(e), 2, 3) == num.qpow(e)
        assert specialize(sym.dpow(e), 2, 3) == num.dpow(e)
        assert specialize(sym.q1pow(e), 2, 3) == num.q1pow(e)
        assert specialize(sym.zetapow(e), 2, 3) == num.zetapow(e)
    formal = SymbolicContext(formal_zeta=True)
    assert formal.zetapow(3) == zeta_pow(3)
    with pytest.raises(ValueError):
        SymbolicContext()
    with pytest.raises(ValueError):
        SymbolicContext(2, 2)
    with pytest.raises(ValueError):
        NumericContext(1, 3)


def bare_delta_mode(ctx, t, inverted, boundary):
    return delta_psi_mode(
        ctx, 1, t, boundary, 0, [], scale_pow=lambda e: ctx.qpow(0), inverted=inverted
    )


def test_delta_mode_without_psi_factors():
    # delta(a/z) = sum a^r z^{-r}: every mode is a^t regardless of the
    # normal-ordering boundary.
    ctx = SymbolicContext(3, 1)
    for t in range(-3, 4):
        for boundary in "+-":
            assert bare_delta_mode(ctx, t, False, boundary) == {(t,): ctx.one}
            assert bare_delta_mode(ctx, t, True, boundary) == {(-t,): ctx.one}


def test_delta_psi_mode_matches_direct_expansion():
    # One psi factor on a second slot, scale q^mu: compare against a
    # hand-rolled expansion of delta(s*x0/z) * psi_c(s*x1/z) (boundary '+').
    ctx = SymbolicContext(3, 1)
    mu, c = 2, 1
    scale = lambda e: ctx.qpow(mu * e)
    for t in range(-3, 4):
        got = delta_psi_mode(ctx, 2, t, "+", 0, [(1, c)], scale, inverted=False)
        expect: dict = {}
        # phi^+ stream (powers z^{-k}): the argument q^mu*x1/z is small
        # at z = infinity, so the psi coefficients come from its
        # expansion at zero.
        for k in range(0, max(t, -1) + 1):
            coeff = psi_coeffs(c, "-", k + 1)[k] * (
                ctx.qpow(mu * k) if k else ctx.one
            ) * ctx.qpow(mu * (t - k))
            key = (t - k, k)
            expect[key] = expect.get(key, ctx.zero) + coeff
        # phi^- stream (powers z^{+k}): argument large, expansion at
        # infinity.
        for k in range(0, -t):
            coeff = psi_coeffs(c, "+", k + 1)[k] * (
                ctx.qpow(-mu * k) if k else ctx.one
            ) * ctx.qpow(mu * (t + k))
            key = (t + k, -k)
            expect[key] = expect.get(key, ctx.zero) + coeff
        expect = {k: v for k, v in expect.items() if v}
        assert got == expect


def test_psi_product_mode_single_factor():
    ctx = SymbolicContext(3, 1)
    scale = lambda e: ctx.qpow(0)
    for c in (-2, 1):
        for t in range(0, 4):
            # argument x0/z is small at z = infinity: zero-end coefficients
            got = psi_product_mode(ctx, 1, t, "+", [(0, c)], scale, inverted=False)
            want = psi_coeffs(c, "-", t + 1)[t]
            assert got == ({(t,): want} if want else {})
        for t in range(0, 4):
            got = psi_product_mode(ctx, 1, -t, "-", [(0, c)], scale, inverted=False)
            want = psi_coeffs(c, "+", t + 1)[t]
            assert got == ({(-t,): want} if want else {})
    # out-of-range modes vanish
    assert psi_product_mode(ctx, 1, -1, "+", [(0, 1)], scale, False) == {}
    assert psi_product_mode(ctx, 1, 1, "-", [(0, 1)], scale, False) == {}


def test_psi_product_mode_inverted_orientation():
    # psi_c(x*z) expanded at infinity starts at q^{-c}; at zero at q^c.
    ctx = SymbolicContext(3, 1)
    scale = lambda e: ctx.qpow(0)
    assert psi_product_mode(ctx, 1, 0, "+", [(0, 2)], scale, inverted=True) == {
        (0,): q_pow(-2)
    }
    assert psi_product_mode(ctx, 1, 0, "-", [(0, 2)], scale, inverted=True) == {
        (0,): q_pow(2)
    }
    assert psi_product_mode(ctx, 1, 1, "+", [(0, 2)], scale, inverted=True) == {
        (-1,): q_pow(-2) - q_pow(2)
    }
