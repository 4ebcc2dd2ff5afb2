"""Exact coefficient arithmetic for everything downstream.

All computations in this package happen over the Laurent-polynomial ring in
q^{1/2} and d^{1/2} with integer coefficients, extended by one formal
central monomial ``zeta`` that is only used by the standalone Hecke-algebra
checks (everywhere else zeta is a concrete power of q1 = d*q^{-1}).  Every
coefficient the verification suites produce is integral, so a Scalar holds
Python ints only and refuses any other coefficient.

Besides the ring type this module holds the sparse-vector base that
Hecke-algebra elements, plain tensors and balanced tensors share (one
copy of their support arithmetic, linear extension and rendering), and
the small amount of series machinery the rest of the package needs:
expansions of the rational function

    psi_c(z) = (q^c - q^{-c} z) / (1 - z)

at z = 0 and z = infinity, and exact mode extraction for normal-ordered
products of a formal delta function against a product of psi factors.
Both expansions of psi_c are eventually constant, which keeps every mode
coefficient a finite sum.

Scalar is hash-consed.  One intern table, keyed on the sorted term
tuple, holds every Scalar built, so equal values are one object and
equality is identity.  Each value memoizes its products and its sums by
the right operand.  A suite builds few distinct values and combines the
same pairs over and over, so nearly every product and sum is one dict
lookup.  The table is the type's own identity map, not caller state,
and it is never cleared: it holds only immutable values, and clearing
it would split equal live values into distinct objects.  No zero test
reads identity; zero is an empty term dict.

A numeric specialization q -> q0, d -> d0 (rationals) doubles as a fast
cross-check oracle for all symbolic identities; its values lie in Z[1/L]
for an integer L read off the point, stored gcd-free as ZL.  ZL is not
interned: its product is one int product, so a memo saves little, while
a numeric run meets many more distinct values than a symbolic one, and
their table and memos would cost megabytes of peak memory on the largest
runs.  Instead its product, and its sum of two values with equal k,
fill a bare object.__new__ instance's three slots, so a numeric product
runs one Python frame rather than two (no __init__ call).  Both
coefficient contexts memoize the constants they hand out
(powers and integer constants); Scalar and ZL are immutable, so sharing
them is safe.
The references the tests hold these against (a Scalar evaluated at a
point, the closed-form psi_c coefficients) live in tests/oracles.py.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping

# Exponent key: (a, b, c) encodes q^{a/2} * d^{b/2} * zeta^c.
Key = tuple[int, int, int]


class Scalar:
    """Immutable, hash-consed Laurent polynomial in q^{1/2}, d^{1/2} (and formal zeta).

    Terms map exponent keys to nonzero ints; zero coefficients are dropped
    eagerly, so zero is the empty term dict.  Every Scalar is built
    through one process-wide intern table keyed on the sorted term
    tuple, so equal values are one object: == and hash are the object
    defaults (identity), and a Scalar is never equal to an int.  Each
    value memoizes its products and sums in two dicts keyed by the right
    operand, which a hit reads with one lookup.  The operands of +, -
    and * are Scalars.
    """

    __slots__ = ("_terms", "_products", "_sums")

    def __new__(cls, terms: Mapping[Key, int] | None = None) -> "Scalar":
        if terms:
            for coeff in terms.values():
                if type(coeff) is not int:
                    raise ValueError(f"Scalar coefficients are ints, got {coeff!r}")
        return _intern(terms or {})

    def __reduce__(self):
        # unpickling and copying go through the table, so they keep identity
        return Scalar, (self._terms,)

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, coeff: int = 1, qhalf: int = 0, dhalf: int = 0, zeta: int = 0) -> "Scalar":
        return cls({(qhalf, dhalf, zeta): coeff})

    # -- inspection --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        try:
            return self._sums[other]
        except KeyError:
            pass
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        out = self._sums[other] = _intern(terms)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _intern({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        try:
            return self._products[other]
        except KeyError:
            pass
        terms: dict[Key, int] = {}
        for (a, b, c), ca in self._terms.items():
            for (x, y, z), cb in other._terms.items():
                key = (a + x, b + y, c + z)
                terms[key] = terms.get(key, 0) + ca * cb
        out = self._products[other] = _intern(terms)
        return out

    __rmul__ = __mul__

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Deterministic text form, e.g. ``-1*q^-1*d^2 + 3*q^2``."""
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms):
            coeff = self._terms[key]
            factors = [str(coeff)]
            for name, half in zip(("q", "d", "zeta"), key):
                if half == 0:
                    continue
                if name == "zeta":
                    exp_txt = _render_exp(2 * half)
                else:
                    exp_txt = _render_exp(half)
                factors.append(name + exp_txt)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _render_exp(half: int) -> str:
    """Exponent suffix for a half-integer exponent given in halves."""
    if half == 2:
        return ""
    if half % 2 == 0:
        return f"^{half // 2}"
    return f"^{{{half}/2}}"


# canonical term tuple -> its one Scalar; never cleared (see the module docstring)
_TABLE: dict[tuple, Scalar] = {}


def _intern(terms: Mapping[Key, int]) -> Scalar:
    """The one Scalar with the nonzero terms of terms."""
    canon = tuple(sorted((k, c) for k, c in terms.items() if c))
    out = _TABLE.get(canon)
    if out is None:
        out = _TABLE[canon] = object.__new__(Scalar)
        out._terms = dict(canon)
        out._products, out._sums = {}, {}
    return out


def table_sizes() -> tuple[int, int]:
    """(interned Scalars, memoized products and sums) in this process."""
    return len(_TABLE), sum(len(x._products) + len(x._sums) for x in _TABLE.values())


_ZERO = Scalar()
_ONE = Scalar({(0, 0, 0): 1})


def q_pow(e: int) -> Scalar:
    return Scalar.monomial(1, qhalf=2 * e)


def d_pow(e: int) -> Scalar:
    return Scalar.monomial(1, dhalf=2 * e)


def zeta_pow(e: int) -> Scalar:
    """Formal central monomial (standalone Hecke checks only)."""
    return Scalar.monomial(1, zeta=e)


# ----------------------------------------------------------------------
# coefficient contexts
#
# The Hecke and representation engines are generic over the coefficient
# ring: symbolically they work with Scalar, numerically with ZL.
# A context supplies the constants they need; the elements themselves
# only ever go through +, -, *, == and truthiness.  Each context memoizes
# the constants it hands out, keyed by (method, argument type, argument):
# 2, 2.0 and Fraction(2) are equal keys, but not every method takes all three.


def _memoized(method):
    name = method.__name__

    @functools.wraps(method)
    def cached(self, x):
        key = (name, type(x), x)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = method(self, x)
        return hit

    return cached


class SymbolicContext:
    """Coefficients are Scalar values; zeta may be formal or concrete."""

    def __init__(self, m: int | None = None, n: int | None = None, formal_zeta: bool = False):
        self.m, self.n = m, n
        self.formal_zeta = formal_zeta
        if not formal_zeta:
            if m is None or n is None:
                raise ValueError("concrete zeta needs (m, n)")
            if m == n:
                raise ValueError("m = n is not allowed")
        self.one, self.zero = _ONE, _ZERO
        self._memo: dict = {}

    @_memoized
    def qpow(self, e: int) -> Scalar:
        return q_pow(e)

    @_memoized
    def dpow(self, e: int) -> Scalar:
        return d_pow(e)

    @_memoized
    def q1pow(self, e: int) -> Scalar:
        return Scalar.monomial(1, qhalf=-2 * e, dhalf=2 * e)

    @_memoized
    def zetapow(self, e: int) -> Scalar:
        if self.formal_zeta:
            return zeta_pow(e)
        return self.q1pow((self.n - self.m) * e)

    @_memoized
    def rational(self, x: int) -> Scalar:
        return Scalar.monomial(x)

    def render(self, coeff: Scalar) -> str:
        return coeff.render()


class ZL:
    """n / L^k in Z[1/L] (int n, k >= 0), never reduced by a gcd; zero iff n is.

    Values that meet share one L.  == and hash agree with the Fraction of
    the same value, and str (also repr) renders that Fraction.  * and +
    at equal k build their result without __init__ (module docstring).
    """

    __slots__ = ("n", "k", "L")

    def __init__(self, n: int, k: int, L: int):
        self.n, self.k, self.L = n, k, L

    def __mul__(self, other) -> "ZL":
        if type(other) is ZL:
            out = object.__new__(ZL)
            out.n, out.k, out.L = self.n * other.n, self.k + other.k, self.L
            return out
        if isinstance(other, int):
            return ZL(self.n * other, self.k, self.L)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other) -> "ZL":
        if type(other) is not ZL:
            if not isinstance(other, int):
                return NotImplemented
            other = ZL(other, 0, self.L)
        k, ko = self.k, other.k
        if k == ko:
            out = object.__new__(ZL)
            out.n, out.k, out.L = self.n + other.n, k, self.L
            return out
        if k < ko:
            return ZL(self.n * self.L ** (ko - k) + other.n, ko, self.L)
        return ZL(self.n + other.n * self.L ** (k - ko), k, self.L)

    __radd__ = __add__

    def __neg__(self) -> "ZL":
        return ZL(-self.n, self.k, self.L)

    def __sub__(self, other) -> "ZL":
        return self + -other

    def __bool__(self) -> bool:
        return self.n != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (ZL, int)):
            return not (self - other).n
        if isinstance(other, Fraction):
            return self.n * other.denominator == other.numerator * self.L**self.k
        return NotImplemented

    def __hash__(self) -> int:
        return hash(Fraction(self.n, self.L**self.k))

    def __repr__(self) -> str:
        return str(Fraction(self.n, self.L**self.k))


class NumericContext:
    """Coefficients are ZL values at a fixed rational point (q0, d0, zeta0).

    L is the lcm of the numerators and denominators of q0, d0 and a given
    zeta0; rational() raises ValueError on a value outside Z[1/L].
    """

    def __init__(self, q0, d0, m: int | None = None, n: int | None = None, zeta0=None):
        self.q0, self.d0 = Fraction(q0), Fraction(d0)
        self.zeta0 = None if zeta0 is None else Fraction(zeta0)
        if 0 in (self.q0, self.d0, self.zeta0):
            raise ValueError("q0, d0 and zeta0 must be nonzero")
        if self.q0 in (1, -1):
            raise ValueError("|q0| = 1 specializes q to a root of unity")
        self.m, self.n = m, n
        points = [x for x in (self.q0, self.d0, self.zeta0) if x is not None]
        self.L = math.lcm(*(v for x in points for v in (x.numerator, x.denominator)))
        if self.zeta0 is None and m is not None and n is not None:
            if m == n:
                raise ValueError("m = n is not allowed")
            self.zeta0 = (self.d0 / self.q0) ** (n - m)
        self.one, self.zero = ZL(1, 0, self.L), ZL(0, 0, self.L)
        self._memo: dict = {}

    def _lift(self, x: Fraction) -> ZL:
        """x as n / L^k with the least k; den | L^k needs k < den.bit_length()."""
        den = x.denominator
        k = next((k for k in range(den.bit_length()) if self.L**k % den == 0), None)
        if k is None:
            raise ValueError(f"{x} is not in Z[1/{self.L}]")
        return ZL(x.numerator * self.L**k // den, k, self.L)

    @_memoized
    def qpow(self, e: int) -> ZL:
        return self._lift(self.q0**e)

    @_memoized
    def dpow(self, e: int) -> ZL:
        return self._lift(self.d0**e)

    @_memoized
    def q1pow(self, e: int) -> ZL:
        return self._lift((self.d0 / self.q0) ** e)

    @_memoized
    def zetapow(self, e: int) -> ZL:
        if self.zeta0 is None:
            raise ValueError("no zeta value configured")
        return self._lift(self.zeta0**e)

    @_memoized
    def rational(self, x) -> ZL:
        return self._lift(Fraction(x))

    def render(self, coeff: ZL) -> str:
        return str(coeff)


# ----------------------------------------------------------------------
# sparse vectors


def _accumulate(acc: dict, key, coeff) -> None:
    """Add coeff at key of the support dict acc, keeping no zero coefficient.

    The two hottest loops, the word loop of toroidal._add_product and
    toroidal._add_scaled's loop into a part it owns, write this step in
    place, one Python call per term less.  They store a new entry
    without this zero test: it is a support's coefficient or a product of
    two such, and both coefficient rings are integral domains, so it is
    never zero.
    """
    cur = acc.get(key)
    if cur is None:
        if coeff:
            acc[key] = coeff
    else:
        cur = cur + coeff
        if cur:
            acc[key] = cur
        else:
            del acc[key]


class SparseVector:
    """Finite sum of coefficient * basis key over an owner (a context or space).

    support maps basis keys to nonzero coefficients.  A coefficient needs
    only +, unary -, * by a scalar on the right and truthiness, so it may
    itself be a vector.  No operation changes a support in place; sums
    and linear images build new ones, so supports may be shared.  A
    subclass names the owner slot as its callers read it and writes one
    term in _term.

    base and scale are the support a scaled view shares and its one
    coefficient (toroidal.ScaledView): a vector is its own base, with
    scale None for 1.  Results are built by _like, which a view makes
    build plain vectors.
    """

    __slots__ = ("owner", "support")
    scale = None

    def __init__(self, owner, support: dict):
        self.owner = owner
        self.support = support

    def is_zero(self) -> bool:
        return not self.support

    def __bool__(self) -> bool:
        return bool(self.support)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.owner is other.owner
            and self.support == other.support
        )

    def __add__(self, other):
        if other.owner is not self.owner:
            raise ValueError("vectors live in different spaces")
        support = dict(self.support)
        for key, coeff in other.support.items():
            _accumulate(support, key, coeff)
        return self._like(support)

    def __neg__(self):
        return self._like({k: -c for k, c in self.support.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, coeff):
        """Every coefficient times coeff, on the right: linear's product when
        the coefficients are themselves vectors (toroidal.key_T_apply)."""
        if not coeff:
            return self._like({})
        return self._like({k: c * coeff for k, c in self.support.items()})

    def linear(self, terms):
        """Image under the linear map sending key to the sum of c * key2 over terms(key)."""
        acc: dict = {}
        for key, coeff in self.support.items():
            for key2, c in terms(key):
                _accumulate(acc, key2, coeff * c)
        return self._like(acc)

    def _like(self, support: dict):
        return type(self)(self.owner, support)

    # the sort key of render's key order, None for the keys themselves
    _order = None

    def render(self, limit: int | None = None) -> str:
        """Terms in key order joined by " + ", past limit cut to a key count."""
        support = self.support
        if not support:
            return "0"
        keys = sorted(support, key=self._order)
        parts = [self._term(key, support[key]) for key in keys[:limit]]
        if limit is not None and len(keys) > limit:
            parts.append(f"... ({len(keys)} keys)")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.render(limit=4)}>"


SparseVector.base = SparseVector.support


# ----------------------------------------------------------------------
# normal-ordered mode extraction
#
# The current actions all reduce to extracting one z-mode from
#
#     :[ delta(arg_0) * prod_p psi_{c_p}(arg_p) ]^{boundary}:
#
# where each argument is scale*var_p/z (inverted=False) or
# scale*var_p*z (inverted=True).  The normal ordering splits the
# delta function into its two halves and pairs each half with the
# matching expansion of the psi product, so every mode is a finite
# convolution.  We return multipliers as dense per-slot exponent
# vectors (powers of the var_p) mapped to context coefficients; the
# callers reinterpret the vectors as xi- or Y-exponents.


def psi_half_stream(ctx, c: int, slot: int, scale_pow, eps: int, ell: int, upto: int) -> list[dict]:
    """Stream of one psi factor in one direction, degrees 0..upto."""
    stream: list[dict] = []
    lead = ctx.qpow(eps * c)
    jump = None
    for k in range(upto + 1):
        vec = [0] * ell
        if k == 0:
            stream.append({tuple(vec): lead})
            continue
        if jump is None:
            jump = ctx.qpow(eps * c) - ctx.qpow(-eps * c)
        vec[slot] = eps * k
        stream.append({tuple(vec): jump * scale_pow(eps * k)})
    return stream


def convolve_streams(ctx, streams: list[list[dict]], upto: int) -> list[dict]:
    """Degreewise product of multiplier streams (each indexed 0..upto)."""
    assert streams
    ell = len(next(iter(streams[0][0])))
    acc: list[dict] = [dict() for _ in range(upto + 1)]
    acc[0] = {tuple([0] * ell): ctx.one}
    for stream in streams:
        nxt: list[dict] = [dict() for _ in range(upto + 1)]
        for da, terms_a in enumerate(acc):
            if not terms_a:
                continue
            for db in range(upto + 1 - da):
                terms_b = stream[db]
                for va, ca in terms_a.items():
                    for vb, cb in terms_b.items():
                        key = tuple(x + y for x, y in zip(va, vb))
                        _accumulate(nxt[da + db], key, ca * cb)
        acc = nxt
    return acc


def delta_psi_mode(
    ctx,
    ell: int,
    t: int,
    boundary: str,
    delta_slot: int,
    psi_slots: list[tuple[int, int]],
    scale_pow,
    inverted: bool,
) -> dict:
    """Coefficient of z^{-t} in :[delta(arg) * prod psi_c(arg_p)]^boundary:.

    psi_slots lists (slot, c) pairs; scale_pow(e) is the context
    coefficient of the common scale raised to e; inverted selects
    arguments of shape scale*var*z instead of scale*var/z.  The result
    maps per-slot exponent vectors to coefficients.
    """
    if boundary not in ("+", "-"):
        raise ValueError("boundary must be '+' or '-'")
    # delta-argument powers: for arg = s*v/z the delta contributes
    # (s v_delta)^e at z-degree -e; for arg = s*v*z substitute e -> -e.
    def delta_pow(e: int) -> tuple[tuple, object]:
        ee = -e if inverted else e
        vec = [0] * ell
        vec[delta_slot] = ee
        return tuple(vec), scale_pow(ee)

    # psi halves: direction '+' (z^{-k}): argument small iff not inverted;
    # the '+' half pairs psi degree k with delta degree t - k, the '-' half
    # with t + k
    eps_plus = -1 if inverted else 1
    if boundary == "+":
        halves = ((eps_plus, -1, range(t + 1)), (-eps_plus, 1, range(-t)))
    else:
        halves = ((eps_plus, -1, range(t)), (-eps_plus, 1, range(1 - t)))

    acc: dict = {}
    for eps, step, degrees in halves:
        if not degrees:
            continue
        upto = degrees[-1]
        streams = [
            psi_half_stream(ctx, c, slot, scale_pow, eps, ell, upto)
            for slot, c in psi_slots
        ]
        phi = convolve_streams(ctx, streams, upto) if streams else None
        for k in degrees:
            dvec, dcoeff = delta_pow(t + step * k)
            if phi is None:
                if k == 0:
                    _accumulate(acc, dvec, dcoeff)
                continue
            for vec, coeff in phi[k].items():
                key = tuple(x + y for x, y in zip(vec, dvec))
                _accumulate(acc, key, coeff * dcoeff)
    return acc


def psi_product_mode(
    ctx,
    ell: int,
    t: int,
    sign: str,
    psi_slots: list[tuple[int, int]],
    scale_pow,
    inverted: bool,
) -> dict:
    """Coefficient of z^{-t} in the expansion of prod psi_c(arg_p).

    sign '+' expands every factor at z = infinity (modes t >= 0), '-'
    at z = 0 (modes t <= 0).  Same argument conventions as
    delta_psi_mode.
    """
    if sign == "+":
        if t < 0:
            return {}
        degree, eps = t, (-1 if inverted else 1)
    elif sign == "-":
        if t > 0:
            return {}
        degree, eps = -t, (1 if inverted else -1)
    else:
        raise ValueError("sign must be '+' or '-'")
    streams = [
        psi_half_stream(ctx, c, slot, scale_pow, eps, ell, degree)
        for slot, c in psi_slots
    ]
    if not streams:
        return {tuple([0] * ell): ctx.one} if degree == 0 else {}
    return convolve_streams(ctx, streams, degree)[degree]
