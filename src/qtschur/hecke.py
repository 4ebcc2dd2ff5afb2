"""Double affine Hecke algebra of type gl_l as an exact rewriting engine.

Elements are kept in the normal form

    sum of  coeff * Q^k * T_{w} * Y^mu

with k an integer, w an affine permutation of window size l, and mu an
integer vector of Y-exponents.  Everything the package ever multiplies
on the right is a word in T_i^{+-1}, Y_j^{+-1}, X_j^{+-1}, Q^{+-1},
and each of those letters acts on a basis word by a finite local
rewrite:

  * Y letters merge into mu (the Y's commute among themselves);
  * T letters first move past Y^mu by the Bernstein-Lusztig exchange,
    whose correction term is a telescoping Laurent polynomial in
    Y_i Y_{i+1}^{-1} (no division ever happens), then fold into T_w by
    the usual length/quadratic rule;
  * Q conjugates the T and Y parts through a rotation of the affine
    diagram and increments k, picking up a central-constant power per
    wrapped Y-exponent;
  * X letters expand into a fixed word in T's and one Q.

A basis key is one int, k * 2**KEY_BITS + i, where i numbers the pair
(window, mu) in the order its DahaContext first meets it (decode and
key convert; past 2**KEY_BITS pairs key raises ValueError).  One fold,
_fold, multiplies a flat support {key: coeff} by a word letter by
letter; apply_word and right_mul_T/Y/Q/X are that fold on an element.
As right multiplication is linear and commutes with Q^k, each word has
one entry table per context (word_table), filled per pair number on
first read: the image of the unit T_w Y^mu, as terms at offsets from
the key, so a term reads table[K & KEY_MASK] and builds no tuple.  The
balanced operators' words and each T_i, which every T_i^{+-1} reads,
have one; Y and Q move pair numbers through cached per-letter tables,
and X is its T and Q word.

The quadratic relation is normalized as (T_i + 1)(T_i - q^2) = 0, so
T_i^{-1} = q^{-2} T_i + (q^{-2} - 1).

Coefficients are whatever the supplied context produces (exact Laurent
polynomials or plain rationals); the central constant is either formal
or a concrete power of d q^{-1}, again decided by the context.

This module states only the algebra, its test-element battery and the
composite words (Q_ij, P_r) as products; every relation table,
including the presentation and the conjugation identities, lives in
verify, which checks them.  This module checks nothing itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from qtschur.scalar import SparseVector, _accumulate

Token = tuple[str, int, int]  # (kind in "TXYQ", index, exponent +-1)
BasisKey = tuple[int, tuple[int, ...], tuple[int, ...]]  # a decoded key (k, window, mu)

# a key is k * 2**KEY_BITS + i for the pair number i of (window, mu)
KEY_BITS = 20
KEY_MASK = (1 << KEY_BITS) - 1


class AffinePermutation:
    """Bijection w of the integers with w(i + l) = w(i) + l.

    Stored by its window (w(1), ..., w(l)), normalized so that
    sum(w(i) - i) = 0; these are exactly the affine permutations, and
    together with the rotation Q they make up the extended group.
    """

    __slots__ = ("window",)

    def __init__(self, window: Sequence[int]):
        window = tuple(window)
        ell = len(window)
        if ell < 1:
            raise ValueError("window must be nonempty")
        if sorted(v % ell for v in window) != list(range(ell)):
            raise ValueError(f"window residues must be distinct mod {ell}: {window}")
        if sum(window) != ell * (ell + 1) // 2:
            raise ValueError(f"window must be normalized: {window}")
        self.window = window

    @classmethod
    def identity(cls, ell: int) -> "AffinePermutation":
        return cls(range(1, ell + 1))

    @property
    def ell(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        ell = len(self.window)
        return self.window[(i - 1) % ell] + ((i - 1) // ell) * ell

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, len(self.window) + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, AffinePermutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"AffinePermutation{self.window}"

    def right_mul_s(self, i: int) -> "AffinePermutation":
        """Window of self * s_i (precompose with the transposition)."""
        ell = self.ell
        w = list(self.window)
        if i == 0:
            w[0], w[ell - 1] = self.window[ell - 1] - ell, self.window[0] + ell
        elif 1 <= i < ell:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            raise ValueError(f"s index {i} out of range for window size {ell}")
        return AffinePermutation(w)

    def has_right_descent(self, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w(i) > w(i+1)."""
        if i == 0:
            return self.window[-1] - self.ell > self.window[0]
        if not 1 <= i < self.ell:
            raise ValueError(f"s index {i} out of range for window size {self.ell}")
        return self.window[i - 1] > self.window[i]

    def length(self) -> int:
        ell = self.ell
        total = 0
        for a in range(ell):
            for b in range(a + 1, ell):
                diff = self.window[b] - self.window[a]
                total += abs(diff // ell) if diff < 0 else diff // ell
        return total

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word, smallest descent first when peeling.

        The letters multiply left to right: w = s_{a_1} ... s_{a_k}
        for the returned word (a_1, ..., a_k).
        """
        cur = self
        peeled = []
        while not cur.is_identity():
            for i in range(cur.ell):
                if cur.has_right_descent(i):
                    peeled.append(i)
                    cur = cur.right_mul_s(i)
                    break
            else:
                raise AssertionError(f"non-identity without descent: {cur}")
        word = tuple(reversed(peeled))
        assert len(word) == self.length()
        return word


def affine_permutations_upto(ell: int, max_len: int) -> list[AffinePermutation]:
    """All affine permutations of length <= max_len, in BFS order."""
    start = AffinePermutation.identity(ell)
    seen = {start}
    frontier = [start]
    out = [start]
    gens = range(ell) if ell > 1 else range(0)
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for i in gens:
                if not w.has_right_descent(i):
                    v = w.right_mul_s(i)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
                        out.append(v)
        frontier = nxt
    return out


class DahaContext:
    """Shared configuration: window size, coefficient context, key numbering, caches.

    Pairs (window, mu) are numbered in the order key first meets them, so
    keys of one context compare, and keys of two contexts do not.
    """

    def __init__(self, ell: int, coeffs):
        if ell < 1:
            raise ValueError(f"window size must be >= 1, got {ell}")
        self.ell = ell
        self.R = coeffs
        self._pairs: list = []  # pair number -> (window, mu)
        self._numbers: dict = {}  # (window, mu) -> pair number
        # per-letter and per-word tables by pair number, each made and
        # filled on first read, values deterministic: word -> its entry
        # table (see word_table); Y-exponent shift vector -> key offset
        # (see y_shifted); Q exponent -> (key offset, central-constant
        # power) of _basis_mul_Q
        self._word_cache = _Tables(self, _unit_terms)
        self._shifts = _Tables(self, _shift_offset)
        self._rotations = _Tables(self, _rotation_entry)

    def key(self, k: int, window, mu) -> int:
        """The key of Q^k T_window Y^mu, numbering (window, mu) on first sight."""
        pair = (tuple(window), tuple(mu))
        i = self._numbers.get(pair)
        if i is None:
            i = len(self._pairs)
            if i >> KEY_BITS:
                raise ValueError(f"more than 2**{KEY_BITS} (window, mu) pairs in one context")
            self._numbers[pair] = i
            self._pairs.append(pair)
        return (k << KEY_BITS) + i

    def decode(self, key: int) -> BasisKey:
        """(k, window, mu) of a key."""
        window, mu = self._pairs[key & KEY_MASK]
        return key >> KEY_BITS, window, mu

    def zero(self) -> "DahaElement":
        return DahaElement(self, {})

    def one(self) -> "DahaElement":
        return self.basis(0, range(1, self.ell + 1), (0,) * self.ell)

    def basis(self, k: int, window, mu) -> "DahaElement":
        return DahaElement(self, {self.key(k, window, mu): self.R.one})

    def element(self, word: Iterable[Token]) -> "DahaElement":
        return apply_word(self.one(), word)


class DahaElement(SparseVector):
    """Finite coefficient combination of normal-form basis words, keyed by int.

    Terms render in decoded (k, window, mu) order, which does not depend
    on the context's numbering.
    """

    __slots__ = ()
    ctx = SparseVector.owner

    def __hash__(self) -> int:
        return hash(frozenset(self.support.items()))

    def _order(self, key: int) -> BasisKey:
        return self.ctx.decode(key)

    def _term(self, key: int, coeff) -> str:
        k, window, mu = self.ctx.decode(key)
        return (
            f"({self.ctx.R.render(coeff)}) * Q^{k}"
            f" * T[{','.join(map(str, window))}]"
            f" * Y^({','.join(map(str, mu))})"
        )


class _Table(dict):
    """Values by pair number, each fill(i) stored on its first read."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, i: int):
        hit = self[i] = self.fill(i)
        return hit


class _Tables(dict):
    """One context's _Tables by letter or word, each made on its first read."""

    __slots__ = ("ctx", "fill")

    def __init__(self, ctx: "DahaContext", fill):
        super().__init__()
        self.ctx, self.fill = ctx, fill

    def __missing__(self, name):
        ctx, fill = self.ctx, self.fill
        table = self[name] = _Table(lambda i: fill(ctx, name, i))
        return table


# ----------------------------------------------------------------------
# token-level right multiplication


def _bl_exchange(ctx: DahaContext, mu: tuple[int, ...], i: int):
    """Y^mu T_i = T_i Y^{s_i mu} + (q^2 - 1) * (Laurent correction).

    Returns (swapped mu, list of correction exponent vectors with signs).
    With a = mu_i, b = mu_{i+1} the correction is the telescoping sum
    +sum_{t=b}^{a-1} Y_i^{a+b-t} Y_{i+1}^t for a > b (negated with the
    roles of a and b swapped when a < b, empty when a = b), which is
    exactly the geometric-series expansion of the usual rational form.
    """
    a, b = mu[i - 1], mu[i]
    rng, sign = (range(b, a), 1) if a >= b else (range(a, b), -1)
    corrections = [(sign, mu[: i - 1] + (a + b - t, t) + mu[i + 1 :]) for t in rng]
    return mu[: i - 1] + (b, a) + mu[i + 1 :], corrections


def _basis_mul_T(ctx: DahaContext, key: BasisKey, i: int) -> list:
    """(Q^k T_w Y^mu) T_i as (key, coeff) pairs, the T_w T_i part first."""
    k, window, mu = key
    w, R = AffinePermutation(window), ctx.R
    swapped, corrections = _bl_exchange(ctx, mu, i)
    factor, ws = R.qpow(2) - R.one, w.right_mul_s(i).window
    if w.has_right_descent(i):
        out = [((k, ws, swapped), R.qpow(2)), ((k, window, swapped), factor)]
    else:
        out = [((k, ws, swapped), R.one)]
    # correction part, pure Y words behind T_w
    out.extend(((k, window, vec), factor if sign > 0 else -factor) for sign, vec in corrections)
    return out


def _basis_mul_Q(ctx: DahaContext, key: BasisKey, exp: int) -> tuple[BasisKey, object]:
    """(Q^k T_w Y^mu) Q^exp as one (key, central-constant power).

    Q conjugates w by the rotation pi(i) = i + 1: Q^+1 gives the window
    of pi^-1 w pi, (w(2) - 1, ..., w(l) - 1, w(1) + l - 1), and Q^-1
    that of pi w pi^-1, (w(l) - l + 1, w(1) + 1, ..., w(l-1) + 1).
    """
    k, window, mu = key
    ell = ctx.ell
    if exp == 1:
        window = tuple([v - 1 for v in window[1:]]) + (window[0] + ell - 1,)
        return (k + 1, window, mu[1:] + mu[:1]), ctx.R.zetapow(-mu[0])
    window = (window[-1] - ell + 1,) + tuple([v + 1 for v in window[:-1]])
    return (k - 1, window, mu[-1:] + mu[:-1]), ctx.R.zetapow(mu[-1])


def x_letter_word(ell: int, j: int, exp: int) -> list[Token]:
    """X_j^{+-1} as a word in T and Q letters (without the q-prefactor)."""
    if not 1 <= j <= ell:
        raise ValueError(f"X index {j} out of range")
    if exp not in (1, -1):
        raise ValueError(f"X exponent must be +-1, got {exp}")
    if exp == 1:
        up, down = range(j - 1, 0, -1), range(ell - 1, j - 1, -1)
    else:
        up, down = range(j, ell), range(1, j)
    return [("T", a, 1) for a in up] + [("Q", 0, exp)] + [("T", a, -1) for a in down]


def word_table(ctx: DahaContext, word: tuple) -> dict:
    """word's entry table: pair number i -> ((delta, coeff), ...), cached.

    The unit T_window Y^mu of pair i times word is the sum of coeff at
    key i + delta, so any key K of pair i times word is the sum of coeff
    at K + delta (right multiplication commutes with Q^k).  An entry is
    filled on its first read: the one-token word T_i's from _basis_mul_T,
    any other word's from _fold's image of the unit, whose T letters read
    T_i's table.
    """
    return ctx._word_cache[word]


def _unit_terms(ctx: DahaContext, word: tuple, i: int) -> tuple:
    if len(word) == 1 and word[0][0] == "T" and word[0][2] == 1:
        terms: dict = {}
        for key, coeff in _basis_mul_T(ctx, ctx.decode(i), word[0][1]):
            _accumulate(terms, ctx.key(*key), coeff)
    else:
        terms = _fold(ctx, {i: ctx.R.one}, word)
    return tuple([(key - i, coeff) for key, coeff in terms.items()])


def y_shifted(ctx: DahaContext, support: dict, vec: tuple) -> dict:
    """A flat support times Y^vec: each key K moved to K + its pair's offset.

    A Y shift is injective on keys, so no two terms meet.
    """
    shift = ctx._shifts[vec]
    return {key + shift[key & KEY_MASK]: c for key, c in support.items()}


def _shift_offset(ctx: DahaContext, vec: tuple, i: int) -> int:
    window, mu = ctx._pairs[i]
    return ctx.key(0, window, tuple([a + b for a, b in zip(mu, vec)])) - i


def _rotation_entry(ctx: DahaContext, exp: int, i: int) -> tuple:
    key, zpow = _basis_mul_Q(ctx, ctx.decode(i), exp)
    return ctx.key(*key) - i, zpow


def q_shift(k: int) -> int:
    """The key offset of Q^k on the left: key(j + k, w, mu) - key(j, w, mu)."""
    return k << KEY_BITS


def _fold(ctx: DahaContext, support: dict, word: Iterable[Token]) -> dict:
    """A flat support {key: coeff} times word, one letter at a time.

    T_i reads the entry table of the one-token word T_i, and so does
    T_i^{-1} = q^{-2} T_i + (q^{-2} - 1), merging the terms that meet; Y
    and Q send each key to one key through their per-letter tables (Q
    with a central-constant power), and X is _mul_X.  No coefficient of
    the result is zero.
    """
    ell, R = ctx.ell, ctx.R
    for kind, i, exp in word:
        if kind == "X":
            support = _mul_X(ctx, support, i, exp)
        elif kind == "Y":
            if not 1 <= i <= ell:
                raise ValueError(f"Y index {i} out of range")
            support = y_shifted(ctx, support, (0,) * (i - 1) + (exp,) + (0,) * (ell - i))
        elif exp not in (1, -1):
            raise ValueError(f"{kind} exponent must be +-1, got {exp}")
        elif kind == "Q":
            rotation, out = ctx._rotations[exp], {}
            for key, c in support.items():
                delta, zpow = rotation[key & KEY_MASK]
                out[key + delta] = c * zpow
            support = out
        elif kind == "T":
            if not 1 <= i < ell:
                raise ValueError(f"T index {i} out of range")
            table, out = word_table(ctx, (("T", i, 1),)), {}
            qm2, rest = (R.qpow(-2), R.qpow(-2) - R.one) if exp == -1 else (None, None)
            for key, c in support.items():
                c1 = c if qm2 is None else c * qm2
                for delta, c2 in table[key & KEY_MASK]:
                    _accumulate(out, key + delta, c1 * c2)
                if qm2 is not None:
                    _accumulate(out, key, c * rest)
            support = out
        else:
            raise ValueError(f"unknown token kind {kind!r}")
    return support


def _mul_X(ctx: DahaContext, support: dict, j: int, exp: int) -> dict:
    """_fold's X_j^{+-1}: its T and Q word (x_letter_word), then the prefactor q^{-2(j-1)exp}."""
    out = _fold(ctx, support, x_letter_word(ctx.ell, j, exp))
    pre = ctx.R.qpow(-2 * (j - 1) * exp)
    return {key: c * pre for key, c in out.items()} if j > 1 else out


def apply_word(e: DahaElement, word: Iterable[Token]) -> DahaElement:
    return DahaElement(e.ctx, _fold(e.ctx, e.support, word))


def right_mul_T(e: DahaElement, i: int, exp: int = 1) -> DahaElement:
    return apply_word(e, (("T", i, exp),))


def right_mul_Y(e: DahaElement, j: int, exp: int = 1) -> DahaElement:
    return apply_word(e, (("Y", j, exp),))


def right_mul_Q(e: DahaElement, exp: int = 1) -> DahaElement:
    return apply_word(e, (("Q", 0, exp),))


def right_mul_X(e: DahaElement, j: int, exp: int = 1) -> DahaElement:
    return apply_word(e, (("X", j, exp),))


# ----------------------------------------------------------------------
# composite words


def composite(kind: str, **params) -> list[Token]:
    """Generator words for the named composite elements.

    T_range_up(i, j) is T_i T_{i+1} ... T_j; Qij(i, j) is X_i T_{i,j};
    Pr(r, ell) the telescope of Qij factors whose c-th factor from the
    right is Q_{c, c+r-1}.  Each word is a product read left to right,
    as apply_word reads it.
    """
    if kind in ("T_range_up", "Qij"):
        i, j = params["i"], params["j"]
        if not 1 <= i <= j:
            raise ValueError(f"{kind} needs 1 <= i <= j, got i={i}, j={j}")
        word: list[Token] = [("T", a, 1) for a in range(i, j + 1)]
        return [("X", i, 1)] + word if kind == "Qij" else word
    if kind == "Pr":
        r, ell = params["r"], params["ell"]
        if not 1 <= r < ell:
            raise ValueError(f"Pr needs 1 <= r < ell, got r={r}, ell={ell}")
        word = []
        for c in range(ell - r, 0, -1):
            word.extend(composite("Qij", i=c, j=c + r - 1))
        return word
    raise ValueError(f"unknown composite kind {kind!r}")


# ----------------------------------------------------------------------
# test elements


def default_battery(ctx: DahaContext) -> list[tuple[str, DahaElement]]:
    """Labeled test elements: 1, Q^{+-1}, short T_w, small Y^mu."""
    ell = ctx.ell
    out: list[tuple[str, DahaElement]] = [("1", ctx.one())]
    out.append(("Q", ctx.element([("Q", 0, 1)])))
    out.append(("Q^-1", ctx.element([("Q", 0, -1)])))
    idw = tuple(range(1, ell + 1))
    for w in affine_permutations_upto(ell, 2):
        if not w.is_identity():
            out.append((f"T{list(w.window)}", ctx.basis(0, w.window, (0,) * ell)))
    for mu in bounded_tuples(ell, 2):
        if any(mu):
            out.append((f"Y{list(mu)}", ctx.basis(0, idw, mu)))
    return out


def bounded_tuples(k: int, bound: int) -> list[tuple[int, ...]]:
    """Integer k-tuples whose absolute values sum to at most bound, in lexicographic order."""

    def rec(prefix, left):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for v in range(-left, left + 1):
            yield from rec(prefix + [v], left - abs(v))

    return list(rec([], bound))
