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

Right multiplication by a word is linear and commutes with a left
factor Q^k, so the image of one unit basis word T_w Y^mu under a word
serves every coefficient and every Q power: word_terms caches it per
context and (word, window, mu), and right_mul_T reads its one-letter
entries.

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
BasisKey = tuple[int, tuple[int, ...], tuple[int, ...]]  # (k, window, mu)


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

    def rotate_down(self) -> "AffinePermutation":
        """Conjugate by the rotation: window of pi^{-1} w pi."""
        return AffinePermutation([self(i + 1) - 1 for i in range(1, self.ell + 1)])

    def rotate_up(self) -> "AffinePermutation":
        """Conjugate the other way: window of pi w pi^{-1}."""
        return AffinePermutation([self(i - 1) + 1 for i in range(1, self.ell + 1)])


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
    """Shared configuration: window size, coefficient context, caches."""

    def __init__(self, ell: int, coeffs):
        if ell < 1:
            raise ValueError(f"window size must be >= 1, got {ell}")
        self.ell = ell
        self.R = coeffs
        self._id_window = tuple(range(1, ell + 1))
        self._zero_mu = (0,) * ell
        # word cache: (word, window, mu) -> word_terms of the unit
        # Q^0 T_window Y^mu; filled on demand, values deterministic
        self._word_cache: dict = {}

    def zero(self) -> "DahaElement":
        return DahaElement(self, {})

    def one(self) -> "DahaElement":
        return self.basis(0, self._id_window, self._zero_mu)

    def basis(self, k: int, window, mu) -> "DahaElement":
        return DahaElement(self, {(k, tuple(window), tuple(mu)): self.R.one})

    def element(self, word: Iterable[Token]) -> "DahaElement":
        return apply_word(self.one(), word)


class DahaElement(SparseVector):
    """Finite coefficient combination of normal-form basis words."""

    __slots__ = ()
    ctx = SparseVector.owner

    def __hash__(self) -> int:
        return hash(frozenset(self.support.items()))

    def _term(self, key: BasisKey, coeff) -> str:
        k, window, mu = key
        return (
            f"({self.ctx.R.render(coeff)}) * Q^{k}"
            f" * T[{','.join(map(str, window))}]"
            f" * Y^({','.join(map(str, mu))})"
        )


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
    swapped = list(mu)
    swapped[i - 1], swapped[i] = b, a
    corrections: list[tuple[int, tuple[int, ...]]] = []
    if a > b:
        rng, sign = range(b, a), 1
    elif a < b:
        rng, sign = range(a, b), -1
    else:
        rng, sign = range(0), 1
    for t in rng:
        vec = list(mu)
        vec[i - 1], vec[i] = a + b - t, t
        corrections.append((sign, tuple(vec)))
    return tuple(swapped), corrections


def _basis_mul_T(ctx: DahaContext, key: BasisKey, i: int) -> list:
    """(Q^k T_w Y^mu) T_i as a list of (key, coeff)."""
    k, window, mu = key
    w = AffinePermutation(window)
    swapped, corrections = _bl_exchange(ctx, mu, i)
    out = []
    # T_w T_i part
    if w.has_right_descent(i):
        out.append(((k, w.right_mul_s(i).window, swapped), ctx.R.qpow(2)))
        out.append(((k, window, swapped), ctx.R.qpow(2) - ctx.R.one))
    else:
        out.append(((k, w.right_mul_s(i).window, swapped), ctx.R.one))
    # correction part, pure Y words behind T_w
    factor = ctx.R.qpow(2) - ctx.R.one
    for sign, vec in corrections:
        out.append(((k, window, vec), factor if sign > 0 else -factor))
    return out


def _basis_mul_Q(ctx: DahaContext, key: BasisKey, exp: int) -> tuple[BasisKey, object]:
    k, window, mu = key
    w = AffinePermutation(window)
    if exp == 1:
        zeta = ctx.R.zetapow(-mu[0])
        new = (k + 1, w.rotate_down().window, mu[1:] + mu[:1])
    else:
        zeta = ctx.R.zetapow(mu[-1])
        new = (k - 1, w.rotate_up().window, mu[-1:] + mu[:-1])
    return new, zeta


def x_letter_word(ell: int, j: int, exp: int) -> list[Token]:
    """X_j^{+-1} as a word in T and Q letters (without the q-prefactor)."""
    if not 1 <= j <= ell:
        raise ValueError(f"X index {j} out of range")
    if exp not in (1, -1):
        raise ValueError(f"X exponent must be +-1, got {exp}")
    if exp == 1:
        word = [("T", a, 1) for a in range(j - 1, 0, -1)]
        word.append(("Q", 0, 1))
        word.extend(("T", a, -1) for a in range(ell - 1, j - 1, -1))
    else:
        word = [("T", a, 1) for a in range(j, ell)]
        word.append(("Q", 0, -1))
        word.extend(("T", a, -1) for a in range(1, j))
    return word


def word_terms(ctx: DahaContext, word: tuple, window, mu) -> tuple:
    """T_window Y^mu times word as ((dk, window2, mu2), coeff) pairs, cached.

    dk is the Q exponent, so Q^k T_window Y^mu times word is the sum of
    coeff * Q^(k + dk) T_window2 Y^mu2.  word is a tuple of tokens; the
    entry of the one-token word T_i is read off _basis_mul_T, and any
    other word is built by apply_word, whose T letters read this cache.
    """
    key = (word, window, mu)
    hit = ctx._word_cache.get(key)
    if hit is None:
        if len(word) == 1 and word[0][0] == "T" and word[0][2] == 1:
            terms = _basis_mul_T(ctx, (0, window, mu), word[0][1])
        else:
            terms = apply_word(ctx.basis(0, window, mu), word).support.items()
        merged: dict = {}
        for key2, coeff in terms:
            _accumulate(merged, key2, coeff)
        hit = ctx._word_cache[key] = tuple(merged.items())
    return hit


def right_mul_T(e: DahaElement, i: int, exp: int = 1) -> DahaElement:
    ctx = e.ctx
    if not 1 <= i < ctx.ell:
        raise ValueError(f"T index {i} out of range")
    if exp not in (1, -1):
        raise ValueError(f"T exponent must be +-1, got {exp}")
    word, acc = (("T", i, 1),), {}
    for (k, window, mu), coeff in e.support.items():
        for (dk, win2, mu2), c2 in word_terms(ctx, word, window, mu):
            _accumulate(acc, (k + dk, win2, mu2), coeff * c2)
    out = DahaElement(ctx, acc)
    if exp == -1:
        # T_i^{-1} = q^{-2} T_i + (q^{-2} - 1)
        qm2 = ctx.R.qpow(-2)
        return out.scale(qm2) + e.scale(qm2 - ctx.R.one)
    return out


def right_mul_Y(e: DahaElement, j: int, exp: int = 1) -> DahaElement:
    ctx = e.ctx
    if not 1 <= j <= ctx.ell:
        raise ValueError(f"Y index {j} out of range")
    acc: dict = {}
    for (k, window, mu), coeff in e.support.items():
        mu2 = list(mu)
        mu2[j - 1] += exp
        acc[(k, window, tuple(mu2))] = coeff
    return DahaElement(ctx, acc)


def right_mul_Q(e: DahaElement, exp: int = 1) -> DahaElement:
    if exp not in (1, -1):
        raise ValueError(f"Q exponent must be +-1, got {exp}")
    ctx = e.ctx
    return e.linear(lambda key: [_basis_mul_Q(ctx, key, exp)])


def right_mul_X(e: DahaElement, j: int, exp: int = 1) -> DahaElement:
    ctx = e.ctx
    out = apply_word(e, x_letter_word(ctx.ell, j, exp))
    return out if j == 1 else out.scale(ctx.R.qpow(-2 * (j - 1) * exp))


def apply_word(e: DahaElement, word: Iterable[Token]) -> DahaElement:
    for kind, idx, exp in word:
        if kind == "T":
            e = right_mul_T(e, idx, exp)
        elif kind == "Y":
            e = right_mul_Y(e, idx, exp)
        elif kind == "X":
            e = right_mul_X(e, idx, exp)
        elif kind == "Q":
            e = right_mul_Q(e, exp)
        else:
            raise ValueError(f"unknown token kind {kind!r}")
    return e


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
