"""Balanced tensor vectors over the double affine Hecke algebra.

A vector here pairs a Hecke-algebra factor (the regular module, lazily
expanded in normal form) with a label tuple for an ell-fold tensor
power of the labeled super vector space, balanced over the finite
Hecke subalgebra: acting with the two-slot exchange operator on the
tensor side equals right multiplication by the matching T letter on
the algebra side.  Storage keeps nondecreasing label tuples only;
arbitrary tuples are rewritten by an insertion sort that pushes one T
letter into the algebra factor per descent.

Operators provided:

  * current modes at the finite nodes, as exact z^{-r} coefficients of
    delta/psi products evaluated at q1-shifted points Y_p * z, the
    algebra factor picking up a Laurent monomial in the commuting Y
    letters; at the wrap-around node 0, mode r is the rotation's
    conjugate of the node-1 mode r, times q1^{s_kappa r}, composed
    into one letter;
  * the Chevalley triple at every node through looprep's one copy of
    the slot rules, node 0 reading its labels cyclically; at node 0 in
    three variants (which invertible letter multiplies the algebra
    factor: Y, Y with a d-shift, or X);
  * the label-rotation map and its inverse, multiplying by inverse X
    letters on wrapped slots;
  * the two sides of the balancing relation on unsorted keys (a T
    letter on the factor, the exchange on the key), and the diagonal
    weight action, which is the Chevalley letter t_i.

The rotation identities and the rotation's respect for the balancing
relation are a relation table in verify; this module checks nothing.

Equality is decided per key through the parabolic symmetrizer of the
repeated-label blocks: a factor w kills the key exactly when w times
the block symmetrizer vanishes.  The test is linear in w, so sums are
taken flat, {key: {Hecke basis key: coeff}} in any order (a Hecke
basis key is hecke's int k * 2^KEY_BITS + i), and pruned
once by _collect, the one normalize; equality is emptiness of a
difference.  A one-term factor c Q^k T_w Y^mu, a nonzero scalar times a
unit, never kills its key (the symmetrizer is nonzero), nor does any
factor at a key without a repeated label: _collect keeps both.

Current modes, Chevalley operators, diagonal weights, the descent sort
and the rotation act on the key and only right-multiply the factor, so
each is a letter with one cached term list per (letter, key): a sorted
target key, a Y-exponent shift or None, a Hecke word (X letters, then
the sort's T letters) and one coefficient.  A wrap-node current's
terms join the term lists of the rotation, the node-1 mode and the
inverse rotation into one word each, the mode's Y shift written inside
it as Y letters.  _add_product applies a term to a factor through
hecke.y_shifted for the Y shift and hecke.word_table, the images of
the unit factors T_w Y^mu under a word, one table per word and algebra
context, read by each term at its key's pair number; or as one scaled
copy when the term
has no word and its target part is empty (the dead-key test sums the
symmetrizer's words the same way).  The sums are exact, so pruning and
residuals are those of the formulas on whole factors.

Right multiplication by a word adds to the Q-power k of a basis word
Q^k T_w Y^mu the word's own degree (T and Y letters 0, Q and X letters
+-1) and reads k nowhere else, and key death is tested by right
multiplication too.  So vectors w_b (x) k of one key can be evaluated
as the one vector sum_b Q^(N b) w_b (x) k (join_batch, N = 2^32, which
adds N b * 2^KEY_BITS to each key): every letter maps the band of
Q-degrees around N b to itself, _collect tests
death per band, and split_batch cuts any image back into the images of
the w_b (x) k, term for term.  Only this module knows that tag.
"""

from __future__ import annotations

import itertools

from qtschur.hecke import (
    KEY_MASK,
    AffinePermutation,
    DahaContext,
    DahaElement,
    default_battery,
    q_shift,
    right_mul_T,
    word_table,
    y_shifted,
)
from qtschur.looprep import (
    ChevalleyGen,
    _chevalley_summands,
    hecke_exchange_terms,
    mode_terms,
    tensor_leg_apply,
)
from qtschur.scalar import SparseVector, _accumulate
from qtschur.superdata import ParityData, tau_power


class FunctorSpace:
    """Parity data, tensor length, coefficients, and the shared caches.

    Rotated variants (label shift) share the algebra context and a
    family registry so that conjugation round-trips land in the same
    space object.
    """

    def __init__(self, pd: ParityData, ell: int, coeffs, daha=None, _family=None):
        self.pd = pd
        self.ell = ell
        self.R = coeffs
        self.kappa = pd.kappa
        self.daha = DahaContext(ell, coeffs) if daha is None else daha
        self._family = {pd.s: self} if _family is None else _family
        self._family.setdefault(pd.s, self)
        self._sym_cache: dict = {}
        self._letter_terms: dict = {}
        self._rotated: dict = {}

    def rotated(self, r: int) -> "FunctorSpace":
        hit = self._rotated.get(r)
        if hit is None:
            pd2 = tau_power(self.pd, r)
            hit = self._family.get(pd2.s)
            if hit is None:
                hit = FunctorSpace(pd2, self.ell, self.R, self.daha, self._family)
            self._rotated[r] = hit
        return hit

    def zero(self) -> "FunctorVector":
        return FunctorVector(self, {})

    def basis(self, labels, w: DahaElement | None = None) -> "FunctorVector":
        labels = tuple(labels)
        if len(labels) != self.ell:
            raise ValueError(f"expected {self.ell} labels, got {labels}")
        if not all(1 <= j <= self.kappa for j in labels):
            raise ValueError(f"labels must lie in 1..{self.kappa}: {labels}")
        w = self.daha.one() if w is None else w
        sort = lambda space, _, key: [(key, None, (), space.R.one)]
        return _letter_apply(FunctorVector(self, {labels: w}), "sort", sort)

    def all_keys(self):
        return itertools.combinations_with_replacement(range(1, self.kappa + 1), self.ell)

    # -- descent rewriting ------------------------------------------------

    def sort_schedule(self, labels: tuple[int, ...]):
        """(T-letter word, extra coefficient, sorted labels) for one tuple.

        Leftmost descents first; each descent contributes one T letter
        and one factor sign * q^{-1}, where the sign is the parity
        product of the two exchanged labels.  Equal labels never move.
        """
        pd = self.pd
        lab = list(labels)
        word: list = []
        sign = 1
        a = 0
        while a < len(lab) - 1:
            if lab[a] > lab[a + 1]:
                if pd.vector_parity(lab[a]) and pd.vector_parity(lab[a + 1]):
                    sign = -sign
                word.append(("T", a + 1, 1))
                lab[a], lab[a + 1] = lab[a + 1], lab[a]
                a = max(a - 1, 0)
            else:
                a += 1
        coeff = self.R.qpow(-len(word))
        return tuple(word), coeff if sign > 0 else -coeff, tuple(lab)

    # -- repeated-label symmetrizers --------------------------------------

    def symmetrizer(self, labels: tuple[int, ...]):
        """T-letter words with coefficients whose right action tests key death.

        Product over the blocks of equal labels; an even-label block of
        size k contributes the sum of all T_w over its local symmetric
        group, an odd-label block the alternating sum with (-q^{-2})
        per letter.  Blocks of size one contribute nothing.
        """
        hit = self._sym_cache.get(labels)
        if hit is None:
            R = self.R
            terms: list[tuple[tuple, object]] = [((), R.one)]
            pos = 0
            for label, group in itertools.groupby(labels):
                size = len(list(group))
                if size > 1:
                    odd = self.pd.vector_parity(label)
                    block: list[tuple[tuple, object]] = []
                    local_words = sorted(
                        AffinePermutation(p).reduced_word()
                        for p in itertools.permutations(range(1, size + 1))
                    )
                    for local_word in local_words:
                        word = tuple(("T", pos + a, 1) for a in local_word)
                        if odd:
                            coeff = R.qpow(-2 * len(word))
                            if len(word) % 2:
                                coeff = -coeff
                        else:
                            coeff = R.one
                        block.append((word, coeff))
                    terms = [
                        (w1 + w2, c1 * c2) for w1, c1 in terms for w2, c2 in block
                    ]
                pos += size
            hit = tuple(terms)
            self._sym_cache[labels] = hit
        return hit

    def key_is_dead(self, labels: tuple[int, ...], w: DahaElement) -> bool:
        """True when w tensor the key vanishes in the balanced product."""
        if w.is_zero():
            return True
        sym = self.symmetrizer(labels)
        if len(sym) == 1:
            return False
        acc: dict = {}
        for word, coeff in sym:
            _add_product(acc, w, None, word, coeff)
        return not acc


def _add_product(acc: dict, w: DahaElement, vec, word, coeff) -> None:
    """Add coeff * w * Y^vec * word (vec None for no Y letters) to a flat support.

    With no word and an empty acc it is one scaled copy of w, exactly:
    both coefficient rings are integral domains, so no product of
    nonzero coefficients is zero, and a Y shift is injective on keys,
    so no two terms meet.  The word loop adds each term as
    scalar._accumulate does, written in place, and stores a new product
    without a zero test for the same reason.
    """
    support, ctx = w.support, w.ctx
    if vec is not None:
        support = y_shifted(ctx, support, vec)
    if not word:
        if not acc:
            acc.update({key: c * coeff for key, c in support.items()})
        else:
            for key, c in support.items():
                _accumulate(acc, key, c * coeff)
        return
    table = word_table(ctx, word)
    for key, c in support.items():
        c1 = c * coeff
        for delta, c2 in table[key & KEY_MASK]:
            key2, x = key + delta, c1 * c2
            cur = acc.get(key2)
            if cur is None:
                acc[key2] = x
            else:
                cur = cur + x
                if cur:
                    acc[key2] = cur
                else:
                    del acc[key2]


def _letter_apply(fv: "FunctorVector", letter, build, out=None) -> "FunctorVector":
    """fv under a letter that acts on keys and right-multiplies factors.

    build(space, letter, key) yields (unsorted key, Y-exponent vector or
    None, Hecke word, coeff); its terms are sorted in out (fv's space by
    default), merged and cached per (letter, key) as (target, vector,
    word, coeff), the word ending in the sort's T letters, and applied
    to every factor by _add_product.
    """
    space = fv.space
    out = space if out is None else out
    cache, acc = space._letter_terms, {}
    for labels, w in fv.support.items():
        terms = cache.get((letter, labels))
        if terms is None:
            terms = _cached_terms(space, letter, build, labels, out)
        for target, vec, word, coeff in terms:
            _add_product(acc.setdefault(target, {}), w, vec, word, coeff)
    return _collect(out, acc)


def _cached_terms(space: FunctorSpace, letter, build, labels, out: FunctorSpace) -> tuple:
    """The cached term list of one letter on one key, built on a miss (see _letter_apply)."""
    terms = space._letter_terms.get((letter, labels))
    if terms is None:
        merged: dict = {}
        for key, vec, word, coeff in build(space, letter, labels):
            sort_word, sort_coeff, target = out.sort_schedule(key)
            _accumulate(merged, (target, vec, word + sort_word), coeff * sort_coeff)
        terms = space._letter_terms[letter, labels] = tuple((*h, c) for h, c in merged.items())
    return terms


def _collect(space: FunctorSpace, acc: dict) -> "FunctorVector":
    """The vector of a flat sum {key: {Hecke basis key: coeff}}, each dead part dropped.

    Death is tested per Q-degree band of a part (see join_batch), so each
    vector of a batch is pruned as it would be alone; an unbatched vector
    has one band.  A one-term band never kills its key, nor does any part
    at a key with no repeated label (its symmetrizer is 1), so only the
    rest go to key_is_dead.
    """
    out, daha = {}, space.daha
    for labels, part in acc.items():
        if len(part) < 2 or len(set(labels)) == len(labels):
            if part:
                out[labels] = DahaElement(daha, part)
            continue
        bands: dict = {}
        for hk, c in part.items():
            bands.setdefault((hk + _HALF_BAND) >> _BAND_BITS, {})[hk] = c
        kept: dict = {}
        for band in bands.values():
            if len(band) == 1 or not space.key_is_dead(labels, DahaElement(daha, band)):
                kept.update(band)
        if kept:
            out[labels] = DahaElement(daha, kept)
    return FunctorVector(space, out)


# ----------------------------------------------------------------------
# batches: vectors of one key evaluated as one (see the module docstring)

# the Q-degree distance N = 2^32 between two vectors of a batch, as a
# key distance (keys are k * 2^KEY_BITS + i); every Q-power of a battery
# factor and of its images lies far inside one band
_BAND = q_shift(1 << 32)
_BAND_BITS = _BAND.bit_length() - 1
_HALF_BAND = _BAND >> 1


def join_batch(vectors: list) -> "FunctorVector":
    """The sum of Q^(N b) w_b (x) k over the one-key vectors w_b (x) k of one space:
    key K of w_b moves to K + _BAND * b."""
    space = vectors[0].space
    ((labels, _),) = vectors[0].support.items()
    part: dict = {}
    for b, fv in enumerate(vectors):
        ((key, w),) = fv.support.items()
        if fv.space is not space or key != labels:
            raise ValueError("a batch holds one-key vectors of one key and space")
        shift = _BAND * b
        for key, c in w.support.items():
            if not -_HALF_BAND <= key < _HALF_BAND:
                raise ValueError(f"Q-power {space.daha.decode(key)[0]} is outside a batch band")
            part[key + shift] = c
    return FunctorVector(space, {labels: DahaElement(space.daha, part)})


def split_batch(fv: "FunctorVector", count: int) -> list:
    """The count vectors of a batched one (see join_batch), each term shifted by
    -_BAND * b into vector b; a term outside every band raises ValueError."""
    parts: list = [{} for _ in range(count)]
    for labels, w in fv.support.items():
        for key, c in w.support.items():
            b = (key + _HALF_BAND) >> _BAND_BITS
            if not 0 <= b < count:
                raise ValueError(
                    f"Q-power {fv.space.daha.decode(key)[0]} lies outside the {count} bands"
                    " of the batch")
            parts[b].setdefault(labels, {})[key - _BAND * b] = c
    daha = fv.space.daha
    return [
        FunctorVector(fv.space, {labels: DahaElement(daha, p) for labels, p in part.items()})
        for part in parts
    ]


class FunctorVector(SparseVector):
    """Finite sum of (algebra factor) tensor (nondecreasing key).

    The factors are the coefficients; a sum drops the keys it kills, and
    equality is emptiness of the difference.
    """

    __slots__ = ()
    space = SparseVector.owner

    def __add__(self, other: "FunctorVector") -> "FunctorVector":
        total = SparseVector.__add__(self, other).support
        return _collect(self.space, {labels: w.support for labels, w in total.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctorVector):
            return NotImplemented
        return (self - other).is_zero()

    def _term(self, labels, w: DahaElement) -> str:
        return f"[{w.render()}] (x) v({','.join(map(str, labels))})"


# ----------------------------------------------------------------------
# current modes at finite nodes


def _mode_terms(space: FunctorSpace, letter, labels):
    """A finite-node current's terms: the loop-leg slot rules, the arguments
    q1-scaled and inverted (Y_p * z)."""
    family, i, r = letter
    terms = mode_terms(space, family, i, r, labels, space.R.q1pow, True)
    for labels2, sign, mult in terms:
        for vec, c in mult.items():
            yield labels2, vec if any(vec) else None, (), c if sign > 0 else -c


def _wrap_terms(space: FunctorSpace, letter, labels):
    """Mode r at node 0: the rotation's conjugate of the node-1 mode r, times q1^{s_kappa r}.

    Each term is a path of cached terms through the rotated space: psi,
    the node-1 mode, psi^-1.  Its word concatenates theirs, the mode's
    Y shift written as Y letters in its place (they do not commute with
    the T and X letters after them).  The middle keys are not pruned: a
    dead key's image under a letter is dead, so the balanced sum is
    unchanged.
    """
    family, _, r = letter
    up = space.rotated(1)
    scale = space.R.q1pow(space.pd.sign(space.kappa) * r)
    for key1, _, word1, c1 in _cached_terms(space, ("psi", 1), _rotation_terms, labels, up):
        for key2, vec, word2, c2 in _cached_terms(up, (family, 1, r), _mode_terms, key1, up):
            shift = tuple(("Y", j, e) for j, e in enumerate(vec, 1) if e) if vec else ()
            for key3, _, word3, c3 in _cached_terms(
                up, ("psi", -1), _rotation_terms, key2, space
            ):
                coeff = c1 * c2 * c3
                yield key3, None, word1 + shift + word2 + word3, coeff * scale if r else coeff


def toroidal_mode_apply(family: str, i: int, r: int, fv: FunctorVector) -> FunctorVector:
    """Exact z^{-r} mode of the labeled current at node i (node 0: see _wrap_terms)."""
    if family not in ("E", "F", "K+", "K-"):
        raise ValueError(f"unknown current family {family!r}")
    if not 0 <= i < fv.space.kappa:
        raise ValueError(f"no node {i}")
    return _letter_apply(fv, (family, i, r), _mode_terms if i else _wrap_terms)


# ----------------------------------------------------------------------
# Chevalley operators (all nodes; three wrap-around variants)


def _chevalley_terms(space: FunctorSpace, letter, labels):
    kind, node, variant = letter
    mono = (0,) * space.ell
    for legs, j, shift in _chevalley_summands(space, ChevalleyGen(kind, node)):
        hit = tensor_leg_apply(space, legs, labels)
        if hit is None:
            continue
        labels2, c = hit
        if j is None:
            yield labels2, None, (), c
        elif variant == "horizontal":
            yield labels2, None, (("X", j + 1, shift),), c
        else:
            c = c * space.R.dpow(-shift) if variant == "vertical" else c
            yield labels2, mono[:j] + (-shift,) + mono[j + 1 :], (), c


def functor_chevalley_apply(
    kind: str, node: int, fv: FunctorVector, variant: str = "affine"
) -> FunctorVector:
    """Chevalley generator acting through the tensor legs.

    Finite nodes act on the label tuple alone.  The wrap-around node
    additionally multiplies the algebra factor by an invertible letter
    depending on the variant: "affine" uses Y_j^{-(nu shift)},
    "vertical" the same with a d^{-(nu shift)} scalar, "horizontal"
    X_j^{+(nu shift)}.
    """
    known = kind in ("e", "f", "t", "tinv") and variant in ("affine", "vertical", "horizontal")
    if not (known and 0 <= node < fv.space.kappa):
        raise ValueError(f"no Chevalley letter {kind!r} at node {node} ({variant!r})")
    return _letter_apply(fv, (kind, node, variant), _chevalley_terms)


# ----------------------------------------------------------------------
# label rotation


def _rotation_terms(space: FunctorSpace, letter, labels):
    """The rotation by step = +1 or -1 of one key, as a letter term.

    Wrapped slots (top label for +1, label 1 for -1) multiply the factor
    by X^{-step}, and all labels shift by step cyclically; _letter_apply
    sorts the key in the rotated space.  Keys may be arbitrary tuples.
    """
    _, step = letter
    kappa = space.kappa
    wrap = kappa if step == 1 else 1
    word = tuple(("X", a, -step) for a, j in enumerate(labels, 1) if j == wrap)
    yield tuple((j + step - 1) % kappa + 1 for j in labels), None, word, space.R.one


def psi_apply(fv: FunctorVector) -> FunctorVector:
    return _letter_apply(fv, ("psi", 1), _rotation_terms, fv.space.rotated(1))


def psi_inverse(fv: FunctorVector) -> FunctorVector:
    """Inverse rotation: shift labels down, restore X letters on wraps."""
    return _letter_apply(fv, ("psi", -1), _rotation_terms, fv.space.rotated(-1))


def factor_T_apply(i: int, fv: FunctorVector) -> FunctorVector:
    """w T_i on the factor of every key; keys stay as given, unsorted.

    With key_T_apply, the two sides of the balancing relation on a raw
    vector: the rotation of either must agree.
    """
    return FunctorVector(fv.space, {k: right_mul_T(w, i) for k, w in fv.support.items()})


def key_T_apply(i: int, fv: FunctorVector) -> FunctorVector:
    """The two-slot exchange on slots i, i+1 of every key, left unsorted."""
    return fv.linear(lambda labels: hecke_exchange_terms(fv.space, i, labels))


# ----------------------------------------------------------------------
# diagonal weights


def weight_apply(i: int, fv: FunctorVector) -> FunctorVector:
    """Diagonal action t_i, q^(s_i l_i - s_{i+1} l_{i+1}) on a key with l_j labels j."""
    return _letter_apply(fv, ("t", i, "affine"), _chevalley_terms)


# ----------------------------------------------------------------------
# battery


def functor_battery(space: FunctorSpace):
    """Labeled test vectors: the algebra battery crossed with all keys."""
    out = []
    for wname, w in default_battery(space.daha):
        for labels in space.all_keys():
            name = f"{wname}|{','.join(map(str, labels))}"
            out.append((name, space.basis(labels, w)))
    return out
