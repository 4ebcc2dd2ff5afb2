"""Reference computations the tests hold the package against.

Nothing in qtschur calls these: each is an independent, plainly written
copy of a quantity the package computes another way (sums and products
of Laurent polynomials as term dicts, the numeric context's values, the
psi streams of the mode extraction, the group
law behind right_mul_s, the rotation behind a Q letter, the inverse of
a right multiplication, the
product of a Hecke element and a word letter by letter, the
wrap-node current as a conjugation by the rotation, the diagonal
weight exponent in closed form).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from qtschur import hecke
from qtschur import toroidal as tor
from qtschur.hecke import AffinePermutation, DahaElement, Token
from qtschur.scalar import Scalar, q_pow
from qtschur.superdata import ParityData


# ----------------------------------------------------------------------
# Laurent polynomials as term dicts


def terms_sum(x: dict, y: dict, sign: int = 1) -> dict:
    """Terms of x + sign * y, with no zero coefficient."""
    out = dict(x)
    for key, coeff in y.items():
        out[key] = out.get(key, 0) + sign * coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def terms_product(x: dict, y: dict) -> dict:
    """Terms of x * y, with no zero coefficient."""
    out: dict = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            key = tuple(a + b for a, b in zip(kx, ky))
            out[key] = out.get(key, 0) + cx * cy
    return {key: coeff for key, coeff in out.items() if coeff}


# ----------------------------------------------------------------------
# psi expansions


def psi_coeffs(r: int, direction: str, count: int) -> list[Scalar]:
    """First ``count`` expansion coefficients of psi_r(z).

    direction '+' expands at infinity (powers z^{-k}), '-' at zero
    (powers z^k).  Both expansions stabilize after the constant term:
    at zero the stream is q^r, then (q^r - q^{-r}) forever; at infinity
    swap r for -r.
    """
    if direction not in ("+", "-"):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    if count < 0:
        raise ValueError("count must be >= 0")
    lead = -r if direction == "+" else r
    out: list[Scalar] = []
    if count > 0:
        out.append(q_pow(lead))
    if count > 1:
        jump = q_pow(lead) - q_pow(-lead)
        out.extend([jump] * (count - 1))
    return out


# ----------------------------------------------------------------------
# numeric specialization


def _exact_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def specialize(x: Scalar, q0, d0, zeta0=None) -> Fraction:
    """Evaluate at exact rational points q = q0, d = d0.

    Half-integer exponents require q0 (resp. d0) to be an exact square
    of a rational.  zeta0 is only consulted when the formal central
    monomial actually occurs; callers working at a concrete (m, n)
    should pass (d0/q0)^(n-m).
    """
    q0, d0 = Fraction(q0), Fraction(d0)
    if q0 == 0 or d0 == 0:
        raise ValueError("q0 and d0 must be nonzero")
    if q0 in (1, -1):
        raise ValueError("|q0| = 1 specializes q to a root of unity")
    needs = {(key[0] % 2, key[1] % 2) for key in x._terms}
    qhalf = dhalf = None
    if any(a for a, _ in needs):
        qhalf = _exact_sqrt(q0)
        if qhalf is None:
            raise ValueError(f"q0 = {q0} has no exact rational square root")
    if any(b for _, b in needs):
        dhalf = _exact_sqrt(d0)
        if dhalf is None:
            raise ValueError(f"d0 = {d0} has no exact rational square root")
    total = Fraction(0)
    for (a, b, c), coeff in x._terms.items():
        val = coeff
        if a:
            val *= q0 ** (a // 2) if a % 2 == 0 else qhalf**a
        if b:
            val *= d0 ** (b // 2) if b % 2 == 0 else dhalf**b
        if c:
            if zeta0 is None:
                raise ValueError("formal zeta present but no zeta0 given")
            val *= Fraction(zeta0) ** c
        total += val
    return total


# ----------------------------------------------------------------------
# affine permutations and Hecke words


def compose(w: AffinePermutation, other: AffinePermutation) -> AffinePermutation:
    """(w . other)(i) = w(other(i))."""
    return AffinePermutation([w(other(i)) for i in range(1, w.ell + 1)])


def inverse(w: AffinePermutation) -> AffinePermutation:
    ell = w.ell
    out = [0] * ell
    for p, v in enumerate(w.window, start=1):
        # w(p + k*ell) = v + k*ell, so the inverse sends v + k*ell to p + k*ell
        res = (v - 1) % ell
        k = (v - 1 - res) // ell
        out[res] = p - k * ell
    return AffinePermutation(out)


def rotate_down(w: AffinePermutation) -> AffinePermutation:
    """Conjugate by the rotation pi(i) = i + 1: window of pi^{-1} w pi."""
    return AffinePermutation([w(i + 1) - 1 for i in range(1, w.ell + 1)])


def rotate_up(w: AffinePermutation) -> AffinePermutation:
    """Conjugate the other way: window of pi w pi^{-1}."""
    return AffinePermutation([w(i - 1) + 1 for i in range(1, w.ell + 1)])


def inverse_word(word: Iterable[Token]) -> list[Token]:
    return [(kind, idx, -exp) for kind, idx, exp in reversed(list(word))]


def stepwise_word(e: DahaElement, word: Iterable[Token]) -> DahaElement:
    """e times word, letter by letter on whole elements, with no word cache.

    T_i rewrites each basis word by the exchange and quadratic rules
    (hecke._basis_mul_T), T_i^-1 = q^-2 T_i + (q^-2 - 1), Y_j shifts
    mu_j, Q rotates (hecke._basis_mul_Q), and X_j^+-1 is its T and Q
    word times q^(-2 (j - 1) exp).
    """
    ctx, R = e.ctx, e.ctx.R
    for kind, idx, exp in word:
        if kind == "T":
            image = e.linear(lambda key: hecke._basis_mul_T(ctx, key, idx))
            qm2 = R.qpow(-2)
            e = image if exp == 1 else image.scale(qm2) + e.scale(qm2 - R.one)
        elif kind == "Y":
            e = DahaElement(ctx, {
                (k, window, mu[: idx - 1] + (mu[idx - 1] + exp,) + mu[idx:]): c
                for (k, window, mu), c in e.support.items()
            })
        elif kind == "Q":
            e = e.linear(lambda key: [hecke._basis_mul_Q(ctx, key, R.one, exp)])
        else:
            e = stepwise_word(e, hecke.x_letter_word(ctx.ell, idx, exp))
            e = e.scale(R.qpow(-2 * (idx - 1) * exp))
    return e


# ----------------------------------------------------------------------
# wrap-around-node currents


def wrap_current_by_conjugation(family: str, r: int, v: tor.FunctorVector) -> tor.FunctorVector:
    """Mode r of a node-0 current on v, step by step.

    psi^-1 (node-1 mode r (psi v)) times q1^{s_kappa r}: the rotation,
    the finite-node current and the inverse rotation each applied to a
    whole vector and normalized before the next.
    """
    space = v.space
    image = tor.psi_inverse(tor.toroidal_mode_apply(family, 1, r, tor.psi_apply(v)))
    return image.scale(space.R.q1pow(space.pd.sign(space.kappa) * r))


# ----------------------------------------------------------------------
# diagonal weights


def weight_exponent(pd: ParityData, labels, i: int) -> int:
    """Diagonal eigenvalue exponent s_i l_i - s_{i+1} l_{i+1} on one key.

    l_j counts the labels j; node 0 pairs the labels kappa and 1.
    """
    kappa = pd.kappa
    node = i % kappa
    lo = kappa if node == 0 else node
    hi = node + 1
    li = sum(1 for j in labels if j == lo)
    li1 = sum(1 for j in labels if j == hi)
    return pd.sign(lo) * li - pd.sign(hi) * li1
