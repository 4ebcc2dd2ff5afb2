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

import json
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

    The terms are held by decoded key (k, window, mu) and encoded once at
    the end, so the reference does not read the key encoding.  T_i
    rewrites each basis word by the exchange and quadratic rules
    (hecke._basis_mul_T), T_i^-1 = q^-2 T_i + (q^-2 - 1), Y_j shifts
    mu_j, Q rotates (hecke._basis_mul_Q), and X_j^+-1 is its T and Q
    word times q^(-2 (j - 1) exp).
    """
    ctx = e.ctx
    terms = _stepwise_terms(ctx, {ctx.decode(key): c for key, c in e.support.items()}, word)
    return DahaElement(ctx, {ctx.key(*key): c for key, c in terms.items()})


def _stepwise_terms(ctx, terms: dict, word) -> dict:
    R = ctx.R

    def linear(images):
        out: dict = {}
        for key, c in terms.items():
            for key2, c2 in images(key):
                x = c * c2
                total = x if key2 not in out else out[key2] + x
                if total:
                    out[key2] = total
                else:
                    out.pop(key2, None)
        return out

    for kind, idx, exp in word:
        if kind == "T":
            image = linear(lambda key: hecke._basis_mul_T(ctx, key, idx))
            if exp == -1:
                qm2 = R.qpow(-2)
                terms = {key: c * (qm2 - R.one) for key, c in terms.items()}
                for key, c in image.items():
                    total = c * qm2 if key not in terms else terms[key] + c * qm2
                    if total:
                        terms[key] = total
                    else:
                        del terms[key]
            else:
                terms = image
        elif kind == "Y":
            terms = {
                (k, window, mu[: idx - 1] + (mu[idx - 1] + exp,) + mu[idx:]): c
                for (k, window, mu), c in terms.items()
            }
        elif kind == "Q":
            terms = linear(lambda key: [hecke._basis_mul_Q(ctx, key, exp)])
        else:
            terms = _stepwise_terms(ctx, terms, hecke.x_letter_word(ctx.ell, idx, exp))
            terms = {key: c * R.qpow(-2 * (idx - 1) * exp) for key, c in terms.items()}
    return terms


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
    return image * space.R.q1pow(space.pd.sign(space.kappa) * r)


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


# ----------------------------------------------------------------------
# reports


def report_json(report) -> str:
    """The report as json.dumps encodes a payload built from its verdict blocks.

    One row per vector an instance runs on, in battery order, and one
    excluded row per excluded instance; the summary counts the rows'
    statuses.  Reads Verdicts' blocks, instances, names and stages, and
    none of the code that turns them into rows.
    """
    verdicts, rows = report.results, []
    for instance, block in zip(verdicts.instances, verdicts.blocks):
        relation, nodes, modes, form, *_, vectors = instance
        head = {"relation": relation, "nodes": list(nodes), "modes": list(modes)}
        if block is None:
            rows.append(dict(head, vector="-", status="excluded",
                             note="mn = 2 incompatible with kappa >= 4"))
            continue
        if form is not None:
            head["form"] = form
        codes, residuals = block
        lo = 0 if vectors is None else vectors.start
        for pos, code in enumerate(codes):
            row = dict(head, vector=verdicts.names[lo + pos], status="fail" if code else "pass")
            if len(verdicts.stages) > 1:
                for s, stage in enumerate(verdicts.stages, 1):
                    row[stage] = ("pass" if not code or s < code
                                  else "fail" if s == code else "skipped")
            if code:
                row["residual"] = residuals[pos]
            rows.append(row)
    summary = {status: sum(row["status"] == status for row in rows)
               for status in ("pass", "fail", "excluded")}
    payload = {"suite": report.suite, "params": report.params, "results": rows,
               "summary": summary}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
