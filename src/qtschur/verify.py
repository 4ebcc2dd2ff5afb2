"""Relation suites over the balanced tensor spaces, with JSON reports.

Each suite expands a finite list of relation instances (a relation id,
node indices, a mode tuple) and evaluates the difference of the two
sides on every vector of a deterministic battery: the Hecke-algebra
battery crossed with all nondecreasing label tuples.  Current
relations are checked in mode-truncated form: the coefficient of
z^{-r} in z * E(z) is E_{r+1}, the delta function delta(w/z) couples
modes by r + s, and the diagonal series K^+ and K^- carry modes r >= 0
and r <= 0, their mode-zero terms the two inverse diagonal generators.  All
checks run at trivial central charge, where the dressed K-K exchange
collapses to plain commutation.

Suites can run symbolically (exact Laurent coefficients), numerically
(a rational sample point), or both; in combined mode the numeric pass
runs first and gates the symbolic comparison, and both verdicts are
recorded per row.  Instances are evaluated in chunks of consecutive
instances (one chunk per worker task), vector-major within a chunk:
each battery vector goes through every instance with one memo of
operator images, dropped before the next vector, and rows are emitted
in instance order.  Reports are deterministic: same configuration and
seed give byte-identical JSON, independent of the worker count.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from qtschur import toroidal as tor
from qtschur.hecke import (
    DahaContext,
    apply_word,
    check_daha_presentation,
    default_battery,
    toshow_identities,
)
from qtschur.looprep import schur_weyl_commutation_check
from qtschur.scalar import NumericContext, SymbolicContext
from qtschur.superdata import ParityData, cartan, mmatrix, node_parity

SUITES = ("finite", "affine", "toroidal", "daha", "rotation")


class ConfigError(ValueError):
    """Invalid run parameters; the command line maps this to usage exit."""


@dataclass(frozen=True)
class RunConfig:
    m: int = 3
    n: int = 1
    ell: int = 1
    modes: int = 2
    parity: str = "standard"
    mode: str = "both"
    q0: str = "2"
    d0: str = "3"
    seed: int = 0
    jobs: int = 1

    def parity_data(self) -> ParityData:
        if self.parity in ("standard", ""):
            return ParityData.standard(self.m, self.n)
        word = self.parity
        if set(word) - set("+-"):
            raise ConfigError(f"parity word may only use + and -: {word!r}")
        if word.count("+") != self.m or word.count("-") != self.n:
            raise ConfigError(
                f"parity word {word!r} must have {self.m} plus and {self.n} minus signs"
            )
        return ParityData.from_string(word)

    def validate_common(self) -> None:
        """Suite-independent parameter checks; raise ConfigError on violations."""
        if self.m < 1 or self.n < 1:
            raise ConfigError("m and n must be positive")
        if self.ell < 1:
            raise ConfigError("ell must be at least 1")
        if self.modes < 0:
            raise ConfigError("modes bound must be nonnegative")
        if self.mode not in ("symbolic", "numeric", "both"):
            raise ConfigError(f"mode must be symbolic, numeric, or both: {self.mode!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        try:
            q0, d0 = Fraction(self.q0), Fraction(self.d0)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"q0 and d0 must be rationals: {exc}") from exc
        if self.mode != "symbolic":
            if q0 in (0, 1, -1) or d0 == 0:
                raise ConfigError("numeric points need q0 not in {0, 1, -1}, d0 nonzero")
        self.parity_data()

    def validate(self, suite: str) -> list[str]:
        """Raise ConfigError on violations; return a list of warnings."""
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}")
        self.validate_common()
        kappa = self.m + self.n
        if suite == "toroidal" and kappa < 4:
            raise ConfigError("κ ≥ 4 required")
        if suite == "affine" and kappa < 3:
            raise ConfigError("the affine suite needs kappa >= 3")
        if suite in ("daha", "affine", "rotation", "toroidal") and self.m == self.n:
            raise ConfigError("m = n is not allowed (the wrap parameter degenerates)")
        if suite == "finite" and self.ell < 2:
            raise ConfigError("the finite suite needs ell >= 2")
        warnings = []
        if self.ell >= kappa - 2:
            warnings.append(
                f"ell = {self.ell} is outside the equivalence regime (ell < {kappa - 2})"
            )
        return warnings

    def key(self) -> tuple:
        return dataclasses.astuple(self)


def _stages(cfg: RunConfig) -> list[str]:
    if cfg.mode == "both":
        return ["numeric", "symbolic"]
    return [cfg.mode]


def _coeffs(cfg: RunConfig, stage: str, zeta: str):
    """Coefficient ring for one evaluation stage.

    zeta selects how the wrap parameter is handled symbolically:
    "formal" keeps it an indeterminate, "folded" sets it to the
    (d/q)^{n-m} monomial, "none" promises it is never used.
    """
    if stage == "numeric":
        if zeta == "none":
            return NumericContext(Fraction(cfg.q0), Fraction(cfg.d0))
        return NumericContext(Fraction(cfg.q0), Fraction(cfg.d0), cfg.m, cfg.n)
    if zeta == "folded":
        return SymbolicContext(m=cfg.m, n=cfg.n)
    return SymbolicContext(formal_zeta=True)


# ----------------------------------------------------------------------
# reports


@dataclass
class Report:
    suite: str
    params: dict
    results: list

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "excluded": 0}
        for row in self.results:
            out[row["status"]] += 1
        return out

    def ok(self) -> bool:
        return self.summary()["fail"] == 0

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "results": self.results,
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    def render_summary(self) -> str:
        lines = []
        per: dict = {}
        for row in self.results:
            rel = row["relation"]
            per.setdefault(rel, {"pass": 0, "fail": 0, "excluded": 0})
            per[rel][row["status"]] += 1
        for rel in sorted(per):
            counts = per[rel]
            tag = "ok" if counts["fail"] == 0 else "FAIL"
            if counts["excluded"] and not (counts["pass"] or counts["fail"]):
                tag = "excluded"
            lines.append(
                f"  {rel:<16} pass {counts['pass']:>6}  fail {counts['fail']:>4}  {tag}"
            )
        total = self.summary()
        lines.append(
            f"{self.suite}: {total['pass']} pass, {total['fail']} fail, "
            f"{total['excluded']} excluded"
        )
        return "\n".join(lines)


def _report(suite: str, cfg: RunConfig, rows: list) -> Report:
    pd = cfg.parity_data()
    params = {
        "m": cfg.m,
        "n": cfg.n,
        "ell": cfg.ell,
        "R": cfg.modes,
        "parity": pd.to_string(),
        "mode": cfg.mode,
    }
    for row in rows:
        row.setdefault("nodes", [])
        row.setdefault("modes", [])
    return Report(suite, params, rows)


def _combine_stage_rows(cfg: RunConfig, per_stage: list[tuple[str, list]]) -> list:
    """Zip bulk per-stage rows into combined rows, numeric verdict first."""
    if len(per_stage) == 1:
        return per_stage[0][1]
    combined = []
    for entries in zip(*(rows for _, rows in per_stage)):
        base = dict(entries[-1])
        statuses = {}
        for (tag, _), row in zip(per_stage, entries):
            assert row["relation"] == base["relation"] and row["vector"] == base["vector"]
            statuses[tag] = row["status"]
        base["status"] = "fail" if "fail" in statuses.values() else "pass"
        base.update(statuses)
        if base["status"] == "pass":
            base.pop("residual", None)
        else:
            for _, row in zip(per_stage, entries):
                if "residual" in row:
                    base["residual"] = row["residual"]
                    break
        combined.append(base)
    return combined


# ----------------------------------------------------------------------
# mode-level relation instances


def _mode_tuples(k: int, bound: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int) -> None:
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for v in range(-left, left + 1):
            prefix.append(v)
            rec(prefix, left - abs(v))
            prefix.pop()

    rec([], bound)
    return out


def toroidal_instances(pd: ParityData, bound: int) -> list[tuple]:
    """(relation, nodes, modes, form) covering every defining relation."""
    kappa = pd.kappa
    nodes = list(range(kappa))
    pairs2 = _mode_tuples(2, bound)
    inst: list[tuple] = []
    for i, j in itertools.combinations(nodes, 2):
        inst.append(("CK", (i, j), (), "KK"))
    for i in nodes:
        for j in nodes:
            for r in range(-bound, bound + 1):
                inst.append(("CK", (i, j), (r,), "KE"))
                inst.append(("CK", (i, j), (r,), "KF"))
    for form, keep in (("+", lambda r, s: r >= 0 and s >= 0),
                       ("-", lambda r, s: r <= 0 and s <= 0)):
        for i in nodes:
            for j in nodes:
                if i > j:
                    continue
                for r, s in pairs2:
                    if not keep(r, s) or (i == j and r > s):
                        continue
                    inst.append(("KK1", (i, j), (r, s), form))
    for i in nodes:
        for j in nodes:
            for r, s in pairs2:
                if r <= 0 <= s:
                    inst.append(("KK2", (i, j), (r, s), None))
    for rel in ("KE", "KF"):
        for form, keep in (("+", lambda r: r >= -1), ("-", lambda r: r <= 0)):
            for i in nodes:
                for j in nodes:
                    for r, s in pairs2:
                        if keep(r):
                            inst.append((rel, (i, j), (r, s), form))
    for i in nodes:
        for j in nodes:
            for r, s in pairs2:
                inst.append(("EF", (i, j), (r, s), None))
    for i in nodes:
        for j in nodes:
            if i > j:
                continue
            zero = cartan(pd, i, j) == 0
            for r, s in pairs2:
                if i == j and r > s:
                    continue
                if zero:
                    inst.append(("EEFF-zero", (i, j), (r, s), "EE"))
                    inst.append(("EEFF-zero", (i, j), (r, s), "FF"))
                else:
                    inst.append(("EE-quadratic", (i, j), (r, s), None))
                    inst.append(("FF-quadratic", (i, j), (r, s), None))
    triples = [t for t in _mode_tuples(3, bound) if t[0] <= t[1]]
    quads = [t for t in _mode_tuples(4, bound) if t[0] <= t[1]]
    for i in nodes:
        if cartan(pd, i, i):
            for j in ((i - 1) % kappa, (i + 1) % kappa):
                for ms in triples:
                    inst.append(("Serre1", (i, j), ms, None))
                    inst.append(("Serre2", (i, j), ms, None))
        else:
            for ms in quads:
                inst.append(("Serre3", (i,), ms, None))
                inst.append(("Serre4", (i,), ms, None))
    inst.append(("Serre5", (), (), None))
    inst.append(("Serre6", (), (), None))
    for i in nodes:
        inst.append(("weights", (i,), (), None))
    inst.append(("K-chain", (), (), None))
    return inst


def affine_instances(pd: ParityData) -> list[tuple]:
    """Chevalley-level instances, once per wrap-around variant."""
    kappa = pd.kappa
    nodes = list(range(kappa))
    inst: list[tuple] = []
    for variant in ("affine", "vertical"):
        for i, j in itertools.combinations(nodes, 2):
            inst.append(("tt", (i, j), (), variant))
        for i in nodes:
            for j in nodes:
                inst.append(("te", (i, j), (), variant))
                inst.append(("tf", (i, j), (), variant))
        for i in nodes:
            for j in nodes:
                inst.append(("ef", (i, j), (), variant))
        for i in nodes:
            for j in nodes:
                if i <= j and cartan(pd, i, j) == 0:
                    inst.append(("ee-zero", (i, j), (), variant))
                    inst.append(("ff-zero", (i, j), (), variant))
        for i in nodes:
            if cartan(pd, i, i):
                for j in ((i - 1) % kappa, (i + 1) % kappa):
                    inst.append(("serre-e-cubic", (i, j), (), variant))
                    inst.append(("serre-f-cubic", (i, j), (), variant))
            else:
                inst.append(("serre-e-quartic", (i,), (), variant))
                inst.append(("serre-f-quartic", (i,), (), variant))
        inst.append(("t-chain", (), (), variant))
    return inst


# ----------------------------------------------------------------------
# nested deformed brackets


def _expr_terms(pd: ParityData, expr) -> tuple[list, dict, int]:
    """Expand a bracket tree into (leaf-sequence, sign, q-exponent) terms.

    The bracket lb{X, Y} = XY - (-1)^{|X||Y|} q^{-(wt X, wt Y)} YX
    accumulates weights as node-indexed root sums paired through the
    Cartan matrix; raising leaves count +1, lowering leaves -1.
    """
    if expr[0] == "leaf":
        leaf = expr[1]
        sign = 1 if leaf[0] in ("E", "e") else -1
        return [((leaf,), 1, 0)], {leaf[1]: sign}, node_parity(pd, leaf[1])
    _, left, right = expr
    tl, wl, pl = _expr_terms(pd, left)
    tr, wr, pr = _expr_terms(pd, right)
    pairing = sum(
        cartan(pd, i, j) * ei * ej for i, ei in wl.items() for j, ej in wr.items()
    )
    flip = -1 if (pl and pr) else 1
    terms = []
    for sl, cl, el in tl:
        for sr, cr, er in tr:
            terms.append((sl + sr, cl * cr, el + er))
            terms.append((sr + sl, -flip * cl * cr, el + er - pairing))
    weight = dict(wl)
    for j, e in wr.items():
        weight[j] = weight.get(j, 0) + e
    return terms, weight, (pl + pr) % 2


def _image(memo: dict, op: str, node: int, arg, v):
    """Image of v under one operator, looked up in or added to memo.

    arg is the mode of a current (E, F, K+, K-) or the wrap-around
    variant of a Chevalley generator.  The memo is keyed on id(v) and
    keeps v next to its image, so the id stays v's while the memo
    lives; a word of several letters hits it because an inner image
    comes back as the same object.  Sharing images between relations is
    sound because no FunctorVector or DahaElement operation changes a
    support dict in place: sums, scalings and products build new ones.
    A zero input is its own image and skips both the memo and the call:
    every operator maps a space to itself (a rotation round trip lands
    in the same space object).
    """
    if not v.support:
        return v
    key = (op, node, arg, id(v))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if op in ("E", "F", "K+", "K-"):
        out = tor.toroidal_mode_apply(op, node, arg, v)
    else:
        out = tor.functor_chevalley_apply(op, node, v, variant=arg)
    memo[key] = (v, out)
    return out


def _apply_leaves(memo, leaves, u):
    if not leaves:
        return u
    return _image(memo, *leaves[0], _apply_leaves(memo, leaves[1:], u))


def _expr_apply(memo, space, pd, expr, u):
    terms, _, _ = _expr_terms(pd, expr)
    acc = space.zero()
    for leaves, sign, qexp in terms:
        v = _apply_leaves(memo, leaves, u)
        acc = acc + v.scale(space.R.qpow(qexp) * space.R.rational(sign))
    return acc


def _leaf(fam, node, arg=None):
    return ("leaf", (fam, node, arg))


def _lb(left, right):
    return ("lb", left, right)


# ----------------------------------------------------------------------
# instance evaluation (difference of the two sides)


def _super_sign(pd: ParityData, i: int, j: int) -> int:
    return -1 if node_parity(pd, i) and node_parity(pd, j) else 1


def _toroidal_diff(space, memo, pd, relation, nodes, modes, form, u):
    R = space.R
    A = lambda fam, node, r, v: _image(memo, fam, node, r, v)
    if relation == "CK":
        if form == "KK":
            i, j = nodes
            return A("K+", i, 0, A("K+", j, 0, u)) - A("K+", j, 0, A("K+", i, 0, u))
        i, j = nodes
        (r,) = modes
        fam = "E" if form == "KE" else "F"
        a = cartan(pd, i, j) * (1 if fam == "E" else -1)
        return A("K+", i, 0, A(fam, j, r, u)) - A(fam, j, r, A("K+", i, 0, u)).scale(
            R.qpow(a)
        )
    if relation == "KK1":
        i, j = nodes
        r, s = modes
        fam = "K+" if form == "+" else "K-"
        return A(fam, i, r, A(fam, j, s, u)) - A(fam, j, s, A(fam, i, r, u))
    if relation == "KK2":
        i, j = nodes
        r, s = modes
        return A("K-", i, r, A("K+", j, s, u)) - A("K+", j, s, A("K-", i, r, u))
    if relation in ("KE", "KF"):
        i, j = nodes
        r, s = modes
        kfam = "K+" if form == "+" else "K-"
        fam = "E" if relation == "KE" else "F"
        a = cartan(pd, i, j) * (1 if fam == "E" else -1)
        dm = R.dpow(mmatrix(pd, i, j))
        qa = R.qpow(a)
        lhs = A(kfam, i, r + 1, A(fam, j, s, u)).scale(dm) - A(
            kfam, i, r, A(fam, j, s + 1, u)
        ).scale(qa)
        rhs = A(fam, j, s, A(kfam, i, r + 1, u)).scale(dm * qa) - A(
            fam, j, s + 1, A(kfam, i, r, u)
        )
        return lhs - rhs
    if relation == "EF":
        i, j = nodes
        r, s = modes
        sgn = R.rational(_super_sign(pd, i, j))
        lhs = A("E", i, r, A("F", j, s, u)) - A("F", j, s, A("E", i, r, u)).scale(sgn)
        lhs = lhs.scale(R.qpow(1) - R.qpow(-1))
        if i != j:
            return lhs
        t = r + s
        return lhs - A("K+", i, t, u) + A("K-", i, t, u)
    if relation == "EEFF-zero":
        i, j = nodes
        r, s = modes
        fam = "E" if form == "EE" else "F"
        sgn = R.rational(_super_sign(pd, i, j))
        return A(fam, i, r, A(fam, j, s, u)) - A(fam, j, s, A(fam, i, r, u)).scale(sgn)
    if relation in ("EE-quadratic", "FF-quadratic"):
        i, j = nodes
        r, s = modes
        fam = "E" if relation.startswith("EE") else "F"
        a = cartan(pd, i, j) * (1 if fam == "E" else -1)
        dm = R.dpow(mmatrix(pd, i, j))
        qa = R.qpow(a)
        sgn = R.rational(_super_sign(pd, i, j))
        lhs = A(fam, i, r + 1, A(fam, j, s, u)).scale(dm) - A(
            fam, i, r, A(fam, j, s + 1, u)
        ).scale(qa)
        rhs = A(fam, j, s, A(fam, i, r + 1, u)).scale(dm * qa) - A(
            fam, j, s + 1, A(fam, i, r, u)
        )
        return lhs - rhs.scale(sgn)
    if relation in ("Serre1", "Serre2"):
        i, j = nodes
        r1, r2, s = modes
        fam = "E" if relation == "Serre1" else "F"
        out = space.zero()
        for x, y in ((r1, r2), (r2, r1)):
            expr = _lb(_leaf(fam, i, x), _lb(_leaf(fam, i, y), _leaf(fam, j, s)))
            out = out + _expr_apply(memo, space, pd, expr, u)
        return out
    if relation in ("Serre3", "Serre4"):
        (i,) = nodes
        r1, r2, w1, w2 = modes
        fam = "E" if relation == "Serre3" else "F"
        kappa = pd.kappa
        ip, im = (i + 1) % kappa, (i - 1) % kappa
        out = space.zero()
        for x, y in ((r1, r2), (r2, r1)):
            expr = _lb(
                _leaf(fam, i, x),
                _lb(_leaf(fam, ip, w1), _lb(_leaf(fam, i, y), _leaf(fam, im, w2))),
            )
            out = out + _expr_apply(memo, space, pd, expr, u)
        return out
    if relation == "weights":
        (i,) = nodes
        labels = next(iter(u.support))
        expected = u.scale(R.qpow(tor.weight_exponent(pd, labels, i)))
        return A("K+", i, 0, u) - expected
    if relation == "K-chain":
        return tor.k_chain_apply(u) - u
    raise ValueError(f"unknown relation {relation!r}")


def _affine_diff(space, memo, pd, relation, nodes, modes, variant, u):
    R = space.R
    C = lambda kind, node, v: _image(memo, kind, node, variant, v)
    if relation == "tt":
        i, j = nodes
        return C("t", i, C("t", j, u)) - C("t", j, C("t", i, u))
    if relation in ("te", "tf"):
        i, j = nodes
        kind = "e" if relation == "te" else "f"
        a = cartan(pd, i, j) * (1 if kind == "e" else -1)
        return C("t", i, C(kind, j, u)) - C(kind, j, C("t", i, u)).scale(R.qpow(a))
    if relation == "ef":
        i, j = nodes
        sgn = R.rational(_super_sign(pd, i, j))
        lhs = C("e", i, C("f", j, u)) - C("f", j, C("e", i, u)).scale(sgn)
        lhs = lhs.scale(R.qpow(1) - R.qpow(-1))
        if i != j:
            return lhs
        return lhs - C("t", i, u) + C("tinv", i, u)
    if relation in ("ee-zero", "ff-zero"):
        i, j = nodes
        kind = "e" if relation == "ee-zero" else "f"
        sgn = R.rational(_super_sign(pd, i, j))
        return C(kind, i, C(kind, j, u)) - C(kind, j, C(kind, i, u)).scale(sgn)
    if relation in ("serre-e-cubic", "serre-f-cubic"):
        i, j = nodes
        kind = "e" if relation == "serre-e-cubic" else "f"
        x, y = (_leaf(kind, k, variant) for k in (i, j))
        expr = _lb(x, _lb(x, y))
        return _expr_apply(memo, space, pd, expr, u)
    if relation in ("serre-e-quartic", "serre-f-quartic"):
        (i,) = nodes
        kind = "e" if relation == "serre-e-quartic" else "f"
        kappa = pd.kappa
        ip, im = (i + 1) % kappa, (i - 1) % kappa
        x, y, z = (_leaf(kind, k, variant) for k in (i, ip, im))
        expr = _lb(x, _lb(y, _lb(x, z)))
        return _expr_apply(memo, space, pd, expr, u)
    if relation == "t-chain":
        out = u
        for i in range(pd.kappa - 1, -1, -1):
            out = C("t", i, out)
        return out - u
    raise ValueError(f"unknown relation {relation!r}")


# ----------------------------------------------------------------------
# instance-suite execution (worker-safe, cacheable per process)


class _SuiteContext:
    def __init__(self, suite: str, cfg: RunConfig):
        self.suite = suite
        self.cfg = cfg
        self.pd = cfg.parity_data()
        zeta = "folded" if suite == "toroidal" else "formal"
        if suite == "toroidal":
            self.instances = toroidal_instances(self.pd, cfg.modes)
            self.diff = _toroidal_diff
        else:
            self.instances = affine_instances(self.pd)
            self.diff = _affine_diff
        self.stages = []
        for stage in _stages(cfg):
            R = _coeffs(cfg, stage, zeta)
            space = tor.FunctorSpace(self.pd, cfg.ell, R)
            self.stages.append((stage, space, tor.functor_battery(space)))

    def rows(self, lo: int, hi: int) -> list[dict]:
        """Rows of instances lo..hi-1, in instance order.

        Evaluation is vector-major: each battery vector is taken through
        the stages (numeric first) and, per stage, through every
        instance of the chunk with one fresh memo of operator images,
        dropped when the vector is done.  A row whose numeric stage
        failed is not evaluated symbolically.
        """
        combined = self.cfg.mode == "both"
        names = [name for name, _ in self.stages[-1][2]]
        out, live = [], []
        for relation, nodes, modes, form in self.instances[lo:hi]:
            base = {"relation": relation, "nodes": list(nodes), "modes": list(modes)}
            if relation in ("Serre5", "Serre6"):
                note = "mn = 2 incompatible with kappa >= 4"
                out.append(dict(base, vector="-", status="excluded", note=note))
                continue
            if form is not None:
                base["form"] = form
            if combined:
                base["symbolic"] = "skipped"
            rows = [dict(base, vector=vname, status="pass") for vname in names]
            out.extend(rows)
            live.append(((relation, nodes, modes, form), rows))
        for k in range(len(names)):
            for stage, space, battery in self.stages:
                u, memo = battery[k][1], {}
                for inst, rows in live:
                    row = rows[k]
                    if row["status"] == "fail":
                        continue
                    diff = self.diff(space, memo, self.pd, *inst, u)
                    ok = diff.is_zero()
                    if combined:
                        row[stage] = "pass" if ok else "fail"
                    if not ok:
                        row["status"] = "fail"
                        row["residual"] = diff.render(limit=5)
        return out


_WORKER_CONTEXTS: dict = {}


def _instance_worker(suite: str, cfg_key: tuple, lo: int, hi: int) -> list[dict]:
    ctx = _WORKER_CONTEXTS.get((suite, cfg_key))
    if ctx is None:
        ctx = _SuiteContext(suite, RunConfig(*cfg_key))
        _WORKER_CONTEXTS[(suite, cfg_key)] = ctx
    return ctx.rows(lo, hi)


def _plan(count: int, jobs: int) -> tuple[list[tuple[int, int]], int]:
    """Instance ranges [lo, hi) for one run, and the worker count for them.

    The worker count never exceeds the range count or the CPU count.
    """
    if jobs == 1 or count < 2 * jobs:
        return [(0, count)], 1
    step = max(1, (count + jobs * 4 - 1) // (jobs * 4))
    ranges = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
    return ranges, min(jobs, len(ranges), os.cpu_count() or 1)


def _run_instances(suite: str, cfg: RunConfig) -> list[dict]:
    pd = cfg.parity_data()
    if suite == "toroidal":
        count = len(toroidal_instances(pd, cfg.modes))
    else:
        count = len(affine_instances(pd))
    ranges, workers = _plan(count, cfg.jobs)
    if workers == 1:
        return _instance_worker(suite, cfg.key(), 0, count)
    rows: list[dict] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_instance_worker, suite, cfg.key(), lo, hi) for lo, hi in ranges
        ]
        for fut in futures:
            rows.extend(fut.result())
    return rows


# ----------------------------------------------------------------------
# suite runners


def run_toroidal_suite(cfg: RunConfig) -> Report:
    cfg.validate("toroidal")
    return _report("toroidal", cfg, _run_instances("toroidal", cfg))


def run_affine_suite(cfg: RunConfig) -> Report:
    cfg.validate("affine")
    return _report("affine", cfg, _run_instances("affine", cfg))


def run_finite_suite(cfg: RunConfig) -> Report:
    cfg.validate("finite")
    pd = cfg.parity_data()
    per_stage = []
    for stage in _stages(cfg):
        rows = schur_weyl_commutation_check(pd, cfg.ell, _coeffs(cfg, stage, "none"))
        per_stage.append((stage, rows))
    return _report("finite", cfg, _combine_stage_rows(cfg, per_stage))


def _random_words(ctx: DahaContext, seed: int, count: int = 8):
    """Seeded generator words of length up to four, as battery entries."""
    rng = random.Random(seed)
    pool = [("Q", 0, 1), ("Q", 0, -1)]
    for j in range(1, ctx.ell + 1):
        pool += [("Y", j, 1), ("Y", j, -1), ("X", j, 1), ("X", j, -1)]
    for i in range(1, ctx.ell):
        pool += [("T", i, 1), ("T", i, -1)]
    out = []
    for k in range(count):
        word = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 4))]
        label = "rand%d:%s" % (
            k,
            ".".join(f"{kind}{idx}^{e}" for kind, idx, e in word),
        )
        out.append((label, apply_word(ctx.one(), word)))
    return out


def run_daha_suite(cfg: RunConfig) -> Report:
    cfg.validate("daha")
    per_stage = []
    for stage in _stages(cfg):
        R = _coeffs(cfg, stage, "formal")
        ctx = DahaContext(cfg.ell, R)
        battery = default_battery(ctx)
        rows = check_daha_presentation(ctx, battery)
        rows += toshow_identities(ctx, battery + _random_words(ctx, cfg.seed))
        per_stage.append((stage, rows))
    return _report("daha", cfg, _combine_stage_rows(cfg, per_stage))


def run_rotation_suite(cfg: RunConfig) -> Report:
    cfg.validate("rotation")
    pd = cfg.parity_data()
    per_stage = []
    for stage in _stages(cfg):
        R = _coeffs(cfg, stage, "formal")
        space = tor.FunctorSpace(pd, cfg.ell, R)
        rows = tor.psi_balance_check(space)
        rows += tor.rotation_identity_check(space, cfg.modes)
        per_stage.append((stage, rows))
    return _report("rotation", cfg, _combine_stage_rows(cfg, per_stage))


RUNNERS = {
    "finite": run_finite_suite,
    "affine": run_affine_suite,
    "toroidal": run_toroidal_suite,
    "daha": run_daha_suite,
    "rotation": run_rotation_suite,
}


def run_suite(suite: str, cfg: RunConfig) -> Report:
    if suite not in RUNNERS:
        raise ConfigError(f"unknown suite {suite!r}")
    return RUNNERS[suite](cfg)
