"""Relation suites over the balanced tensor spaces, with JSON reports.

Every suite expands a finite table of relation instances: a relation
id, node indices, a mode tuple, a form, the two sides of the relation
as data, and the battery vectors it runs on.  A side is a list of
(coefficient, word) terms, a word a tuple of operator letters, and a
coefficient a ring-free sum of monomials; bracket trees are expanded
into terms once, when the table is built, through one q-bracket of two
sides.  One evaluator sums the difference of the sides on a vector,
flat.  Every relation table lives here, the Hecke-algebra presentation
and its conjugation identities too; hecke, looprep and toroidal state
only the algebra and the operators, and only this module checks
relations.  The batteries are deterministic: plain basis tensors
(finite), Hecke-algebra elements with seeded random words (daha), and
that algebra battery crossed with all nondecreasing label
tuples (toroidal, affine, rotation), the rotation suite first crossing
it with every unsorted label tuple.  The zero-mode dictionary, which
writes the wrap-node Chevalley generators through finite-node modes,
is a table of the same shape on plain basis tensors with two
xi-shifts; no suite runs it.  Current relations are checked in
mode-truncated form: the coefficient of z^{-r} in z * E(z) is E_{r+1},
the delta function delta(w/z) couples modes by r + s, and the diagonal
series K^+ and K^- carry modes r >= 0 and r <= 0, their mode-zero
terms the two inverse diagonal generators.  All checks run at trivial
central charge, where the dressed K-K exchange collapses to plain
commutation.

Suites can run symbolically (exact Laurent coefficients), numerically
(a rational sample point), or both.  Only this module builds report
rows, and every suite is gated alike: in combined mode the numeric
pass runs first, the symbolic verdict of a row that fails it is not
recorded (it stays skipped), and both verdicts are recorded per row.
A table is planned once, each term a word-suffix node and a
coefficient slot resolved once per stage; instances are evaluated in
chunks (one per worker task), batch-major within a chunk.  A batch is
the battery vectors w (x) k of one key k that run on the same
instances, evaluated as one vector (toroidal.join_batch): the letters
only right-multiply factors, and that never moves a term from one
vector's Q-degree band to another's.  Any other vector is a batch of
its own.  Each batch goes through every instance with one list of node
images, each filled in once when first needed and dropped after its
last reader.  A chunk keeps verdict codes and the failures' residual
text, not rows.
Reports are deterministic: same configuration and seed give
byte-identical JSON, independent of the worker count.  Report.write
builds the rows from the codes and streams that JSON to a file one row
at a time, in the layout of json.dumps(..., sort_keys=True, indent=2).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from qtschur import hecke, looprep
from qtschur import toroidal as tor
from qtschur.hecke import (
    DahaContext,
    DahaElement,
    apply_word,
    bounded_tuples,
    default_battery,
)
from qtschur.looprep import PlainTensor, TensorSpace
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
        mn = () if zeta == "none" else (cfg.m, cfg.n)
        return NumericContext(cfg.q0, cfg.d0, *mn)
    if zeta == "folded":
        return SymbolicContext(m=cfg.m, n=cfg.n)
    return SymbolicContext(formal_zeta=True)


# ----------------------------------------------------------------------
# reports


@dataclass
class Report:
    """A suite's rows with its parameters.

    results are Verdicts, which build each row only when iterated.
    summary, ok and render_summary share one count per relation, taken
    once.
    """

    suite: str
    params: dict
    results: Verdicts

    @functools.cached_property
    def _counts(self) -> dict:
        per = {}
        for relation, status, count in self.results.tally():
            per.setdefault(relation, {"pass": 0, "fail": 0, "excluded": 0})[status] += count
        return per

    def summary(self) -> dict:
        return {s: sum(c[s] for c in self._counts.values()) for s in ("pass", "fail", "excluded")}

    def ok(self) -> bool:
        return self.summary()["fail"] == 0

    def _chunks(self):
        """The report's JSON text in pieces between head and tail: one per
        failing or excluded row, and one per run of consecutive passing rows
        of an instance, which is all of its rows when none fails.

        Joined, the pieces are json.dumps({"suite", "params", "results":
        the rows, "summary"}, sort_keys=True, indent=2) + "\\n": sort_keys
        puts params first, then results, suite and summary.  The vector
        names are encoded once per report.
        """
        head = json.dumps({"params": self.params}, sort_keys=True, indent=2)
        yield head[:-2] + ',\n  "results": ['
        sep = "\n"
        names = [_encode_str(name) for name in self.results.names]
        for text in self.results.rows(_row_json, _row_template, names):
            yield sep + text
            sep = ",\n"
        yield "\n  ]" if sep != "\n" else "]"
        tail = json.dumps({"suite": self.suite, "summary": self.summary()},
                          sort_keys=True, indent=2)
        yield "," + tail[1:] + "\n"

    def write(self, fh) -> None:
        """Write the JSON report to the text file fh, passing rows from instance templates."""
        fh.writelines(self._chunks())

    def to_json(self) -> str:
        return "".join(self._chunks())

    def render_summary(self) -> str:
        lines = []
        for rel, counts in sorted(self._counts.items()):
            tag = "ok" if counts["fail"] == 0 else "FAIL"
            if counts["excluded"] and not (counts["pass"] or counts["fail"]):
                tag = "excluded"
            lines.append(f"  {rel:<16} pass {counts['pass']:>6}  fail {counts['fail']:>4}  {tag}")
        total = self.summary()
        lines.append(f"{self.suite}: {total['pass']} pass, {total['fail']} fail, "
                     f"{total['excluded']} excluded")
        return "\n".join(lines)


_encode_str = json.encoder.encode_basestring_ascii


def _row_json(row: dict) -> str:
    """One row as json.dumps(..., sort_keys=True, indent=2) lays it out in a report,
    at depth 2 (an entry of "results")."""
    return "    " + json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")


def _row_template(row: dict):
    """The JSON of a run of rows that differ from row only in their vector
    name, as a function of the encoded names: "vector", the last key, is ""."""
    head, tail = _row_json(row).rsplit('""', 1)
    sep = tail + ",\n" + head
    return lambda names: head + sep.join(names) + tail


def _row(relation, nodes, modes, form, vector, verdict: dict) -> dict:
    """One report row; verdict holds its status and per-stage fields."""
    row = {"relation": relation, "nodes": list(nodes), "modes": list(modes), "vector": vector}
    if form is not None:
        row["form"] = form
    row.update(verdict)
    return row


def _verdict(stages: list, code: int) -> dict:
    """Row fields of verdict code 0 (pass) or s + 1 (failed stage s, later ones skipped)."""
    out = {"status": "fail" if code else "pass"}
    if len(stages) > 1:
        for s, stage in enumerate(stages, 1):
            out[stage] = "pass" if not code or s < code else "fail" if s == code else "skipped"
    return out


class Verdicts:
    """A run's report rows, kept as one verdict block per instance and built on iteration.

    A block is None for an excluded instance, else (codes, residuals): a
    bytearray with one code per vector the instance runs on, 0 for pass
    and s + 1 for a failure at stage s, and {position: residual text}
    for the failing vectors only.
    """

    def __init__(self, ctx: "SuiteContext", blocks: list, lo: int = 0):
        self.stages = [stage for stage, *_ in ctx.stages]
        self.names = [name for name, _ in ctx.stages[-1][1]]
        self.instances = ctx.instances[lo : lo + len(blocks)]
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(1 if block is None else len(block[0]) for block in self.blocks)

    def __iter__(self):
        return itertools.chain.from_iterable(self.rows(
            lambda row: [row], lambda row: lambda run: [dict(row, vector=n) for n in run],
            self.names))

    def rows(self, whole, template, names):
        """The rows in order: whole(row) for a failing or excluded row, and
        template(row)(run) for each run of consecutive passing rows of an
        instance, run their slice of names (a list parallel to self.names);
        template is called once per instance, with the vector name ""."""
        verdicts = [_verdict(self.stages, code) for code in range(len(self.stages) + 1)]
        excluded = {"status": "excluded", "note": "mn = 2 incompatible with kappa >= 4"}
        for (relation, nodes, modes, form, *_, vectors), block in zip(self.instances, self.blocks):
            if block is None:
                yield whole(_row(relation, nodes, modes, None, "-", excluded))
                continue
            codes, residuals = block
            lo = 0 if vectors is None else vectors.start
            passing = template(_row(relation, nodes, modes, form, "", verdicts[0]))
            start = 0
            for pos in sorted(residuals):  # the failing positions
                if start < pos:
                    yield passing(names[lo + start : lo + pos])
                verdict = dict(verdicts[codes[pos]], residual=residuals[pos])
                yield whole(_row(relation, nodes, modes, form, self.names[lo + pos], verdict))
                start = pos + 1
            if start < len(codes):
                yield passing(names[lo + start : lo + len(codes)])

    def tally(self):
        """(relation, status, count) triples that add up to the rows' statuses."""
        for (relation, *_), block in zip(self.instances, self.blocks):
            if block is None:
                yield relation, "excluded", 1
            elif block[0]:
                passed = block[0].count(0)
                yield from ((relation, "pass", passed), (relation, "fail", len(block[0]) - passed))


# ----------------------------------------------------------------------
# relation tables


# A side is a list of (coefficient, word) terms.  A word is a tuple of
# letters (op, node, arg) applied right to left.  On balanced vectors
# op is a current (E, F, K+, K-) with its mode as arg, a Chevalley
# generator (e, f, t, tinv) with its wrap-around variant, the diagonal
# weight letter wt, or the rotation psi with arg +1 or -1; on raw
# balanced vectors (unsorted keys) also T, the factor times T_node, and
# the slot exchange S on the key.  On plain tensors op is S, a
# Chevalley generator (arg None), or a finite-node current on
# nondecreasing keys; on Hecke-algebra elements it is T, X, Y or Q,
# multiplying on the right with the exponent as arg.  A coefficient is
# ring-free: a tuple of (rational, q-exponent, d-exponent,
# zeta-exponent) monomials, resolved once per stage in that stage's
# ring.

_CURRENTS = ("E", "F", "K+", "K-")
_CHEVALLEY = ("e", "f", "t", "tinv")
_WEIGHT = "wt"
_PSI = "psi"
_SLOT = "S"
_HECKE = ("T", "X", "Y", "Q")
_ONE = ((1, 0, 0, 0),)


def _swap_sides(x, y, coeff=_ONE):
    """x y = coeff * y x."""
    return [(_ONE, (x, y))], [(coeff, (y, x))]


def _shift_sides(fx, i, r, fy, j, s, m, a, sign=1):
    """d^m x[r+1] y[s] - q^a x[r] y[s+1] = sign (d^m q^a y[s] x[r+1] - y[s+1] x[r])

    for x = fx at node i and y = fy at node j.
    """
    x0, x1, y0, y1 = (fx, i, r), (fx, i, r + 1), (fy, j, s), (fy, j, s + 1)
    lhs = [(((1, 0, m, 0),), (x1, y0)), (((-1, a, 0, 0),), (x0, y1))]
    rhs = [(((sign, a, m, 0),), (y0, x1)), (((-sign, 0, 0, 0),), (y1, x0))]
    return lhs, rhs


def _ef_sides(pd, x, y, diagonal=()):
    """(q - q^{-1})(x y - sign y x) = k - k^{-1}, diagonal = (k, k^{-1}) or ()."""
    sgn = _super_sign(pd, x[1], y[1])
    lhs = [
        (((1, 1, 0, 0), (-1, -1, 0, 0)), (x, y)),
        (((-sgn, 1, 0, 0), (sgn, -1, 0, 0)), (y, x)),
    ]
    if not diagonal:
        return lhs, []
    k, kinv = diagonal
    return lhs, [(_ONE, (k,)), (((-1, 0, 0, 0),), (kinv,))]


def _serre_sides(pd: ParityData, tree, r1: int, r2: int):
    """tree(r1, r2) + tree(r2, r1) = 0."""
    return _expr_terms(pd, tree(r1, r2))[0] + _expr_terms(pd, tree(r2, r1))[0], []


def toroidal_instances(pd: ParityData, bound: int) -> list[tuple]:
    """(relation, nodes, modes, form, lhs, rhs, vectors) covering every defining relation.

    The relation holds when lhs - rhs (lhs alone if rhs is empty)
    vanishes on every vector it runs on: vectors is a range of battery
    indices, or None for the whole battery.  Excluded relations have no
    sides.
    """
    kappa = pd.kappa
    nodes = list(range(kappa))
    pairs2 = bounded_tuples(2, bound)
    inst: list[tuple] = []

    def add(relation, nodes, modes, form, sides):
        inst.append((relation, nodes, modes, form, *sides, None))

    k0 = lambda i: ("K+", i, 0)
    for i, j in itertools.combinations(nodes, 2):
        add("CK", (i, j), (), "KK", _swap_sides(k0(i), k0(j)))
    for i in nodes:
        for j in nodes:
            for r in range(-bound, bound + 1):
                for form, fam, a in (("KE", "E", 1), ("KF", "F", -1)):
                    q = ((1, a * cartan(pd, i, j), 0, 0),)
                    add("CK", (i, j), (r,), form, _swap_sides(k0(i), (fam, j, r), q))
    for form, keep in (("+", lambda r, s: r >= 0 and s >= 0),
                       ("-", lambda r, s: r <= 0 and s <= 0)):
        fam = "K" + form
        for i in nodes:
            for j in nodes:
                if i > j:
                    continue
                for r, s in pairs2:
                    if not keep(r, s) or (i == j and r > s):
                        continue
                    sides = _swap_sides((fam, i, r), (fam, j, s))
                    add("KK1", (i, j), (r, s), form, sides)
    for i in nodes:
        for j in nodes:
            for r, s in pairs2:
                if r <= 0 <= s:
                    sides = _swap_sides(("K-", i, r), ("K+", j, s))
                    add("KK2", (i, j), (r, s), None, sides)
    for rel, fam, a in (("KE", "E", 1), ("KF", "F", -1)):
        for form, keep in (("+", lambda r: r >= -1), ("-", lambda r: r <= 0)):
            for i in nodes:
                for j in nodes:
                    m, qa = mmatrix(pd, i, j), a * cartan(pd, i, j)
                    for r, s in pairs2:
                        if keep(r):
                            sides = _shift_sides("K" + form, i, r, fam, j, s, m, qa)
                            add(rel, (i, j), (r, s), form, sides)
    for i in nodes:
        for j in nodes:
            for r, s in pairs2:
                diagonal = (("K+", i, r + s), ("K-", i, r + s)) if i == j else ()
                sides = _ef_sides(pd, ("E", i, r), ("F", j, s), diagonal)
                add("EF", (i, j), (r, s), None, sides)
    for i in nodes:
        for j in nodes:
            if i > j:
                continue
            a, m = cartan(pd, i, j), mmatrix(pd, i, j)
            sgn = _super_sign(pd, i, j)
            for r, s in pairs2:
                if i == j and r > s:
                    continue
                for fam, e in (("E", 1), ("F", -1)):
                    if a == 0:
                        sides = _swap_sides((fam, i, r), (fam, j, s), ((sgn, 0, 0, 0),))
                        add("EEFF-zero", (i, j), (r, s), fam * 2, sides)
                    else:
                        sides = _shift_sides(fam, i, r, fam, j, s, m, e * a, sgn)
                        add(fam * 2 + "-quadratic", (i, j), (r, s), None, sides)
    triples = [t for t in bounded_tuples(3, bound) if t[0] <= t[1]]
    quads = [t for t in bounded_tuples(4, bound) if t[0] <= t[1]]
    for i in nodes:
        ip, im = (i + 1) % kappa, (i - 1) % kappa
        if cartan(pd, i, i):
            for j in (im, ip):
                for ms in triples:
                    r1, r2, s = ms
                    for rel, fam in (("Serre1", "E"), ("Serre2", "F")):
                        L = lambda node, r: _leaf(fam, node, r)
                        tree = lambda x, y: _lb(L(i, x), _lb(L(i, y), L(j, s)))
                        add(rel, (i, j), ms, None, _serre_sides(pd, tree, r1, r2))
        else:
            for ms in quads:
                r1, r2, w1, w2 = ms
                for rel, fam in (("Serre3", "E"), ("Serre4", "F")):
                    L = lambda node, r: _leaf(fam, node, r)
                    tree = lambda x, y: _lb(
                        L(i, x), _lb(L(ip, w1), _lb(L(i, y), L(im, w2)))
                    )
                    add(rel, (i,), ms, None, _serre_sides(pd, tree, r1, r2))
    add("Serre5", (), (), None, ([], []))
    add("Serre6", (), (), None, ([], []))
    for i in nodes:
        weight = (_WEIGHT, i, None)
        add("weights", (i,), (), None, ([(_ONE, (k0(i),))], [(_ONE, (weight,))]))
    add("K-chain", (), (), None, ([(_ONE, tuple(map(k0, nodes)))], [(_ONE, ())]))
    return inst


def affine_instances(pd: ParityData) -> list[tuple]:
    """Chevalley-level instances, once per wrap-around variant.

    Same tuple shape as toroidal_instances, with the variant as form.
    """
    kappa = pd.kappa
    nodes = list(range(kappa))
    inst: list[tuple] = []
    for variant in ("affine", "vertical"):

        def add(relation, nodes, sides):
            inst.append((relation, nodes, (), variant, *sides, None))

        C = lambda kind, node: (kind, node, variant)
        for i, j in itertools.combinations(nodes, 2):
            add("tt", (i, j), _swap_sides(C("t", i), C("t", j)))
        for i in nodes:
            for j in nodes:
                for rel, kind, a in (("te", "e", 1), ("tf", "f", -1)):
                    q = ((1, a * cartan(pd, i, j), 0, 0),)
                    add(rel, (i, j), _swap_sides(C("t", i), C(kind, j), q))
        for i in nodes:
            for j in nodes:
                diagonal = (C("t", i), C("tinv", i)) if i == j else ()
                add("ef", (i, j), _ef_sides(pd, C("e", i), C("f", j), diagonal))
        for i in nodes:
            for j in nodes:
                if i <= j and cartan(pd, i, j) == 0:
                    sgn = ((_super_sign(pd, i, j), 0, 0, 0),)
                    for rel, kind in (("ee-zero", "e"), ("ff-zero", "f")):
                        add(rel, (i, j), _swap_sides(C(kind, i), C(kind, j), sgn))
        for i in nodes:
            ip, im = (i + 1) % kappa, (i - 1) % kappa
            if cartan(pd, i, i):
                for j in (im, ip):
                    for kind in ("e", "f"):
                        x, y = (_leaf(kind, k, variant) for k in (i, j))
                        tree = _lb(x, _lb(x, y))
                        add(f"serre-{kind}-cubic", (i, j), (_expr_terms(pd, tree)[0], []))
            else:
                for kind in ("e", "f"):
                    x, y, z = (_leaf(kind, k, variant) for k in (i, ip, im))
                    tree = _lb(x, _lb(y, _lb(x, z)))
                    add(f"serre-{kind}-quartic", (i,), (_expr_terms(pd, tree)[0], []))
        chain = tuple(C("t", i) for i in nodes)
        add("t-chain", (), ([(_ONE, chain)], [(_ONE, ())]))
    return inst


def finite_instances(pd: ParityData, ell: int) -> list[tuple]:
    """Schur-Weyl commutation on the plain tensor power, vector-major.

    Battery vector k is the k-th label tuple of TensorSpace.all_labels,
    and every (vector, relation) pair is an instance of its own: the
    quadratic relation of each slot exchange and its commutation with
    each finite Chevalley generator, then the slot braid relations.
    """
    gens = [(kind, i, None) for i in range(1, pd.kappa) for kind in _CHEVALLEY]
    q2, q2_less_one = ((1, 2, 0, 0),), ((1, 2, 0, 0), (-1, 0, 0, 0))
    per_vector = []
    for a in range(1, ell):
        s = (_SLOT, a, None)
        per_vector.append((f"quadratic slot {a}", [(_ONE, (s, s))],
                           [(q2_less_one, (s,)), (q2, ())]))
        for g in gens:
            per_vector.append((f"[T_{a}, {g[0]}_{g[1]}]", [(_ONE, (g, s))], [(_ONE, (s, g))]))
    for a in range(1, ell - 1):
        s, t = (_SLOT, a, None), (_SLOT, a + 1, None)
        per_vector.append((f"braid slots {a},{a + 1}", [(_ONE, (s, t, s))], [(_ONE, (t, s, t))]))
    return [
        (relation, (), (), None, lhs, rhs, range(k, k + 1))
        for k in range(pd.kappa**ell)
        for relation, lhs, rhs in per_vector
    ]


def daha_instances(ell: int, words: int, total: int) -> list[tuple]:
    """The Hecke-algebra presentation, then the conjugation identities.

    The presentation runs relation-major on battery elements 0..words-1
    (hecke.default_battery), the identities w Q Y_{i-1} Q^-1 = w Y_i
    vector-major on each of elements 0..total-1.  Words are in
    evaluation order, as in every table: w X_i T_i is the word
    (T_i, X_i).  A hecke.composite word is an algebra product, read left
    to right, so it is reversed into a word once, here.
    """
    T = lambda i, e=1: ("T", i, e)
    X = lambda j, e=1: ("X", j, e)
    Y = lambda j, e=1: ("Y", j, e)
    Q = lambda e=1: ("Q", 0, e)
    composite = lambda kind, **params: tuple(reversed(hecke.composite(kind, **params)))
    zeta, q2, qm2 = ((1, 0, 0, 1),), ((1, 2, 0, 0),), ((1, -2, 0, 0),)
    rels = []

    def rel(name, lhs, rhs, coeff=_ONE):
        rels.append((name, [(_ONE, lhs)], [(coeff, rhs)]))

    for i in range(1, ell):
        rel(f"T{i} inverse", (T(i, -1), T(i)), ())
        rel(f"T{i} inverse'", (T(i), T(i, -1)), ())
        rels.append((f"T{i} quadratic", [(_ONE, (T(i), T(i)))],
                     [(((1, 2, 0, 0), (-1, 0, 0, 0)), (T(i),)), (q2, ())]))
    for i in range(1, ell - 1):
        rel(f"braid T{i} T{i + 1}", (T(i), T(i + 1), T(i)), (T(i + 1), T(i), T(i + 1)))
    for i in range(1, ell):
        for j in range(i + 2, ell):
            rel(f"T{i} T{j} commute", (T(j), T(i)), (T(i), T(j)))
    for j in range(1, ell + 1):
        rel(f"X{j} inverse", (X(j, -1), X(j)), ())
        rel(f"Y{j} inverse", (Y(j, -1), Y(j)), ())
    for a in range(1, ell + 1):
        for b in range(a + 1, ell + 1):
            rel(f"X{a} X{b} commute", (X(b), X(a)), (X(a), X(b)))
            rel(f"Y{a} Y{b} commute", (Y(b), Y(a)), (Y(a), Y(b)))
    # X_0 Y_1 = zeta Y_1 X_0 with X_0 = X_1 ... X_l
    x0 = tuple(X(j) for j in range(ell, 0, -1))
    rel("X0 Y1 twist", (Y(1),) + x0, x0 + (Y(1),), zeta)
    for i in range(1, ell):
        rel(f"T{i} X{i} T{i} = q^2 X{i + 1}", (T(i), X(i), T(i)), (X(i + 1),), q2)
        rel(f"T{i}^-1 Y{i} T{i}^-1 = q^-2 Y{i + 1}", (T(i, -1), Y(i), T(i, -1)), (Y(i + 1),), qm2)
        for j in range(1, ell + 1):
            if j not in (i, i + 1):
                rel(f"T{i} X{j} commute", (X(j), T(i)), (T(i), X(j)))
                rel(f"T{i} Y{j} commute", (Y(j), T(i)), (T(i), Y(j)))
    if ell >= 2:
        rel("X2 Y1^-1 X2^-1 Y1 = q^-2 T1^2", (Y(1), X(2, -1), Y(1, -1), X(2)), (T(1), T(1)), qm2)
    # rotation presentation
    rel("Q inverse", (Q(-1), Q()), ())
    rel("Q inverse'", (Q(), Q(-1)), ())
    for i in range(2, ell - 1):
        rel(f"Q T{i - 1} Q^-1 = T{i}", (Q(-1), T(i - 1), Q()), (T(i),))
    if ell >= 2:
        rel("Q^2 T_{l-1} Q^-2 = T1", (Q(-1), Q(-1), T(ell - 1), Q(), Q()), (T(1),))
    for i in range(1, ell):
        rel(f"Q Y{i} Q^-1 = Y{i + 1}", (Q(-1), Y(i), Q()), (Y(i + 1),))
    rel("Q Y_l Q^-1 = zeta Y1", (Q(-1), Y(ell), Q()), (Y(1),), zeta)
    if ell >= 2:
        rel("Q = X1 T_{1,l-1}", (Q(),), composite("T_range_up", i=1, j=ell - 1) + (X(1),))
    else:
        rel("Q = X1", (Q(),), (X(1),))
    if ell >= 3:
        t0 = (Q(), T(1), Q(-1))  # T_0 = Q^-1 T_1 Q
        for i in (1, ell - 1):
            rel(f"braid T0 T{i}", t0 + (T(i),) + t0, (T(i),) + t0 + (T(i),))
        for i in range(2, ell - 1):
            rel(f"T0 T{i} commute", (T(i),) + t0, t0 + (T(i),))
    # conjugation lemmas, in multiplied-out form (A Y_a = Y_{a+1} A etc.)
    for i in range(1, ell):
        for j in range(i, ell):
            qij = composite("Qij", i=i, j=j)
            for a in range(i, j + 1):
                rel(f"Q_{i}{j} Y{a} = Y{a + 1} Q_{i}{j}", (Y(a),) + qij, qij + (Y(a + 1),))
            for b in range(i + 1, j + 1):
                rel(f"Q_{i}{j} T{b - 1} = T{b} Q_{i}{j}", (T(b - 1),) + qij, qij + (T(b),))
    for r in range(1, ell):
        pr = composite("Pr", r=r, ell=ell)
        for a in range(r, ell):
            rel(f"P{r} Y{a + 1} = zeta Y{a - r + 1} P{r}", (Y(a + 1),) + pr,
                pr + (Y(a - r + 1),), zeta)
        for b in range(r + 1, ell):
            rel(f"P{r} T{b} = T{b - r} P{r}", (T(b),) + pr, pr + (T(b - r),))
    presentation = len(rels)
    for i in range(2, ell + 1):
        rel(f"w Q Y{i - 1} Q^-1 = w Y{i}", (Q(-1), Y(i - 1), Q()), (Y(i),))
    rel("w Q Y_l Q^-1 = zeta w Y1", (Q(-1), Y(ell), Q()), (Y(1),), zeta)
    return [
        (name, (), (), None, lhs, rhs, range(words))
        for name, lhs, rhs in rels[:presentation]
    ] + [
        (name, (), (), None, lhs, rhs, range(k, k + 1))
        for k in range(total)
        for name, lhs, rhs in rels[presentation:]
    ]


def rotation_instances(pd: ParityData, ell: int, bound: int, words: int) -> list[tuple]:
    """The rotation's respect for the balancing relation, then its identities.

    The battery starts with a raw vector w (x) key for every label tuple
    in product order (unsorted) and each of the `words` elements w of
    hecke.default_battery; rotating w T_i (x) key must agree with rotating
    w (x) the exchanged key, tagged by which of the two exchanged labels
    wrap around.  The functor battery follows.  On it, rotating once
    turns the node-i current into the node-(i-1) current with modes
    rescaled by q1^{-s_kappa r}, for 1 < i < kappa; rotating twice turns
    the node-1 current, times zeta^{-r}, into the top-node current
    rescaled by q1^{-r(n-m+s_{kappa-1}+s_kappa)}, the lowering family
    landing on the lowering current.  q1^e is q^{-e} d^e.
    """
    kappa = pd.kappa
    psi, psi_inv = (_PSI, 0, 1), (_PSI, 0, -1)
    inst = []
    for b, labels in enumerate(itertools.product(range(1, kappa + 1), repeat=ell)):
        for i in range(1, ell):
            case = "-".join("wrap" if j == kappa else "plain" for j in labels[i - 1 : i + 1])
            lhs, rhs = [(_ONE, (psi, ("T", i, 1)))], [(_ONE, (psi, (_SLOT, i, None)))]
            vectors = range(b * words, (b + 1) * words)
            inst.append((f"psi-balance-{case}", (i,), (), None, lhs, rhs, vectors))
    start = kappa**ell * words
    battery = range(start, start + math.comb(kappa + ell - 1, ell) * words)
    q1 = lambda e: ((1, -e, e, 0),)
    wrap_exp = (pd.n - pd.m) + pd.sign(kappa - 1) + pd.sign(kappa)
    for fam in _CURRENTS:
        for r in range(-bound, bound + 1):
            if (fam == "K+" and r < 0) or (fam == "K-" and r > 0):
                continue
            for i in range(2, kappa):
                lhs = [(_ONE, (psi_inv, (fam, i, r), psi))]
                rhs = [(q1(-pd.sign(kappa) * r), ((fam, i - 1, r),))]
                inst.append((f"rot-{fam}", (i, i - 1), (r,), None, lhs, rhs, battery))
            lhs = [(((1, 0, 0, -r),), (psi_inv, psi_inv, (fam, 1, r), psi, psi))]
            rhs = [(q1(-wrap_exp * r), ((fam, kappa - 1, r),))]
            relation = f"wrap-{fam}" + ("-as-F" if fam == "F" else "")
            inst.append((relation, (1, kappa - 1), (r,), None, lhs, rhs, battery))
    return inst


def dictionary_instances(m: int, n: int, ell: int) -> list[tuple]:
    """The zero-mode dictionary, on dictionary_battery(m, n, ell, R).

    Standard parity, kappa = m + n >= 3.  zero-mode: the finite-node
    currents at mode 0 are the Chevalley generators.  shift-mode:
    x^-_1[1] and x^+_1[-1] are nested super-commutators of Chevalley
    generators, e_0 and f_0 peeled down to node 1.  wrap-node: e_0, f_0
    and t_0 are q-bracket chains of finite-node modes (Varagnolo and
    Vasserot, CMP 1996), the zero modes written as Chevalley letters
    and the two shifted modes as their shift-mode sides.  Currents act
    on nondecreasing keys only, so the first two groups run on those;
    the wrap-node chains run on every key.
    """
    pd = ParityData.standard(m, n)
    kappa, sk = pd.kappa, pd.sign(pd.kappa)
    if kappa < 3:
        raise ValueError("the zero-mode dictionary needs kappa >= 3")
    cone = range(2 * math.comb(kappa + ell - 1, ell))
    word = lambda *letters: [(_ONE, letters)]
    gen = lambda kind, i: (kind, i, None)
    inst = [
        ("zero-mode", (i,), (0,), fam, word((fam, i, 0)), word(gen(kind, i)), cone)
        for i in range(1, kappa)
        for fam, kind in zip(_CURRENTS, _CHEVALLEY)
    ]
    # peel e_0 and f_0, which have the parity of node 0, down to node 1:
    # the opposite generator at node j super-commutes past the other factors
    ts = [gen("t", i) for i in range(kappa - 1, 0, -1)]
    tinvs = [gen("tinv", i) for i in range(kappa - 1, 0, -1)]
    lower = _product(_constant((-1) ** n * sk), word(gen("e", 0), *ts))
    upper = _product(_constant(sk), word(*tinvs, gen("f", 0)))
    odd = node_parity(pd, 0)
    for j in range(kappa - 1, 1, -1):
        sj, flip = pd.sign(j), node_parity(pd, j) & odd
        lower = _product(_constant(sj), _qbracket(word(gen("e", j)), lower, flip, 0))
        lower = _product(lower, word(gen("tinv", j)))
        upper = _product(_constant(sj, -sj), _qbracket(upper, word(gen("f", j)), flip, 0))
        upper = _product(upper, word(gen("t", j)))
        odd ^= node_parity(pd, j)
    inst.append(("shift-mode", (1,), (1,), "F", word(("F", 1, 1)), lower, cone))
    inst.append(("shift-mode", (1,), (-1,), "E", word(("E", 1, -1)), upper, cone))

    # lowering chain deforms by q^{-s_j}, raising chain by q^{+s_j}
    for j in range(2, kappa):
        sj, flip = pd.sign(j), node_parity(pd, j) & odd
        lower = _qbracket(word(gen("f", j)), lower, flip, -sj)
        upper = _qbracket(upper, word(gen("e", j)), flip, sj)
        odd ^= node_parity(pd, j)
    chains = {
        "e": _product(_constant((-1) ** n * sk), _product(lower, word(*tinvs))),
        "f": _product(_constant(sk), _product(word(*ts), upper)),
        "t": word(*tinvs),
    }
    for kind, side in chains.items():
        inst.append(("wrap-node", (0,), (), kind, side, word(gen(kind, 0)), None))
    return inst


def dictionary_battery(m: int, n: int, ell: int, R) -> list[tuple]:
    """(name, vector) pairs: plain basis tensors over R, standard parity.

    Each label tuple comes with xi-shifts 0 and (1, ..., ell), the
    nondecreasing tuples first, each group in product order.
    """
    space = TensorSpace(ParityData.standard(m, n), ell, R)
    keys = sorted(space.all_labels(), key=lambda labels: list(labels) != sorted(labels))
    return [
        (f"v{list(labels)} xi{list(nu)}", space.basis(labels, nu))
        for labels in keys
        for nu in ((0,) * ell, tuple(range(1, ell + 1)))
    ]


# ----------------------------------------------------------------------
# nested deformed brackets


def _constant(c: int, qexp: int = 0) -> list:
    """The side c q^qexp on the empty word."""
    return [(((c, qexp, 0, 0),), ())]


def _times(x: tuple, y: tuple, c: int = 1, qexp: int = 0) -> tuple:
    """The term x y times c q^qexp, for terms with one-monomial coefficients."""
    ((a, qa, da, za),), wx = x
    ((b, qb, db, zb),), wy = y
    return (((c * a * b, qa + qb + qexp, da + db, za + zb),), wx + wy)


def _product(x: list, y: list) -> list:
    """The side x y, its terms in the order of x's terms, then y's."""
    return [_times(tx, ty) for tx in x for ty in y]


def _qbracket(x: list, y: list, odd: int, qexp: int) -> list:
    """The side x y - (-1)^odd q^qexp y x, of two sides of one-monomial terms.

    Terms come pair by pair, x y before y x, in _product's order.
    """
    sign = 1 if odd else -1
    return [t for tx in x for ty in y for t in (_times(tx, ty), _times(ty, tx, sign, qexp))]


def _expr_terms(pd: ParityData, expr) -> tuple[list, dict, int]:
    """Expand a bracket tree into a side, with its weight and parity.

    The bracket lb{X, Y} = XY - (-1)^{|X||Y|} q^{-(wt X, wt Y)} YX
    (_qbracket) accumulates weights as node-indexed root sums paired
    through the Cartan matrix; raising leaves count +1, lowering leaves
    -1.
    """
    if expr[0] == "leaf":
        leaf = expr[1]
        sign = 1 if leaf[0] in ("E", "e") else -1
        return [(_ONE, (leaf,))], {leaf[1]: sign}, node_parity(pd, leaf[1])
    _, left, right = expr
    sl, wl, pl = _expr_terms(pd, left)
    sr, wr, pr = _expr_terms(pd, right)
    pairing = sum(
        cartan(pd, i, j) * ei * ej for i, ei in wl.items() for j, ej in wr.items()
    )
    weight = dict(wl)
    for j, e in wr.items():
        weight[j] = weight.get(j, 0) + e
    return _qbracket(sl, sr, pl & pr, -pairing), weight, (pl + pr) % 2


def _leaf(fam, node, arg=None):
    return ("leaf", (fam, node, arg))


def _lb(left, right):
    return ("lb", left, right)


def _super_sign(pd: ParityData, i: int, j: int) -> int:
    return -1 if node_parity(pd, i) and node_parity(pd, j) else 1


# ----------------------------------------------------------------------
# instance evaluation (difference of the two sides)


def _resolve(R, coeff: tuple, sign: int = 1):
    """sign times a ring-free coefficient, in ring R; None for the positive unit."""
    if coeff == _ONE:
        return None if sign > 0 else -R.one
    out = None
    for c, qe, de, ze in coeff:
        term = R.rational(c) * R.qpow(qe) * R.dpow(de)
        if ze:
            term = term * R.zetapow(ze)
        out = term if out is None else out + term
    return out if sign > 0 else -out


def apply_letter(op: str, node: int, arg, v):
    """Image of v under one letter of the tables; a balanced current at any node, node 0
    included, is one toroidal_mode_apply call.  Operators are looked up on
    their modules at call time, so a patched or traced one is applied."""
    if op in _CURRENTS:
        if type(v) is PlainTensor:
            return looprep.mode_apply_plain(op, node, arg, v)
        return tor.toroidal_mode_apply(op, node, arg, v)
    if op in _CHEVALLEY:
        if type(v) is PlainTensor:
            return looprep.chevalley_apply(looprep.ChevalleyGen(op, node), v)
        return tor.functor_chevalley_apply(op, node, v, variant=arg)
    if op == _WEIGHT:
        return tor.weight_apply(node, v)
    if op == _PSI:
        return tor.psi_apply(v) if arg == 1 else tor.psi_inverse(v)
    if op == _SLOT:
        if type(v) is PlainTensor:
            return looprep.hecke_T_apply(node, v)
        return tor.key_T_apply(node, v)
    if op in _HECKE and type(v) is DahaElement:
        return hecke.apply_word(v, [(op, node, arg)])
    if op == "T":
        return tor.factor_T_apply(node, v)
    raise ValueError(f"unknown operator letter {op!r}")


def _node_image(images: list, letters: list, parents: list, node: int):
    """images[node] (None while not computed), filled in from its nearest computed
    ancestor, so each node's letter is applied at most once per images list.
    A zero input is its own image and skips the operator: every operator but
    the rotation maps a space to itself, and psi(0) is the rotated space's zero."""
    chain = []
    while images[node] is None:
        chain.append(node)
        node = parents[node]
    v = images[node]
    for node in reversed(chain):
        op, at, arg = letters[node]
        if v.support or op == _PSI:
            v = apply_letter(op, at, arg, v)
        images[node] = v
    return v


def _difference(images: list, letters: list, parents: list, values: list, slots, nodes):
    """lhs(u) - rhs(u) of one planned instance (see SuiteContext), summed flat.

    Every term goes into one support: {key: part} on balanced vectors,
    whose dead keys toroidal._collect drops once, or the one part of any
    other vector.  toroidal._add_scaled adds each: the first image on a
    key becomes a scaled view of it.  Key death is linear in the factor,
    so neither verdict nor residual depends on the order of the terms or
    on the side they sit on.  Sharing the images of u = images[0] is
    sound as no operation changes a support in place (checked in
    tests/test_verify.py).
    """
    acc, owner = {}, None
    for slot, node in zip(slots, nodes):
        v = images[node]
        if v is None:
            v = _node_image(images, letters, parents, node)
        if owner is None:
            owner, kind = v.owner, type(v)
        elif v.owner is not owner:
            raise ValueError("vectors live in different spaces")
        c = values[slot]
        if c is not None and not c:
            continue  # a coefficient that is zero at the numeric point adds nothing
        for key, part in v.support.items() if kind is tor.FunctorVector else [(None, v)]:
            tor._add_scaled(acc, key, part, c)
    if kind is tor.FunctorVector:
        return tor._collect(owner, acc)
    part = acc.get(None, {})
    return kind(owner, part if type(part) is dict else part.support)


# ----------------------------------------------------------------------
# suite execution (worker-safe, cacheable per process)


_SEEDED = 8  # seeded random words at the end of the daha battery


def _random_words(ctx: DahaContext, seed: int):
    """Seeded generator words of length up to four, as battery entries."""
    rng = random.Random(seed)
    pool = [("Q", 0, 1), ("Q", 0, -1)]
    for j in range(1, ctx.ell + 1):
        pool += [("Y", j, 1), ("Y", j, -1), ("X", j, 1), ("X", j, -1)]
    for i in range(1, ctx.ell):
        pool += [("T", i, 1), ("T", i, -1)]
    out = []
    for k in range(_SEEDED):
        word = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 4))]
        label = f"rand{k}:" + ".".join(f"{kind}{idx}^{e}" for kind, idx, e in word)
        out.append((label, apply_word(ctx.one(), word)))
    return out


def _table(suite: str, cfg: RunConfig, pd: ParityData, R) -> list[tuple]:
    """The relation table of one suite; R sizes the Hecke-algebra battery."""
    if suite == "toroidal":
        return toroidal_instances(pd, cfg.modes)
    if suite == "affine":
        return affine_instances(pd)
    if suite == "finite":
        return finite_instances(pd, cfg.ell)
    words = len(default_battery(DahaContext(cfg.ell, R)))
    if suite == "daha":
        return daha_instances(cfg.ell, words, words + _SEEDED)
    return rotation_instances(pd, cfg.ell, cfg.modes, words)


def _battery(suite: str, cfg: RunConfig, pd: ParityData, R) -> list[tuple]:
    """(name, vector) pairs of one suite over ring R, in the order its table indexes."""
    if suite == "finite":
        space = TensorSpace(pd, cfg.ell, R)
        return [(f"v{list(labels)}", space.basis(labels)) for labels in space.all_labels()]
    if suite == "daha":
        ctx = DahaContext(cfg.ell, R)
        return default_battery(ctx) + _random_words(ctx, cfg.seed)
    space = tor.FunctorSpace(pd, cfg.ell, R)
    if suite != "rotation":
        return tor.functor_battery(space)
    words = default_battery(space.daha)
    return [
        (f"{wname}|{','.join(map(str, labels))}", tor.FunctorVector(space, {labels: w}))
        for labels in itertools.product(range(1, pd.kappa + 1), repeat=cfg.ell)
        for wname, w in words
    ] + tor.functor_battery(space)


class SuiteContext:
    """A relation table, its evaluation plan and, per stage, the battery and coefficients.

    SuiteContext.for_suite(suite, cfg) builds a suite's own; any table
    can also be paired with any battery and ring, as long as the
    table's vector ranges index that battery.  verdicts() evaluates it
    to verdict blocks, not rows (see Verdicts).

    The plan: each distinct word suffix is a node, letters[node] applied
    to the image of parents[node]; node 0 is the battery vector.  Per
    instance, slots and nodes are None (excluded: no left side) or
    tuples, term t (left side first) the image at nodes[t] times
    values[slots[t]].  drops[i] lists the nodes whose last reader is
    instance i, the last in table order with a term in the node's
    subtree, and peak is the most images one batch and stage ever holds
    (each node held from its first reader to its last).  Each stage is
    (name, battery, values), values[slot] the _resolve of the slot's
    (coefficient, sign), -1 on the right side.
    """

    def __init__(self, instances: list, stages: list):
        """stages: (stage name, ring, battery) triples, numeric first."""
        self.instances = instances
        self.letters, self.parents, self.slots, self.nodes = [None], [0], [], []
        node_of, slot_of, shared = {}, {}, {}
        for *_, lhs, rhs, _ in instances:
            if not lhs:
                self.slots.append(None)
                self.nodes.append(None)
                continue
            term_slots, term_nodes = [], []
            for sign, side in ((1, lhs), (-1, rhs)):
                for coeff, word in side:
                    node = 0
                    for letter in reversed(word):
                        child = node_of.get((letter, node))
                        if child is None:
                            child = node_of[letter, node] = len(self.letters)
                            self.letters.append(letter)
                            self.parents.append(node)
                        node = child
                    term_slots.append(slot_of.setdefault((coeff, sign), len(slot_of)))
                    term_nodes.append(node)
            term_slots = tuple(term_slots)
            self.slots.append(shared.setdefault(term_slots, term_slots))
            self.nodes.append(tuple(term_nodes))
        first, last = [None] * len(self.letters), [None] * len(self.letters)
        for i, nodes in enumerate(self.nodes):
            for node in nodes or ():
                while last[node] != i:
                    if last[node] is None:
                        first[node] = i
                    last[node] = i
                    if node == 0:
                        break
                    node = self.parents[node]
        self.drops = [[] for _ in instances]
        held = [0] * (len(instances) + 1)
        for node, i in enumerate(last):
            if i is not None:
                self.drops[i].append(node)
                held[first[node]] += 1
                held[i + 1] -= 1
        self.peak = max(itertools.accumulate(held), default=0)
        self.stages = [
            (stage, battery, [_resolve(R, coeff, sign) for coeff, sign in slot_of])
            for stage, R, battery in stages
        ]

    @classmethod
    def for_suite(cls, suite: str, cfg: RunConfig) -> "SuiteContext":
        pd = cfg.parity_data()
        zeta = {"toroidal": "folded", "finite": "none"}.get(suite, "formal")
        rings = [(stage, _coeffs(cfg, stage, zeta)) for stage in _stages(cfg)]
        instances = _table(suite, cfg, pd, rings[0][1])
        return cls(instances, [(stage, R, _battery(suite, cfg, pd, R)) for stage, R in rings])

    def verdicts(self, lo: int, hi: int) -> list:
        """The verdict blocks (see Verdicts) of instances lo..hi-1, in instance order.

        Evaluation is batch-major (see batches): each batch is taken
        through the stages (numeric first) and, per stage, through every
        instance of the chunk that runs on it, as one vector whose
        difference toroidal.split_batch cuts back into one per battery
        vector.  The images of the plan's nodes live in one list per
        batch and stage, each computed when a term first needs it and
        dropped after its last reader's instance, evaluated or skipped.
        An instance is skipped once every vector of the batch has failed
        it; a vector that failed a stage is still computed inside its
        batch in the later ones, but its verdict there is not recorded.
        """
        size = len(self.stages[-1][1])
        blocks, live = [], []
        for i in range(lo, hi):
            vectors, slots, nodes = self.instances[i][-1], self.slots[i], self.nodes[i]
            if slots is None:
                blocks.append(None)
                continue
            vectors = range(size) if vectors is None else vectors
            blocks.append((bytearray(len(vectors)), {}))
            live.append((vectors.start, vectors.stop, slots, nodes, *blocks[-1], self.drops[i]))
        letters, parents = self.letters, self.parents
        for batch in self.batches(lo, hi):
            k0, count = batch[0], len(batch)
            for code, (_, battery, values) in enumerate(self.stages, 1):
                images = [None] * len(letters)
                us = [battery[k][1] for k in batch]
                images[0] = tor.join_batch(us) if count > 1 else us[0]
                for start, stop, slots, nodes, codes, residuals, drops in live:
                    if start <= k0 < stop and not all(codes[k - start] for k in batch):
                        diff = _difference(images, letters, parents, values, slots, nodes)
                        if diff:
                            parts = tor.split_batch(diff, count) if count > 1 else (diff,)
                            limit = 5 if isinstance(diff, tor.FunctorVector) else None
                            for k, part in zip(batch, parts):
                                if part and not codes[k - start]:
                                    codes[k - start] = code
                                    residuals[k - start] = part.render(limit)
                    for node in drops:
                        images[node] = None
        return blocks

    def batches(self, lo: int, hi: int) -> list:
        """The battery indices of each batch of instances lo..hi-1, by first vector.

        A batch is the one-key FunctorVectors of one space with one key
        that run on the same of these instances; every other vector is a
        batch of its own.  Vectors that none of them runs on are left out.
        """
        battery = self.stages[-1][1]
        ranges = sorted({
            (0, len(battery)) if vectors is None else (vectors.start, vectors.stop)
            for (*_, vectors), slots in zip(self.instances[lo:hi], self.slots[lo:hi])
            if slots is not None
        })
        batches: dict = {}
        for k, (_, u) in enumerate(battery):
            runs = tuple(j for j, (start, stop) in enumerate(ranges) if start <= k < stop)
            if not runs:
                continue
            if type(u) is tor.FunctorVector and len(u.support) == 1:
                group = (u.space, next(iter(u.support)), runs)
            else:
                group = k
            batches.setdefault(group, []).append(k)
        return list(batches.values())


# the most recent suite context of this process, keyed on (suite, config key)
_WORKER_CONTEXTS: dict = {}


def _context(suite: str, cfg_key: tuple) -> SuiteContext:
    ctx = _WORKER_CONTEXTS.get((suite, cfg_key))
    if ctx is None:
        _WORKER_CONTEXTS.clear()
        ctx = SuiteContext.for_suite(suite, RunConfig(*cfg_key))
        _WORKER_CONTEXTS[(suite, cfg_key)] = ctx
    return ctx


def _instance_worker(suite: str, cfg_key: tuple, lo: int, hi: int) -> list:
    return _context(suite, cfg_key).verdicts(lo, hi)


def _plan(count: int, jobs: int) -> tuple[list[tuple[int, int]], int]:
    """Instance ranges [lo, hi) for one run, and the worker count for them.

    The worker count never exceeds the range count or the CPU count.
    """
    if jobs == 1 or count < 2 * jobs:
        return [(0, count)], 1
    step = max(1, (count + jobs * 4 - 1) // (jobs * 4))
    ranges = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
    return ranges, min(jobs, len(ranges), os.cpu_count() or 1)


def _run_instances(suite: str, cfg: RunConfig) -> Verdicts:
    ctx = _context(suite, cfg.key())
    count = len(ctx.instances)
    ranges, workers = _plan(count, cfg.jobs)
    if workers == 1:
        return Verdicts(ctx, _instance_worker(suite, cfg.key(), 0, count))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_instance_worker, suite, cfg.key(), lo, hi) for lo, hi in ranges]
        return Verdicts(ctx, [block for fut in futures for block in fut.result()])


def run_suite(suite: str, cfg: RunConfig) -> Report:
    cfg.validate(suite)
    params = {
        "m": cfg.m,
        "n": cfg.n,
        "ell": cfg.ell,
        "R": cfg.modes,
        "parity": cfg.parity_data().to_string(),
        "mode": cfg.mode,
    }
    return Report(suite, params, _run_instances(suite, cfg))
