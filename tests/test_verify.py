import collections
import dataclasses
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtschur import hecke, looprep, verify
from qtschur.hecke import bounded_tuples
from qtschur import toroidal as tor
from qtschur.scalar import NumericContext, SparseVector, SymbolicContext
from qtschur.superdata import ParityData, cartan, node_parity
from qtschur.verify import (
    ConfigError,
    Report,
    RunConfig,
    _expr_terms,
    _lb,
    _leaf,
    _plan,
    _row_json,
    SuiteContext,
    Verdicts,
    affine_instances,
    daha_instances,
    finite_instances,
    rotation_instances,
    run_suite,
    toroidal_instances,
)

from oracles import report_json

PD31 = ParityData.standard(3, 1)


# mode tuple enumeration


def test_mode_tuple_counts():
    assert len(bounded_tuples(1, 2)) == 5
    assert len(bounded_tuples(2, 2)) == 13
    assert len(bounded_tuples(3, 2)) == 25
    assert len(bounded_tuples(4, 2)) == 41
    assert bounded_tuples(2, 0) == [(0, 0)]


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 3))
def test_mode_tuples_exact(k, bound):
    tuples = bounded_tuples(k, bound)
    assert len(set(tuples)) == len(tuples)
    for t in tuples:
        assert sum(abs(v) for v in t) <= bound
    # enumeration is complete: count by brute force over the box
    import itertools

    box = [
        t
        for t in itertools.product(range(-bound, bound + 1), repeat=k)
        if sum(abs(v) for v in t) <= bound
    ]
    assert sorted(tuples) == sorted(box)


# deformed bracket expansion


def test_bracket_expansion_even_nodes():
    # lb{E1[0], lb{E1[1], E2[0]}} over the standard (3,1) parity:
    # inner pairing (a1|a2) = -1, outer pairing (a1|a1+a2) = 1; the
    # terms come pair by pair, XY before YX
    A, B, C = ("E", 1, 0), ("E", 1, 1), ("E", 2, 0)
    expr = _lb(_leaf(*A), _lb(_leaf(*B), _leaf(*C)))
    side, weight, parity = _expr_terms(PD31, expr)
    assert weight == {1: 2, 2: 1}
    assert parity == 0
    assert side == [
        (((1, 0, 0, 0),), (A, B, C)),
        (((-1, -1, 0, 0),), (B, C, A)),
        (((-1, 1, 0, 0),), (A, C, B)),
        (((1, 0, 0, 0),), (C, B, A)),
    ]


def test_bracket_expansion_super_sign():
    # nodes 3 and 0 are both odd for (3,1), so the flip sign is -1 and
    # the cyclic pairing (a3|a0) = -s_4 = 1
    X, Y = ("E", 3, 0), ("E", 0, 0)
    expr = _lb(_leaf(*X), _leaf(*Y))
    side, _, parity = _expr_terms(PD31, expr)
    assert parity == 0
    assert side == [(((1, 0, 0, 0),), (X, Y)), (((1, -1, 0, 0),), (Y, X))]


def test_bracket_weight_lowering():
    side, weight, _ = _expr_terms(PD31, _lb(_leaf("F", 1, 0), _leaf("F", 2, 0)))
    assert weight == {1: -1, 2: -1}
    assert len(side) == 2


# instance enumeration


def test_toroidal_instances_cover_all_relations():
    inst = toroidal_instances(PD31, 1)
    relations = {rel for rel, *_ in inst}
    assert relations == {
        "CK",
        "KK1",
        "KK2",
        "KE",
        "KF",
        "EF",
        "EEFF-zero",
        "EE-quadratic",
        "FF-quadratic",
        "Serre1",
        "Serre2",
        "Serre3",
        "Serre4",
        "Serre5",
        "Serre6",
        "weights",
        "K-chain",
    }
    assert sum(1 for rel, *_ in inst if rel == "Serre5") == 1
    assert sum(1 for rel, *_ in inst if rel == "Serre6") == 1
    for rel, nodes, modes, form, _, _, vectors in inst:
        assert vectors is None
        assert all(abs(r) <= 2 for r in modes)
        if rel == "EEFF-zero":
            assert cartan(PD31, *nodes) == 0
        if rel in ("EE-quadratic", "FF-quadratic"):
            assert cartan(PD31, *nodes) != 0
        if rel == "KK1" and form == "+":
            assert all(r >= 0 for r in modes)
        if rel == "KK1" and form == "-":
            assert all(r <= 0 for r in modes)
        if rel == "KK2":
            assert modes[0] <= 0 <= modes[1]
        if rel in ("Serre1", "Serre2"):
            assert node_parity(PD31, nodes[0]) == 0
        if rel in ("Serre3", "Serre4"):
            assert node_parity(PD31, nodes[0]) == 1


def test_affine_instances_both_variants():
    inst = affine_instances(PD31)
    variants = {form for _, _, _, form, *_ in inst}
    assert variants == {"affine", "vertical"}
    per = {v: sum(1 for _, _, _, f, *_ in inst if f == v) for v in variants}
    assert per["affine"] == per["vertical"]
    chains = [form for rel, _, _, form, *_ in inst if rel == "t-chain"]
    assert sorted(chains) == ["affine", "vertical"]


def test_relation_sides_are_well_formed():
    letters = verify._CURRENTS + verify._CHEVALLEY + verify._HECKE
    letters += (verify._WEIGHT, verify._PSI, verify._SLOT)
    for suite, inst in (
        ("toroidal", toroidal_instances(PD31, 1)),
        ("affine", affine_instances(PD31)),
        ("finite", finite_instances(PD31, 3)),
        ("daha", daha_instances(3, 5, 13)),
        ("rotation", rotation_instances(PD31, 2, 1, 5)),
    ):
        for rel, nodes, modes, form, lhs, rhs, vectors in inst:
            excluded = rel in ("Serre5", "Serre6")
            assert excluded == (not lhs and not rhs), rel
            assert (vectors is None) == (suite in ("toroidal", "affine")), (suite, rel)
            if excluded:
                continue
            assert lhs, rel
            for coeff, word in lhs + rhs:
                assert coeff and all(
                    len(monomial) == 4 and all(type(x) is int for x in monomial)
                    for monomial in coeff
                ), (rel, coeff)
                for op, node, arg in word:
                    assert op in letters, (rel, op)
                    assert 0 <= node < PD31.kappa, (rel, node)
                    if op in verify._CHEVALLEY:
                        assert (suite, arg) in (("affine", form), ("finite", None)), (rel, arg)


# suite smoke runs (small parameters, symbolic and numeric agree)


def test_daha_suite_passes_and_is_seeded():
    cfg = RunConfig(ell=1, mode="both", seed=3)
    rep = run_suite("daha", cfg)
    assert rep.ok()
    assert rep.params == {
        "m": 3,
        "n": 1,
        "ell": 1,
        "R": 2,
        "parity": "+++-",
        "mode": "both",
    }
    names = [row["vector"] for row in rep.results]
    assert any(name.startswith("rand0:") for name in names)
    again = run_suite("daha", cfg)
    assert rep.to_json() == again.to_json()
    other = run_suite("daha", RunConfig(ell=1, mode="both", seed=4))
    assert [r["vector"] for r in other.results] != names


def test_daha_suite_contains_twist_row():
    rep = run_suite("daha", RunConfig(ell=1, mode="symbolic"))
    relations = {row["relation"] for row in rep.results}
    assert "Q Y_l Q^-1 = zeta Y1" in relations
    assert "w Q Y_l Q^-1 = zeta w Y1" in relations


def test_finite_suite_passes():
    rep = run_suite("finite", RunConfig(m=2, n=2, ell=2, mode="both"))
    assert rep.ok()
    for row in rep.results:
        assert row["numeric"] == "pass"
        assert row["symbolic"] == "pass"


def test_rotation_suite_families():
    rep = run_suite("rotation", RunConfig(ell=1, modes=1, mode="symbolic"))
    assert rep.ok()
    relations = {row["relation"] for row in rep.results}
    assert {"rot-E", "rot-F", "rot-K+", "rot-K-"} <= relations
    assert {"wrap-E", "wrap-F-as-F", "wrap-K+", "wrap-K-"} <= relations


def test_rotation_suite_balance_cases_need_two_slots():
    # exchange balance compares adjacent slots, so it only appears
    # from two tensor factors on
    rep = run_suite("rotation", RunConfig(ell=2, modes=0, mode="symbolic"))
    assert rep.ok()
    relations = {row["relation"] for row in rep.results}
    assert {
        "psi-balance-plain-plain",
        "psi-balance-plain-wrap",
        "psi-balance-wrap-plain",
        "psi-balance-wrap-wrap",
    } <= relations


def test_toroidal_suite_small():
    rep = run_suite("toroidal", RunConfig(ell=1, modes=0, mode="both"))
    summary = rep.summary()
    assert summary["fail"] == 0
    assert summary["excluded"] == 2
    for row in rep.results:
        assert set(row) >= {"relation", "nodes", "modes", "vector", "status"}
        if row["status"] == "excluded":
            assert row["relation"] in ("Serre5", "Serre6")
    payload = json.loads(rep.to_json())
    assert set(payload) == {"suite", "params", "results", "summary"}
    assert set(payload["params"]) == {"m", "n", "ell", "R", "parity", "mode"}


def test_affine_suite_small():
    rep = run_suite("affine", RunConfig(ell=1, mode="symbolic"))
    assert rep.ok()
    assert {row["form"] for row in rep.results} == {"affine", "vertical"}


def test_jobs_do_not_change_report():
    for suite, cfg in (
        ("toroidal", RunConfig(ell=1, modes=0, mode="symbolic")),
        ("toroidal", RunConfig(ell=1, modes=0, mode="both")),
        ("affine", RunConfig(ell=1, mode="both")),
        ("finite", RunConfig(m=2, n=2, ell=2, mode="both")),
        ("daha", RunConfig(ell=2, mode="both")),
        ("rotation", RunConfig(ell=2, modes=0, mode="both")),
    ):
        base = run_suite(suite, cfg)
        split = run_suite(suite, dataclasses.replace(cfg, jobs=2))
        assert base.to_json() == split.to_json(), (suite, cfg.mode)


# report bytes pinned, so that no change of evaluation order can move
# them; the digests come from evaluating one instance at a time


PINNED_REPORTS = [
    (
        "toroidal",
        RunConfig(m=3, n=1, ell=1, modes=0),
        "05fbb8bd0d81ef4850f63f74cb8d73126c1f76d58556af1b724d9008623b71ee",
    ),
    (
        "affine",
        RunConfig(m=3, n=1, ell=1),
        "b46dfd1db78bf8bc7e0d5131ca9fdc974752c92aec5082746bd1b7208c48274f",
    ),
    (
        "finite",
        RunConfig(m=2, n=2, ell=2),
        "cd89e4bae8ce89c69d1d7732ec920eb81a3ac639a8116bc232720c5acf5a775d",
    ),
    (
        "daha",
        RunConfig(ell=2),
        "2c893a23bb2d92c4193821c8e16dbb96aed11e5276241f5e7533ba7cca541ddd",
    ),
    (
        "rotation",
        RunConfig(ell=1, modes=1),
        "2b45b41cd8dedc303fac1fe016b1afca13ebeab9f89bc21f3a9507b40a343436",
    ),
    # the first length with braid, T0 and Q_12 / P_2 relations
    (
        "daha",
        RunConfig(ell=3),
        "88fc04173002946915d484a252fd223f54972750f2029ee94ab1269fe48ba960",
    ),
] + [
    # parity words other than the standard +++--, digests from the batched
    # evaluator before the one Hecke fold
    (suite, RunConfig(m=3, n=2, ell=1, modes=1, parity=word), digest)
    for word, suite, digest in [
        ("++-+-", "toroidal", "5ea890b0cab7585a3ca2b35deddf5529a2818a117655f4e164b73484cefca29b"),
        ("++-+-", "affine", "7f837ebc057119f4019ccf8f99c13dba80ac537678e1dd8ffb81cb99c1cadc55"),
        ("++-+-", "rotation", "e2eb85a9de08aec23aa14da19d949ec8c29a1aa01151eb243761dbc82a3202b1"),
        ("+-+-+", "toroidal", "073fb771fe3ff6c3f3cf69ba13506ed780e003a37e8c53c78c28a61e10eec080"),
        ("+-+-+", "affine", "b76ed0720aa47f36c901fd1675dda7104ef3626fcb1310425f08b4f244f47df1"),
        ("+-+-+", "rotation", "62a338994e4a4b0811308e62069225a06434ef26ca624ffaefec658708359ffd"),
    ]
] + [
    # the toroidal suite at ell 2 under a non-standard word (82,080 pass,
    # 2 excluded; 190 rows fail with the sort's odd-swap sign dropped),
    # digest from the evaluator before the in-place accumulation
    (
        "toroidal",
        RunConfig(m=3, n=2, ell=2, modes=0, parity="++-+-"),
        "0a44d199c1b42920bc0d0515ef32b9dd2d3284701a5c5fe6de9e480a374f29ba",
    ),
]


def _digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _written(report):
    fh = io.StringIO()
    report.write(fh)
    return fh.getvalue()


@pytest.mark.parametrize("suite, cfg, digest", PINNED_REPORTS)
def test_report_bytes_pinned(suite, cfg, digest):
    report = run_suite(suite, cfg)
    assert _digest(report) == digest
    assert _written(report) == report_json(report)


def test_report_without_rows_matches_json():
    empty = SuiteContext([], [("symbolic", SymbolicContext(formal_zeta=True), [])])
    report = Report("daha", {"m": 3, "parity": "+++-"}, Verdicts(empty, []))
    assert _written(report) == report.to_json() == report_json(report)


@pytest.mark.parametrize("value", [1.5, True, None, [0, True], [1.0]])
def test_report_rows_take_only_str_and_int_lists(value):
    # a row's text is json's own layout of it at depth 2, whatever its values
    row = {"relation": "x", "status": "pass", "vector": value}
    whole = json.dumps({"results": [row]}, sort_keys=True, indent=2)
    assert whole == '{\n  "results": [\n' + _row_json(row) + "\n  ]\n}"


def _frozen(v):
    """v's support as nested tuples, in dict order, factors frozen too."""
    return tuple(
        (key, _frozen(c) if isinstance(c, SparseVector) else c) for key, c in v.support.items()
    )


def _small_tables():
    """(context, extra letters) of every suite and the dictionary, all symbolic.

    The extra letters are the horizontal Chevalley variant, which no
    table uses.
    """
    out = []
    for suite, cfg in [
        ("finite", RunConfig(ell=2)),
        ("daha", RunConfig(ell=2)),
        ("toroidal", RunConfig(m=3, n=1, ell=1, modes=0)),
        ("affine", RunConfig(m=3, n=1, ell=1)),
        ("rotation", RunConfig(ell=2, modes=0)),
    ]:
        ctx = SuiteContext.for_suite(suite, dataclasses.replace(cfg, mode="symbolic"))
        extra = [(kind, 0, "horizontal") for kind in ("e", "f", "t", "tinv")]
        out.append((ctx, extra if suite == "affine" else []))
    R = SymbolicContext(formal_zeta=True)
    instances, battery = verify.dictionary_instances(3, 1, 2), verify.dictionary_battery(3, 1, 2, R)
    out.append((SuiteContext(instances, [("symbolic", R, battery)]), []))
    return out


def _differences(ctx, k):
    """(instance index, difference) of every instance of ctx that runs on battery
    vector k, through the evaluator's plan, with one images list for them all."""
    _, battery, values = ctx.stages[0]
    images = [battery[k][1]] + [None] * (len(ctx.letters) - 1)
    for i, (*_, vectors) in enumerate(ctx.instances):
        if ctx.slots[i] is not None and (vectors is None or k in vectors):
            yield i, verify._difference(images, ctx.letters, ctx.parents, values,
                                        ctx.slots[i], ctx.nodes[i])


def _plan_difference(R, lhs, rhs, u):
    """lhs(u) - rhs(u) through the evaluator's plan of a one-instance table."""
    ctx = SuiteContext([("", (), (), None, lhs, rhs, None)], [("symbolic", R, [("u", u)])])
    return next(_differences(ctx, 0))[1]


def test_no_operation_changes_an_operand(monkeypatch):
    # the plan shares images between relations, which is sound only if no
    # letter, no vector operation and no relation difference changes a
    # support in place: every operand, and the base a scaled view among
    # its factors shares, is frozen when first seen and compared at the
    # end; each difference sums images of the vector's one images list
    seen, views = set(), 0
    letter_image = verify.apply_letter

    for ctx, extra in _small_tables():
        for k, (_, u) in enumerate(ctx.stages[0][1]):
            operands, bases = {}, {}
            R = u.owner.R

            def frozen(v):
                for c in v.support.values():
                    if isinstance(c, tor.ScaledView) and id(c.base) not in bases:
                        bases[id(c.base)] = (c.base, tuple(c.base.items()))
                return _frozen(v)

            def operate(v):
                operands[id(v)] = (v, frozen(v))
                if v.owner is not u.owner:
                    with pytest.raises(ValueError):
                        u + v
                    return
                for w in (u + v, u - v, -v, v * R.qpow(1), v * R.zero,
                          v.linear(lambda key: [(key, R.qpow(-1))])):
                    operands.setdefault(id(w), (w, frozen(w)))
                assert (u == v) in (True, False) and bool(v) is not v.is_zero()
                v.render(limit=2)
                if isinstance(v, hecke.DahaElement):
                    hash(v)

            def image(op, node, arg, v):
                seen.add((op, type(v).__name__))
                if id(v) not in operands:
                    operate(v)
                out = letter_image(op, node, arg, v)
                if id(out) not in operands:
                    operate(out)
                return out

            monkeypatch.setattr(verify, "apply_letter", image)
            operate(u)
            for _, diff in _differences(ctx, k):
                operands.setdefault(id(diff), (diff, frozen(diff)))
            for letter in extra:
                image(*letter, u)
            assert all(_frozen(v) == was for v, was in operands.values()), k
            assert all(tuple(base.items()) == was for base, was in bases.values()), k
            views += len(bases)
    assert views and {op for op, _ in seen} == {
        "E", "F", "K+", "K-", "e", "f", "t", "tinv", "wt", "psi", "S", "T", "X", "Y", "Q"
    }
    assert {(op, t) for op, t in seen if op in ("E", "e", "S", "T")} == {
        ("E", "PlainTensor"), ("E", "FunctorVector"), ("e", "PlainTensor"),
        ("e", "FunctorVector"), ("S", "PlainTensor"), ("S", "FunctorVector"),
        ("T", "DahaElement"), ("T", "FunctorVector"),
    }


def _reference_difference(R, lhs, rhs, u):
    """lhs(u) - rhs(u) through +, scale and -, each side summed from its first
    term, every word applied letter by letter with no image shared."""
    sums = []
    for side in (lhs, rhs):
        acc = None
        for coeff, word in side:
            v = u
            for letter in reversed(word):
                v = verify.apply_letter(*letter, v)
            c = verify._resolve(R, coeff)
            v = v if c is None else v * c
            acc = v if acc is None else acc + v
        sums.append(acc)
    return sums[0] if sums[1] is None else sums[0] - sums[1]


def test_flat_difference_matches_the_vector_sum():
    # the planned flat sum and the sum through vector operations agree on
    # every instance and vector: same zero test, and equal as vectors
    # (balanced ones up to dead keys, through FunctorVector.__eq__)
    for ctx, _ in _small_tables():
        for k, (_, u) in enumerate(ctx.stages[0][1]):
            for i, got in _differences(ctx, k):
                relation, *_, lhs, rhs, _ = ctx.instances[i]
                want = _reference_difference(u.owner.R, lhs, rhs, u)
                assert type(got) is type(want) and got.owner is want.owner
                assert got.is_zero() == want.is_zero(), (relation, k)
                assert got == want, (relation, k)


def test_difference_of_images_in_two_spaces_raises():
    space = tor.FunctorSpace(PD31, 1, SymbolicContext(formal_zeta=True))
    rotated = [(verify._ONE, ((verify._PSI, 0, 1),))]
    assert space.rotated(1) is not space
    with pytest.raises(ValueError):
        _plan_difference(space.R, rotated, [(verify._ONE, ())], space.basis((1,)))
    with pytest.raises(ValueError):
        _plan_difference(space.R, [(verify._ONE, ())] + rotated, [], space.basis((2,)))


def test_one_term_difference_drops_dead_keys():
    # T_1 - q^2 kills the key (1, 1): the raw vector is nonzero, and its
    # difference with an empty side is zero in the balanced product
    R = SymbolicContext(formal_zeta=True)
    space = tor.FunctorSpace(PD31, 2, R)
    one = space.daha.one()
    w = hecke.right_mul_T(one, 1) - one * R.qpow(2)
    u = tor.FunctorVector(space, {(1, 1): w})
    assert u and space.key_is_dead((1, 1), w)
    diff = _plan_difference(R, [(verify._ONE, ())], [], u)
    assert diff.is_zero() and diff.space is space
    assert u.support == {(1, 1): w}


def _falsy(v):
    """The keys of v's support whose coefficient is falsy, a balanced
    vector's factors searched too."""
    out = []
    for key, c in v.support.items():
        if not c:
            out.append(key)
        elif isinstance(c, hecke.DahaElement):
            out.extend((key, k) for k, x in c.support.items() if not x)
    return out


def _supports(v):
    """v's support, each balanced factor replaced by its own support."""
    return {key: c.support if isinstance(c, SparseVector) else c for key, c in v.support.items()}


# a ring-free coefficient that resolves to the ring's zero in every ring
_VANISHING = ((1, 0, 0, 0), (-1, 0, 0, 0))


@pytest.mark.parametrize("R", [
    SymbolicContext(m=3, n=1), NumericContext(2, 3, 3, 1)
], ids=["symbolic", "numeric"])
def test_a_zero_coefficient_term_adds_nothing(R):
    # a term whose slot value is the ring's zero gives the support of the
    # difference without it, whether it comes first into empty parts (the
    # scaled view) or after other terms; on balanced vectors and on Hecke
    # elements, its image a different vector from the other term's
    space = tor.FunctorSpace(PD31, 2, R)
    one = space.daha.one()
    w = hecke.right_mul_T(one, 1) + one
    for u, letter in [
        (space.basis((1, 2), w) + space.basis((2, 2)), ("f", 1, "affine")),
        (w, ("X", 2, 1)),
    ]:
        term = [(verify._ONE, (letter,))]
        want = _plan_difference(R, term, [], u)
        zero = [(_VANISHING, ())]
        assert verify._resolve(R, _VANISHING) == R.zero and want
        # the zero term reaches a key that the other term's image leaves empty
        assert _supports(u).keys() - _supports(want).keys()
        assert not _plan_difference(R, zero, [], u).support
        for lhs in (zero + term, term + zero):
            got = _plan_difference(R, lhs, [], u)
            assert _supports(got) == _supports(want) and not _falsy(got)


@pytest.mark.parametrize("R", [
    SymbolicContext(m=3, n=1), NumericContext(2, 3, 3, 1)
], ids=["symbolic", "numeric"])
def test_a_term_cancelled_by_a_later_one_leaves_no_key(R):
    # _difference adds into a non-empty part in place: u, added after the
    # first term's image and then taken away by the rhs, reaches basis keys
    # inside a part of that image which the image leaves empty; those keys
    # must be deleted, so the support is the first term's alone; on
    # balanced vectors and on Hecke elements
    space = tor.FunctorSpace(PD31, 2, R)
    one = space.daha.one()
    w = hecke.right_mul_T(one, 1) + one
    for u, letter in [
        (space.basis((1, 2), w) + space.basis((2, 2), hecke.right_mul_Y(one, 1)),
         ("f", 1, "affine")),
        (w, ("X", 2, 1)),
    ]:
        first, same = [(verify._ONE, (letter,))], [(verify._ONE, ())]
        want = _plan_difference(R, first, [], u)
        image, parts = _supports(want), _supports(u)
        if type(u) is tor.FunctorVector:
            assert any(parts[key].keys() - image[key].keys() for key in parts.keys() & image.keys())
        else:
            assert parts.keys() - image.keys() and image
        got = _plan_difference(R, first + same, same, u)
        assert _supports(got) == image and not _falsy(got)


@pytest.mark.parametrize("R", [
    SymbolicContext(m=3, n=1), NumericContext(2, 3, 3, 1)
], ids=["symbolic", "numeric"])
def test_views_of_one_base_add_their_coefficients(monkeypatch, R):
    # the first image on a key of a difference is a scaled view of its
    # factor, and a later view of that factor on the key, from u itself
    # or from a weight letter's image of u, adds its coefficient to the
    # view's: a zero sum leaves no key, any other sum is the copying
    # reference in value and in rendered text, also at the repeated-label
    # key (2, 2), where _collect tests the view's base; a term on another
    # base (w T_1) first copies the view into a dict
    space = tor.FunctorSpace(PD31, 2, R)
    one = space.daha.one()
    w = hecke.right_mul_T(one, 1) + hecke.right_mul_Y(one, 1)
    u = tor.FunctorVector(space, {(1, 2): w, (2, 2): w * R.qpow(1)})
    a, b, q = ([(((c, e, 0, 0),), ())] for c, e in ((2, 1), (1, -1), (1, 1)))  # 2 q, q^-1, q
    weight, t1 = ([(verify._ONE, (letter,))] for letter in ((verify._WEIGHT, 2, None),
                                                              ("T", 1, None)))
    pairs = [(a, b), (a + b, []), (b, a + a), (q, weight), (b, t1)]
    wants = [_reference_difference(R, lhs, rhs, u) for lhs, rhs in pairs]
    sums = []

    def collect(space, acc, orig=tor._collect):
        sums.append(dict(acc))
        return orig(space, acc)

    monkeypatch.setattr(tor, "_collect", collect)
    assert not _plan_difference(R, a, a, u) and sums.pop() == {}
    keys = []
    for (lhs, rhs), want in zip(pairs, wants):
        got = _plan_difference(R, lhs, rhs, u)
        acc = sums.pop()
        keys.append(list(acc))
        assert acc.keys() == got.support.keys() == want.support.keys()
        for key, part in acc.items():
            if rhs is t1:
                assert type(part) is dict
            else:
                assert type(part) is tor.ScaledView and part.base is u.support[key].support
                assert got.support[key] is part
            assert got.support[key] == want.support[key] and want.support[key] == got.support[key]
        assert got.render() == want.render()
    # q u - t_2 u: t_2 scales the key (1, 2) by q, so that key cancels
    assert keys[3] == [(2, 2)] and keys[4] == keys[0] == [(1, 2), (2, 2)]
    assert u.support[1, 2].support == w.support


@pytest.mark.parametrize("suite", ["toroidal", "affine"])
def test_no_image_or_difference_holds_a_zero_coefficient(monkeypatch, suite):
    # the scaled views into empty parts keep every support free of zero
    # coefficients, in both stages of a two-slot run
    seen = collections.Counter()
    letter_image, difference = verify.apply_letter, verify._difference

    def image(*args):
        out = letter_image(*args)
        assert not _falsy(out), args[:3]
        seen["image"] += bool(out.support)
        return out

    def checked(*args):
        out = difference(*args)
        assert not _falsy(out)
        seen["difference"] += bool(out.support)
        return out

    monkeypatch.setattr(verify, "apply_letter", image)
    monkeypatch.setattr(verify, "_difference", checked)
    ctx = SuiteContext.for_suite(suite, RunConfig(m=3, n=1, ell=2, modes=0))
    for stage, battery, _ in ctx.stages:
        assert not any(_falsy(u) for _, u in battery), stage
    ctx.verdicts(0, len(ctx.instances))
    # the run passes, so every difference is empty, with no zero-filled part
    assert seen["image"] and seen["difference"] == 0


@pytest.mark.parametrize("suite, cfg", [
    ("toroidal", RunConfig(m=3, n=1, ell=1, modes=1)),
    ("affine", RunConfig(m=3, n=1, ell=2)),
])
def test_plan_applies_each_letter_once_per_input(monkeypatch, suite, cfg):
    # the plan keeps all sharing: within one (batch, stage), no letter is
    # applied twice to the same input object.  A batch starts when its
    # vector is joined; the inputs are kept alive until the next batch
    # comes in, so no id is reused meanwhile
    ctx = SuiteContext.for_suite(suite, cfg)
    applied, inputs, calls = set(), [], collections.Counter()
    letter_image, join = verify.apply_letter, tor.join_batch

    def start(vectors):
        applied.clear()
        inputs[:] = [join(vectors)]
        calls["batch"] += 1
        return inputs[0]

    def once(op, node, arg, v):
        key = (op, node, arg, id(v))
        assert key not in applied, key
        applied.add(key)
        inputs.append(v)
        calls[op] += 1
        return letter_image(op, node, arg, v)

    monkeypatch.setattr(tor, "join_batch", start)
    monkeypatch.setattr(verify, "apply_letter", once)
    blocks = ctx.verdicts(0, len(ctx.instances))
    assert not any(any(block[0]) for block in blocks if block is not None)
    # one batch per key, of every battery factor: 7 at ell 1, 19 at ell 2
    batches = ctx.batches(0, len(ctx.instances))
    assert {len(batch) for batch in batches} == {{1: 7, 2: 19}[cfg.ell]}
    assert calls.pop("batch") == len(ctx.stages) * len(batches)
    assert set(calls) == ({"E", "F", "K+", "K-", "wt"} if suite == "toroidal"
                          else {"e", "f", "t", "tinv"})


def test_toroidal_suite_makes_no_rotation_call(monkeypatch):
    # a wrap-node current is one composed letter; the rotation is not
    # applied to whole vectors on the way
    calls = []
    for name in ("psi_apply", "psi_inverse"):
        monkeypatch.setattr(tor, name, lambda fv, name=name: calls.append(name))
    cfg = RunConfig(m=3, n=1, ell=1, modes=0, mode="symbolic")
    assert run_suite("toroidal", cfg).ok()
    assert not calls


def test_operators_never_see_zero_inputs(monkeypatch):
    # a zero vector is its own image, so the suites skip the operator call
    def nonzero_only(op):
        def wrapped(*args, **kwargs):
            fv = next(a for a in args if isinstance(a, tor.FunctorVector))
            assert fv.support, f"{op.__name__} called on a zero vector"
            return op(*args, **kwargs)

        return wrapped

    for name in ("toroidal_mode_apply", "functor_chevalley_apply"):
        monkeypatch.setattr(tor, name, nonzero_only(getattr(tor, name)))
    for suite, cfg, digest in PINNED_REPORTS:
        assert _digest(run_suite(suite, cfg)) == digest


def test_plan_clamps_workers(monkeypatch):
    # only the plan is computed; no pool is started
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    ranges, workers = _plan(100_000, 10_000)
    assert workers == 4
    assert ranges[0][0] == 0 and ranges[-1][1] == 100_000
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _plan(100_000, 10_000)[1] == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _plan(100_000, 8)[1] == 8
    assert _plan(9, 5) == ([(0, 9)], 1)


def test_run_suite_dispatch():
    with pytest.raises(ConfigError):
        run_suite("nope", RunConfig())


# gating mechanics: a numeric failure suppresses the symbolic pass


def test_numeric_failure_gates_symbolic(monkeypatch):
    # the first EF instance gets lhs = identity and an empty rhs, so its
    # difference is the vector itself; the context plans the patched table
    def patched(*args, table=verify._table):
        instances = table(*args)
        idx = next(i for i, inst in enumerate(instances) if inst[0] == "EF")
        relation, nodes, modes, form, _, _, vectors = instances[idx]
        instances[idx] = (relation, nodes, modes, form, [(verify._ONE, ())], [], vectors)
        return instances

    monkeypatch.setattr(verify, "_table", patched)
    ctx = SuiteContext.for_suite("toroidal", RunConfig(ell=1, modes=0, mode="both"))
    idx = next(i for i, inst in enumerate(ctx.instances) if inst[0] == "EF")
    rows = list(Verdicts(ctx, ctx.verdicts(idx, idx + 1), idx))
    assert rows
    for row in rows:
        assert row["status"] == "fail"
        assert row["numeric"] == "fail"
        assert row["symbolic"] == "skipped"
        assert row["residual"]


def _flip_swapped_term(exchange):
    def flipped(space, i, labels):
        return [(lab, c if lab == labels else -c) for lab, c in exchange(space, i, labels)]

    return flipped


def _flip_correction(bl_exchange):
    def flipped(ctx, mu, i):
        swapped, corrections = bl_exchange(ctx, mu, i)
        return swapped, [(-sign, vec) for sign, vec in corrections]

    return flipped


def _negate_node0_lowering(slot_ops):
    def negated(space):
        ident, e, f, t = slot_ops(space)

        def f_negated(i):
            par, fn = f(i)
            if i:
                return par, fn
            return par, lambda j: None if fn(j) is None else (fn(j)[0], -fn(j)[1])

        return ident, e, f_negated, t

    return negated


def _drop_odd_swap_sign(sort_schedule):
    # the sort's coefficient without the sign of swapping two odd labels
    def dropped(space, labels):
        word, _, target = sort_schedule(space, labels)
        return word, space.R.qpow(-len(word)), target

    return dropped


# gating in the tabled suites: (suite, config, patched module and name,
# fault, failing rows); the counts were measured with each suite's own
# checker and row builder, before all suites shared one evaluator; the
# node-0 lowering count is also that of node 0's former own slot operators;
# the sort-sign count was measured before the one Hecke fold, in the first
# gated configuration that swaps two odd labels (n = 2)
GATED_FAULTS = [
    ("finite", RunConfig(m=2, n=2, ell=2), looprep, "hecke_exchange_terms",
     _flip_swapped_term, 18),
    ("daha", RunConfig(ell=2), hecke, "_bl_exchange", _flip_correction, 175),
    ("rotation", RunConfig(ell=2, modes=0), tor, "hecke_exchange_terms",
     _flip_swapped_term, 228),
    ("daha", RunConfig(ell=3), hecke, "_bl_exchange", _flip_correction, 862),
    ("affine", RunConfig(m=3, n=1, ell=1), looprep, "slot_ops", _negate_node0_lowering, 28),
    ("rotation", RunConfig(m=3, n=2, ell=2, modes=0), tor.FunctorSpace, "sort_schedule",
     _drop_odd_swap_sign, 76),
]


def _longer(cfg):
    """An id suffix naming the length of a configuration longer than ell 2
    and the dimensions of one with kappa above 4."""
    kappa = cfg.m + cfg.n
    return (f"-ell{cfg.ell}" if cfg.ell > 2 else "") + (f"-m{cfg.m}n{cfg.n}" if kappa > 4 else "")


@pytest.mark.parametrize(
    "suite, cfg, module, name, fault, count", GATED_FAULTS,
    ids=[suite + _longer(cfg) for suite, cfg, *_ in GATED_FAULTS],
)
def test_numeric_failure_gates_symbolic_in_checked_suites(
    monkeypatch, suite, cfg, module, name, fault, count
):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    fails = [row for row in run_suite(suite, cfg).results if row["status"] == "fail"]
    assert len(fails) == count
    for row in fails:
        assert row["numeric"] == "fail"
        assert row["symbolic"] == "skipped"
        assert row["residual"]


def test_report_bytes_match_json_where_failing_rows_split_an_instance(monkeypatch):
    # the writer joins each run of an instance's consecutive passing rows
    # into one piece; the sort-sign fault fails vectors inside instances
    # whose first and last vectors pass, and the bytes stay json's own;
    # the digest was taken while the writer wrote one row at a time
    suite, cfg, module, name, fault, count = GATED_FAULTS[5]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = run_suite(suite, cfg)
    split = [codes for codes, _ in filter(None, report.results.blocks)
             if codes[0] == codes[-1] == 0 and any(codes)]
    assert split and report.summary()["fail"] == count
    written = _written(report)
    assert written == report_json(report)
    assert hashlib.sha256(written.encode()).hexdigest() == (
        "1fe3f867cc0d84efc1a05c5833c4cdfc3050257fc6b8ca97b60443efba44f99f"
    )


# fault injection: shared operator images must not hide a wrong formula


def _failing_rows(report):
    return sorted(
        (row["relation"], row["nodes"], row["modes"], row.get("form"), row["vector"])
        for row in report.results
        if row["status"] == "fail"
    )


def test_memo_does_not_hide_dropped_d_power(monkeypatch):
    # with m(i, j) forced to 0 the d^m factor drops out of KE, KF and
    # the quadratic relations; counts measured with the per-instance
    # evaluator
    monkeypatch.setattr(verify, "mmatrix", lambda pd, i, j: 0)
    cfg = RunConfig(m=3, n=1, ell=1, modes=0)
    both = run_suite("toroidal", cfg)
    fails = [row for row in both.results if row["status"] == "fail"]
    assert len(fails) == 168
    counts = collections.Counter(row["relation"] for row in fails)
    assert counts == {"KE": 56, "KF": 56, "EE-quadratic": 28, "FF-quadratic": 28}
    assert all(
        row["numeric"] == "fail" and row["symbolic"] == "skipped" for row in fails
    )
    symbolic = run_suite("toroidal", dataclasses.replace(cfg, mode="symbolic"))
    assert _failing_rows(symbolic) == _failing_rows(both)
    # the symbolic residuals render byte for byte as with all-Fraction
    # coefficients (digest computed before integral coefficients became ints)
    assert _digest(symbolic) == (
        "02f1434b6a400c21836740cc73b6313aa5532b623d2799fba2c734687d7ee77b"
    )
    # the row encoder also lays out residual and note fields as json does
    for report in (both, symbolic):
        assert {"residual", "note"} <= {key for row in report.results for key in row}
        assert _written(report) == report_json(report)


def test_failing_residuals_survive_worker_processes(monkeypatch):
    # the configuration of test_memo_does_not_hide_dropped_d_power, its
    # verdict blocks made in worker processes and returned to this one;
    # the workers are forked after the patch, so they evaluate with it
    monkeypatch.setattr(verify, "mmatrix", lambda pd, i, j: 0)
    cfg = RunConfig(m=3, n=1, ell=1, modes=0, mode="symbolic", jobs=2)
    report = run_suite("toroidal", cfg)
    assert report.summary()["fail"] == 168
    assert _digest(report) == (
        "02f1434b6a400c21836740cc73b6313aa5532b623d2799fba2c734687d7ee77b"
    )


# residual text of the numeric stage at three points, with m(i, j) forced
# to 0 as in test_memo_does_not_hide_dropped_d_power; digests computed
# while numeric coefficients were Fractions
NUMERIC_RESIDUALS = [
    ("2", "3", "ed13b3b4bbe8a55ac45047c0f331da62c6ea219b8e5f959f874897aa7448acff"),
    ("-9/7", "5/3", "68d913c449078b77302fb033fce86b3e05b07dd3192ca77868c9bc5db79fad4a"),
    ("4/5", "-7/2", "9b39bcc11dbbbaafd7d20506b40cac0ea46319593576cd1ae8923beca174d798"),
]


@pytest.mark.parametrize("q0, d0, digest", NUMERIC_RESIDUALS)
def test_numeric_residual_text_pinned(monkeypatch, q0, d0, digest):
    monkeypatch.setattr(verify, "mmatrix", lambda pd, i, j: 0)
    cfg = RunConfig(m=3, n=1, ell=1, modes=0, mode="numeric", q0=q0, d0=d0)
    report = run_suite("toroidal", cfg)
    assert report.summary()["fail"] == 168
    assert hashlib.sha256(_written(report).encode()).hexdigest() == digest


# order invariance: the fault-injected configurations above (and the
# symbolic one of test_memo_does_not_hide_dropped_d_power), their tables
# rewritten with every side's terms reversed, or with the rhs moved onto
# the lhs, negated; the report bytes must not move


def _reversed_sides(row):
    *head, lhs, rhs, vectors = row
    return (*head, lhs[::-1], rhs[::-1], vectors)


def _one_side(row):
    *head, lhs, rhs, vectors = row
    negated = [(tuple((-c, *exps) for c, *exps in coeff), word) for coeff, word in rhs]
    return (*head, (lhs + negated)[::-1], [], vectors)


_D_POWER_DROPPED = [RunConfig(m=3, n=1, ell=1, modes=0, mode="symbolic")] + [
    RunConfig(m=3, n=1, ell=1, modes=0, mode="numeric", q0=q0, d0=d0)
    for q0, d0, _ in NUMERIC_RESIDUALS
]
ORDER_CASES = [case[:5] for case in GATED_FAULTS] + [
    ("toroidal", cfg, verify, "mmatrix", lambda _: lambda pd, i, j: 0) for cfg in _D_POWER_DROPPED
]


@pytest.mark.parametrize(
    "suite, cfg, module, name, fault", ORDER_CASES,
    ids=[f"{suite}-{cfg.mode}-{cfg.q0},{cfg.d0}{_longer(cfg)}" for suite, cfg, *_ in ORDER_CASES],
)
def test_report_bytes_independent_of_term_order(monkeypatch, suite, cfg, module, name, fault):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = run_suite(suite, cfg)
    assert report.summary()["fail"]
    expected, table = _written(report), verify._table
    for rewrite in (_reversed_sides, _one_side):
        verify._WORKER_CONTEXTS.clear()
        monkeypatch.setattr(verify, "_table", lambda *args: [rewrite(row) for row in table(*args)])
        assert _written(run_suite(suite, cfg)) == expected, rewrite.__name__


def test_run_suite_builds_rows_only_while_writing(monkeypatch):
    built = []

    def counted(*args, orig=verify._row):
        built.append(args[0])
        return orig(*args)

    monkeypatch.setattr(verify, "_row", counted)
    report = run_suite("toroidal", RunConfig(m=3, n=1, ell=1, modes=0, mode="both"))
    assert report.ok() and report.render_summary() and report.summary()["pass"]
    assert built == []
    written = _written(report)
    # one row per instance (its template, or its excluded row), one per failing row
    assert len(built) == len(report.results.instances) + report.summary()["fail"]
    assert written == report_json(report)
    assert hashlib.sha256(written.encode()).hexdigest() == PINNED_REPORTS[0][2]


# rows the writer renders whole: failing rows, whose residual sorts
# before the vector name, and the excluded Serre5/6 rows; in one-stage
# (symbolic, numeric) and two-stage (both) layouts, with form fields
WHOLE_ROWS = [
    ("symbolic", True, 168,
     "02f1434b6a400c21836740cc73b6313aa5532b623d2799fba2c734687d7ee77b"),
    ("both", False, 0, PINNED_REPORTS[0][2]),
    ("numeric", False, 0, None),
]


@pytest.mark.parametrize("mode, fault, fails, digest", WHOLE_ROWS, ids=["fail", "both", "numeric"])
def test_writer_renders_failing_and_excluded_rows_whole(monkeypatch, mode, fault, fails, digest):
    if fault:
        monkeypatch.setattr(verify, "mmatrix", lambda pd, i, j: 0)
    report = run_suite("toroidal", RunConfig(m=3, n=1, ell=1, modes=0, mode=mode))
    built = []
    counted = lambda *args, orig=verify._row: built.append(args) or orig(*args)
    monkeypatch.setattr(verify, "_row", counted)
    written = _written(report)
    assert report.summary()["fail"] == fails and report.summary()["excluded"] == 2
    assert len(built) == len(report.results.instances) + fails
    assert written == report_json(report)
    assert digest is None or hashlib.sha256(written.encode()).hexdigest() == digest
    assert {"form", "note"} <= {key for row in report.results for key in row}


def test_context_cache_keeps_the_latest_context_only():
    run_suite("daha", RunConfig(ell=1))
    run_suite("daha", RunConfig(ell=2))
    assert list(verify._WORKER_CONTEXTS) == [("daha", RunConfig(ell=2).key())]


def test_rotation_kernels_do_not_hide_flipped_x_letter(monkeypatch):
    # X_j^e computed as X_j^-e in the fold's one X rule; the cached Hecke
    # words of the rotation are built through it, so every cached image
    # carries the fault; counts and digest measured with the
    # letter-by-letter rotation
    flipped = lambda ctx, support, j, exp, orig=hecke._mul_X: orig(ctx, support, j, -exp)
    monkeypatch.setattr(hecke, "_mul_X", flipped)
    report = run_suite("rotation", RunConfig(ell=2, modes=0))
    fails = [row for row in report.results if row["status"] == "fail"]
    assert len(fails) == 760
    assert collections.Counter(row["relation"] for row in fails) == {
        "rot-E": 38, "rot-F": 38, "rot-K+": 114, "rot-K-": 114,
        "wrap-E": 76, "wrap-F-as-F": 76, "wrap-K+": 95, "wrap-K-": 95,
        "psi-balance-plain-wrap": 57, "psi-balance-wrap-plain": 57,
    }
    assert _digest(report) == (
        "0ebc68dcdc5c29d4e29c5c44245c686417de5f32c4af8e91e73d10155ca843ba"
    )


def _flip_quadratic_term(basis_mul_T):
    # every term of (Q^k T_w Y^mu) T_i but the first carries q^2 - 1
    def flipped(ctx, key, i):
        out = basis_mul_T(ctx, key, i)
        return out[:1] + [(key2, -c) for key2, c in out[1:]]

    return flipped


def test_shared_word_cache_does_not_hide_flipped_quadratic_term(monkeypatch):
    # q^2 - 1 computed as 1 - q^2 in the rewrite of a basis word times T_i,
    # from which every cached Hecke word is built; counts and digest
    # measured while each operator kept a cache of its own
    monkeypatch.setattr(hecke, "_basis_mul_T", _flip_quadratic_term(hecke._basis_mul_T))
    report = run_suite("rotation", RunConfig(ell=2, modes=0))
    fails = [row for row in report.results if row["status"] == "fail"]
    assert len(fails) == 1045
    assert all(row["numeric"] == "fail" and row["symbolic"] == "skipped" for row in fails)
    assert collections.Counter(row["relation"] for row in fails) == {
        "rot-E": 38, "rot-F": 38, "rot-K+": 152, "rot-K-": 152,
        "wrap-E": 76, "wrap-F-as-F": 76, "wrap-K+": 133, "wrap-K-": 133,
        "psi-balance-plain-plain": 114, "psi-balance-plain-wrap": 57,
        "psi-balance-wrap-plain": 57, "psi-balance-wrap-wrap": 19,
    }
    assert _digest(report) == (
        "0820921030b8e319b5e691efa0a5fa04b89ce2f6b2fcf05a8e16d003a5407b2e"
    )


def test_rotation_suite_rotates_each_vector_once(monkeypatch):
    # the inputs are kept so that ids stay unique: each batch's images are
    # dropped once the batch is done, and freed ids are reused
    inputs = []

    def counted(fv, orig=tor.psi_apply):
        inputs.append(fv)
        return orig(fv)

    monkeypatch.setattr(tor, "psi_apply", counted)
    assert run_suite("rotation", RunConfig(ell=1, modes=1, mode="symbolic")).ok()
    # 28 battery vectors in 4 batches, one per key; each batch rotated
    # once and its image once more
    assert len(inputs) == len({id(fv) for fv in inputs}) == 8


# configuration validation


def test_validate_rejects_bad_input():
    with pytest.raises(ConfigError, match="κ ≥ 4 required"):
        RunConfig(m=2, n=1).validate("toroidal")
    with pytest.raises(ConfigError, match="m = n"):
        RunConfig(m=2, n=2).validate("daha")
    with pytest.raises(ConfigError):
        RunConfig(ell=0).validate("daha")
    with pytest.raises(ConfigError):
        RunConfig(mode="fast").validate("daha")
    with pytest.raises(ConfigError):
        RunConfig(parity="++*-").validate("toroidal")
    with pytest.raises(ConfigError):
        RunConfig(parity="++++").validate("toroidal")
    with pytest.raises(ConfigError):
        RunConfig(ell=1).validate("finite")
    with pytest.raises(ConfigError):
        RunConfig(q0="0").validate("toroidal")
    with pytest.raises(ConfigError):
        RunConfig(q0="x").validate("toroidal")


def test_validate_warns_outside_equivalence_regime():
    assert RunConfig(m=3, n=1, ell=1).validate("toroidal") == []
    warnings = RunConfig(m=3, n=1, ell=2).validate("toroidal")
    assert len(warnings) == 1 and "equivalence" in warnings[0]


def test_parity_word_round_trip():
    cfg = RunConfig(m=2, n=2, parity="+-+-")
    assert cfg.parity_data().to_string() == "+-+-"


# batches: the battery vectors w (x) k of one key, evaluated as one vector
# tagged by Q-degree, must give each vector's verdicts as if it ran alone


def _batched_rows(ctx):
    """{(instance, position): (code, residual)} of every row of ctx."""
    out = {}
    for i, block in enumerate(ctx.verdicts(0, len(ctx.instances))):
        if block is not None:
            codes, residuals = block
            out.update(((i, pos), (code, residuals.get(pos))) for pos, code in enumerate(codes))
    return out


def _one_vector_rows(ctx):
    """_batched_rows of ctx, evaluated with one SuiteContext per battery vector,
    so that every vector is a batch of its own."""
    out = {}
    for k in range(len(ctx.stages[-1][1])):
        rows = [
            (i, k - (0 if vectors is None else vectors.start))
            for i, (*_, vectors) in enumerate(ctx.instances)
            if ctx.slots[i] is not None and (vectors is None or k in vectors)
        ]
        table = [ctx.instances[i][:-1] + (None,) for i, _ in rows]
        stages = [(stage, battery[k][1].space.R, [battery[k]]) for stage, battery, _ in ctx.stages]
        alone = SuiteContext(table, stages)
        assert [len(batch) for batch in alone.batches(0, len(table))] == [1]
        for (i, pos), (codes, residuals) in zip(rows, alone.verdicts(0, len(table))):
            out[i, pos] = (codes[0], residuals.get(0))
    return out


BATCHED = [
    ("toroidal", RunConfig(m=3, n=1, ell=1, modes=1)),
    ("affine", RunConfig(m=3, n=1, ell=2)),
    ("rotation", RunConfig(ell=2, modes=0)),
]
# fault: (patched module, name, fault) or None, and the suite it fails
BATCH_FAULTS = {
    "none": (None, None),
    "mmatrix": ((verify, "mmatrix", lambda _: lambda pd, i, j: 0), "toroidal"),
    "exchange": ((tor, "hecke_exchange_terms", _flip_swapped_term), "rotation"),
    "lowering": ((looprep, "slot_ops", _negate_node0_lowering), "affine"),
}


@pytest.mark.parametrize("mode", ["numeric", "symbolic"])
@pytest.mark.parametrize("fault", list(BATCH_FAULTS))
@pytest.mark.parametrize("suite, cfg", BATCHED, ids=[suite for suite, _ in BATCHED])
def test_batches_give_each_vector_its_own_verdicts(monkeypatch, suite, cfg, fault, mode):
    patch, fails = BATCH_FAULTS[fault]
    if patch:
        module, name, faulty = patch
        monkeypatch.setattr(module, name, faulty(getattr(module, name)))
    ctx = SuiteContext.for_suite(suite, dataclasses.replace(cfg, mode=mode))
    assert max(len(batch) for batch in ctx.batches(0, len(ctx.instances))) > 1
    got = _batched_rows(ctx)
    assert got == _one_vector_rows(ctx)
    assert any(code for code, _ in got.values()) == (suite == fails)


def test_batch_prunes_a_dead_vector_on_its_own():
    # x (T_1 - q^2) (x) (1, 1) is zero in the balanced product, (T_1 + 1) (x)
    # (1, 1) is not; in one batch each is pruned as it would be alone, so
    # the dead one passes and the live one fails with its own residual
    R = SymbolicContext(formal_zeta=True)
    space = tor.FunctorSpace(PD31, 2, R)
    one = space.daha.one()
    x = hecke.right_mul_Y(one, 1)
    dead = hecke.right_mul_T(x, 1) - x * R.qpow(2)
    live = hecke.right_mul_T(one, 1) + one
    u_dead, u_live = (tor.FunctorVector(space, {(1, 1): w}) for w in (dead, live))
    assert space.key_is_dead((1, 1), dead) and not space.key_is_dead((1, 1), live)
    identity = [(verify._ONE, ())]
    ctx = SuiteContext([("id", (), (), None, identity, [], None)],
                       [("symbolic", R, [("dead", u_dead), ("live", u_live)])])
    assert ctx.batches(0, 1) == [[0, 1]]
    [(codes, residuals)] = ctx.verdicts(0, 1)
    assert list(codes) == [0, 1]
    assert residuals == {1: _plan_difference(R, identity, [], u_live).render(5)}
    joined = tor.join_batch([u_dead, u_live])
    parts = tor.split_batch(tor._collect(space, {(1, 1): joined.support[1, 1].support}), 2)
    assert parts[0].is_zero() and parts[1].support == {(1, 1): live}


def test_split_batch_rejects_a_term_outside_its_bands():
    R = SymbolicContext(formal_zeta=True)
    space = tor.FunctorSpace(PD31, 1, R)
    u, v = space.basis((1,)), space.basis((1,), space.daha.element([("Q", 0, 1)]))
    joined = tor.join_batch([u, v])
    assert [part.support for part in tor.split_batch(joined, 2)] == [u.support, v.support]
    (labels, w), = joined.support.items()
    daha = space.daha
    (_, window, mu), = map(daha.decode, u.support[labels].support)
    band = tor._BAND >> hecke.KEY_BITS  # the band in Q-degrees
    for k in (2 * band, band + band // 2, -band, -band // 2 - 1):
        stray = hecke.DahaElement(daha, {**w.support, daha.key(k, window, mu): R.one})
        with pytest.raises(ValueError):
            tor.split_batch(tor.FunctorVector(space, {labels: stray}), 2)
    # a term at the edge of band 1 still belongs to vector 1
    edge = hecke.DahaElement(daha, {daha.key(band + band // 2 - 1, window, mu): R.one})
    assert tor.split_batch(tor.FunctorVector(space, {labels: edge}), 2)[0].is_zero()
    far = space.basis((1,), space.daha.basis(band // 2, window, mu))
    with pytest.raises(ValueError):
        tor.join_batch([u, far])


@pytest.mark.parametrize("suite, cfg, peak", [
    ("toroidal", RunConfig(m=3, n=1, ell=2, modes=0), 44),
    ("affine", RunConfig(m=3, n=1, ell=2), 41),
])
def test_images_are_dropped_after_their_last_reader(monkeypatch, suite, cfg, peak):
    # a node's image is held from its first reader to its last: the last
    # instance in table order with a term in the node's subtree
    ctx = SuiteContext.for_suite(suite, cfg)
    last = [None] * len(ctx.letters)
    for i, nodes in enumerate(ctx.nodes):
        for node in nodes or ():
            while True:
                last[node] = i
                if node == 0:
                    break
                node = ctx.parents[node]
    order = [i for i, slots in enumerate(ctx.slots) if slots is not None]
    seen, difference = {}, verify._difference

    def watched(images, *args):
        # one entry per (batch, stage): its images list, calls, peak held
        entry = seen.setdefault(id(images), [images, 0, 0])
        i = order[entry[1]]
        assert all(last[node] >= i for node, v in enumerate(images) if v is not None), i
        out = difference(images, *args)
        entry[1] += 1
        entry[2] = max(entry[2], sum(v is not None for v in images))
        return out

    monkeypatch.setattr(verify, "_difference", watched)
    blocks = ctx.verdicts(0, len(ctx.instances))
    assert not any(any(block[0]) for block in blocks if block is not None)
    assert len(seen) == len(ctx.stages) * len(ctx.batches(0, len(ctx.instances)))
    for images, calls, held in seen.values():
        assert calls == len(order)
        assert not any(images)  # the last instance dropped the rest
        assert held == ctx.peak == peak
