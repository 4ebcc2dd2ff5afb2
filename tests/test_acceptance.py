"""End-to-end acceptance battery.

One test per criterion.  Every check is exact (zero residual in the
Laurent ring, or exact rational equality at sample points); each test
also enforces its wall-clock budget.  The large toroidal run goes
through the command line entry point, so it exercises report writing
and exit codes as shipped.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qtschur.scalar import NumericContext, SymbolicContext, psi_product_mode
from qtschur.verify import (
    RunConfig,
    SuiteContext,
    dictionary_battery,
    dictionary_instances,
    run_suite,
)


def _clean(report, allow_excluded=False):
    summary = report.summary()
    bad = [r for r in report.results if r["status"] == "fail"]
    assert not bad, bad[:3]
    if not allow_excluded:
        assert summary["excluded"] == 0
    assert summary["pass"] > 0
    return report


def _budget(start, limit, label):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{label}: {elapsed:.1f}s exceeded the {limit}s budget"
    print(f"{label}: PASS in {elapsed:.1f}s (budget {limit}s)")


def test_criterion_1_daha_presentation():
    start = time.perf_counter()
    for ell in (1, 2, 3):
        rep = _clean(run_suite("daha", RunConfig(ell=ell, mode="both")))
        relations = {row["relation"] for row in rep.results}
        assert "Q Y_l Q^-1 = zeta Y1" in relations
        assert "w Q Y_l Q^-1 = zeta w Y1" in relations
        if ell == 3:
            # conjugation lemmas at all admissible indices
            assert "Q_12 Y1 = Y2 Q_12" in relations
            assert "Q_12 T1 = T2 Q_12" in relations
            assert "P1 Y2 = zeta Y1 P1" in relations
            assert "P2 Y3 = zeta Y1 P2" in relations
            assert "P1 T2 = T1 P1" in relations
    _budget(start, 30, "criterion 1 (translation-extended Hecke presentation)")


def test_criterion_2_finite_schur_weyl():
    start = time.perf_counter()
    for m, n in ((3, 1), (2, 2), (2, 3)):
        for ell in (2, 3):
            rep = _clean(run_suite("finite", RunConfig(m=m, n=n, ell=ell, mode="both")))
            relations = {row["relation"] for row in rep.results}
            assert any(r.startswith("quadratic") for r in relations)
            assert any(r.startswith("braid") for r in relations) == (ell >= 3)
            assert any(r.startswith("[T_") for r in relations)
    _budget(start, 60, "criterion 2 (finite commutation, exhaustive)")


def test_criterion_3_affine_suite():
    start = time.perf_counter()
    for ell in (1, 2):
        rep = _clean(run_suite("affine", RunConfig(ell=ell, mode="both")))
        rows = rep.results
        chains = [r for r in rows if r["relation"] == "t-chain"]
        assert {r["form"] for r in chains} == {"affine", "vertical"}
        assert all(r["status"] == "pass" for r in chains)
        relations = {row["relation"] for row in rows}
        assert {
            "tt",
            "te",
            "tf",
            "ef",
            "ee-zero",
            "ff-zero",
            "serre-e-cubic",
            "serre-f-cubic",
            "serre-e-quartic",
            "serre-f-quartic",
        } <= relations
    _budget(start, 120, "criterion 3 (affine Chevalley relations)")


def test_criterion_4_zero_mode_dictionary():
    # the dictionary's relation table through the suite evaluator, numeric
    # then symbolic stage; zero-mode and shift-mode rows run on the
    # nondecreasing keys, wrap-node rows on every key, each key with
    # xi-shifts 0 and (1, ..., ell)
    start = time.perf_counter()
    rings = [("numeric", NumericContext(Fraction(2), Fraction(3))),
             ("symbolic", SymbolicContext(formal_zeta=True))]
    configs = [(3, 1, 1), (3, 1, 2), (2, 3, 1), (2, 3, 2), (2, 2, 1), (2, 2, 2),
               (1, 2, 1), (1, 2, 2)]
    for m, n, ell in configs:
        instances = dictionary_instances(m, n, ell)
        assert {rel for rel, *_ in instances} == {"zero-mode", "shift-mode", "wrap-node"}
        ctx = SuiteContext(
            instances, [(stage, R, dictionary_battery(m, n, ell, R)) for stage, R in rings]
        )
        blocks = ctx.verdicts(0, len(instances))
        assert all(codes and not any(codes) for codes, _ in blocks), (m, n, ell)
    _budget(start, 120, "criterion 4 (zero-mode dictionary)")


def test_criterion_5_twist_and_rotation():
    start = time.perf_counter()
    balance_cases = {
        "psi-balance-plain-plain",
        "psi-balance-plain-wrap",
        "psi-balance-wrap-plain",
        "psi-balance-wrap-wrap",
    }
    rotation_families = {
        "rot-E",
        "rot-F",
        "rot-K+",
        "rot-K-",
        "wrap-E",
        "wrap-F-as-F",
        "wrap-K+",
        "wrap-K-",
    }
    for m, n in ((3, 1), (3, 2)):
        for ell in (1, 2):
            rep = _clean(
                run_suite("rotation", RunConfig(m=m, n=n, ell=ell, modes=2, mode="both"))
            )
            relations = {row["relation"] for row in rep.results}
            assert rotation_families <= relations
            if ell >= 2:
                assert balance_cases <= relations
    _budget(start, 300, "criterion 5 (twist well-definedness and rotation)")


def test_criterion_6_toroidal_master_fast():
    start = time.perf_counter()
    rep = run_suite("toroidal", RunConfig(m=3, n=1, ell=1, modes=2, mode="both"))
    summary = rep.summary()
    assert summary["fail"] == 0
    assert summary["excluded"] == 2
    relations = {row["relation"] for row in rep.results}
    assert {
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
    } <= relations
    excluded = [r for r in rep.results if r["status"] == "excluded"]
    assert {r["relation"] for r in excluded} == {"Serre5", "Serre6"}
    _budget(start, 300, "criterion 6a (toroidal master suite, fast)")


def test_criterion_6_toroidal_master_slow(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "slow.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qtschur.cli",
            "verify",
            "toroidal",
            "--m",
            "3",
            "--n",
            "2",
            "--ell",
            "2",
            "--modes",
            "2",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] or proc.stdout[-2000:]
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["excluded"] == 2
    assert payload["params"] == {
        "m": 3,
        "n": 2,
        "ell": 2,
        "R": 2,
        "parity": "+++--",
        "mode": "both",
    }
    _budget(start, 1800, "criterion 6b (toroidal master suite, slow)")


def _sample_points(count):
    rng = random.Random(20260819)
    points = [("2", "3")]
    while len(points) < count + 1:
        q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        d0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if q0 in (0, 1, -1) or d0 == 0:
            continue
        points.append((str(q0), str(d0)))
    return points


def test_criterion_7_oracle_coherence(tmp_path):
    start = time.perf_counter()
    points = _sample_points(5)

    # numeric specialization at every point reproduces the symbolic verdicts
    checks = [
        ("daha", dict(ell=2)),
        ("finite", dict(m=2, n=2, ell=2)),
        ("affine", dict(ell=1)),
        ("rotation", dict(ell=1, modes=1)),
        ("toroidal", dict(ell=1, modes=1)),
    ]
    for suite, kw in checks:
        sym = run_suite(suite, RunConfig(mode="symbolic", **kw))
        key = lambda r: (r["relation"], r["nodes"], r["modes"], r["vector"], r["status"])
        expected = [key(r) for r in sym.results]
        for q0, d0 in points:
            num = run_suite(suite, RunConfig(mode="numeric", q0=q0, d0=d0, **kw))
            assert [key(r) for r in num.results] == expected, (suite, q0, d0)

    # stream inversion: negating the jump exponent and inverting the
    # argument orientation reproduces the same series coefficients
    rings = [SymbolicContext(formal_zeta=True)]
    rings += [NumericContext(Fraction(q0), Fraction(d0), 3, 1) for q0, d0 in points[:3]]
    for R in rings:
        for c in (1, 2, 3):
            for sexp in (1, 2):
                scale = lambda e, s=sexp: R.q1pow(s * e)
                for k in range(8):
                    plain = psi_product_mode(R, 1, k, "+", [(0, c)], scale, False)
                    inverted = psi_product_mode(R, 1, k, "+", [(0, -c)], scale, True)
                    assert set(plain) == {(k,)} and set(inverted) == {(-k,)}
                    assert plain[(k,)] * scale(-k) == inverted[(-k,)] * scale(k), (c, k)

    # worker count never changes the report bytes
    reports = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "qtschur.cli",
                "verify",
                "toroidal",
                "--modes",
                "1",
                "--jobs",
                jobs,
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    _budget(start, 60, "criterion 7 (oracle coherence)")
