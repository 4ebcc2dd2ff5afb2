"""Fast checks of the benchmark itself, on a tiny toroidal configuration.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from qtschur import cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["verify", "toroidal", "--m", "3", "--n", "1", "--ell", "1", "--modes", "0"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny workload, with its digest taken from an in-process run."""
    out = tmp_path_factory.mktemp("tiny") / "report.json"
    assert cli.main(TINY + ["--out", str(out)]) == 0
    data = out.read_bytes()
    summary = json.loads(data)["summary"]
    return run.Workload(
        name="tiny", suite="toroidal", m=3, n=1, ell=1, modes=0,
        rows=sum(summary.values()), excluded=summary["excluded"],
        report_sha256=hashlib.sha256(data).hexdigest(),
    )


def test_declared_metrics_match_the_tables():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]


def test_every_declared_workload_has_a_recorded_report():
    known = run.load_workloads()
    for workload in SPEC["workloads"]:
        assert len(known[workload["name"]].report_sha256) == 64


def test_sample_points_are_seeded_and_valid():
    assert run.sample_point(0) == ("2", "3")
    assert run.sample_point(7) == run.sample_point(7)
    points = {run.sample_point(seed) for seed in range(1, 40)}
    assert len(points) > 30
    for q0, d0 in points:
        assert q0 not in ("0", "1", "-1") and d0 != "0"


def test_untraced_run_emits_every_end_to_end_metric(tiny):
    result = run.bench(tiny, seed=5, seconds=0, trace=False)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["pass_ratio"] == 1.0
    assert all(value > 0 for value in metrics.values())


def test_traced_run_emits_every_per_layer_metric(tiny):
    result = run.bench(tiny, seed=0, seconds=0, trace=True)
    assert result["correct"] and result["attempted"] == 2
    assert list(result["metrics"]) == [name for name, _, _, _ in run.PER_LAYER]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["toroidal.mode_apply.numeric.calls"] > 0
    assert metrics["toroidal.mode_apply.symbolic.calls"] > 0
    assert metrics["toroidal.chevalley.numeric.calls"] == 0


def test_tampered_digest_trips_the_gate(tiny):
    tampered = run.Workload(**{**tiny.__dict__, "report_sha256": "0" * 64})
    result = run.bench(tampered, seed=0, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_tampered_row_count_trips_the_gate(tiny):
    tampered = run.Workload(**{**tiny.__dict__, "rows": tiny.rows + 1})
    assert not run.bench(tampered, seed=0, seconds=0, trace=False)["correct"]


def test_tracing_wraps_every_binding_and_restores_it(tmp_path):
    tracer = tracing.Tracer()
    before = [tracing.bindings(fn) for _, fn, _, _ in tracer.targets()]
    with tracing.traced(tracer) as patched:
        assert all(getattr(owner, name).__wrapped__ is fn for owner, name, fn in patched)
        names = {(owner.__name__, name) for owner, name, _ in patched}
        assert {
            ("qtschur.hecke", "right_mul_T"),
            ("qtschur.toroidal", "right_mul_T"),
            ("qtschur.toroidal", "tensor_leg_apply"),
            ("qtschur.cli", "run_suite"),
            ("Scalar", "__radd__"),
            ("FunctorSpace", "key_is_dead"),
        } <= names
        assert cli.main(TINY + ["--out", str(tmp_path / "r.json")]) == 0
    assert all(getattr(owner, name) is fn for owner, name, fn in patched)
    assert [tracing.bindings(fn) for _, fn, _, _ in tracer.targets()] == before
    table = run.per_layer(tracer.snapshot(), traced_wall=1.0, untraced_wall=1.0)
    assert table["toroidal.mode_apply.symbolic.calls"] > 0
    assert table["cli.main.self_s"] > 0


def test_a_name_gone_from_the_package_is_skipped_and_listed(monkeypatch):
    monkeypatch.delattr(tracing.toroidal, "psi_inverse")
    tracer = tracing.Tracer()
    found = tracer.targets()
    assert tracer.missing == ["qtschur.toroidal.psi_inverse"]
    assert len(found) == len(tracing.TARGETS) - 1


def test_pace_samples_during_the_call_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with pace.sampled(bracket=2, interval=0.01) as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        assert len(host.samples) > 2
    assert len(host.samples) > 2 + 2 + 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < host.factor < 100


def test_timings_are_scaled_by_the_pace():
    runs = [{"wall_s": 10.0, "cpu_s": 8.0, "pace": 2.0, "checked": 100,
             "passed": 100, "peak_rss_mb": 1.0, "report_bytes": 5}]
    samples = run.end_to_end(runs, [{"setup_s": 0.3, "pace": 1.5}])
    assert samples["wall_s"] == [5.0] and samples["cpu_s"] == [4.0]
    assert samples["rows_per_s"] == [20.0]
    assert samples["setup_s"] == [pytest.approx(0.2)]
