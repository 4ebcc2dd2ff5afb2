import hashlib
import json
import subprocess
import sys

import pytest

from qtschur import cli
from qtschur.cli import main
from qtschur.hecke import DahaContext
from qtschur.scalar import SymbolicContext
from qtschur.verify import Report, SuiteContext, Verdicts


def run_cli(*argv):
    return main(list(argv))


def no_run(*args, **kwargs):
    raise AssertionError("the work started before --out was checked")


def test_verify_daha_exits_zero(capsys):
    assert run_cli("verify", "daha", "--ell", "1") == 0
    out = capsys.readouterr().out
    assert "daha:" in out
    assert "0 fail" in out


def test_verify_kappa_guard(capsys):
    assert run_cli("verify", "toroidal", "--m", "2", "--n", "1") == 2
    err = capsys.readouterr().err
    assert "κ ≥ 4 required" in err


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        run_cli("verify", "daha", "--bogus")
    assert info.value.code == 2


def test_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as info:
        run_cli("verify", "everything")
    assert info.value.code == 2


def test_report_written_to_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "verify", "toroidal", "--modes", "0", "--out", str(out)
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["suite"] == "toroidal"
    assert payload["params"] == {
        "m": 3,
        "n": 1,
        "ell": 1,
        "R": 0,
        "parity": "+++-",
        "mode": "both",
    }
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["excluded"] == 2
    assert all(
        set(row) >= {"relation", "nodes", "modes", "vector", "status"}
        for row in payload["results"]
    )


def test_unwritable_out_is_a_usage_error_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", no_run)
    out = tmp_path / "missing" / "report.json"
    assert run_cli("verify", "daha", "--ell", "1", "--out", str(out)) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_equivalence_regime_warning(tmp_path, capsys):
    code = run_cli("verify", "rotation", "--ell", "2", "--modes", "0")
    assert code == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "equivalence" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# sample\nell = 1\nmodes = 2\nmode = symbolic\n")
    out = tmp_path / "r.json"
    code = run_cli(
        "verify",
        "rotation",
        "--config",
        str(cfgfile),
        "--modes",
        "0",
        "--out",
        str(out),
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    # the flag beats the file, the file beats the default
    assert payload["params"]["R"] == 0
    assert payload["params"]["mode"] == "symbolic"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("volume = 11\n")
    assert run_cli("verify", "daha", "--config", str(cfgfile)) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_rejects_bad_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("ell\n")
    assert run_cli("verify", "daha", "--config", str(cfgfile)) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("verify", "daha", "--ell", "1", "--seed", "5", "--out", str(path)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_jobs_flag_is_observationally_pure(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", "toroidal", "--modes", "0", "--jobs", "1", "--out", str(a)) == 0
    assert run_cli("verify", "toroidal", "--modes", "0", "--jobs", "2", "--out", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_dump_mode_table(tmp_path, capsys):
    out = tmp_path / "dump.json"
    code = run_cli("dump", "--op", "E", "--node", "0", "--mode", "1", "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "->" in stdout
    rows = json.loads(out.read_text())
    assert rows and all(row["op"] == "E" and row["mode"] == 1 for row in rows)
    images = [row["output"] for row in rows if row["output"]]
    assert images, "the raising mode must act nontrivially somewhere"


# sha256 of the --out file and of stdout, for three dump commands: a
# wrap-node raising mode, a wrap-node diagonal mode off zero, the rotation
DUMP_DIGESTS = [
    (
        ("--op", "E", "--node", "0", "--mode", "1"),
        "c63b2f0aefb60df1c0fe109d58bf4d06b429c9c7fcd99cd7e68f6afb5a6a0d56",
        "2835e5474588580f8e5d454e5a1316f1f27532bc76dc4811397f67be4d38300d",
    ),
    (
        ("--op", "K-", "--node", "0", "--r", "-2", "--ell", "2"),
        "83e4ffa6ca8afc7469e08752b8a52d0ab84e92e30407dc7acc67192da377a947",
        "4cbadc4772ddf90f00b5ab6b1df16f808a78e5eebae8af8805eff216db8ef500",
    ),
    (
        ("--op", "psi", "--ell", "2"),
        "4e001493a8ff4493721f76c072d82cd85a5d6d385d66499c85876faf3668a5c2",
        "d6d3422384154bf35cb47c9bc5546c7a8d09e167d70255834c71c58a5f3ca2d0",
    ),
]


@pytest.mark.parametrize(
    "args,out_digest,stdout_digest", DUMP_DIGESTS, ids=["E-node0", "K--node0-ell2", "psi-ell2"]
)
def test_dump_bytes_pinned(tmp_path, capsys, args, out_digest, stdout_digest):
    out = tmp_path / "dump.json"
    assert run_cli("dump", *args, "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest


def test_dump_psi(capsys):
    assert run_cli("dump", "--op", "psi", "--ell", "2") == 0
    assert "->" in capsys.readouterr().out


def test_dump_translation_power(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli("dump", "--op", "P", "--ell", "3", "--r", "1", "--out", str(out)) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["op"] == "P" and payload["r"] == 1 and payload["ell"] == 3
    assert payload["normal_form"]


def test_dump_rejects_bad_indices(capsys):
    assert run_cli("dump", "--op", "P", "--r", "1") == 2
    assert run_cli("dump", "--op", "E", "--node", "9") == 2
    capsys.readouterr()


def test_bench_named_suites(capsys):
    assert run_cli("bench", "daha", "--ell", "1") == 0
    out = capsys.readouterr().out
    assert "daha" in out and "rows/s" in out


def test_bench_exits_one_on_failing_suite(monkeypatch, capsys):
    # one relation, "1 = 0", on the unit of the Hecke algebra
    R = SymbolicContext(formal_zeta=True)
    ctx = SuiteContext(
        [("x", (), (), None, [(((1, 0, 0, 0),), ())], [], None)],
        [("symbolic", R, [("1", DahaContext(1, R).one())])],
    )
    failing = Report("daha", {}, Verdicts(ctx, ctx.verdicts(0, 1)))
    monkeypatch.setattr(cli, "run_suite", lambda suite, cfg: failing)
    assert run_cli("bench", "daha", "--ell", "1") == 1
    assert "FAIL" in capsys.readouterr().out


def test_bench_unwritable_out_exits_two_before_timing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", no_run)
    out = tmp_path / "missing" / "bench.json"
    assert run_cli("bench", "daha", "--ell", "1", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err and "rows/s" not in captured.out
    assert not out.exists()


def test_dump_unwritable_out_exits_two_before_the_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "apply_letter", no_run)
    out = tmp_path / "missing" / "psi.json"
    assert run_cli("dump", "--op", "psi", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err and "->" not in captured.out
    assert not out.exists()


def test_bench_skips_invalid_defaults(capsys):
    # the finite suite needs two tensor factors; at ell = 1 the default
    # sweep reports it as skipped instead of failing the whole command
    assert run_cli("bench", "--ell", "1", "--modes", "0") == 0
    out = capsys.readouterr().out
    assert "finite" in out and "skipped" in out


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "qtschur.cli", "verify", "daha", "--ell", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "daha:" in proc.stdout
