"""Command line front end: run relation suites, dump operator tables.

Subcommands:

  verify SUITE   run one relation suite and print a per-relation summary
  dump           print the action table of one operator, or a normal form
  bench          time the configured suites and print rows per second

Configuration precedence is flags over config file over defaults.  The
config file is line oriented, one ``key = value`` per line, with ``#``
comments.  Exit codes: 0 all checks passed, 1 at least one relation
instance failed, 2 usage or configuration error.  Reports carry no
timestamps; the same configuration and seed give byte-identical JSON,
for any ``--jobs`` value.  Every subcommand opens ``--out`` before its
work, so an unwritable path exits 2 at once; ``verify`` writes the
report row by row.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import time

from qtschur import toroidal as tor
from qtschur.hecke import DahaContext, composite
from qtschur.scalar import SymbolicContext
from qtschur.verify import SUITES, ConfigError, RunConfig, apply_letter, run_suite

_INT_KEYS = ("m", "n", "ell", "modes", "seed", "jobs")
_STR_KEYS = ("parity", "mode", "q0", "d0")

_DUMP_OPS = ("E", "F", "K+", "K-", "psi", "P")


def _add_config_flags(sp: argparse.ArgumentParser, with_mode: bool = True) -> None:
    sp.add_argument("--m", type=int, help="even label count (default 3)")
    sp.add_argument("--n", type=int, help="odd label count (default 1)")
    sp.add_argument("--ell", type=int, help="tensor factor count (default 1)")
    sp.add_argument("--modes", type=int, help="mode bound R (default 2)")
    sp.add_argument("--parity", help="parity word of + and -, or 'standard'")
    if with_mode:
        sp.add_argument(
            "--mode",
            choices=("symbolic", "numeric", "both"),
            help="evaluation mode (default both)",
        )
    sp.add_argument("--q0", help="numeric sample for q (rational, default 2)")
    sp.add_argument("--d0", help="numeric sample for d (rational, default 3)")
    sp.add_argument("--seed", type=int, help="seed for randomized battery words")
    sp.add_argument("--jobs", type=int, help="worker process count (default 1)")
    sp.add_argument("--out", help="write the JSON report to this path")
    sp.add_argument("--config", help="read key = value defaults from this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtschur",
        description="exact relation checking for the balanced tensor representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a relation suite")
    ver.add_argument("suite", choices=SUITES)
    _add_config_flags(ver)

    dmp = sub.add_parser("dump", help="dump an operator action table or normal form")
    dmp.add_argument("--op", required=True, choices=_DUMP_OPS)
    dmp.add_argument("--node", type=int, default=0, help="node index in 0..kappa-1")
    dmp.add_argument("--r", type=int, default=0, help="mode index, or the P subscript")
    _add_config_flags(dmp, with_mode=False)
    dmp.add_argument(
        "--mode",
        dest="mode_index",
        type=int,
        help="mode index (synonym for --r on mode operators)",
    )

    ben = sub.add_parser("bench", help="time suites at the configured parameters")
    ben.add_argument("suites", nargs="*", help="suites to time (default: all runnable)")
    _add_config_flags(ben)
    return parser


def read_config_file(path: str) -> dict:
    out: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        out[key.strip()] = value.strip()
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            if key in _INT_KEYS:
                try:
                    values[key] = int(value)
                except ValueError as exc:
                    raise ConfigError(f"config key {key} needs an integer: {value!r}") from exc
            elif key in _STR_KEYS:
                values[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in _INT_KEYS + _STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _open_out(args: argparse.Namespace):
    """The --out file opened for writing, or a null context without --out.

    An unwritable path is a usage error, raised before any work is done.
    """
    if not getattr(args, "out", None):
        return contextlib.nullcontext()
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    for warning in cfg.validate(args.suite):
        print(f"warning: {warning}", file=sys.stderr)
    with _open_out(args) as fh:
        report = run_suite(args.suite, cfg)
        print(report.render_summary())
        if fh is not None:
            report.write(fh)
    return 0 if report.ok() else 1


def _dump_space(cfg: RunConfig) -> tor.FunctorSpace:
    pd = cfg.parity_data()
    if cfg.m == cfg.n:
        coeffs = SymbolicContext(formal_zeta=True)
    else:
        coeffs = SymbolicContext(m=cfg.m, n=cfg.n)
    return tor.FunctorSpace(pd, cfg.ell, coeffs)


def _dump_rows(space: tor.FunctorSpace, head: dict, letter: tuple) -> list[dict]:
    """One row per battery vector: head, the input's name and its rendered image."""
    return [
        dict(head, input=vname, output=[
            [list(labels), w.render()]
            for labels, w in sorted(apply_letter(*letter, u).support.items())
        ])
        for vname, u in tor.functor_battery(space)
    ]


def _cmd_dump(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    cfg.validate_common()
    r = args.mode_index if args.mode_index is not None else args.r
    if args.op == "P" and not 1 <= r < cfg.ell:
        raise ConfigError(f"P_r needs 1 <= r < ell, got r = {r}, ell = {cfg.ell}")
    kappa = cfg.m + cfg.n
    if args.op not in ("P", "psi") and not 0 <= args.node < kappa:
        raise ConfigError(f"node must lie in 0..{kappa - 1}")
    with _open_out(args) as fh:
        if args.op == "P":
            ctx = DahaContext(cfg.ell, SymbolicContext(formal_zeta=True))
            element = ctx.element(composite("Pr", r=r, ell=cfg.ell))
            payload = {"op": "P", "r": r, "ell": cfg.ell, "normal_form": element.render()}
            print(f"P_{r} (ell = {cfg.ell}) = {payload['normal_form']}")
        else:
            space = _dump_space(cfg)
            if args.op == "psi":
                payload = _dump_rows(space, {"op": "psi"}, ("psi", 0, 1))
            else:
                head = {"op": args.op, "node": args.node, "mode": r}
                payload = _dump_rows(space, head, (args.op, args.node, r))
            for row in payload:
                images = ", ".join(f"{w} (x) v{tuple(labels)}" for labels, w in row["output"])
                print(f"{row['input']}  ->  {images if images else '0'}")
        if fh is not None:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    plan = []  # (suite, reason to skip it or None)
    for suite in args.suites or SUITES:
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}")
        try:
            cfg.validate(suite)
            plan.append((suite, None))
        except ConfigError as exc:
            if args.suites:
                raise
            plan.append((suite, exc))
    timings = []
    failed = False
    with _open_out(args) as fh:
        for suite, skip in plan:
            if skip is not None:
                print(f"{suite:<10} skipped ({skip})")
                continue
            start = time.perf_counter()
            report = run_suite(suite, cfg)
            elapsed = time.perf_counter() - start
            rows = len(report.results)
            rate = rows / elapsed if elapsed > 0 else float("inf")
            status = "ok" if report.ok() else "FAIL"
            failed = failed or not report.ok()
            timings.append({"suite": suite, "rows": rows, "seconds": round(elapsed, 3)})
            print(f"{suite:<10} {rows:>8} rows  {elapsed:>8.2f}s  {rate:>9.0f} rows/s  {status}")
        if fh is not None:
            fh.write(json.dumps(timings, sort_keys=True, indent=2) + "\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "dump": _cmd_dump, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
