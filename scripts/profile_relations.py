"""Per-relation timing for one relation suite, to guide budget choices.

Usage: python3 scripts/profile_relations.py [--suite toroidal] [--m 3] [--n 1]
                                             [--ell 1] [--modes 1]
                                             [--mode symbolic|numeric]

Prints mean evaluation time per row, grouped by relation id, slowest
first, for one suite (any of finite, affine, toroidal, daha, rotation;
toroidal by default) and one verification stage: symbolic (the default,
Laurent polynomials with int coefficients) or numeric (gcd-free values
n / L^k in Z[1/L] at the default sample point q0 = 2, d0 = 3).  On a
2-core x86_64 host, toroidal m3 n1 ell1 R1 takes 0.15-0.25 s in either
stage, and toroidal ell 2 R0 takes 0.2-0.3 s symbolic against 0.35-0.4 s
numeric, so the numeric stage is the slower one there; time both when
a change touches either.  Each instance is timed as a chunk of its own.
Such a chunk still evaluates the battery vectors of one key as one
batch, but the images of the table's word-suffix nodes are shared, and
taken as multiples of one another, within one instance only: a full
run, whose chunks span many instances, shares more and spends less per
row.  For call counts that do not depend on the host's
load, see scripts/count_calls.py.
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qtschur.verify import SUITES, RunConfig, SuiteContext, Verdicts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", choices=SUITES, default="toroidal")
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--ell", type=int, default=1)
    ap.add_argument("--modes", type=int, default=1)
    ap.add_argument("--mode", choices=("symbolic", "numeric"), default="symbolic")
    args = ap.parse_args()

    cfg = RunConfig(m=args.m, n=args.n, ell=args.ell, modes=args.modes, mode=args.mode)
    cfg.validate(args.suite)
    ctx = SuiteContext.for_suite(args.suite, cfg)
    spent = defaultdict(float)
    counts = defaultdict(int)
    for idx, (relation, *_) in enumerate(ctx.instances):
        start = time.perf_counter()
        blocks = ctx.verdicts(idx, idx + 1)
        spent[relation] += time.perf_counter() - start
        counts[relation] += len(Verdicts(ctx, blocks, idx))

    total = sum(spent.values())
    print(f"{args.suite} m{args.m} n{args.n} ell{args.ell} R{args.modes}, {args.mode} stage")
    print(f"{'relation':<32} {'rows':>8} {'total':>9} {'per row':>10}")
    for relation in sorted(spent, key=spent.get, reverse=True):
        per = spent[relation] / counts[relation] if counts[relation] else 0.0
        print(
            f"{relation:<32} {counts[relation]:>8} {spent[relation]:>8.2f}s"
            f" {per * 1000:>8.3f}ms"
        )
    print(f"{'all':<32} {sum(counts.values()):>8} {total:>8.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
