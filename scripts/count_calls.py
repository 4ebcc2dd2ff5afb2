"""Deterministic call counts of one suite's relation evaluation.

Usage: python3 scripts/count_calls.py [--suite toroidal] [--m 3] [--n 1]
                                       [--ell 1] [--modes 1]

Builds the suite's context in both stages (numeric, then symbolic),
outside the measurement, and runs SuiteContext.verdicts over every
instance under cProfile.  Prints cProfile's total call count, which
does not depend on the host's load, and the call counts of the
operators and normalize steps that a change to the evaluator must keep
or cut: toroidal_mode_apply, functor_chevalley_apply, _collect and
key_is_dead.  Then how many scaled views the run made and how many it
materialized (read through .support, into a new dict), the profiled
calls of ScaledView.__init__ and of its support property, and how many
node images were taken as scalar multiples of other nodes' images, the
profiled calls of toroidal._scaled.  Then the plan's shape: the number
of batches each stage evaluates (battery vectors of one key, run as one
vector), the node count of the plan and the peak number of node images
one batch and stage holds at once, the Hecke word-cache entries of each
stage's algebra context (the entries of all its per-word tables; none
for the finite suite, which has no algebra factor), and the size of the
Scalar intern table after the run: the interned values and their
memoized products and sums.  Wall time under the profiler is printed
last, for orientation only.  A reader that stops early
(``... | head -3``) ends the script quietly, with exit code 1.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qtschur.hecke import DahaElement
from qtschur.scalar import table_sizes
from qtschur.toroidal import FunctorVector, ScaledView, _scaled
from qtschur.verify import SUITES, RunConfig, SuiteContext

COUNTED = ("toroidal_mode_apply", "functor_chevalley_apply", "_collect", "key_is_dead")
# lines counted by function object, as names like __init__ are not unique
VIEWS = (("scaled views made", ScaledView.__init__),
         ("views materialized", ScaledView.support.fget),
         ("images taken as multiples", _scaled))


def word_cache_entries(vector) -> int:
    """The entries of the Hecke word tables of a battery vector's algebra context, 0 with none."""
    if isinstance(vector, FunctorVector):
        cache = vector.space.daha._word_cache
    else:
        cache = vector.ctx._word_cache if isinstance(vector, DahaElement) else {}
    return sum(map(len, cache.values()))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", choices=SUITES, default="toroidal")
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--ell", type=int, default=1)
    ap.add_argument("--modes", type=int, default=1)
    args = ap.parse_args()

    cfg = RunConfig(m=args.m, n=args.n, ell=args.ell, modes=args.modes, mode="both")
    cfg.validate(args.suite)
    ctx = SuiteContext.for_suite(args.suite, cfg)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(ctx.verdicts, 0, len(ctx.instances))
    took = time.perf_counter() - start
    stats = pstats.Stats(profiler)
    calls = dict.fromkeys(COUNTED, 0)
    for (_, _, name), (_, total, *_) in stats.stats.items():
        if name in calls:
            calls[name] += total
    print(f"{args.suite} m{args.m} n{args.n} ell{args.ell} R{args.modes}, both stages")
    print(f"{'total calls':<26} {stats.total_calls:>12,}")
    for name in COUNTED:
        print(f"{name:<26} {calls[name]:>12,}")
    for name, fn in VIEWS:
        code = fn.__code__
        entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        print(f"{name:<26} {entry[1] if entry else 0:>12,}")
    print(f"{'batches per stage':<26} {len(ctx.batches(0, len(ctx.instances))):>12,}")
    print(f"{'plan nodes':<26} {len(ctx.letters):>12,}")
    print(f"{'peak live node images':<26} {ctx.peak:>12,}")
    for stage, battery, _ in ctx.stages:
        print(f"{'word-cache entries, ' + stage:<26} {word_cache_entries(battery[0][1]):>12,}")
    values, entries = table_sizes()
    print(f"{'interned Scalars':<26} {values:>12,}")
    print(f"{'Scalar memo entries':<26} {entries:>12,}")
    print(f"{'profiled wall':<26} {took:>11.2f}s")
    return 0


def run() -> int:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so that the
        # flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
