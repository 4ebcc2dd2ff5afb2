"""Print the wrap-node current action next to its finite-node source.

Mode r of a node-0 current is the spectral rotation's conjugate of the
node-1 mode r, rescaled by q1^{s_kappa r}; toroidal_mode_apply composes
that conjugation into one letter, and both columns reach it through the
letter evaluator of qtschur.verify (apply_letter).  The table makes it
visible on a single tensor factor, which is the quickest way to
sanity-check sign or scaling changes by eye.

Usage: python3 scripts/wrap_node_table.py [--m 3] [--n 1] [--r 1]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qtschur import toroidal as tor
from qtschur.scalar import SymbolicContext
from qtschur.superdata import ParityData
from qtschur.verify import apply_letter


def show(space: tor.FunctorSpace, family: str, node: int, r: int) -> None:
    print(f"  {family}[{r}] at node {node}:")
    for labels in space.all_keys():
        image = apply_letter(family, node, r, space.basis(labels))
        if image.is_zero():
            continue
        print(f"    v{labels} -> {image.render()}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--r", type=int, default=1)
    args = ap.parse_args()
    if args.m == args.n:
        ap.error("m = n degenerates the wrap parameter")

    pd = ParityData.standard(args.m, args.n)
    space = tor.FunctorSpace(pd, 1, SymbolicContext(m=args.m, n=args.n))
    for family in ("E", "F", "K+", "K-"):
        r = args.r if family in ("E", "F") else abs(args.r) * (1 if family == "K+" else -1)
        show(space, family, 0, r)
        show(space, family, 1, r)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
