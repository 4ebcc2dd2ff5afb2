"""Per-layer tracing of a qtschur run, installed from outside the package.

The tracer replaces each traced function with a wrapper in every
namespace under ``qtschur`` that binds it (a module that imported the
name, a class attribute and its aliases such as ``__radd__``), and puts
the originals back on exit.  Nothing in ``src/`` knows about it.

Spans are aggregated in memory per (layer, stage): call count, total
time and self time, where self time is the span's duration minus the
time covered by the traced calls it made.  A run makes millions of
calls, so no per-call record is kept.  The stage (``numeric`` or
``symbolic``) is read off the coefficient ring of the vector, space or
algebra element a call receives, and is inherited by the calls it
makes; a layer's self time is also added to its stage's total.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from qtschur import cli, hecke, looprep, scalar, superdata, toroidal, verify


def _ring_stage(ring) -> str | None:
    if isinstance(ring, scalar.NumericContext):
        return "numeric"
    if isinstance(ring, scalar.SymbolicContext):
        return "symbolic"
    return None


def _vector_stage(args):
    for arg in args:
        if isinstance(arg, toroidal.FunctorVector):
            return _ring_stage(arg.space.R)
    return None


def _space_stage(args):
    return _ring_stage(args[0].R)


def _element_stage(args):
    return _ring_stage(args[0].ctx.R)


def _ring_arg_stage(args):
    return _ring_stage(args[0])


# layer, module, dotted name, stage getter, name of the Tracer observer
TARGETS = [
    ("scalar.mul", scalar, "Scalar.__mul__", None, None),
    ("scalar.add", scalar, "Scalar.__add__", None, None),
    ("scalar.stream", scalar, "delta_psi_mode", _ring_arg_stage, None),
    ("scalar.stream", scalar, "psi_product_mode", _ring_arg_stage, None),
    ("superdata.tau_power", superdata, "tau_power", None, None),
    ("hecke.right_mul_T", hecke, "right_mul_T", _element_stage, None),
    ("hecke.right_mul_X", hecke, "right_mul_X", _element_stage, None),
    ("hecke.right_mul_Y", hecke, "right_mul_Y", _element_stage, None),
    ("looprep.tensor_leg_apply", looprep, "tensor_leg_apply", _space_stage, None),
    ("toroidal.mode_apply", toroidal, "toroidal_mode_apply", _vector_stage, "_count_mode"),
    ("toroidal.chevalley", toroidal, "functor_chevalley_apply", _vector_stage, None),
    ("toroidal.psi", toroidal, "psi_apply", _vector_stage, None),
    ("toroidal.psi", toroidal, "psi_inverse", _vector_stage, None),
    ("toroidal.key_is_dead", toroidal, "FunctorSpace.key_is_dead", _space_stage,
     "_count_dead"),
    ("toroidal.sort_schedule", toroidal, "FunctorSpace.sort_schedule", _space_stage,
     "_count_sort"),
    ("verify.enumerate", verify, "toroidal_instances", None, None),
    ("verify.enumerate", verify, "affine_instances", None, None),
    ("verify.run_suite", verify, "run_suite", None, None),
    ("verify.report.to_json", verify, "Report.to_json", None, None),
    ("cli.main", cli, "main", None, None),
]


def _resolve(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Aggregated spans, stage totals and the waste counters."""

    def __init__(self):
        self.spans: dict = {}  # (layer, stage) -> [calls, total_s, self_s]
        self.stage_s = {"numeric": 0.0, "symbolic": 0.0}
        self.dead = 0
        self.mode_keys: set = set()
        self.sort_keys: set = set()
        self.missing: list = []
        self._stack: list = []  # open spans: [child_s, stage]

    def wrap(self, layer, fn, stage_of=None, observe=None):
        """Wrapper timing fn as one span of layer.

        observe(args, result) runs after the span closes, so the
        counters it updates are outside the measured interval.
        """
        spans, stage_s, stack = self.spans, self.stage_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stage = stage_of(args) if stage_of is not None else None
            if stage is None and stack:
                stage = stack[-1][1]
            frame = [0.0, stage]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                own = took - frame[0]
                if stack:
                    stack[-1][0] += took
                entry = spans.get((layer, stage))
                if entry is None:
                    entry = spans[(layer, stage)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += took
                entry[2] += own
                if stage is not None:
                    stage_s[stage] += own
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- waste counters ------------------------------------------------

    def _count_dead(self, args, result):
        if result:
            self.dead += 1

    def _count_sort(self, args, result):
        self.sort_keys.add((id(args[0]), args[1]))

    def _count_mode(self, args, result):
        family, node, mode, fv = args
        content = frozenset(fv.support.items())
        self.mode_keys.add(hash((family, node, mode, _ring_stage(fv.space.R), content)))

    def targets(self):
        """(layer, function, stage getter, observer) for each traced function.

        A name the package no longer has is skipped and listed in
        self.missing, so its metrics read zero instead of the run failing.
        """
        found, self.missing = [], []
        for layer, module, dotted, stage_of, observer in TARGETS:
            fn = _resolve(module, dotted)
            if fn is None:
                self.missing.append(f"{module.__name__}.{dotted}")
                continue
            found.append((layer, fn, stage_of, observer and getattr(self, observer)))
        return found

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data summary, for sending to the parent process."""
        return {
            "spans": [[name, stage, *entry] for (name, stage), entry in self.spans.items()],
            "stage_s": dict(self.stage_s),
            "dead": self.dead,
            "mode_distinct": len(self.mode_keys),
            "sort_distinct": len(self.sort_keys),
            "missing": self.missing,
        }


def bindings(fn):
    """Every (owner, name) under qtschur that binds fn: modules and classes."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qtschur" or modname.startswith("qtschur.")):
            continue
        for name, value in vars(mod).items():
            if value is fn:
                out.append((mod, name))
            elif isinstance(value, type) and value.__module__ == modname:
                out.extend((value, attr) for attr, v in vars(value).items() if v is fn)
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install tracer's wrappers for the block, then restore every binding."""
    patched = []
    try:
        for layer, fn, stage_of, observe in tracer.targets():
            wrapper = tracer.wrap(layer, fn, stage_of, observe)
            for owner, name in bindings(fn):
                setattr(owner, name, wrapper)
                patched.append((owner, name, fn))
        yield patched
    finally:
        for owner, name, fn in reversed(patched):
            setattr(owner, name, fn)
