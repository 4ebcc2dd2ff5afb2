"""One cold measurement, made in a fresh interpreter started by run.py.

    python3 child.py setup JOB
    python3 child.py verify JOB
    python3 child.py trace JOB

JOB is a JSON object with the workload's configuration (see
``run.Workload.job``).  ``setup`` times importing qtschur, enumerating
the suite's relation instances and building the space and battery of
both evaluation stages.  ``verify`` times ``qtschur.cli.main`` on the
workload's verify command, with tracing off; ``trace`` does the same
with the per-layer tracer installed.  The last line of standard output
is one JSON object with the measurements; the CLI's own summary comes
before it.

Set-ups and untraced runs are made under ``pace.sampled`` and report
the host's pace (see pace.py) next to their raw times; traced runs are
not sampled, as the samples would land in the layers' self time.  Only
the standard library and pace.py are imported before the clock starts,
so the setup time includes the package import.  The suite contexts that
qtschur keeps for the life of a process make a second run in the same
interpreter faster than any CLI user sees, hence one process per run.
"""

import json
import resource
import sys
import time

import pace


def _setup(job: dict) -> dict:
    with pace.sampled(bracket=10) as host:
        start = time.perf_counter()
        counts = _build(job)
        elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "pace": host.factor, **counts}


def _build(job: dict) -> dict:
    from fractions import Fraction

    from qtschur import toroidal, verify
    from qtschur.scalar import NumericContext, SymbolicContext

    cfg = verify.RunConfig(
        m=job["m"], n=job["n"], ell=job["ell"], modes=job["modes"],
        q0=job["q0"], d0=job["d0"], seed=job["seed"],
    )
    pd = cfg.parity_data()
    if job["suite"] == "toroidal":
        instances = verify.toroidal_instances(pd, cfg.modes)
        symbolic = SymbolicContext(m=cfg.m, n=cfg.n)
    else:
        instances = verify.affine_instances(pd)
        symbolic = SymbolicContext(formal_zeta=True)
    numeric = NumericContext(Fraction(cfg.q0), Fraction(cfg.d0), cfg.m, cfg.n)
    vectors = 0
    for ring in (numeric, symbolic):
        space = toroidal.FunctorSpace(pd, cfg.ell, ring)
        vectors += len(toroidal.functor_battery(space))
    return {"instances": len(instances), "vectors": vectors}


def _verify(job: dict, trace: bool) -> dict:
    from qtschur import cli

    if trace:
        import tracing

        tracer = tracing.Tracer()
        context = tracing.traced(tracer)
    else:
        tracer = None
        context = pace.sampled()
    # handle: the wrapped bindings when tracing, else the host's Pace
    with context as handle:
        start_cpu = time.process_time()
        start = time.perf_counter()
        rc = cli.main(job["argv"])
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
    sys.stdout.flush()
    out = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "pace": 1.0 if trace else handle.factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["patched"] = len(handle)
        out["restored"] = all(getattr(owner, name) is fn for owner, name, fn in handle)
    return out


def main(argv) -> int:
    mode, job = argv[0], json.loads(argv[1])
    if mode == "setup":
        result = _setup(job)
    else:
        result = _verify(job, trace=mode == "trace")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
