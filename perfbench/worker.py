"""One benchmark process: set up, run jobs, check outputs, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --mode setup|job|traced --results DIR

Started by ``perfbench/run.py`` in a fresh interpreter with ``src`` on
``PYTHONPATH``.  Set-up imports rieszmax and evaluates m once at every
dimension the workload uses; ``--mode setup`` stops there.  The other modes
run jobs back to back until S seconds of job time have passed (at least one
job) and check each job's outputs outside its timed region.  ``--mode
traced`` installs the span tracer before rieszmax is imported.  The last
line of standard output is a JSON object with the set-up end time
(CLOCK_MONOTONIC), the job times, the operation counts and, when traced,
the per-layer table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

LAYER_NAMES = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]]

# per-layer metrics summed over several spans; every other "<span>.<field>"
# metric reads one span's calls, s or self_s, or else a tracer counter
GROUPS = {"multiplier.check": ("multiplier.check_small_arg",
                               "multiplier.check_large_arg",
                               "multiplier.check_derivative")}


def layer_metrics(names, table: dict, counters: dict) -> dict[str, float]:
    """The named per-layer metrics of one job from its span table and
    counters (metrics neither provides read 0 and are filled in later)."""
    out = {}
    for metric in names:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[metric] = sum(table.get(n, {}).get(field, 0)
                              for n in GROUPS.get(span, (span,)))
        else:
            out[metric] = counters.get(metric, 0)
    return out


def roadmap_rows(tracer: tracing.Tracer) -> dict:
    """Inclusive seconds per call of the sweep trial and of its bundle,
    maximal and vector maximal layers, split by top-level sweep call (one
    per dimension)."""
    rows = {}
    for name in ("experiments.norm_ratio_sweep", "operators.radial_bundle",
                 "operators.maximal_over", "operators.vector_maximal"):
        rows[name] = [{"calls": r["calls"],
                       "s_per_call": r["s"] / r["calls"] if r["calls"] else 0.0}
                      for r in tracer.per_root("experiments.norm_ratio_sweep",
                                               name)]
    return rows


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "job", "traced"), required=True)
    ap.add_argument("--results", type=Path, required=True)
    args = ap.parse_args()
    work = workloads.WORKLOADS[args.workload]()

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # ---- set-up: import, then one m evaluation per dimension
    for mod in work.modules:
        importlib.import_module(mod)
    import rieszmax
    src = (ROOT / "src" / "rieszmax").resolve()
    if Path(rieszmax.__file__).resolve().parent != src:
        print(f"rieszmax was imported from {rieszmax.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if tracer is not None:
        tracing.wrap_package(tracer)
    cold = {}
    for d in work.dims:
        t0 = time.perf_counter()
        rieszmax.m_values(d, [0.0])
        cold[d] = time.perf_counter() - t0
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "cold_s": cold}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    work.prepare(args.seed, args.results)
    try:
        result.update(run_jobs(work, args, tracer))
    finally:
        work.finish()
    if tracer is not None:
        result["layers"]["multiplier.cold_s"] = sum(cold.values())
    print(json.dumps(result))
    return 0


def run_jobs(work, args, tracer) -> dict:
    """Jobs back to back until --seconds of job time (at least one); each
    job's outputs are checked after its timed region."""
    job_s, layers = [], []
    first_outputs = None
    attempted = failed = 0
    reasons: dict[str, int] = {}
    extra = {}
    while not job_s or sum(job_s) < args.seconds:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        errors = work.run()
        job_s.append(time.perf_counter() - t0)
        if tracer is not None:   # keep the last job's spans
            extra["span_table"] = tracer.table()
            layers.append(layer_metrics(LAYER_NAMES, extra["span_table"],
                                        tracer.counters))
            extra["roadmap"] = roadmap_rows(tracer)
            tracer.save(args.results
                        / f"{args.workload}-seed{args.seed}.spans.npz")
        outputs = work.outputs()
        checks = work.check(outputs)
        if first_outputs is None:
            first_outputs = outputs
        same = outputs == first_outputs
        for err, why in zip(errors, checks, strict=True):
            attempted += 1
            why = err or why or (None if same else "differs from the first job")
            if why:
                failed += 1
                reasons[why] = reasons.get(why, 0) + 1
    if layers:
        extra["layers"] = {k: statistics.median_low(job[k] for job in layers)
                           for k in layers[0]}
    return dict(
        job_s=job_s, attempted=attempted, failed=failed,
        failures=dict(sorted(reasons.items(), key=lambda kv: -kv[1])[:20]),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        machine=machine_facts(), **extra)


if __name__ == "__main__":
    sys.exit(main())
