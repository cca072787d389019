"""Benchmark entry point for rieszmax.

    python3 perfbench/run.py --workload sweep|cli_defaults
                             [--seed 42] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (``src/rieszmax`` must exist).  Each
process is a fresh interpreter with ``src`` on ``PYTHONPATH`` and the BLAS
and OpenMP thread pools capped at the number of usable cores.

``--trace 0`` starts SETUP_REPEATS interpreters; each imports rieszmax and
evaluates m once at every dimension the workload uses (``setup_s`` is the
median time from spawn to that point).  The middle one then runs the
workload's jobs back to back for ``--seconds`` (default: ``run_seconds``
of BENCHMARK.json) and checks the outputs; the set-up samples taken before
and after it span the whole run, not one phase of the host's speed.
``--trace 1`` runs one job untraced and one job in a traced interpreter
and reports the per-layer metrics and the tracing overhead (traced over
untraced job time, one job each, so it is only as steady as a single job).

Prints a readable summary, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The full result, machine facts included, goes to
``.perfbench/<workload>-seed<seed>-trace<k>.json`` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench"
WORKLOADS = ("sweep", "cli_defaults")
SETUP_REPEATS = 5
DEADLINE_S = 170.0          # the whole run, children included

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Failed(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float,
          seconds: float | None = None) -> tuple[dict, float]:
    """Run one worker (jobs for ``seconds``, default ``--seconds``; 0 runs
    one job); return its JSON result and its spawn time (CLOCK_MONOTONIC,
    the clock the worker reports its set-up end on)."""
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--mode", mode, "--results", str(RESULTS)]
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise Failed("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=budget,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        raise Failed(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise Failed(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Failed(f"{mode} worker printed no result")
    return json.loads(lines[-1]), spawned


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rieszmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=env)
        commit_id = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit_id = None
    return {"git_commit": commit_id, "src_sha256": digest.hexdigest()}


def l3_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def measure(args, deadline) -> dict:
    if args.trace == 0:
        ready = []
        for i in range(SETUP_REPEATS):
            mode = "job" if i == SETUP_REPEATS // 2 else "setup"
            out, spawned = spawn(args, mode, deadline)
            ready.append(out["ready_monotonic"] - spawned)
            if mode == "job":
                res = out
        metrics = {
            "setup_s": statistics.median(ready),
            "job_s": statistics.median(res["job_s"]),
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
        detail = {"setup_samples_s": ready, "job": res}
        runs = [res]
    else:
        plain, _ = spawn(args, "job", deadline, seconds=0)
        traced, _ = spawn(args, "traced", deadline, seconds=0)
        metrics = dict(traced.pop("layers"))
        metrics["trace.overhead_frac"] = (statistics.median(traced["job_s"])
                                          / statistics.median(plain["job_s"])
                                          - 1.0)
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        detail = {"untraced": plain, "traced": traced}
        runs = [plain, traced]
    return {"metrics": metrics, "units": units, "detail": detail, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rieszmax" / "__init__.py").is_file():
        print(f"no rieszmax source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        out = measure(args, deadline)
    except Failed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = out["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    machine = dict(runs[0]["machine"])
    machine.update(nproc=os.cpu_count(),
                   usable_cores=len(os.sched_getaffinity(0)),
                   blas_threads=int(child_env()["OPENBLAS_NUM_THREADS"]),
                   l3_bytes=l3_bytes(), **source_facts())

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    first = runs[0]
    print(f"  jobs {len(first['job_s'])}, operations {first['attempted']}")
    samples = {"setup_s": f"median of {SETUP_REPEATS} interpreters",
               "job_s": f"median of {len(first['job_s'])} jobs"}
    for name, value in out["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {out['units'][name]:<6} "
              f"{samples.get(name, '')}")
    print(f"  {'fail_frac':<44} {failed / attempted:>16.6g} "
          f"({failed} failed of {attempted} operations)")
    for run in runs:
        for why, n in run["failures"].items():
            print(f"  failure x{n}: {why}")
    print("machine " + json.dumps(machine, sort_keys=True))

    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "metrics": out["metrics"], "units": out["units"],
            "attempted": attempted, "failed": failed, "machine": machine,
            "detail": out["detail"]}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": out["units"][k]}
                    for k, v in out["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
