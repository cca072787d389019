"""Measure every workload over several seeds and record a trajectory entry.

    python3 perfbench/trajectory.py --label NAME [--append]

For each workload of BENCHMARK.json, runs ``perfbench/run.py`` untraced once
per seed in SEEDS and traced once (seed 42), prints each end-to-end metric's median, quartiles
and quartile spread (q3 - q1) / median, and with ``--append`` adds the
entry to ``perfbench/trajectory.json``.  The entry also carries the layer
rows of the dimension sweep per dimension (m table build, trial, radial
bundle, maximal operator, vector maximal), taken from the traced sweep run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
RESULTS = ROOT / ".perfbench"
SEEDS = range(1, 11)
sys.path.insert(0, str(HERE))

from workloads import Sweep  # noqa: E402


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit code {proc.returncode}")
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                      .read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def layer_table(full: dict) -> dict:
    """Per-dimension rows of a traced sweep run: m table build at set-up,
    then seconds per call of each layer (sweep calls run in DIMS order)."""
    traced = full["detail"]["traced"]
    rows = {f"m tail-table build, d={d} (s)": s
            for d, s in traced["cold_s"].items()}
    for name, per_dim in traced["roadmap"].items():
        for d, row in zip(Sweep.dims, per_dim):
            rows[f"{name.split('.', 1)[1]}, d={d} (s per call, "
                 f"{row['calls']} calls)"] = row["s_per_call"]
    return rows


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.label,
             "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, 0, seconds) for seed in SEEDS]
        if any(r["failed"] for r in results):
            print(f"{workload}: a run had failed operations", file=sys.stderr)
        ends = {name: summary([r["metrics"][name] for r in results])
                for name in results[0]["metrics"]}
        entry["machine"] = results[0]["machine"]
        entry["workloads"][workload] = {"end_to_end": ends}
        for name, s in ends.items():
            flag = "" if s["spread"] <= bounds[name] / 3 \
                else "  <-- above a third of the bound"
            print(f"{workload:<13} {name:<12} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        traced = run(workload, 42, 1, seconds)
        entry["workloads"][workload]["per_layer"] = traced["metrics"]
        if workload == "sweep":
            entry["layer_table"] = layer_table(traced)
    if args.append:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() \
            else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    else:
        print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
