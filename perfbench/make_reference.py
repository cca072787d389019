"""Regenerate the seed-42 reference outputs under perfbench/reference.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Runs one job of each named workload (default: all) and stores what it
produced: the sweep's r1-r4 rows and the CSVs the CLI writes (the merged
one aside).  Run it only on a commit whose outputs are the intended
reference; the benchmark compares later commits with it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import REFERENCE_DIR, REFERENCE_SEED  # noqa: E402


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = REFERENCE_DIR.parent.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in names:
            work = workloads.WORKLOADS[name]()
            work.prepare(REFERENCE_SEED, Path(tmp))
            errors = work.run()
            if any(errors):
                print(f"{name}: {[e for e in errors if e]}", file=sys.stderr)
                return 1
            out = work.outputs()
            if name == "sweep":
                rows = {str(d): [[r["N"], r["trial"], r["quantity"], r["value"]]
                                 for r in out[d]] for d in work.dims}
                (REFERENCE_DIR / "sweep.json").write_text(
                    json.dumps(rows, indent=1) + "\n")
            else:
                cli_dir = REFERENCE_DIR / "cli"
                shutil.rmtree(cli_dir, ignore_errors=True)
                out.pop(work.MERGED)   # checked against its inputs instead
                for rel, text in out.items():
                    path = cli_dir / rel
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
            work.finish()
            print(f"{name}: reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
