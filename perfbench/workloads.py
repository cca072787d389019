"""The benchmark's workloads.

Each workload is a closed loop: one caller runs one job at a time and waits
for it.  A job is a fixed sequence of calls into the public API of
``rieszmax``; ``run`` makes the calls, ``outputs`` reads back what the job
produced (outside the timed region), and ``check`` compares those outputs
with the program's own verdicts and, for seed 42, with the reference rows
stored under ``perfbench/reference``.  Inputs depend only on the seed.

Workloads look rieszmax functions up at call time, so the traced run's
wrappers (installed after import) see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 42
# Relative tolerance loose enough for float32 -> float64 reductions (about
# 1e-7 on r3) and a closed-form m (2.7e-10 absolute); the absolute floor
# covers quantities that are rounding noise around zero.
RTOL = 1e-6
ATOL = 1e-8


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


class Workload:
    name = ""
    dims: tuple[int, ...] = ()   # dimensions whose m tables setup warms
    modules: tuple[str, ...] = ("rieszmax",)

    def prepare(self, seed: int, work_dir: Path) -> None:
        """Build the inputs for seed (outside the timed region)."""
        self.seed = seed

    def run(self) -> list[str | None]:
        """One job; per operation, the error it raised or None."""
        raise NotImplementedError

    def outputs(self):
        """What the last job produced, read outside the timed region."""
        raise NotImplementedError

    def check(self, outputs) -> list[str | None]:
        """Per-operation failure reasons from verdicts and the reference."""
        raise NotImplementedError

    def finish(self) -> None:
        """Release what prepare created."""


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """norm_ratio_sweep over dims (4, 6, 8), one call per dimension."""

    name = "sweep"
    N_OF_D = {4: 16, 6: 10, 8: 4}
    dims = tuple(N_OF_D)
    BAND = 3.0
    TRIALS = 1
    CEILING = 10.0          # the CLI's norm-sweep bound on every ratio
    RERUN = (4, 8)          # cheap dimensions re-run for the determinism check

    def prepare(self, seed, work_dir):
        import rieszmax
        super().prepare(seed, work_dir)
        self.grid = rieszmax.default_truncation_grid()
        self.rows: dict[int, list] = {}

    def _call(self, d):
        import rieszmax
        rep = rieszmax.norm_ratio_sweep([d], {d: self.N_OF_D[d]}, self.grid,
                                        self.BAND, self.TRIALS, self.seed)
        return rep.rows

    def run(self):
        errors = []
        for d in self.dims:
            try:
                self.rows[d] = self._call(d)
                errors.append(None)
            except Exception as exc:  # a failed operation, counted
                self.rows[d] = []
                errors.append(f"d={d}: {type(exc).__name__}: {exc}")
        return errors

    def outputs(self):
        return {d: list(rows) for d, rows in self.rows.items()}

    def check(self, outputs):
        ref = None
        if self.seed == REFERENCE_SEED:
            ref = json.loads((REFERENCE_DIR / "sweep.json").read_text())
        reasons = []
        for d in self.dims:
            rows = outputs[d]
            why = None
            if len(rows) != 4 * self.TRIALS:
                why = f"d={d}: {len(rows)} rows"
            elif max(r["value"] for r in rows) > self.CEILING:
                why = f"d={d}: ratio above {self.CEILING}"
            elif d in self.RERUN and self._call(d) != rows:
                why = f"d={d}: a second call gave different rows"
            elif ref is not None:
                want = ref[str(d)]
                got = [[r["N"], r["trial"], r["quantity"], r["value"]]
                       for r in rows]
                if len(got) != len(want) or any(
                        g[:3] != w[:3] or not close(g[3], w[3])
                        for g, w in zip(got, want)):
                    why = f"d={d}: rows miss the reference"
            reasons.append(why)
        return reasons


# ---------------------------------------------------------------------------


class CliDefaults(Workload):
    """Every CLI subcommand but norm-sweep at its defaults, then report."""

    name = "cli_defaults"
    dims = (4, 8)
    modules = ("rieszmax", "rieszmax.cli")
    SUBCOMMANDS = ("verify-specfun", "verify-multiplier", "factorization",
                   "decomposition", "poisson", "ineq", "rotation")
    # Both ineq reports share experiment_id, seed and row keys, so report
    # refuses to merge them (exit 1); it merges the identity one.
    REPORT_SKIP = ("sin8pi/ineq.csv",)
    MERGED = "merged.csv"

    def prepare(self, seed, work_dir):
        super().prepare(seed, work_dir)
        self.out = Path(tempfile.mkdtemp(prefix="cli-", dir=work_dir))
        self.codes: list[int] = []

    def run(self):
        import rieszmax.cli
        errors, self.codes = [], []
        argvs = [(cmd, [cmd, "--seed", str(self.seed), "--output", str(self.out)])
                 for cmd in self.SUBCOMMANDS]
        argvs.append(("report", None))
        sink = io.StringIO()
        for cmd, argv in argvs:
            if argv is None:   # report over the CSVs the subcommands wrote
                inputs = [str(p) for p in sorted(self.out.rglob("*.csv"))
                          if p.name != self.MERGED
                          and p.relative_to(self.out).as_posix()
                          not in self.REPORT_SKIP]
                argv = ["report", *inputs, "--output-file",
                        str(self.out / self.MERGED)]
            sink.seek(0)
            sink.truncate()
            try:
                with contextlib.redirect_stdout(sink):
                    code = rieszmax.cli.main(argv)
                err = None if code == 0 else f"{cmd}: exit code {code}"
            except Exception as exc:  # a failed operation, counted
                code, err = -1, f"{cmd}: {type(exc).__name__}: {exc}"
            self.codes.append(code)
            errors.append(err)
        return errors

    def outputs(self):
        return {p.relative_to(self.out).as_posix(): p.read_text()
                for p in sorted(self.out.rglob("*.csv"))}

    def _owner(self, rel: str) -> int:
        """Index of the operation that wrote the CSV at rel."""
        if rel == self.MERGED:
            return len(self.SUBCOMMANDS)
        exp_id = rel.rsplit("/", 1)[-1].split(".")[0]
        ids = {"specfun_bounds": "verify-specfun",
               "multiplier_bounds": "verify-multiplier",
               "factorization": "factorization",
               "decomposition": "decomposition", "poisson": "poisson",
               "rotation": "rotation", "ineq": "ineq"}
        return self.SUBCOMMANDS.index(ids[exp_id])

    def check(self, outputs):
        reasons: list[str | None] = [None] * (len(self.SUBCOMMANDS) + 1)
        for i, code in enumerate(self.codes):
            if code != 0:
                reasons[i] = f"exit code {code}"
        expected = len(self.SUBCOMMANDS) + 2   # ineq writes two CSVs
        if len(outputs) != expected:
            reasons[-1] = reasons[-1] or f"{len(outputs)} CSVs, {expected} expected"
        if self.MERGED in outputs:
            merged = _rows(outputs[self.MERGED])
            inputs = sorted(row for rel, text in outputs.items()
                            if rel != self.MERGED and rel not in self.REPORT_SKIP
                            for row in _rows(text))
            if sorted(merged) != inputs:
                reasons[-1] = reasons[-1] or "merged rows are not the union"
        if self.seed != REFERENCE_SEED:
            return reasons
        ref_dir = REFERENCE_DIR / "cli"
        for rel, text in outputs.items():
            if rel == self.MERGED:
                continue
            i = self._owner(rel)
            ref_path = ref_dir / rel
            if not ref_path.exists():
                reasons[i] = reasons[i] or f"{rel}: no reference"
                continue
            miss = compare_csv(text, ref_path.read_text())
            if miss:
                reasons[i] = reasons[i] or f"{rel}: {miss}"
        return reasons

    def finish(self):
        shutil.rmtree(self.out, ignore_errors=True)


def _rows(text: str) -> list[tuple]:
    """Data rows of a report CSV (header dropped)."""
    return [tuple(r) for r in csv.reader(io.StringIO(text))][1:]


def compare_csv(got: str, want: str) -> str | None:
    """None if the two CSVs have the same keys in the same order and values
    within tolerance; else a description of the first difference."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} rows, reference has {len(want_rows)}"
    for g, w in zip(got_rows, want_rows):
        if g[:-1] != w[:-1]:
            return f"row {g[:-1]} where the reference has {w[:-1]}"
        if g[-1] != w[-1] and not close(float(g[-1]), float(w[-1])):
            return f"{g[:-1]}: {g[-1]} vs reference {w[-1]}"
    return None


WORKLOADS = {w.name: w for w in (Sweep, CliDefaults)}
