"""Golden outputs: every subcommand but report, at a reduced config and seed
42, must reproduce the committed CSVs, the committed exit codes and the
committed printed summaries (tests/golden/stdout/) byte for byte.

The subcommands run in one fresh interpreter, in a fixed order, because the
values of m depend in their last bits on the calls made before them in the
same process.  They run twice: with the environment as given and at one
BLAS thread, since a reduction over many radius classes may round
differently at another thread count.  To regenerate the files after an intended change of values,
run the subcommands into an empty directory and copy its CSVs, its stdout/
directory and exit_codes.json (not the JSON reports, which carry a
timestamp) over tests/golden:

    PYTHONPATH=src python tests/test_golden.py OUT_DIR
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
EXIT_CODES = "exit_codes.json"
STDOUT = "stdout"

COMMANDS = [
    ["factorization", "--grid-n", "8", "--trials", "1"],
    ["norm-sweep", "--dims", "4,6", "--trials", "1", "--t-grid=-4:2:1"],
    ["decomposition", "--grid-n", "8", "--trials", "2", "--t-grid=-4:2:1"],
    ["poisson", "--grid-n", "8", "--trials", "2"],
    ["ineq", "--levels", "4"],
    ["rotation", "--grid-n", "32", "--n-angles", "16", "--band", "10"],
    ["verify-multiplier", "--x-grid", "log:1e-2:1e2:20"],
    ["verify-specfun"],
]


def run_all(out_dir: Path) -> None:
    """Run COMMANDS in order into out_dir and record their exit codes and
    what each printed."""
    import contextlib
    import io

    from rieszmax.cli import main

    codes = {}
    (out_dir / STDOUT).mkdir(parents=True, exist_ok=True)
    for argv in COMMANDS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            codes[argv[0]] = main([*argv, "--seed", "42",
                                   "--output", str(out_dir)])
        (out_dir / STDOUT / f"{argv[0]}.txt").write_text(printed.getvalue())
    (out_dir / EXIT_CODES).write_text(json.dumps(codes, indent=1) + "\n")


def _outputs(root: Path) -> dict[str, bytes]:
    paths = [*root.rglob("*.csv"), *(root / STDOUT).glob("*.txt"),
             root / EXIT_CODES]
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths}


def _check_against_golden(out_dir: Path, **env_vars: str) -> None:
    env = dict(os.environ, **env_vars)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, __file__, str(out_dir)], env=env,
                   check=True, timeout=300)
    got, want = _outputs(out_dir), _outputs(GOLDEN)
    assert sorted(got) == sorted(want)
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"outputs differ from tests/golden: {differ}"


def test_csvs_and_exit_codes_match_golden(tmp_path):
    _check_against_golden(tmp_path)


def test_golden_at_one_blas_thread(tmp_path):
    # reductions over many radius classes round differently at other BLAS
    # thread counts; the golden configs must not, so one thread matches too
    _check_against_golden(tmp_path, OPENBLAS_NUM_THREADS="1",
                          OMP_NUM_THREADS="1")


if __name__ == "__main__":
    run_all(Path(sys.argv[1]))
