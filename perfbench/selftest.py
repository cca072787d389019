"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Runs a tiny configuration in three fresh interpreters, one untraced and two
traced, and checks that
  * every traced result is bit-identical to the untraced one;
  * fft.calls, operators.radial_bundle.calls, multiplier.m_values.args and
    specfun.bessel_j.calls are positive and repeat exactly across the two
    traced runs;
  * calls that reach operators through experiments, cli and the package
    namespace (``from .operators import ...`` bindings) are all traced.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

REPEATED = ("fft.calls", "operators.radial_bundle.calls",
            "multiplier.m_values.args", "specfun.bessel_j.calls")


def tiny_outputs(out_dir: Path) -> dict[str, np.ndarray]:
    """Results of a small config touching every traced layer."""
    import rieszmax as rz
    import rieszmax.cli
    from rieszmax import operators

    spec = rz.GridSpec(4, 8)
    f = rz.random_band_limited(spec, 1.5, seed=7)
    grid = rz.TruncationGrid(n_min=-3, n_max=2, depth=1)
    res = {
        "sweep": np.array([r["value"] for r in rz.norm_ratio_sweep(
            [4], {4: 8}, grid, 1.5, 1, seed=3).rows]),
        "maximal": rz.maximal_over(f, "factor_m", grid).samples,
        "vector": rz.vector_maximal(f, grid).samples,
        "square": rz.square_function(f, np.geomspace(1e-2, 1e1, 20)).samples,
        "bundle": operators.radial_bundle(f).components,
        "symbol": rz.MultiplierSymbol.truncated_riesz(1, 0.2).values(spec),
        "kernel": rz.Kernel(2, 1, 0.1).sample(rz.GridSpec(2, 16)),
        "m": rz.m_values(6, np.linspace(0.0, 3.0, 31)),
        "check": np.array([rz.check_small_arg(4, 0.5).value,
                           rz.check_large_arg(8, 4.0).value,
                           rz.check_derivative(4, 2.0).value]),
        "bessel": np.array([rz.bessel_j(3.0, t) for t in (0.5, 7.0, 31.0)]),
        "fftn": np.fft.fftn(f.samples),
    }
    with contextlib.redirect_stdout(io.StringIO()):
        code = rieszmax.cli.main(["factorization", "--grid-n", "8",
                                  "--trials", "1", "--t-list", "0.2",
                                  "--output", str(out_dir)])
    res["cli_code"] = np.array([code])
    res["cli_csv"] = np.frombuffer(
        (out_dir / "factorization.csv").read_bytes(), dtype=np.uint8)
    return res


def child(mode: str, out: Path) -> int:
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)
    import rieszmax  # noqa: F401
    import rieszmax.cli  # noqa: F401
    if tracer is not None:
        spans.wrap_package(tracer)
        tracer.reset()
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        res = tiny_outputs(Path(tmp))
    np.savez(out, **res)
    if tracer is not None:
        table = tracer.table()
        counts = {"fft.calls": table.get("fft", {}).get("calls", 0),
                  "operators.radial_bundle.calls":
                      table.get("operators.radial_bundle", {}).get("calls", 0),
                  "multiplier.m_values.args":
                      tracer.counters.get("multiplier.m_values.args", 0),
                  "specfun.bessel_j.calls":
                      table.get("specfun.bessel_j", {}).get("calls", 0),
                  # reached only through experiments' and cli's bindings
                  "experiments.norm_ratio_sweep.calls":
                      table.get("experiments.norm_ratio_sweep", {}).get("calls", 0),
                  "operators.maximal_over.calls":
                      table.get("operators.maximal_over", {}).get("calls", 0),
                  "cli.main.calls": table.get("cli.main", {}).get("calls", 0),
                  "multiplier.m_eval.calls":
                      table.get("multiplier.m_eval", {}).get("calls", 0)}
        Path(str(out) + ".json").write_text(json.dumps(counts))
    return 0


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    failures = []
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        paths = {}
        for label, mode in (("plain", "plain"), ("traced1", "traced"),
                            ("traced2", "traced")):
            paths[label] = Path(tmp) / f"{label}.npz"
            subprocess.run([sys.executable, __file__, "--child", mode,
                            "--out", str(paths[label])],
                           env=env, check=True, timeout=300)
        plain = np.load(paths["plain"])
        for label in ("traced1", "traced2"):
            traced = np.load(paths[label])
            for key in plain.files:
                a, b = plain[key], traced[key]
                if a.dtype != b.dtype or a.shape != b.shape \
                        or a.tobytes() != b.tobytes():
                    failures.append(f"{label}: {key} differs from untraced")
        c1 = json.loads(Path(str(paths["traced1"]) + ".json").read_text())
        c2 = json.loads(Path(str(paths["traced2"]) + ".json").read_text())
    for key, value in c1.items():
        print(f"{key:<40} {value:>10} {c2[key]:>10}")
        if value <= 0:
            failures.append(f"{key} is {value}: the wrapper saw no call")
        if key in REPEATED and value != c2[key]:
            failures.append(f"{key}: {value} then {c2[key]}")
    # the sweep calls maximal_over three times through experiments' binding
    if c1["operators.maximal_over.calls"] < 4:
        failures.append("maximal_over calls from experiments were not traced")
    for msg in failures:
        print("FAIL", msg)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", choices=("plain", "traced"))
    ap.add_argument("--out", type=Path)
    a = ap.parse_args()
    sys.exit(child(a.child, a.out) if a.child else main())
