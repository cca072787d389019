"""Command-line entry point: experiment dispatch, persistence, summaries.

Each subcommand runs one driver, writes CSV + JSON reports into the output
directory (atomically, via a temp file and rename), prints a summary table
of (quantity, min, median, max, bound, pass/fail), and exits 0 only if
every bound check passed.  Exit codes: 0 pass, 1 bound failure or report
integrity error, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import experiments as ex
from .errors import DomainError, IntegrityError, ResourceError, RieszmaxError
from .multiplier import m_eval
from .operators import TruncationGrid

EXIT_PASS = 0
EXIT_BOUND_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_DEFAULT_N_OF_D = {4: 16, 6: 10, 8: 6, 10: 4}


def _parse_t_grid(text: str) -> TruncationGrid:
    try:
        n_min, n_max, depth = (int(p) for p in text.split(":"))
    except ValueError:
        raise DomainError(f"--t-grid expects n_min:n_max:depth, got {text!r}")
    return TruncationGrid(n_min=n_min, n_max=n_max, depth=depth)


def _parse_x_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise DomainError(
            f"--x-grid expects log:lo:hi:count or lin:lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    if (count < 2 or not math.isfinite(lo) or not math.isfinite(hi)
            or hi <= lo or (parts[0] == "log" and lo <= 0)):
        raise DomainError(f"invalid --x-grid range {text!r}")
    if parts[0] == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_int_list(text: str) -> list[int]:
    items = [p for p in text.split(",") if p.strip()]
    if not items:
        raise DomainError("expected a nonempty comma-separated integer list")
    return [int(p) for p in items]


def _atomic_write(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _persist(report: ex.ExperimentReport, out_dir: Path) -> None:
    base = out_dir / report.experiment_id
    _atomic_write(base.with_suffix(".csv"), report.to_csv)
    _atomic_write(base.with_suffix(".json"), report.to_json)


def _summarize(rows_by_quantity: dict, bounds: dict) -> bool:
    """Print the summary table; return True iff all bound checks pass."""
    all_pass = True
    header = f"{'quantity':<34} {'min':>12} {'median':>12} {'max':>12} {'bound':>14} {'status':>8}"
    print(header)
    print("-" * len(header))
    for name in sorted(rows_by_quantity):
        vals = rows_by_quantity[name]
        lo, med, hi = min(vals), statistics.median(vals), max(vals)
        bound = bounds.get(name)
        if bound is None:
            bound_txt, status = "-", "info"
        else:
            ok = bound(lo, med, hi)
            all_pass = all_pass and ok
            bound_txt = bound.__doc__ or "check"
            status = "pass" if ok else "FAIL"
        print(f"{name:<34} {lo:>12.5g} {med:>12.5g} {hi:>12.5g} "
              f"{bound_txt:>14} {status:>8}")
    return all_pass


def _group(report: ex.ExperimentReport, prefix: str | None = None) -> dict:
    grouped: dict[str, list[float]] = {}
    for row in report.rows:
        name = row["quantity"]
        if prefix is not None and not name.startswith(prefix):
            continue
        key = name.split("_x=")[0].split("_t=")[0].split("_L=")[0] \
            .split("_angles=")[0].split("_d=")[0]
        grouped.setdefault(key, []).append(row["value"])
    return grouped


def _bound(doc, fn):
    fn.__doc__ = doc
    return fn


def _verdict(report: ex.ExperimentReport, args, bounds: dict) -> int:
    """Persist the report, print its summary table against bounds, and
    return the exit code."""
    _persist(report, args.output)
    ok = _summarize(_group(report), bounds)
    return EXIT_PASS if ok else EXIT_BOUND_FAIL


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify_specfun(args) -> int:
    report = ex.specfun_bound_suite()
    return _verdict(report, args, {
        "envelope_margin": _bound(">= 0", lambda lo, med, hi: lo >= 0.0),
        "unit_margin": _bound(">= 0", lambda lo, med, hi: lo >= 0.0),
    })


def _cmd_verify_multiplier(args) -> int:
    dims = _parse_int_list(args.d)
    x_grid = _parse_x_grid(args.x_grid)
    report = ex.multiplier_bound_suite(dims, x_grid)
    for d in dims:
        at_zero = m_eval(d, 0.0)
        report.add(d, 0, 0, "m_at_zero_gap", abs(at_zero.value - 1.0))
    return _verdict(report, args, {
        "small_margin": _bound(">= 0", lambda lo, med, hi: lo >= 0.0),
        "large_margin": _bound(">= 0", lambda lo, med, hi: lo >= 0.0),
        "deriv_margin": _bound(">= 0", lambda lo, med, hi: lo >= 0.0),
        "m_at_zero_gap": _bound("<= 1e-8", lambda lo, med, hi: hi <= 1e-8),
    })


def _cmd_factorization(args) -> int:
    t_list = [float(p) for p in args.t_list.split(",")]
    report = ex.factorization_residual(args.dim, args.grid_n, t_list,
                                       args.band, args.trials, args.seed)
    tol = args.tol if args.tol is not None else 0.1
    return _verdict(report, args, {
        "residual": _bound(f"<= {tol:g}", lambda lo, med, hi: hi <= tol),
    })


def _cmd_norm_sweep(args) -> int:
    dims = _parse_int_list(args.dims)
    n_of_d = {d: _DEFAULT_N_OF_D.get(d, args.grid_n) for d in dims}
    report = ex.norm_ratio_sweep(dims, n_of_d, args.t_grid, args.band,
                                 args.trials, args.seed)
    ceiling = args.tol if args.tol is not None else 10.0
    return _verdict(report, args, {
        name: _bound(f"<= {ceiling:g}", lambda lo, med, hi: hi <= ceiling)
        for name in ("r1", "r2", "r3", "r4")})


def _cmd_decomposition(args) -> int:
    report = ex.decomposition_diagnostics(args.dim, args.grid_n, args.t_grid,
                                          args.band, args.trials, args.seed)
    return _verdict(report, args, {
        "a": _bound("<= 1.3e5", lambda lo, med, hi: hi <= 1.3e5),
        "b": _bound("<= 1.7e8", lambda lo, med, hi: hi <= 1.7e8),
        "triangle_slack": _bound(">= 0", lambda lo, med, hi: lo >= -1e-12),
    })


def _cmd_poisson(args) -> int:
    report = ex.poisson_suite(args.dim, args.grid_n, args.band, args.trials,
                              args.seed)
    return _verdict(report, args, {
        "poisson_max_ratio": _bound("<= 4", lambda lo, med, hi: hi <= 4.0),
        "g_ratio": _bound("<= 0.757", lambda lo, med, hi:
                          hi <= 1.0 / math.sqrt(2.0) + 0.05),
        "sn_square_ratio": _bound("<= 0.757", lambda lo, med, hi:
                                  hi <= 1.0 / math.sqrt(2.0) + 0.05),
        "telescope_residual": _bound("<= 1e-6", lambda lo, med, hi: hi <= 1e-6),
    })


def _cmd_ineq(args) -> int:
    checks = {"identity": lambda t: t,
              "sin8pi": lambda t: math.sin(8.0 * math.pi * t)}
    ok = True
    for label, g in checks.items():
        rep = ex.numerical_inequality_check(g, 0, args.levels, label=label)
        _persist(rep, args.output / label)
        vals = {r["quantity"]: r["value"] for r in rep.rows}
        holds = vals["holds"] == 1.0
        ok = ok and holds
        print(f"{label}: LHS={vals['lhs']:.6g} "
              f"RHS(L={args.levels})={vals[f'rhs_L={args.levels}']:.6g} "
              f"tail<={vals['tail_estimate']:.3g} "
              f"{'pass' if holds else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_BOUND_FAIL


def _cmd_rotation(args) -> int:
    report = ex.rotation_check(args.dim, args.grid_n, args.t, args.n_angles,
                               args.band, args.seed)
    _persist(report, args.output)
    tol = args.tol if args.tol is not None else 1e-2
    errors = sorted(
        ((r["quantity"], r["value"]) for r in report.rows
         if r["quantity"].startswith("rot_error_angles=")),
        key=lambda kv: int(kv[0].split("=")[1]))
    ok = errors[0][1] <= tol
    for (name_a, val_a), (_, val_b) in zip(errors, errors[1:]):
        ratio = val_b / val_a if val_a > 0 else 0.0
        ok = ok and val_b <= val_a
        print(f"{name_a}: error={val_a:.4g} next-ratio={ratio:.3f}")
    print(f"{errors[-1][0]}: error={errors[-1][1]:.4g}")
    moments_ok = _summarize(_group(report, prefix="sphere_moment"), {
        "sphere_moment_gap": _bound("<= 1e-10", lambda lo, med, hi: hi <= 1e-10),
    })
    return EXIT_PASS if ok and moments_ok else EXIT_BOUND_FAIL


def _cmd_report(args) -> int:
    merged = ex.merge_reports([Path(p) for p in args.inputs])
    grouped: dict[tuple, list[float]] = {}
    for row in merged:
        grouped.setdefault((row["experiment_id"], row["d"], row["quantity"]),
                           []).append(float(row["value"]))
    print(f"{'experiment':<18} {'d':>4} {'quantity':<30} "
          f"{'min':>12} {'median':>12} {'max':>12}")
    for (exp_id, d, quantity), vals in sorted(grouped.items()):
        print(f"{exp_id:<18} {d:>4} {quantity:<30} "
              f"{min(vals):>12.5g} {statistics.median(vals):>12.5g} "
              f"{max(vals):>12.5g}")
    if args.output_file is not None:
        def write(tmp):
            import csv
            with open(tmp, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(ex.CSV_COLUMNS)
                for row in merged:
                    writer.writerow([row[c] for c in ex.CSV_COLUMNS])
        _atomic_write(Path(args.output_file), write)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="rieszmax",
        description="Truncated Riesz transform experiments and bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--output", type=Path, default=Path("reports"))
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file of defaults; explicit flags win")

    p = sub.add_parser("verify-specfun", help="Bessel envelope margins")
    common(p)

    p = sub.add_parser("verify-multiplier", help="multiplier lemma margins")
    common(p)
    p.add_argument("--d", default="4,8", help="comma-separated dimensions")
    p.add_argument("--x-grid", default="log:1e-3:1e3:200",
                   help="log|lin:lo:hi:count")

    p = sub.add_parser("factorization", help="spatial vs spectral residuals")
    common(p)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument("--t-list", default="0.05,0.15,0.3")
    p.add_argument("--band", type=float, default=3.0)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("norm-sweep", help="maximal-operator norm ratios")
    common(p)
    p.add_argument("--dims", default="4,6,8,10")
    p.add_argument("--grid-n", type=int, default=4,
                   help="fallback N for dimensions without a preset")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--t-grid", type=_parse_t_grid,
                   default=ex.default_truncation_grid(),
                   help="n_min:n_max:depth")
    p.add_argument("--band", type=float, default=3.0)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("decomposition", help="dyadic + variation split")
    common(p)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument("--t-grid", type=_parse_t_grid,
                   default=ex.default_truncation_grid())
    p.add_argument("--band", type=float, default=3.0)
    p.add_argument("--trials", type=int, default=8)

    p = sub.add_parser("poisson", help="Poisson maximal/square/projections")
    common(p)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument("--band", type=float, default=3.0)
    p.add_argument("--trials", type=int, default=8)

    p = sub.add_parser("ineq", help="dyadic numerical inequality")
    common(p)
    p.add_argument("--levels", type=int, default=10)

    p = sub.add_parser("rotation", help="method-of-rotations reconstruction")
    common(p)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--grid-n", type=int, default=64)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--n-angles", type=int, default=256)
    p.add_argument("--band", type=float, default=28.0)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("report", help="merge prior CSV reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output-file", default=None)
    return parser, sub.choices


_DISPATCH = {
    "verify-specfun": _cmd_verify_specfun,
    "verify-multiplier": _cmd_verify_multiplier,
    "factorization": _cmd_factorization,
    "norm-sweep": _cmd_norm_sweep,
    "decomposition": _cmd_decomposition,
    "poisson": _cmd_poisson,
    "ineq": _cmd_ineq,
    "rotation": _cmd_rotation,
    "report": _cmd_report,
}


def _parse_args(parser: argparse.ArgumentParser, commands: dict,
                tokens: list[str]) -> argparse.Namespace:
    """Parse tokens.  With --config, the JSON file's values become the
    subcommand's defaults and the tokens are parsed again, so every flag on
    the command line, abbreviated or not, beats the file.  Each value is
    given as text, which argparse parses by the option's type as a flag's."""
    args = parser.parse_args(tokens)
    if getattr(args, "config", None) is None:
        return args
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {args.config}: {exc}")
    if not isinstance(loaded, dict):
        raise DomainError("config file must hold a JSON object")
    defaults = {}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if attr == "command" or not hasattr(args, attr):
            raise DomainError(f"unknown config key {key!r}")
        defaults[attr] = value if isinstance(value, str) else json.dumps(value)
    commands[args.command].set_defaults(**defaults)
    return parser.parse_args(tokens)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(parser, commands, tokens)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_BOUND_FAIL
    except (DomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RieszmaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_FAIL


if __name__ == "__main__":
    sys.exit(main())
