"""CLI: subcommand dispatch, exit codes, persistence, config precedence."""

import csv
import json

import pytest

from rieszmax import operators
from rieszmax.cli import (EXIT_BOUND_FAIL, EXIT_PASS, EXIT_RESOURCE,
                          EXIT_USAGE, main)


def test_ineq_passes(tmp_path, capsys):
    code = main(["ineq", "--output", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_ineq_levels_outside_their_domain(tmp_path, monkeypatch):
    # a negative level count is a usage error, and one whose samples do not
    # fit in memory a resource error; neither writes a report
    assert main(["ineq", "--levels", "-1", "--output", str(tmp_path)]) \
        == EXIT_USAGE
    monkeypatch.setattr(operators, "_physical_memory", lambda: 2 ** 20)
    assert main(["ineq", "--levels", "14", "--output", str(tmp_path)]) \
        == EXIT_RESOURCE
    assert list(tmp_path.iterdir()) == []


def test_poisson_passes_at_a_large_band(tmp_path):
    # the projection range follows the band, so telescope_residual stays
    # within its 1e-6 bound
    assert main(["poisson", "--grid-n", "16", "--band", "7.5", "--trials",
                 "1", "--output", str(tmp_path)]) == EXIT_PASS


def test_factorization_writes_reports(tmp_path):
    code = main(["factorization", "--output", str(tmp_path),
                 "--trials", "1", "--dim", "4", "--grid-n", "8",
                 "--band", "2.0"])
    assert code == EXIT_PASS
    csv_path = tmp_path / "factorization.csv"
    json_path = tmp_path / "factorization.json"
    assert csv_path.exists() and json_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"experiment_id", "seed", "d", "N",
                                     "trial", "quantity", "value"}
    doc = json.loads(json_path.read_text())
    assert doc["experiment_id"] == "factorization"


def test_csv_rows_reproducible(tmp_path):
    for sub in ("one", "two"):
        assert main(["factorization", "--output", str(tmp_path / sub),
                     "--trials", "1", "--dim", "4", "--grid-n", "8",
                     "--band", "2.0"]) == EXIT_PASS
    a = (tmp_path / "one" / "factorization.csv").read_bytes()
    b = (tmp_path / "two" / "factorization.csv").read_bytes()
    assert a == b


def test_empty_dims_is_usage_error(tmp_path):
    assert main(["norm-sweep", "--dims", "", "--output", str(tmp_path)]) \
        == EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_bad_x_grid_is_usage_error(tmp_path):
    assert main(["verify-multiplier", "--x-grid", "bogus",
                 "--output", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("argv, code", [
    (["verify-multiplier", "--x-grid", "lin:-1:1:5"], EXIT_USAGE),
    (["verify-multiplier", "--x-grid", "log:1e-3:1e9:5"], EXIT_RESOURCE),
    # a grid end that is not finite gives no x to check
    (["verify-multiplier", "--x-grid", "lin:nan:1:5"], EXIT_USAGE),
    (["verify-multiplier", "--x-grid", "lin:0:inf:5"], EXIT_USAGE),
    (["factorization", "--grid-n", "8", "--t-list", "0.1,0.5"], EXIT_USAGE),
    (["factorization", "--grid-n", "8", "--t-list", "0"], EXIT_USAGE)])
def test_x_and_t_outside_their_domains(tmp_path, argv, code):
    assert main([*argv, "--output", str(tmp_path)]) == code


def test_norm_sweep_small(tmp_path, capsys):
    code = main(["norm-sweep", "--dims", "4", "--grid-n", "8",
                 "--trials", "1", "--t-grid=-4:2:1", "--band", "2.0",
                 "--output", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("r1", "r2", "r3", "r4"):
        assert name in out


def test_norm_sweep_tight_ceiling_fails(tmp_path, capsys):
    code = main(["norm-sweep", "--dims", "4", "--grid-n", "8",
                 "--trials", "1", "--t-grid=-4:2:1", "--band", "2.0",
                 "--tol", "0.01", "--output", str(tmp_path)])
    assert code == EXIT_BOUND_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1, "band": 2.0, "grid_n": 8}))
    code = main(["factorization", "--config", str(cfg), "--dim", "4",
                 "--output", str(tmp_path / "out")])
    assert code == EXIT_PASS
    doc = json.loads((tmp_path / "out" / "factorization.json").read_text())
    assert doc["parameters"]["trials"] == 1
    assert doc["parameters"]["band"] == 2.0


def test_config_does_not_override_explicit_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "band": 2.0, "grid_n": 8}))
    code = main(["factorization", "--config", str(cfg), "--trials", "1",
                 "--dim", "4", "--output", str(tmp_path / "out")])
    assert code == EXIT_PASS
    doc = json.loads((tmp_path / "out" / "factorization.json").read_text())
    assert doc["parameters"]["trials"] == 1


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_flag": 1}))
    assert main(["factorization", "--config", str(cfg),
                 "--output", str(tmp_path)]) == EXIT_USAGE


def test_config_cannot_set_the_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bogus"}))
    assert main(["ineq", "--config", str(cfg),
                 "--output", str(tmp_path)]) == EXIT_USAGE


def test_resource_error_exit_code(tmp_path):
    # 16^8 samples blows the grid budget
    assert main(["factorization", "--dim", "8", "--grid-n", "16",
                 "--output", str(tmp_path)]) == EXIT_RESOURCE


def test_memory_budget_exit_code(tmp_path, monkeypatch):
    # a bundle larger than physical memory is refused before it is allocated
    monkeypatch.setattr(operators, "_physical_memory", lambda: 1 << 16)
    assert main(["poisson", "--grid-n", "8", "--trials", "1",
                 "--output", str(tmp_path)]) == EXIT_RESOURCE


def test_factorization_budget_exit_code(tmp_path, monkeypatch):
    # the kernel transform's four lattice arrays are refused before they
    # are allocated
    monkeypatch.setattr(operators, "_physical_memory", lambda: 1 << 16)
    assert main(["factorization", "--dim", "4", "--grid-n", "8", "--trials",
                 "1", "--output", str(tmp_path)]) == EXIT_RESOURCE


def test_column_route_exit_codes(tmp_path, monkeypatch):
    # a budget below the identity bundle takes the column route, which
    # passes; below the column route's own estimate the command exits 3
    from rieszmax.experiments import _trial_field
    from rieszmax.fields import GridSpec
    field = _trial_field(GridSpec(4, 8), 3.0, 42, 0)
    need = operators._column_route_bytes(operators.half_spectrum(field), [None])
    argv = ["poisson", "--grid-n", "8", "--trials", "1",
            "--output", str(tmp_path)]
    monkeypatch.setattr(operators, "_physical_memory", lambda: need)
    assert main(argv) == EXIT_PASS
    monkeypatch.setattr(operators, "_physical_memory", lambda: need - 1)
    assert main(argv) == EXIT_RESOURCE


def test_report_identity_merge(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["factorization", "--output", str(out), "--trials", "1",
                 "--dim", "4", "--grid-n", "8", "--band", "2.0"]) == EXIT_PASS
    capsys.readouterr()
    code = main(["report", str(out / "factorization.csv"),
                 str(out / "factorization.csv")])
    assert code == EXIT_PASS
    assert "factorization" in capsys.readouterr().out


def test_report_conflict_is_integrity_failure(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, band in ((out_a, "2.0"), (out_b, "1.5")):
        assert main(["factorization", "--output", str(out), "--trials", "1",
                     "--dim", "4", "--grid-n", "8", "--band", band]) \
            == EXIT_PASS
    code = main(["report", str(out_a / "factorization.csv"),
                 str(out_b / "factorization.csv")])
    assert code == EXIT_BOUND_FAIL
    assert "integrity" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.csv", ""])
def test_report_of_an_unreadable_path_is_usage_error(tmp_path, capsys, name):
    # a missing file, and a directory
    assert main(["report", str(tmp_path / name)]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_rotation_small(tmp_path):
    assert main(["rotation", "--grid-n", "32", "--n-angles", "64",
                 "--band", "10.0", "--output", str(tmp_path)]) == EXIT_PASS


def test_rotation_checks_sphere_moments_when_errors_fail(tmp_path, capsys):
    # at 16 angles the error 0.031 misses its 1e-2 bound; the sphere-moment
    # table must still be printed and checked
    assert main(["rotation", "--grid-n", "32", "--n-angles", "16",
                 "--band", "10", "--output", str(tmp_path)]) == EXIT_BOUND_FAIL
    out = capsys.readouterr().out
    assert "sphere_moment_gap" in out and "FAIL" not in out


def test_abbreviated_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": 3}))
    assert main(["ineq", "--config", str(cfg), "--lev", "7",
                 "--output", str(tmp_path)]) == EXIT_PASS
    doc = json.loads((tmp_path / "identity" / "ineq.json").read_text())
    assert doc["parameters"]["l_max"] == 7


def test_config_values_are_parsed_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "4", "grid_n": 8, "trials": 1,
                               "t_grid": "-4:2:1", "band": 2.0,
                               "output": str(tmp_path / "out")}))
    assert main(["norm-sweep", "--config", str(cfg)]) == EXIT_PASS
    doc = json.loads((tmp_path / "out" / "norm_sweep.json").read_text())
    assert doc["parameters"]["grid"] == [-4, 2, 1]


@pytest.mark.parametrize("command, values", [
    ("norm-sweep", {"t_grid": [-4, 2, 1]}),
    ("poisson", {"trials": 2.5}),
    ("poisson", {"band": [3]}),
    ("poisson", {"trials": True}),
    ("norm-sweep", {"dims": [4, 6]}),
], ids=["t_grid_list", "trials_float", "band_list", "trials_bool",
        "dims_list"])
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, command,
                                                       values):
    # each value is parsed as its flag's text would be: "[-4, 2, 1]",
    # "2.5", "[3]", "true" and "[4, 6]" are no values of their options
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg),
                 "--output", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["norm-sweep", "poisson"])
def test_zero_trials_is_usage_error(tmp_path, command):
    assert main([command, "--trials", "0", "--output", str(tmp_path)]) \
        == EXIT_USAGE


def test_poisson_at_d1_passes(tmp_path):
    # at d = 1 the maximal function takes the column route
    assert main(["poisson", "--dim", "1", "--grid-n", "8", "--trials", "1",
                 "--output", str(tmp_path)]) == EXIT_PASS


def test_huge_multiplier_argument_is_resource_error(tmp_path):
    assert main(["verify-multiplier", "--x-grid", "lin:0:1e12:2",
                 "--output", str(tmp_path)]) == EXIT_RESOURCE
