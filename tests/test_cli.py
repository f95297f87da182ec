import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalot.solver as solver_module
from causalot.cli import _emit_json, _write_csv, main, parse_family_token
from causalot.measures import (Exponential, Gamma, Gaussian, LevyFirstPassage,
                               Uniform)
from hard_cases import INFEASIBLE_FINAL_BASIS

ROOT = Path(__file__).resolve().parents[1]


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def uniform3(tmp_path):
    return write(tmp_path / "u3.json", {
        "support": [0.0, 1.0, 2.0],
        "weights": [1 / 3, 1 / 3, 1 / 3],
    })


class TestFamilyTokens:
    def test_known_tokens(self):
        assert parse_family_token("exp:0.01") == Exponential(0.01)
        assert parse_family_token("gamma:2:0.01") == Gamma(2, 0.01)
        assert parse_family_token("gauss:0:1") == Gaussian(0.0, 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family_token("cauchy:1")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            parse_family_token("exp:1:2")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_family_token("exp:fast")

    def test_aliases_and_full_tags(self):
        assert parse_family_token("normal:0:1") == Gaussian(0.0, 1.0)
        assert parse_family_token("Exponential:2") == Exponential(2.0)
        assert parse_family_token("levy:3") == LevyFirstPassage(3.0)
        assert parse_family_token("uniform:0:1") == Uniform(0.0, 1.0)

    def test_gamma_shape_must_be_integer(self):
        with pytest.raises(ValueError, match="integer"):
            parse_family_token("gamma:2.5:1")


class TestDiscretize:
    def test_writes_measure_file(self, tmp_path):
        spec = write(tmp_path / "exp.json", {"family": "exponential", "rate": 1.0})
        out = tmp_path / "m.json"
        assert main(["discretize", spec, "--n", "8", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["support"]) == 8
        assert sum(data["weights"]) == pytest.approx(1.0)

    def test_bad_spec_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["discretize", str(bad)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["discretize", str(tmp_path / "absent.json")]) == 1


class TestCheck:
    def test_causal_map_exits_zero(self, tmp_path, uniform3):
        map_file = write(tmp_path / "map.json", {"affine": [1.0, 0.5]})
        assert main(["check", "--measure", uniform3, "--map", map_file]) == 0

    def test_non_causal_map_exits_two(self, tmp_path, uniform3):
        map_file = write(tmp_path / "map.json", {"values": [2.0, 0.0, 1.0]})
        assert main(["check", "--measure", uniform3, "--map", map_file]) == 2

    def test_constant_map_exits_zero(self, tmp_path, uniform3):
        map_file = write(tmp_path / "map.json", {"constant": 700.0})
        assert main(["check", "--measure", uniform3, "--map", map_file]) == 0

    def test_plan_check_writes_report(self, tmp_path, uniform3):
        plan = {
            "source": {"support": [0.0, 1.0], "weights": [0.5, 0.5]},
            "target": {"support": [5.0], "weights": [1.0]},
            "mass": [[0.5], [0.5]],
        }
        plan_file = write(tmp_path / "plan.json", plan)
        out = tmp_path / "report.json"
        assert main(["check", "--plan", plan_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["causal"] is True
        assert report["config"]["command"] == "check"

    def test_needs_some_input(self):
        assert main(["check"]) == 1

    def test_conflicting_inputs(self, tmp_path, uniform3):
        map_file = write(tmp_path / "map.json", {"constant": 1.0})
        assert main(["check", "--plan", uniform3, "--measure", uniform3,
                     "--map", map_file]) == 1

    def test_map_without_measure(self, tmp_path):
        map_file = write(tmp_path / "map.json", {"constant": 1.0})
        assert main(["check", "--map", map_file]) == 1

    def test_nan_tolerance_rejected(self, tmp_path, capsys):
        # A NaN tolerance would fail every comparison and call this causal plan non-causal.
        plan_file = write(tmp_path / "plan.json", {
            "source": {"support": [0.0, 1.0, 2.0], "weights": [1 / 3] * 3},
            "target": {"support": [0.5, 10.0], "weights": [0.5, 0.5]},
            "mass": [[1 / 6, 1 / 6]] * 3,
        })
        out = tmp_path / "report.json"
        assert main(["check", "--plan", plan_file, "--tol", "nan", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tolerance must be nonnegative\n"
        assert not out.exists()


class TestSolve:
    def test_two_measure_files(self, tmp_path, uniform3, capsys):
        nu = write(tmp_path / "nu.json",
                   {"support": [0.5, 10.0], "weights": [0.5, 0.5]})
        out = tmp_path / "result.json"
        assert main(["solve", uniform3, nu, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["cost"] == "abs"
        result = json.loads(out.read_text())
        assert result["status"] == "optimal"
        assert result["value"] == pytest.approx(4.25 + 4.0 / 12.0)

    def test_instance_file(self, tmp_path):
        inst = write(tmp_path / "inst.json", {
            "eta": {"support": [1.0, 2.0], "weights": [0.5, 0.5]},
            "nu": {"support": [0.0, 3.0], "weights": [0.5, 0.5]},
            "cost": "abs",
        })
        out = tmp_path / "result.json"
        assert main(["solve", "--instance", inst, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.5)

    def test_instance_run_echoes_no_cost(self, tmp_path, capsys):
        # The instance's table is the cost; the echo must not name another.
        inst = write(tmp_path / "inst.json", {
            "eta": {"support": [1.0, 2.0], "weights": [0.5, 0.5]},
            "nu": {"support": [0.0, 3.0], "weights": [0.5, 0.5]},
            "cost": {"table": [[0.0, 1.0], [1.0, 0.0]]},
        })
        out = tmp_path / "result.json"
        assert main(["solve", "--instance", inst, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["cost"] is None
        result = json.loads(out.read_text())
        assert result["config"]["cost"] is None
        assert result["value"] == pytest.approx(0.5)

    def test_cost_with_instance_is_usage_error(self, tmp_path, capsys):
        inst = write(tmp_path / "inst.json", {
            "eta": {"support": [1.0, 2.0], "weights": [0.5, 0.5]},
            "nu": {"support": [0.0, 3.0], "weights": [0.5, 0.5]},
            "cost": {"table": [[0.0, 1.0], [1.0, 0.0]]},
        })
        out = tmp_path / "result.json"
        assert main(["solve", "--instance", inst, "--cost", "square",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert '"square"' not in captured.out
        assert captured.err.startswith("usage error: --cost")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_instance_and_files_conflict(self, tmp_path, uniform3):
        inst = write(tmp_path / "inst.json", {})
        assert main(["solve", uniform3, uniform3, "--instance", inst]) == 1

    def test_missing_nu(self, uniform3):
        assert main(["solve", uniform3]) == 1

    def test_failed_certificate_is_one_line(self, tmp_path, uniform3, capsys, monkeypatch):
        real_simplex = solver_module.solve_standard_form

        def simplex_with_corrupted_duals(*args, **kwargs):
            sol = real_simplex(*args, **kwargs)
            sol.duals[0] += 0.25
            return sol

        monkeypatch.setattr(solver_module, "solve_standard_form", simplex_with_corrupted_duals)
        nu = write(tmp_path / "nu.json",
                   {"support": [0.5, 10.0], "weights": [0.5, 0.5]})
        assert main(["solve", uniform3, nu]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver output fails its duality certificate")
        assert err.count("\n") == 1

    def test_light_atom_above_every_target(self, tmp_path):
        eta = write(tmp_path / "eta.json", {"support": [0.0, 1.0, 5.0],
                                            "weights": [(1 - 1e-8) / 2, (1 - 1e-8) / 2, 1e-8]})
        nu = write(tmp_path / "nu.json", {"support": [0.5, 2.0], "weights": [0.5, 0.5]})
        out = tmp_path / "r.json"
        assert main(["solve", eta, nu, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "optimal"

    def test_nan_cost_table_rejected(self, tmp_path, capsys):
        # json reads NaN; a NaN cost must not reach the solve and its certificate.
        inst = write(tmp_path / "inst.json", {
            "eta": {"support": [1.0, 2.0], "weights": [0.5, 0.5]},
            "nu": {"support": [0.0, 3.0], "weights": [0.5, 0.5]},
            "cost": {"table": [[float("nan"), 1.0], [1.0, 0.0]]},
        })
        out = tmp_path / "result.json"
        assert main(["solve", "--instance", inst, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cost values must be finite and nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", INFEASIBLE_FINAL_BASIS)
    def test_infeasible_final_basis_is_one_line(self, tmp_path, capsys, case):
        xs, ws, ys, vs, table, _ = case
        inst = write(tmp_path / "inst.json", {
            "eta": {"support": xs, "weights": ws},
            "nu": {"support": ys, "weights": vs},
            "cost": {"table": table},
        })
        out = tmp_path / "result.json"
        assert main(["solve", "--instance", inst, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "final basis" in err
        assert "source weights" not in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestSolveResultFeedsBack:
    """A solve result file stands in for a plan file in check and couple."""

    def instances(self, tmp_path, uniform3):
        nu = write(tmp_path / "nu.json", {"support": [0.5, 1.5, 2.5],
                                          "weights": [0.25, 0.25, 0.5]})
        table = write(tmp_path / "inst.json", {
            "eta": {"support": [0.0, 1.0, 2.0], "weights": [1 / 3, 1 / 3, 1 / 3]},
            "nu": {"support": [0.5, 1.5, 2.5], "weights": [1 / 3, 1 / 3, 1 / 3]},
            "cost": {"table": [[4.0, 3.0, 4.0], [2.0, 3.0, 4.0], [3.0, 3.0, 2.0]]},
        })
        return {"abs": [uniform3, nu, "--cost", "abs"],
                "square": [uniform3, nu, "--cost", "square"],
                "table": ["--instance", table]}

    @pytest.mark.parametrize("kind", ["abs", "square", "table"])
    def test_solve_check_couple_chain(self, tmp_path, uniform3, kind):
        result = str(tmp_path / "res.json")
        assert main(["solve", *self.instances(tmp_path, uniform3)[kind], "--out", result]) == 0
        report = tmp_path / "check.json"
        assert main(["check", "--plan", result, "--out", str(report)]) == 0
        assert json.loads(report.read_text())["causal"] is True
        sample = tmp_path / "s.csv"
        assert main(["couple", "--from-plan", result, "--n", "2000", "--seed", "0",
                     "--out", str(sample)]) == 0
        assert len(sample.read_text().splitlines()) == 2001

    @pytest.mark.parametrize("command", [["check", "--plan"], ["couple", "--from-plan"]])
    def test_result_without_plan_is_one_error_line(self, tmp_path, capsys, command):
        result = write(tmp_path / "res.json", {"status": "iteration-limit", "plan": None})
        assert main([*command, result]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "holds no plan" in err
        assert err.count("\n") == 1


class TestCouple:
    def test_simulation_csv_and_report(self, tmp_path):
        out = tmp_path / "sample.csv"
        code = main(["couple", "--x", "exp:1", "--tau", "inf", "--z", "exp:0.5",
                     "--n", "500", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X,tau,Z,Y"
        assert len(lines) == 501
        assert all(line.split(",")[1] == "inf" for line in lines[1:])
        report = json.loads((tmp_path / "sample.report.json").read_text())
        assert report["passed"] is True

    def test_report_is_strict_json(self, tmp_path):
        # The outer waiting-time and arrival cells are unbounded.
        out = tmp_path / "sample.csv"
        assert main(["couple", "--x", "exp:1", "--tau", "exp:1", "--z", "dirac:0.5",
                     "--n", "2000", "--seed", "0", "--out", str(out)]) == 0
        text = (tmp_path / "sample.report.json").read_text()
        report = json.loads(text, parse_constant=_reject_constant)
        bounds = [cell[key] for cell in report["cells"]
                  for key in ("a_lo", "a_hi", "b_lo", "b_hi")]
        assert bounds.count("-inf") == bounds.count("inf") > 0
        assert all(isinstance(b, float) for b in bounds if b not in ("inf", "-inf"))

    def test_byte_identical_reruns(self, tmp_path):
        args = ["couple", "--x", "gamma:2:0.01", "--tau", "exp:0.01",
                "--z", "exp:0.005", "--n", "400", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_from_plan(self, tmp_path):
        plan = {
            "source": {"support": [0.0, 1.0], "weights": [0.5, 0.5]},
            "target": {"support": [2.0, 3.0], "weights": [0.5, 0.5]},
            "mass": [[0.25, 0.25], [0.25, 0.25]],
        }
        plan_file = write(tmp_path / "plan.json", plan)
        out = tmp_path / "s.csv"
        code = main(["couple", "--from-plan", plan_file, "--n", "200",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 201

    def test_equal_to_x_token(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["couple", "--x", "exp:1", "--tau", "equal-to-x",
                     "--z", "exp:1", "--n", "300", "--out", str(out)])
        assert code == 0

    def test_needs_laws_or_plan(self):
        assert main(["couple", "--n", "10"]) == 1

    def test_bad_token_is_usage_error(self, tmp_path):
        code = main(["couple", "--x", "exp:one", "--tau", "inf", "--z", "exp:1",
                     "--n", "10", "--out", str(tmp_path / "s.csv")])
        assert code == 1


def test_csv_writer_matches_per_row_format(tmp_path):
    # Reference: the per-row f-string rendering, on awkward values and
    # with a chunk size that does not divide the row count.
    values = np.array([0.0, -0.0, 1 / 3, 1e-300, 2.5e17, np.inf, -np.inf, np.nan])
    columns = (values, values[::-1], np.arange(values.size, dtype=float))
    out = tmp_path / "t.csv"
    _write_csv("a,b,c", columns, str(out), chunk=3)
    rows = ["a,b,c"] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    assert out.read_text() == "\n".join(rows) + "\n"


class TestExample:
    def test_mixture_small(self, tmp_path):
        code = main(["example", "mixture", "--atoms", "20", "--grid", "15",
                     "--out", str(tmp_path)])
        assert code == 0
        grid = (tmp_path / "mixture_grid.csv").read_text().splitlines()
        assert grid[0] == "x,y,F"
        assert len(grid) == 15 * 15 + 1
        report = json.loads((tmp_path / "mixture_report.json").read_text())
        assert report["causal"] is True
        assert report["max_deviation"] == 0.0

    def test_brownian_grid_contains_known_value(self, tmp_path):
        assert main(["example", "brownian", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "brownian_grid.csv").read_text().splitlines()[1:]
        lookup = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}
        assert lookup[("0", "12.5")] == pytest.approx(0.15729920705028522,
                                                      abs=1e-12)

    def test_gamma_poisson_small(self, tmp_path, capsys):
        code = main(["example", "gamma-poisson", "--atoms", "12",
                     "--out", str(tmp_path)])
        assert code == 0
        result = json.loads((tmp_path / "gamma_poisson_result.json").read_text())
        assert result["status"] == "optimal"
        assert result["analytic_value"] == pytest.approx(100.0)
        assert result["relative_gap"] < 0.1
        # The quantile plan of these grids is causal and meets E|X - Y| >= EY - EX.
        assert result["value"] == pytest.approx(result["discrete_mean_gap"], abs=1e-9, rel=0)
        printed = capsys.readouterr().out
        assert "relative gap" in printed
        assert "discrete mean gap" in printed

    def test_gamma_poisson_in_small_cost_units(self, tmp_path, capsys):
        # Rate 1e-7 puts the costs near 1e7; the certificate measures its
        # enclosure in those units, so the optimum is no longer rejected.
        code = main(["example", "gamma-poisson", "--rate", "1e-7", "--atoms", "60",
                     "--out", str(tmp_path)])
        assert code == 0
        result = json.loads((tmp_path / "gamma_poisson_result.json").read_text())
        assert result["value"] == pytest.approx(result["discrete_mean_gap"], rel=1e-12)
        assert result["lower_bound"] <= result["value"]

    def test_unknown_example_rejected(self):
        assert main(["example", "nothere"]) == 1


class TestParsing:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "causalot" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["discretize", "spec.json", "--seed", "1"],
        ["discretize", "spec.json", "--tol", "0.1"],
        ["check", "--seed", "1"],
        ["solve", "--seed", "1"],
        ["solve", "--tol", "0.1"],
        ["solve", "--maxiter", "10"],
        ["couple", "--tol", "0.1"],
        ["example", "mixture", "--seed", "1"],
        ["example", "gamma-poisson", "--maxiter", "10"],
        ["example", "brownian", "--atoms", "5"],
        ["example", "brownian", "--rate", "9"],
        ["example", "gamma-poisson", "--tol", "0.1"],
        ["example", "gamma-poisson", "--xmax", "5"],
        ["example", "mixture", "--step", "1"],
    ])
    def test_flags_only_where_read(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: unrecognized arguments")
        assert argv[-2] in err


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("argv, key, echoed", [
    (["discretize", "{spec}", "--scheme", "uniform", "--lo", "nan", "--hi", "3"],
     "lo", "nan"),
    (["check", "--plan", "{spec}", "--tol", "nan"], "tol", "nan"),
    (["couple", "--x", "exp:1", "--tau", "inf", "--z", "exp:1", "--n", "50",
      "--confidence=-inf", "--out", "{dir}/s.csv"], "confidence", "-inf"),
    (["example", "brownian", "--lower", "nan", "--out", "{dir}"], "lower", "nan"),
])
def test_non_finite_flags_echo_strict_json(tmp_path, capsys, argv, key, echoed):
    spec = write(tmp_path / "exp.json", {"family": "exponential", "rate": 1.0})
    argv = [a.format(spec=spec, dir=tmp_path) for a in argv]
    assert main(argv) == 1  # each run fails after its echo
    echo = capsys.readouterr().out.splitlines()[0]
    config = json.loads(echo, parse_constant=_reject_constant)["config"]
    assert config[key] == echoed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["example", "brownian", "--step", "0", "--out", "{out}"], "--step"),
    (["example", "brownian", "--step", "-1", "--out", "{out}"], "--step"),
    (["example", "brownian", "--ymax", "inf", "--out", "{out}"], "--ymax"),
    (["example", "gamma-poisson", "--increase", "0", "--atoms", "5", "--out", "{out}"],
     "--increase must be at least 1"),
    (["example", "gamma-poisson", "--rate", "inf", "--atoms", "5", "--out", "{out}"],
     "rate must be positive and finite"),
    (["example", "mixture", "--xmax", "inf", "--atoms", "5", "--grid", "3",
      "--out", "{out}"], "--xmax must be finite"),
    (["discretize", "{spec}", "--scheme", "uniform", "--lo", "0", "--hi", "inf",
      "--out", "{out}/m.json"], "the window [lo, hi] must be finite"),
    (["couple", "--x", "exp:1", "--tau", "exp:1", "--z", "dirac:0.5", "--n", "100",
      "--confidence", "1.5", "--out", "{out}/s.csv"], "confidence must be in (0, 1)"),
    (["check", "--plan", "{plan}", "--tol", "inf", "--out", "{out}/r.json"],
     "tolerance must be finite"),
    (["check", "--measure", "{measure}", "--map", "{values_map}", "--out", "{out}/r.json"],
     "map values must be finite"),
    (["check", "--measure", "{measure}", "--map", "{affine_map}", "--out", "{out}/r.json"],
     "map values must be finite"),
])
def test_bad_extents_are_one_error_line(tmp_path, capsys, argv, message):
    # Each value is rejected where it is read, before any output file is written.
    spec = write(tmp_path / "exp.json", {"family": "exponential", "rate": 1.0})
    plan = write(tmp_path / "plan.json", {
        "source": {"support": [0.0, 1.0], "weights": [0.5, 0.5]},
        "target": {"support": [3.0], "weights": [1.0]},
        "mass": [[0.5], [0.5]],
    })
    measure = write(tmp_path / "measure.json", {"support": [0, 1], "weights": [0.5, 0.5]})
    # JSON reads 1e400 as infinity, and 1e308 * 1 + 1e308 overflows.
    values_map = tmp_path / "values.json"
    values_map.write_text('{"values": [1, -1e400]}')
    affine_map = tmp_path / "affine.json"
    affine_map.write_text('{"affine": [1e308, 1e308]}')
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(spec=spec, plan=plan, measure=measure, values_map=values_map,
                     affine_map=affine_map, out=out) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "usage error: "))
    assert err.count("\n") == 1
    assert message in err
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize("argv", [
    ["check", "--plan", "{bad}"],
    ["check", "--plan", "{plan_of_scalar_source}"],
    ["check", "--measure", "{bad}", "--map", "{map}"],
    ["check", "--measure", "{measure}", "--map", "{bad}"],
    ["solve", "--instance", "{bad}"],
    ["solve", "{bad}", "{measure}"],
    ["solve", "{measure}", "{bad}"],
    ["couple", "--from-plan", "{bad}"],
    ["couple", "--from-plan", "{plan_of_scalar_source}"],
    ["discretize", "{bad}"],
])
def test_wrong_shaped_json_is_one_error_line(tmp_path, capsys, argv):
    # Every JSON-reading entry point, fed valid JSON of the wrong shape.
    files = {"bad": [1, 2], "plan_of_scalar_source": {"source": 3},
             "measure": {"support": [0.0, 1.0], "weights": [0.5, 0.5]},
             "map": {"values": [0.0, 1.0]}}
    paths = {name: write(tmp_path / f"{name}.json", obj) for name, obj in files.items()}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_non_finite_output_raises_before_writing(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _emit_json({"value": float("nan")}, str(out))
    assert not out.exists()


def test_console_script_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "causalot", "example",
                           "brownian", "--step", "5", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert '"config"' in proc.stdout


def test_cli_import_loads_no_test_only_modules():
    # The exact oracle's fractions and HiGHS's scipy.optimize (about 16 MB
    # of peak RSS) belong to the tests, not to the package.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = ("import sys, causalot.cli; "
             "print(sorted(m for m in ('fractions', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
