"""Command-line surface: exit codes, file outputs, determinism, wiring."""

import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import tvhazard
from tvhazard import (
    ConstantAdditiveModel,
    NumericalError,
    read_model,
    read_observations,
    write_model,
)
from tvhazard.cli import main

SPEC = {
    "d": 4,
    "active": [[0, [[1.0, 0.6]]], [2, [[0.5, 0.4], [2.0, 1.0]]]],
    "baseline_level": 0.25,
    "horizon": 4.0,
    "n": 40,
    "feature_density": 0.5,
    "scan_times": [1.0, 2.0, 3.0],
}


def write_spec(path, **overrides):
    doc = dict(SPEC)
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def obs_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    spec = write_spec(root / "spec.json")
    out = root / "obs.jsonl"
    assert main(["simulate", "--spec", str(spec), "--out", str(out), "--seed", "0"]) == 0
    return out


class TestSimulate:
    def test_writes_observations_and_truth(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", n=30)
        out = tmp_path / "obs.jsonl"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        obs, header = read_observations(out)
        assert len(obs) == 30
        assert header["d"] == 4 and header["horizon"] == 4.0
        truth = read_model(tmp_path / "obs.jsonl.truth.json")
        assert truth.d == 4 and sorted(truth.coefficients) == [0, 2]

    def test_identical_seeds_identical_bytes(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", n=25)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            truth = tmp_path / f"{name}.truth.json"
            args = ["simulate", "--spec", str(spec), "--out", str(out), "--truth-out", str(truth)]
            assert main(args + ["--seed", "5"]) == 0
            outs.append((out.read_bytes(), truth.read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_changes_the_data(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", n=25)
        blobs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.jsonl"
            assert main(["simulate", "--spec", str(spec), "--out", str(out), "--seed", seed]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_overwrite_refused_without_force(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", n=5)
        out = tmp_path / "obs.jsonl"
        args = ["simulate", "--spec", str(spec), "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 4  # i/o refusal, not a validation error
        assert main(args + ["--force"]) == 0

    def test_outputs_naming_one_file_refused(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", n=5)
        out = tmp_path / "obs.jsonl"
        same = str(tmp_path / "." / "obs.jsonl")
        args = ["simulate", "--spec", str(spec), "--out", str(out), "--truth-out", same]
        assert main(args) == 2
        assert main(args + ["--force"]) == 2
        assert not out.exists()

    def test_malformed_spec_is_validation_error(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{ nope")
        assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.jsonl")]) == 2
        write_spec(bad, feature_density=2.0)
        assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "y.jsonl")]) == 2
        bad.write_text("[1, 2]")  # valid JSON, but not an object
        assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "z.jsonl")]) == 2
        for shape in ({"n": 10.5}, {"d": 4.5}):
            write_spec(bad, **shape)
            assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "w.jsonl")]) == 2


class TestFit:
    def test_fit_writes_model_and_report(self, obs_file, tmp_path):
        out = tmp_path / "model.json"
        assert main(["fit", "--observations", str(obs_file), "--out", str(out)]) == 0
        model = read_model(out)
        assert model.d == 4
        report = json.loads((tmp_path / "model.json.report.json").read_text())
        assert set(report) >= {
            "train_nll", "iterations", "converged", "stop", "mapping_norm",
            "nonzero_parameter_count",
        }
        assert report["converged"] == (report["stop"] == "certified")
        assert report["mapping_norm"] >= 0.0
        vals = [v for _, v in report["objective_trace"]]
        assert all(b <= a + 1e-8 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))

    def test_two_fit_runs_are_bitwise_identical(self, obs_file, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            args = ["fit", "--observations", str(obs_file), "--out", str(out)]
            assert main(args) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_evaluate_reproduces_reported_train_nll(self, obs_file, tmp_path):
        model = tmp_path / "model.json"
        assert main(["fit", "--observations", str(obs_file), "--out", str(model)]) == 0
        report = json.loads((tmp_path / "model.json.report.json").read_text())
        ev = tmp_path / "eval.json"
        args = [
            "evaluate", "--model", str(model), "--observations", str(obs_file), "--out", str(ev)
        ]
        assert main(args) == 0
        got = json.loads(ev.read_text())
        assert got["total_nll"] == report["train_nll"]  # same code path, exactly
        assert got["mean_nll"] == got["total_nll"] / got["n"]

    def test_monotone_flag_constrains_all_rows(self, obs_file, tmp_path):
        out = tmp_path / "mono.json"
        args = ["fit", "--observations", str(obs_file), "--out", str(out), "--monotone"]
        assert main(args) == 0
        model = read_model(out)
        for sf in [model.intercept, *model.coefficients.values()]:
            assert np.all(np.diff(sf.values) >= -1e-12)

    def test_outputs_naming_one_file_refused(self, obs_file, tmp_path):
        out = tmp_path / "model.json"
        args = ["fit", "--observations", str(obs_file), "--out", str(out), "--report-out", str(out)]
        assert main(args) == 2
        assert not out.exists()
        out.write_text("kept\n")
        assert main(args + ["--force"]) == 2
        assert out.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_missing_input_is_io_error(self, tmp_path):
        args = ["fit", "--observations", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m")]
        assert main(args) == 4

    def test_numerical_failure_exit_code(self, obs_file, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("objective not finite")

        monkeypatch.setattr("tvhazard.cli.fit", boom)
        args = ["fit", "--observations", str(obs_file), "--out", str(tmp_path / "m.json")]
        assert main(args) == 3


class TestEvaluate:
    def test_dimension_mismatch_rejected(self, obs_file, tmp_path):
        model = ConstantAdditiveModel(intercept=0.2, weights=(0.1,)).to_hazard_model(4.0)
        mpath = tmp_path / "d1.json"
        write_model(mpath, model)
        assert main(["evaluate", "--model", str(mpath), "--observations", str(obs_file)]) == 2


class TestSweep:
    def test_table_and_interior_bookkeeping(self, obs_file, tmp_path, monkeypatch):
        built, models = [], []
        init, fit = tvhazard.CensoredDesign.__init__, tvhazard.cli.fit

        def counting_init(self, knots, observations):
            built.append(list(observations))
            init(self, knots, built[-1])

        def recording_fit(*args, **kwargs):
            result = fit(*args, **kwargs)
            models.append(result.model)
            return result

        monkeypatch.setattr(tvhazard.CensoredDesign, "__init__", counting_init)
        monkeypatch.setattr("tvhazard.cli.fit", recording_fit)
        out = tmp_path / "sweep.json"
        args = [
            "sweep", "--observations", str(obs_file), "--gammas", "0.5,8",
            "--out", str(out), "--seed", "0",
        ]
        assert main(args) == 0
        table = json.loads(out.read_text())
        # one design per fit and one validation design shared by every gamma
        assert len(built) == 3
        (val,) = [obs for obs in built if len(obs) == table["n_validation"]]
        for model, r in zip(models, table["rows"], strict=True):
            assert r["validation_nll"] == tvhazard.nll_dataset(model, val) / len(val)
        assert table["n_train"] + table["n_validation"] == 40
        assert [r["gamma"] for r in table["rows"]] == [0.5, 8.0]
        assert table["best_gamma"] in (0.5, 8.0)
        nz = [r["nonzero_parameter_count"] for r in table["rows"]]
        assert nz[0] >= nz[1]  # heavier penalty cannot store more parameters
        for r in table["rows"]:
            assert np.isfinite(r["train_nll"]) and np.isfinite(r["validation_nll"])

    def test_bad_grid_and_split_rejected(self, obs_file, tmp_path):
        base = ["sweep", "--observations", str(obs_file)]
        assert main(base + ["--gammas", ","]) == 2
        assert main(base + ["--gammas", "0.5,x"]) == 2
        assert main(base + ["--split", "1.5"]) == 2
        assert main(base + ["--gammas", "1,inf"]) == 2


class TestExport:
    def test_constant_model_exports_single_level_per_feature(self, tmp_path):
        model = ConstantAdditiveModel(intercept=0.3, weights=(0.5, 0.0)).to_hazard_model(4.0)
        mpath = tmp_path / "const.json"
        write_model(mpath, model)
        out = tmp_path / "paths.csv"
        assert main(["export", "--model", str(mpath), "--out", str(out)]) == 0
        levels = {}
        with open(out, newline="") as f:
            for row in csv.DictReader(f):
                levels.setdefault(row["feature"], set()).add(row["value"])
        assert all(len(v) == 1 for v in levels.values())
        assert levels["intercept"] == {"0.3"}
        assert levels["0"] == {"0.5"}

    def test_selected_features_include_absent_zero_rows(self, tmp_path):
        model = ConstantAdditiveModel(intercept=0.3, weights=(0.5, 0.0)).to_hazard_model(4.0)
        mpath = tmp_path / "const.json"
        write_model(mpath, model)
        out = tmp_path / "sel.csv"
        # leading dash: argparse needs the --features=-1,1 spelling
        args = ["export", "--model", str(mpath), "--features=-1,1", "--out", str(out)]
        assert main(args) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["feature"] for r in rows} == {"intercept", "1"}
        assert {r["value"] for r in rows if r["feature"] == "1"} == {"0.0"}
        bad = tmp_path / "bad.csv"
        assert main(["export", "--model", str(mpath), "--features", "7", "--out", str(bad)]) == 2
        assert main(["export", "--model", str(mpath), "--features", "x", "--out", str(bad)]) == 2

    def test_grid_covers_boundaries_and_midpoints(self, obs_file, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(["fit", "--observations", str(obs_file), "--out", str(model_path)]) == 0
        out = tmp_path / "paths.csv"
        assert main(["export", "--model", str(model_path), "--out", str(out)]) == 0
        model = read_model(model_path)
        B = model.knots.boundaries()
        ts = {float(t) for t in B} | {0.5 * (a + b) for a, b in zip(B[:-1], B[1:])}
        with open(out, newline="") as f:
            seen = {float(r["t"]) for r in csv.DictReader(f) if r["feature"] == "intercept"}
        assert seen == ts


class TestConsoleScript:
    """The console script declared in pyproject.toml, checked without an install.

    An installer writes a wrapper that sets ``sys.argv[0]`` and calls the
    ``module:attr`` named under ``[project.scripts]``. The test builds that
    wrapper itself and runs it against the package it imported, so it checks
    the code under test rather than whatever ``tvhazard`` happens to be on PATH.
    """

    def test_installed_entry_point_reports_version(self, tmp_path):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            project = tomllib.load(f)["project"]
        target = project.get("scripts", {}).get("tvhazard")
        assert target is not None, "pyproject.toml declares no tvhazard console script"
        module_name, sep, attr = target.partition(":")
        assert sep and module_name and attr, f"entry point {target!r} is not module:attr"

        package_root = Path(tvhazard.__file__).resolve().parents[1]
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(package_root / "tvhazard")
        assert callable(getattr(module, attr, None)), f"entry point {target!r} names no callable"

        wrapper = (
            "import sys\n"
            f"from {module_name} import {attr}\n"
            "sys.argv[0] = 'tvhazard'\n"
            f"sys.exit({attr}())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(package_root), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"tvhazard {project['version']}\n"
