"""Command-line surface: exit codes, file outputs, determinism, wiring."""

import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
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
    Observation,
    fit_constant_additive,
    nll_dataset,
    read_model,
    read_observations,
    write_model,
    write_observations,
)
from tvhazard.cli import main

from test_demos import run_fresh

SPEC = {
    "d": 4,
    "active": [[0, [[1.0, 0.6]]], [2, [[0.5, 0.4], [2.0, 1.0]]]],
    "baseline_level": 0.25,
    "horizon": 4.0,
    "n": 40,
    "feature_density": 0.5,
    "scan_times": [1.0, 2.0, 3.0],
}


OVERFLOW = "numerical failure: an exposure (a feature value times a time span) overflows\n"


def run_without_warnings(argv):
    """``main(argv)``'s exit code; the run must raise no warning of any kind."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


def strict_json(text):
    """``json.loads`` that refuses ``Infinity``, ``-Infinity`` and ``NaN``."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


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
        assert truth.d == 4 and np.flatnonzero(truth.W[1:].any(axis=1)).tolist() == [0, 2]

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


    def test_non_finite_spec_value_names_its_field(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", baseline_level=float("nan"))
        assert '"baseline_level": NaN' in spec.read_text()
        out = tmp_path / "o.jsonl"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert "spec.json: bad campaign spec: baseline_level" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"d": True, "active": [[0, [[1.0, 0.6]]]]}, "d"),
            ({"active": [[True, [[1.0, 0.6]]]]}, "planted feature index"),
            ({"active": [[2.5, [[1.0, 0.6]]]]}, "planted feature index"),
        ],
        ids=["d-true", "index-true", "index-2.5"],
    )
    def test_booleans_and_fractions_in_spec_integers_exit_2(self, tmp_path, capsys, overrides, field):
        # "d": true simulated d=1, and a planted index true or 2.5 feature 1 or 2
        spec = write_spec(tmp_path / "spec.json", **overrides)
        out = tmp_path / "o.jsonl"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"bad campaign spec: {field} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"scan_times": ["1", "2"]}, "scan time"),
            ({"active": [[0, [[1.0, True]]]]}, "planted level"),
            ({"monotone_truth": "no"}, "monotone_truth"),
        ],
        ids=["scan-str", "level-bool", "monotone-str"],
    )
    def test_strings_and_booleans_in_spec_times_and_levels_exit_2(
        self, tmp_path, capsys, overrides, field
    ):
        # float() read "1" as 1.0 and true as 1.0; "no" planted a monotone truth
        spec = write_spec(tmp_path / "spec.json", **overrides)
        out = tmp_path / "o.jsonl"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"bad campaign spec: {field} must be a" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_seed_is_ignored_and_lists_default_to_empty(self, tmp_path):
        doc = {k: v for k, v in SPEC.items() if k not in ("active", "scan_times")}
        outs = []
        for name, extra in (("a", {}), ("b", {"seed": 7})):
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({**doc, **extra}))
            outs.append(tmp_path / f"{name}.jsonl")
            assert main(["simulate", "--spec", str(spec), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        observations, _ = read_observations(outs[0])
        assert {o.kind for o in observations} == {"right"}


@pytest.mark.parametrize("command", ["simulate", "fit", "evaluate", "sweep", "export"])
def test_every_subcommand_takes_force(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert re.search(r"--force +overwrite existing outputs", capsys.readouterr().out)


class TestSeedFlag:
    @pytest.mark.parametrize("value", ["-1", "1.5", "x"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_bad_seed_names_the_flag(self, command, value, obs_file, tmp_path, capsys):
        argv = {
            "simulate": ["simulate", "--out", str(tmp_path / "o.jsonl")],
            "sweep": ["sweep", "--observations", str(obs_file)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: expected a nonnegative integer, got {value!r}" in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_simulate_help_describes_the_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert re.search(r"--seed SEED +\S", capsys.readouterr().out)


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

    @pytest.mark.parametrize("monotone", [False, True], ids=["fused", "monotone"])
    def test_a_gamma_that_flattens_every_row_fits_the_constant_model(
            self, obs_file, tmp_path, monotone):
        # at gamma=1e20 the prox flattens every row to its mean, so the fit
        # certifies at the constant additive model's NLL; the weight must
        # not swamp the rows it flattens
        out = tmp_path / "model.json"
        args = ["fit", "--observations", str(obs_file), "--out", str(out), "--gamma", "1e20"]
        assert main(args + ["--monotone"] * monotone) == 0
        report = json.loads((tmp_path / "model.json.report.json").read_text())
        assert report["stop"] == "certified"
        observations, header = read_observations(obs_file)
        constant = fit_constant_additive(observations).to_hazard_model(header["horizon"])
        want = nll_dataset(constant, observations)
        assert report["train_nll"] == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_monotone_flag_constrains_all_rows(self, obs_file, tmp_path):
        out = tmp_path / "mono.json"
        args = ["fit", "--observations", str(obs_file), "--out", str(out), "--monotone"]
        assert main(args) == 0
        model = read_model(out)
        assert np.all(np.diff(model.W, axis=1) >= -1e-12)

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

    def test_record_beyond_header_horizon_names_file_and_line(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        for censoring in ({"kind": "interval", "l": 1.0, "r": 9.0}, {"kind": "right", "t": 9.0}):
            records = [{"d": 1, "horizon": 5.0}, {"censoring": {"kind": "right", "t": 2.0}},
                       {"censoring": censoring}]
            obs.write_text("".join(json.dumps(r) + "\n" for r in records))
            args = ["fit", "--observations", str(obs), "--out", str(tmp_path / "m.json")]
            assert main(args) == 2
            assert f"{obs}:3: censoring boundary 9.0 beyond horizon 5.0" in capsys.readouterr().err
            assert not (tmp_path / "m.json").exists()

    def test_negative_change_value_exits_2_naming_file_and_line(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        records = [{"d": 1, "horizon": 5.0}, {"censoring": {"kind": "right", "t": 2.0}},
                   {"censoring": {"kind": "interval", "l": 1.0, "r": 2.0},
                    "features": [{"j": 0, "changes": [{"t": 0.0, "v": -1.0}]}]}]
        obs.write_text("".join(json.dumps(r) + "\n" for r in records))
        args = ["fit", "--observations", str(obs), "--out", str(tmp_path / "m.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{obs}:3: change value -1.0 for feature 0 is negative" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    def test_numerical_failure_exit_code(self, obs_file, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("objective not finite")

        monkeypatch.setattr("tvhazard.cli.fit", boom)
        args = ["fit", "--observations", str(obs_file), "--out", str(tmp_path / "m.json")]
        assert main(args) == 3

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_a_tolerance_that_is_not_finite_and_positive_exits_2(
        self, tol, obs_file, tmp_path, capsys
    ):
        # --tol inf reported converged=True at iteration 1
        out = tmp_path / "m.json"
        args = ["fit", "--observations", str(obs_file), "--out", str(out), "--tol", tol]
        assert main(args) == 2
        assert "tolerance must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_are_checked_before_the_file_is_read(self, tmp_path, capsys):
        # a missing file is an i/o error (exit 4); a bad flag is found first
        args = ["fit", "--observations", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "m.json"), "--gamma", "-1"]
        assert main(args) == 2
        assert "gamma must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["fit", "--gamma", "1"], ["sweep", "--gammas", "0,1"]], ids=["fista", "unpenalized"]
    )
    def test_fitting_an_overflowing_exposure_exits_3(self, argv, tmp_path, capsys):
        # the site's head exposure 1e10 * 1.5e308 overflows to inf: the
        # design refuses it when built, with no NumPy warning on the way
        obs = tmp_path / "obs.jsonl"
        sites = [
            Observation.right_censored(1, {0: ((0.0, 1e10),)}, 1.5e308),
            Observation.interval(1, {}, 0.0, 1.0),
        ]
        write_observations(obs, sites, d=1, horizon=1.5e308)
        out = tmp_path / "out.json"
        assert run_without_warnings(argv + ["--observations", str(obs), "--out", str(out)]) == 3
        assert capsys.readouterr().err == OVERFLOW
        assert not out.exists()

    def test_evaluating_an_overflowing_exposure_exits_3(self, tmp_path, capsys):
        # the site's head exposure 1e10 * 1.5e308 overflows to inf, which a
        # zero weight on its feature would turn into a NaN head term: the
        # design refuses it when built, and no report is written
        obs = tmp_path / "obs.jsonl"
        sites = [
            Observation.right_censored(1, {0: ((0.0, 1e10),)}, 1.5e308),
            Observation.interval(1, {}, 0.0, 1.0),
        ]
        write_observations(obs, sites, d=1, horizon=1.5e308)
        model = tmp_path / "model.json"
        write_model(model, ConstantAdditiveModel(0.2, (0.0,)).to_hazard_model(1.5e308))
        out = tmp_path / "eval.json"
        args = ["evaluate", "--model", str(model), "--observations", str(obs), "--out", str(out)]
        assert run_without_warnings(args) == 3
        captured = capsys.readouterr()
        assert captured.err == OVERFLOW
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, records, message",
        [
            ("fit", 0, "no observation records"),
            ("evaluate", 0, "no observation records"),
            ("sweep", 1, "sweep needs at least 2 observations to split"),
        ],
    )
    def test_too_few_records_is_validation_error(
        self, command, records, message, obs_file, tmp_path, capsys
    ):
        obs = tmp_path / "few.jsonl"
        obs.write_text("".join(obs_file.read_text().splitlines(keepends=True)[: 1 + records]))
        model = tmp_path / "model.json"
        write_model(model, ConstantAdditiveModel(0.2, (0.1,) * 4).to_hazard_model(4.0))
        out = tmp_path / "out.json"
        argv = {
            "fit": ["fit", "--observations", str(obs), "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(model), "--observations", str(obs)],
            "sweep": ["sweep", "--observations", str(obs), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_an_existing_out_is_refused_before_the_inputs_are_read(self, command, tmp_path,
                                                                     capsys):
        # evaluate read and evaluated its inputs first: on a malformed
        # observation file it exited 2 with the format error, where fit
        # exits 4 with the refusal
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"d": 1, "horizon": 2.0}\n{"censoring": {"kind": "interval"}}\n')
        model = tmp_path / "model.json"
        write_model(model, ConstantAdditiveModel(0.2, (0.0,)).to_hazard_model(2.0))
        out = tmp_path / "out.json"
        out.write_text("kept\n")
        argv = {"fit": ["fit"], "evaluate": ["evaluate", "--model", str(model)]}[command]
        assert main(argv + ["--observations", str(obs), "--out", str(out)]) == 4
        assert f"refusing to overwrite {out}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_dimension_mismatch_rejected(self, obs_file, tmp_path, capsys):
        model = ConstantAdditiveModel(intercept=0.2, weights=(0.1,)).to_hazard_model(4.0)
        mpath = tmp_path / "d1.json"
        write_model(mpath, model)
        assert main(["evaluate", "--model", str(mpath), "--observations", str(obs_file)]) == 2
        err = capsys.readouterr().err
        assert str(mpath) in err and str(obs_file) in err and "model d=1" in err

    def test_horizon_mismatch_names_both_files(self, obs_file, tmp_path, capsys):
        # decided from the records: a model covering every record evaluates
        # whatever the file's header says
        last = max(o.right for o in read_observations(obs_file)[0])
        model = ConstantAdditiveModel(intercept=0.2, weights=(0.1,) * 4)
        short, exact = tmp_path / "short.json", tmp_path / "exact.json"
        write_model(short, model.to_hazard_model(last / 2))
        write_model(exact, model.to_hazard_model(last))
        long_header = tmp_path / "long.jsonl"
        lines = obs_file.read_text().splitlines(keepends=True)
        long_header.write_text(json.dumps({"d": 4, "horizon": 2 * last}) + "\n" + "".join(lines[1:]))
        assert main(["evaluate", "--model", str(short), "--observations", str(obs_file)]) == 2
        err = capsys.readouterr().err
        assert str(short) in err and str(obs_file) in err
        assert main(["evaluate", "--model", str(exact), "--observations", str(long_header)]) == 0
        # the reader refuses a record past its own header's horizon, even
        # when the model's horizon covers it
        short_header = tmp_path / "short.jsonl"
        short_header.write_text(json.dumps({"d": 4, "horizon": last / 2}) + "\n" + "".join(lines[1:]))
        assert main(["evaluate", "--model", str(exact), "--observations", str(short_header)]) == 2
        assert f"{short_header}:" in capsys.readouterr().err


    def test_an_infinite_nll_is_written_as_null(self, obs_file, tmp_path, capsys):
        # a model with no hazard puts zero mass on every event bracket
        model = tmp_path / "zero.json"
        write_model(model, ConstantAdditiveModel(0.0, (0.0,) * 4).to_hazard_model(4.0))
        out = tmp_path / "eval.json"
        args = ["evaluate", "--model", str(model), "--observations", str(obs_file),
                "--out", str(out)]
        with pytest.warns(tvhazard.ZeroBracketWarning):
            assert main(args) == 0
        report = strict_json(out.read_text())
        assert report["total_nll"] is None and report["mean_nll"] is None
        assert strict_json(capsys.readouterr().out) == report


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

    def test_an_overflowing_validation_exposure_exits_3_without_a_table(self, tmp_path, capsys):
        # --seed 0 puts the first site in validation; its head exposure
        # 1e10 * 1.5e308 overflows to inf, which the validation design
        # refuses when built, before any fit
        obs = tmp_path / "obs.jsonl"
        sites = [Observation.right_censored(1, {0: ((0.0, 1e10),)}, 1.5e308)]
        sites += [Observation.interval(1, {}, 0.5 + k / 10, 1.5 + k / 10)
                  for k in range(9)]
        write_observations(obs, sites, d=1, horizon=1.5e308)
        out = tmp_path / "sweep.json"
        args = ["sweep", "--observations", str(obs), "--gammas", "0,1", "--seed", "0",
                "--out", str(out)]
        assert run_without_warnings(args) == 3
        assert capsys.readouterr().err == OVERFLOW
        assert not out.exists()

    def test_no_finite_validation_nll_leaves_best_gamma_null(self, tmp_path, capsys):
        # with this seed every gamma's model puts zero mass on some
        # validation bracket, so no gamma is the best
        obs, out = tmp_path / "obs.jsonl", tmp_path / "sweep.json"
        assert main(["simulate", "--seed", "36", "--out", str(obs)]) == 0
        with pytest.warns(tvhazard.ZeroBracketWarning):
            assert main(["sweep", "--observations", str(obs), "--seed", "36",
                         "--out", str(out)]) == 0
        table = strict_json(out.read_text())
        assert len(table["rows"]) == 7
        assert [r["validation_nll"] for r in table["rows"]] == [None] * 7
        assert all(math.isfinite(r["train_nll"]) for r in table["rows"])
        assert table["best_gamma"] is None
        assert "best gamma: none" in capsys.readouterr().out

    def test_every_warning_reaches_stderr_once_per_occurrence(self, tmp_path):
        # under python -m, each of the seven gammas' validation NLLs warns on
        # its own line, named by its category and not by a frame location
        obs = tmp_path / "obs.jsonl"
        assert main(["simulate", "--seed", "36", "--out", str(obs)]) == 0
        proc = run_fresh(["-m", "tvhazard", "sweep", "--observations", str(obs), "--seed", "36",
                          "--out", str(tmp_path / "sweep.json")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        zero = "ZeroBracketWarning: model assigns zero mass to {} event bracket(s); NLL is +inf"
        assert proc.stderr.splitlines() == [zero.format(3)] + [zero.format(1)] * 6

    def test_bad_grid_and_split_rejected(self, obs_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        base = ["sweep", "--observations", str(obs_file), "--out", str(out)]
        assert main(base + ["--gammas", ","]) == 2
        assert main(base + ["--gammas", "0.5,x"]) == 2
        assert main(base + ["--split", "1.5"]) == 2
        assert main(base + ["--gammas", "1,inf"]) == 2
        # every gamma is checked before the first fit: no row is printed
        assert main(base + ["--gammas", "1,-1"]) == 2
        captured = capsys.readouterr()
        assert "gamma=" not in captured.out
        assert "gamma must be finite and >= 0" in captured.err
        assert not out.exists()


class TestHugeIntegerTokens:
    # json refuses an integer token past int()'s digit limit with a bare
    # ValueError; each reader reports it as a FormatError naming the file
    def test_every_input_file_is_named(self, tmp_path, capsys):
        huge = "1" * 5000
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"d": %s, "horizon": 4.0}\n' % huge)
        model = tmp_path / "model.json"
        model.write_text('{"d": %s, "horizon": 4.0}\n' % huge)
        spec = tmp_path / "spec.json"
        spec.write_text('{"n": %s}\n' % huge)
        runs = [
            (["fit", "--observations", str(obs), "--out", str(tmp_path / "m.json")], "obs.jsonl:1: "),
            (["export", "--model", str(model), "--out", str(tmp_path / "p.csv")], "model.json: "),
            (["simulate", "--spec", str(spec), "--out", str(tmp_path / "o.jsonl")], "spec.json: "),
        ]
        for argv, where in runs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert where in err and "Exceeds the limit" in err


class TestMalformedInputs:
    # no file content makes a command exit with a traceback: each reader
    # refuses under one rule, and the command exits 2 with one line
    @pytest.mark.parametrize(
        "bad",
        [b"[" * 2000 + b"]" * 2000, b"\xff", b"[1, 2]", b'"d"', b"7"],
        ids=["nested-2000", "byte-0xff", "array", "string", "number"],
    )
    @pytest.mark.parametrize("line", [1, 2], ids=["as-header", "as-record"])
    def test_every_reader_exits_2_with_one_line(self, tmp_path, capsys, bad, line):
        header = b'{"d": 1, "horizon": 4.0}\n'
        record = b'{"censoring": {"kind": "right", "t": 1.0}}\n'
        bad_obs = tmp_path / "bad.jsonl"
        bad_obs.write_bytes(bad + b"\n" + record if line == 1 else header + bad + b"\n")
        bad_doc = tmp_path / "bad.json"
        bad_doc.write_bytes(bad)
        obs = tmp_path / "obs.jsonl"
        obs.write_bytes(header + record)
        model = tmp_path / "model.json"
        write_model(model, ConstantAdditiveModel(intercept=0.3, weights=(0.5,)).to_hazard_model(4.0))
        where = "bad.jsonl:1: bad header: " if line == 1 else "bad.jsonl:2: "
        runs = [
            (["fit", "--observations", str(bad_obs), "--out", str(tmp_path / "m.json")], where),
            (["evaluate", "--model", str(model), "--observations", str(bad_obs)], where),
            (["evaluate", "--model", str(bad_doc), "--observations", str(obs)], "bad.json: "),
            (["export", "--model", str(bad_doc), "--out", str(tmp_path / "p.csv")], "bad.json: "),
            (["simulate", "--spec", str(bad_doc), "--out", str(tmp_path / "o.jsonl")],
             "bad.json: bad campaign spec: "),
        ]
        for argv, named in runs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and named in err[0], (argv, err)
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "o.jsonl").exists()

    def test_a_time_unit_that_is_not_a_string_exits_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"d": 1, "horizon": 4.0, "time_unit": [1, {"a": null}]}\n'
                       '{"censoring": {"kind": "right", "t": 1.0}}\n')
        assert main(["fit", "--observations", str(obs), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "obs.jsonl:1: bad header: time_unit must be a string" in err[0]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("token", ["null", "true", '{"a": 1}'])
    def test_an_id_that_is_neither_a_string_nor_a_number_exits_2(self, tmp_path, capsys, token):
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"d": 1, "horizon": 4.0}\n'
                       '{"id": %s, "censoring": {"kind": "right", "t": 1.0}}\n' % token)
        assert main(["fit", "--observations", str(obs), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "obs.jsonl:2: id must be a str, got " in err[0]
        assert not (tmp_path / "m.json").exists()


class TestOutOfMemory:
    # an input whose arrays do not fit exits 4, as a full disk does.  The
    # error is injected: a real 745 GiB np.zeros can succeed under
    # overcommit and then touch every page.
    @pytest.mark.parametrize("command", ["export", "fit"])
    def test_memory_error_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch, command):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr("tvhazard.cli.read_model", exhausted)
        monkeypatch.setattr("tvhazard.cli.fit", exhausted)
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"d": 1, "horizon": 4.0}\n{"censoring": {"kind": "right", "t": 1.0}}\n')
        argv = {
            "export": ["export", "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "p.csv")],
            "fit": ["fit", "--observations", str(obs), "--out", str(tmp_path / "m.json")],
        }[command]
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: Unable to allocate 745. GiB for an array"
        ]


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
        # a row listed twice wrote its path twice
        assert main(["export", "--model", str(mpath), "--features=0,-1,0", "--out", str(bad)]) == 2
        # an empty selection wrote a header-only file and exited 0
        assert main(["export", "--model", str(mpath), "--features", ",", "--out", str(bad)]) == 2
        assert main(["export", "--model", str(mpath), "--features", "", "--out", str(bad)]) == 2
        assert not bad.exists()

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
