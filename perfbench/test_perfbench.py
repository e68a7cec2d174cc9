"""Tests of the benchmark itself: python -m pytest perfbench

They run the tiny ``smoke`` workload, which is not part of BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
import tvhazard as th  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("solver.iterations", "solver.fits", "penalty.fused_prox_calls",
          "likelihood.nll_calls", "likelihood.nll_grad_calls", "likelihood.nll_dataset_calls")


def run_bench(trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return result_of(run_bench(1))


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    result = result_of(run_bench(0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced):
    assert traced["correct"] is True and traced["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert got == expected


def test_traced_counts_repeat_exactly(traced):
    again = result_of(run_bench(1))
    for name in COUNTS:
        assert again["metrics"][name] == traced["metrics"][name], name
    assert traced["metrics"]["solver.fits"]["value"] == 11


def test_patched_entry_points_are_restored_identically():
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in bench_trace.patch_targets()]
    names = {name for name, _, _ in bench_trace.FUNCTIONS} | {n for n, _ in bench_trace.METHODS}
    assert {name for *_, name in bench_trace.patch_targets()} == names
    tracer = bench_trace.Tracer()
    with pytest.raises(RuntimeError):
        with bench_trace.patched(tracer):
            for owner, attr, original in before:
                assert getattr(owner, attr) is not original
            raise RuntimeError("leave the block early")
    for owner, attr, original in before:
        assert getattr(owner, attr) is original


def test_traced_pass_records_nested_spans(tmp_path):
    tracer = bench_trace.Tracer()
    workload = bench_workloads.WORKLOADS["smoke"]
    bench = bench_workloads.Bench(workload, tracer)
    with bench_trace.patched(tracer):
        bench_workloads.run_dataset(bench, bench_workloads.scenario(workload, 0), tmp_path, fresh=False)
    assert bench.failed == 0
    calls, total, self_time, _ = bench_trace.layer_metrics(tracer)
    by_id = {s[0]: s for s in tracer.spans}
    fit_children = {by_id[s[1]][2] for s in tracer.spans if s[2] == "penalty.fused_lasso_prox"}
    assert fit_children == {"solver.fit"}
    assert 0.0 <= self_time["solver.fit"] <= total["solver.fit"]
    assert bench_trace.overhead_s(tracer) > 0.0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]] + ["smoke"])
def test_every_dataset_a_run_can_draw_has_a_stored_objective(name):
    workload = bench_workloads.WORKLOADS[name]
    stored = bench_workloads.load_seed_objectives(workload)
    held_out = bench_workloads.dataset_seeds(workload, bench_workloads.HELD_OUT_SEED)
    assert not set(held_out) & set(workload.pool)
    for dataset_seed in workload.pool + tuple(held_out):
        record = stored[str(dataset_seed)]
        assert set(record["sweep"]) == {repr(g) for g in bench_workloads.GAMMAS}
        assert set(record["iterations"]["sweep"]) == set(record["sweep"])
    seeds = bench_workloads.dataset_seeds(workload, 3)
    assert seeds == bench_workloads.dataset_seeds(workload, 3)
    assert len(set(seeds)) == workload.datasets and set(seeds) <= set(workload.pool)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_draws_are_balanced_and_still_differ_between_seeds(name):
    workload = bench_workloads.WORKLOADS[name]
    stored = bench_workloads.load_seed_objectives(workload)
    works = [bench_workloads.work(stored[str(s)]) for s in workload.pool]
    target = [sum(w[i] for w in works) / len(works) for i in range(3)]
    draws = {tuple(bench_workloads.dataset_seeds(workload, seed)) for seed in range(30)}
    for draw in draws:
        for i in range(3):
            mean = sum(bench_workloads.work(stored[str(s)])[i] for s in draw) / len(draw)
            assert abs(mean / target[i] - 1) <= workload.balance
    assert len(draws) >= 5


def test_host_scale_divides_the_reference_by_the_trimmed_mean_probe():
    probes = [0.001] * 3 + [0.004] * 12 + [0.006] * 12 + [1.0] * 3
    assert run.host_scale(probes) == pytest.approx(run.PROBE_REFERENCE_S / 0.005)


def test_mean_operation_sums_the_parts_and_averages_the_datasets():
    samples = [(1, "a", 3.0), (1, "b", 1.0), (2, None, 5.0), (2, None, 6.0), (2, None, 7.0)]
    assert run.mean_operation(samples) == pytest.approx(((3.0 + 1.0) + 6.0) / 2)


def fit_checked_against(stored, tmp_path):
    """A smoke-shape fit checked against the stored objective ``stored``."""
    workload = bench_workloads.WORKLOADS["smoke"]
    bench = bench_workloads.Bench(workload)
    _, observations = th.generate(bench_workloads.scenario(workload, 0))
    result = th.fit(observations, bench_workloads.fit_config(1.0))
    with bench.op("fit_s") as op:
        pass
    final = result.objective_trace[-1][1]
    bench.check_fit(op, result, observations, stored(final), tmp_path / "model.json")
    return bench


@pytest.mark.parametrize("stored", [lambda final: final * (1 - 1e-3), lambda final: None],
                         ids=["below-the-fit", "missing"])
def test_a_fit_above_or_without_a_stored_objective_fails(stored, tmp_path):
    bench = fit_checked_against(stored, tmp_path)
    assert bench.failed == 1
    assert bench.checks["objective_floor"]["failed"] == 1
    assert bench.checks["objective_floor"]["passed"] == 0


def test_a_fit_at_its_stored_objective_passes(tmp_path):
    bench = fit_checked_against(lambda final: final, tmp_path)
    assert bench.failed == 0
    assert bench.checks["objective_floor"]["passed"] == 1


def test_source_tree_missing_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
