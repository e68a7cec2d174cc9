"""Benchmark of the tvhazard simulate -> fit -> evaluate -> sweep loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign-sweep --seed 0 --seconds 60 --trace 0

``--trace 0`` times the loop untraced over a fixed number of datasets,
drawn from the workload's pool by ``--seed`` (see
``bench_workloads.run_dataset``).  Each metric is the mean over the run of
one operation's time (see ``mean_operation``), except ``setup_s``, which is
the median of its samples; all are scaled to the host speed at which the
speed probe takes ``PROBE_REFERENCE_S`` (see ``host_scale``).  The amount
of work is fixed per workload, so ``--seconds`` does not change it; the
run records its own duration next to it.  ``--trace 1`` runs the first
dataset of the run traced and reports per-layer counts and times.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
the correctness-check tally, the warnings and the raw samples.
The program is imported from ``src/`` of the checkout, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: with two, a BLAS call waits for the second core, and while
# another process kept that core busy a fleet-wide fit took over 20 s, not 3-4 s.
BLAS_THREADS = 1
# about ``bench_workloads.probe()`` on a 2-vCPU x86_64 VM (it read 4.9 to
# 8.2 ms there); a run's timings are scaled to the host speed at which the
# probe takes this long
PROBE_REFERENCE_S = 0.006
# share of the probe timings cut at each end before averaging
PROBE_TRIM = 0.1

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "fit_s": "s",
    "evaluate_s": "s",
    "sweep_s": "s",
    "compare_s": "s",
    "peak_rss_mb": "MB",
}


def nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def pin_blas():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_tvhazard():
    src = ROOT / "src"
    if not (src / "tvhazard" / "__init__.py").is_file():
        raise SystemExit(f"error: no tvhazard source tree under {src}")
    sys.path.insert(0, str(src))
    import tvhazard

    if Path(tvhazard.__file__).resolve().parent != (src / "tvhazard").resolve():
        raise SystemExit(f"error: tvhazard imported from {tvhazard.__file__}, not {src}")
    return tvhazard


def environment(workload, seed):
    import numpy
    import scipy

    import tvhazard

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tvhazard": tvhazard.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def host_scale(probes):
    """``PROBE_REFERENCE_S`` over the trimmed mean of the run's probe timings.

    The host switches between two speeds about 1.4x apart, and the share of
    time it spends slow drifts over minutes, so unscaled timings of the same
    code moved by up to 40% between sets of runs.  The probe runs before
    every operation, so its mean slows with the run's operations.
    """
    ordered = sorted(probes)
    cut = int(len(ordered) * PROBE_TRIM)
    return PROBE_REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def mean_operation(samples):
    """Mean over the run of one operation's time, its parts summed.

    ``samples`` are ``(dataset seed, part, seconds)``; a part timed several
    times on one dataset (fit, simulate, evaluate) counts with its mean,
    which, like the probe's mean, moves in proportion to the share of the
    run the host spent slow.
    """
    times = defaultdict(list)
    for dataset, part, seconds in samples:
        times[dataset, part].append(seconds)
    per_dataset = defaultdict(float)
    for (dataset, _), values in times.items():
        per_dataset[dataset] += statistics.fmean(values)
    return statistics.fmean(per_dataset.values())


def timed_run(bw, workload, seed, workdir):
    bench = bw.Bench(workload)
    bench.info["datasets"] = bw.dataset_seeds(workload, seed)
    start = time.perf_counter()
    for dataset_seed in bench.info["datasets"]:
        try:
            bw.run_dataset(bench, bw.scenario(workload, dataset_seed), workdir, fresh=True)
        except bw.Abort:
            pass
    bench.info["elapsed_s"] = time.perf_counter() - start
    scale = host_scale(bench.probes)
    bench.info["host_scale"] = scale
    bench.info["unscaled"] = {}
    metrics = {}
    for name, unit in END_TO_END.items():
        samples = bench.samples.get(name)
        if samples:
            # the mean, like one long operation, spans the host's changes in
            # speed over the run; set-up is exempt and takes the median
            if name == "setup_s":
                value = statistics.median(seconds for *_, seconds in samples)
            else:
                value = mean_operation(samples)
            bench.info["unscaled"][name] = value
            metrics[name] = {"value": value * scale, "unit": unit}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return bench, metrics


def design_peak_mb(th, spec, workdir):
    """tracemalloc peak while building the full-dataset design, in MB."""
    observations, header = th.read_observations(workdir / "observations.jsonl")
    knots = th.build_knot_set(observations, horizon=header["horizon"])
    tracemalloc.start()
    try:
        design = th.CensoredDesign(knots, observations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del design
    return peak / 2**20


def traced_run(bw, bt, th, workload, seed, workdir, outdir):
    spec = bw.scenario(workload, bw.dataset_seeds(workload, seed)[0])
    smoke = bw.WORKLOADS["smoke"]
    warmup = bw.Bench(smoke)
    tracer = bt.Tracer()
    bench = bw.Bench(workload, tracer)
    try:
        # a tiny pass first, so that the traced pass does not pay first-call costs
        bw.run_dataset(warmup, bw.scenario(smoke, smoke.pool[0]), workdir, fresh=False)
        with bt.patched(tracer):
            bw.run_dataset(bench, spec, workdir, fresh=False)
    except bw.Abort:
        pass
    bench.attempted += warmup.attempted
    bench.failed += warmup.failed
    bench.errors += warmup.errors
    tracer.write(outdir / f"trace-{workload.name}-seed{seed}.jsonl")
    if bench.failed:
        return bench, {}

    calls, total, self_time, op_layer_self = bt.layer_metrics(tracer)
    fit_self = op_layer_self["fit_s"]
    iterations = sum(it for _, it, _ in tracer.fits)
    prox_calls = calls["penalty.fused_lasso_prox"]
    values = {
        "datagen.generate_s": (total["datagen.generate"], "s"),
        "timeline.build_knot_set_s": (total["timeline.build_knot_set"], "s"),
        "timeline.knot_intervals": (bench.info["knot_intervals"], "count"),
        "likelihood.design_build_s": (total["likelihood.design_build"], "s"),
        "likelihood.design_peak_mb": (design_peak_mb(th, spec, workdir), "MB"),
        "likelihood.nll_calls": (calls["likelihood.nll"], "count"),
        "likelihood.nll_s": (total["likelihood.nll"], "s"),
        "likelihood.nll_grad_calls": (calls["likelihood.nll_grad"], "count"),
        "likelihood.nll_grad_s": (total["likelihood.nll_grad"], "s"),
        "likelihood.nll_dataset_calls": (calls["likelihood.nll_dataset"], "count"),
        "likelihood.nll_dataset_s": (total["likelihood.nll_dataset"], "s"),
        "likelihood.zero_bracket_warnings": (bench.warnings["ZeroBracketWarning"], "count"),
        "likelihood.fit_self_s": (fit_self["likelihood"], "s"),
        "penalty.fused_prox_calls": (prox_calls, "count"),
        "penalty.fused_prox_s": (total["penalty.fused_lasso_prox"], "s"),
        "penalty.fused_prox_useful_ratio": (tracer.prox_useful / max(1, prox_calls), "ratio"),
        "penalty.isotonic_calls": (calls["penalty.isotonic_project"], "count"),
        "penalty.isotonic_s": (total["penalty.isotonic_project"], "s"),
        "penalty.fit_self_s": (fit_self["penalty"], "s"),
        "solver.fits": (len(tracer.fits), "count"),
        "solver.iterations": (iterations, "count"),
        "solver.unconverged_fits": (sum(not conv for _, _, conv in tracer.fits), "count"),
        "solver.self_s": (self_time["solver.fit"], "s"),
        "solver.extra_value_evals": (calls["likelihood.nll"] - iterations, "count"),
        "solver.objective_excess": (max(bench.objective_excess), "ratio"),
        "solver.fit_self_s": (fit_self["solver"], "s"),
        "formats.write_observations_s": (total["formats.write_observations"], "s"),
        "formats.read_observations_s": (total["formats.read_observations"], "s"),
        "formats.observation_file_mb": (bench.info["observation_file_mb"], "MB"),
        "formats.write_model_s": (total["formats.write_model"], "s"),
        "formats.read_model_s": (total["formats.read_model"], "s"),
        "baseline.constant_s": (total["baseline.fit_constant_additive"], "s"),
        "baseline.proportional_s": (total["baseline.fit_proportional"], "s"),
        "baseline.proportional_nll_s": (total["baseline.proportional_nll"], "s"),
        "trace.overhead_s": (bt.overhead_s(tracer), "s"),
    }
    return bench, {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    pin_blas()
    th = import_tvhazard()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_trace as bt
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = bw.WORKLOADS[args.workload]
    workdir = bw.workdir_for(ROOT)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        if args.trace:
            bench, metrics = traced_run(bw, bt, th, workload, args.seed, workdir, outdir)
        else:
            bench, metrics = timed_run(bw, workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("# env " + json.dumps(environment(workload.name, args.seed)))
    print("# info " + json.dumps(bench.info))
    print("# checks " + json.dumps({k: dict(v) for k, v in sorted(bench.checks.items())}))
    print("# warnings " + json.dumps(dict(bench.warnings)))
    print("# samples " + json.dumps(bench.samples))
    for error in bench.errors:
        print("# error " + error)
    complete = bool(metrics) and (bool(args.trace) or set(metrics) == set(END_TO_END))
    result = {
        "correct": bench.failed == 0 and complete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
