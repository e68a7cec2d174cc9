"""Command-line surface: simulate, fit, evaluate, sweep, export.

Exit codes: 0 success, 2 validation/format error (undecodable bytes and JSON
nested past the recursion limit too), 3 numerical failure, 4 I/O error or out
of memory.  Existing output files are never overwritten without --force.
All randomness flows from the --seed flag; two invocations with identical
inputs and seeds produce bitwise-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .datagen import CampaignSpec, default_scenario, generate
from .formats import (_MALFORMED, FormatError, read_model, read_observations, write_model,
                      write_observations)
from .likelihood import CensoredDesign, NumericalError, nll_dataset
from .penalty import PenaltyConfig
from .solver import SolverConfig, fit
from .timeline import build_knot_set


def _refuse_overwrite(force, *paths):
    """Refuse outputs naming one file (even with --force) or existing ones."""
    paths = [p for p in paths if p is not None]
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"outputs {' and '.join(paths)} name the same file")
    for path in paths:
        if not force and os.path.exists(path):
            raise FileExistsError(f"refusing to overwrite {path} (use --force)")


def _nonnegative_int(text):
    """argparse type of ``--seed``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _json_text(payload):
    """``payload`` as JSON, an infinite float (an NLL of +inf) written as
    null: JSON has no infinity."""
    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return None if isinstance(x, float) and math.isinf(x) else x
    return json.dumps(finite(payload), indent=1, allow_nan=False)


def _write_json(path, payload):
    text = _json_text(payload)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _solver_config(args, gamma):
    return SolverConfig(
        penalty=PenaltyConfig(gamma=gamma, monotone=args.monotone),
        max_iterations=args.max_iter,
        tolerance=args.tol,
    )


def _load_campaign_spec(path, seed):
    if path is None:
        return default_scenario(seed=seed)
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object")
            # the --seed flag is the single source of randomness
            return CampaignSpec(**{"active": (), "scan_times": (), **doc, "seed": seed})
        except _MALFORMED as e:
            raise FormatError(f"{path}: bad campaign spec: {e}") from e


def cmd_simulate(args):
    spec = _load_campaign_spec(args.spec, args.seed)
    truth_out = args.truth_out if args.truth_out is not None else args.out + ".truth.json"
    _refuse_overwrite(args.force, args.out, truth_out)
    truth, observations = generate(spec)
    write_observations(args.out, observations, d=spec.d, horizon=spec.horizon)
    write_model(truth_out, truth)
    print(f"wrote {len(observations)} observations to {args.out}; truth model to {truth_out}")
    return 0


def cmd_fit(args):
    report_out = args.report_out if args.report_out is not None else args.out + ".report.json"
    _refuse_overwrite(args.force, args.out, report_out)
    config = _solver_config(args, args.gamma)
    observations, header = read_observations(args.observations)
    if not observations:
        raise FormatError(f"{args.observations}: no observation records")
    knots = build_knot_set(observations, horizon=header["horizon"])
    result = fit(observations, config, knots=knots)
    write_model(args.out, result.model)
    _write_json(
        report_out,
        {
            "train_nll": result.train_nll,
            "iterations": result.objective_trace[-1][0],
            "converged": result.converged,
            "stop": result.stop,
            "mapping_norm": result.mapping_norm,
            "nonzero_parameter_count": result.nonzero_parameter_count,
            "objective_trace": [[i, f] for i, f in result.objective_trace],
        },
    )
    print(
        f"fit: converged={result.converged} train_nll={result.train_nll:.6f} "
        f"nonzero={result.nonzero_parameter_count} -> {args.out}"
    )
    return 0


def cmd_evaluate(args):
    model = read_model(args.model)
    observations, _ = read_observations(args.observations)
    if not observations:
        raise FormatError(f"{args.observations}: no observation records")
    try:
        total = nll_dataset(model, observations)
    except ValueError as e:
        raise FormatError(f"model {args.model} does not fit observations "
                          f"{args.observations}: {e}") from e
    report = {"n": len(observations), "total_nll": total, "mean_nll": total / len(observations)}
    if args.out is not None:
        _refuse_overwrite(args.force, args.out)
        _write_json(args.out, report)
    print(_json_text(report))
    return 0


def cmd_sweep(args):
    _refuse_overwrite(args.force, args.out)
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g.strip() != ""]
    except ValueError as e:
        raise FormatError(f"bad --gammas {args.gammas!r}: {e}") from e
    if not gammas:
        raise FormatError("empty gamma grid")
    configs = [_solver_config(args, gamma) for gamma in gammas]
    if not 0.0 < args.split < 1.0:
        raise FormatError(f"--split must be in (0, 1), got {args.split}")
    observations, header = read_observations(args.observations)
    if len(observations) < 2:
        raise FormatError("sweep needs at least 2 observations to split")

    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 3)))
    perm = rng.permutation(len(observations))
    n_train = max(1, min(len(observations) - 1, int(args.split * len(observations))))
    train = [observations[i] for i in perm[:n_train]]
    val = [observations[i] for i in perm[n_train:]]
    knots = build_knot_set(train, horizon=header["horizon"])
    val_design = CensoredDesign(knots, val)

    rows = []
    for gamma, config in zip(gammas, configs):
        result = fit(train, config, knots=knots)
        val_nll = val_design.nll(result.model.W)
        rows.append(
            {
                "gamma": gamma,
                "train_nll": result.train_nll / len(train),
                "validation_nll": val_nll / len(val),
                "nonzero_parameter_count": result.nonzero_parameter_count,
            }
        )
        print(
            f"gamma={gamma:g} train={rows[-1]['train_nll']:.6f} "
            f"val={rows[-1]['validation_nll']:.6f} nonzero={rows[-1]['nonzero_parameter_count']}"
        )
    # a gamma whose model puts zero mass on a validation bracket is never the best
    finite = [r for r in rows if math.isfinite(r["validation_nll"])]
    best = min(finite, key=lambda r: r["validation_nll"]) if finite else None
    table = {
        "split": args.split,
        "seed": args.seed,
        "n_train": len(train),
        "n_validation": len(val),
        "rows": rows,
        "best_gamma": best["gamma"] if best else None,
    }
    if args.out is not None:
        _write_json(args.out, table)
    if best:
        print(f"best gamma: {best['gamma']:g} (validation mean NLL {best['validation_nll']:.6f})")
    else:
        print("best gamma: none (no gamma has a finite validation NLL)")
    return 0


def cmd_export(args):
    _refuse_overwrite(args.force, args.out)
    model = read_model(args.model)
    if args.features is None:
        indices = [-1] + np.flatnonzero(model.W[1:].any(axis=1)).tolist()
    else:
        try:
            indices = [int(j) for j in args.features.split(",") if j.strip() != ""]
        except ValueError as e:
            raise FormatError(f"bad --features {args.features!r}: {e}") from e
        for k, j in enumerate(indices):
            if not -1 <= j < model.d:
                raise FormatError(f"feature index {j} outside [-1, {model.d})")
            if j in indices[:k]:
                raise FormatError(f"feature index {j} listed twice")
        if not indices:
            raise FormatError(f"--features {args.features!r} selects no row")
    B = model.knots.boundaries()
    ts = sorted({float(t) for t in B} | {0.5 * (a + b) for a, b in zip(B[:-1], B[1:])})
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["feature", "t", "value"])
        for j in indices:
            label = "intercept" if j == -1 else str(j)
            # row 0 of W is the intercept, row j + 1 feature j
            for t in ts:
                value = model.W[j + 1, model.knots.interval_index(t)]
                writer.writerow([label, repr(float(t)), repr(float(value))])
    print(f"wrote coefficient paths for {len(indices)} rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvhazard",
        description="Time-varying additive hazard regression with TV-penalized "
        "piecewise-constant coefficient paths.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand can write files
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true", help="overwrite existing outputs")
    command = functools.partial(sub.add_parser, parents=[force])

    p = command("simulate", help="generate a synthetic censored dataset + truth model")
    p.add_argument("--spec", default=None, help="campaign spec JSON (default: built-in scenario)")
    p.add_argument("--out", required=True, help="observation file to write (JSON lines)")
    p.add_argument("--truth-out", default=None, help="truth model path (default: OUT.truth.json)")
    p.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="seed of every site's random stream"
    )
    p.set_defaults(func=cmd_simulate)

    p = command("fit", help="fit the TV-penalized additive hazard model")
    p.add_argument("--observations", required=True)
    p.add_argument("--out", required=True, help="fitted model path")
    p.add_argument("--report-out", default=None, help="fit report path (default: OUT.report.json)")
    _fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = command("evaluate", help="mean/total NLL of a model on an observation file")
    p.add_argument("--model", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = command("sweep", help="gamma-grid sweep with a seeded train/validation split")
    p.add_argument("--observations", required=True)
    p.add_argument("--gammas", default="0,0.5,1,2,4,8,16", help="comma-separated gamma grid")
    p.add_argument("--split", type=float, default=0.7, help="train fraction")
    _fit_flags(p, gamma=False)
    p.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="seed of the train/validation split"
    )
    p.add_argument("--out", default=None, help="sweep table JSON path")
    p.set_defaults(func=cmd_sweep)

    p = command("export", help="coefficient paths as long-format CSV (feature, t, value)")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None, help="comma-separated indices; -1 = intercept")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def _fit_flags(p, gamma=True):
    if gamma:
        p.add_argument("--gamma", type=float, default=1.0, help="TV penalty weight")
    p.add_argument(
        "--monotone",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="constrain coefficient paths to be nondecreasing",
    )
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations, help="iteration cap")
    p.add_argument(
        "--tol",
        type=float,
        default=SolverConfig.tolerance,
        help="stationarity certificate: stop once the prox-gradient mapping norm at "
        "step 1 of the best iterate is at most TOL * max(1, its norm at the start)",
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 4
    except ValueError as e:  # FormatError too
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry_point():
    # every warning a command raises goes to stderr as one line, each time:
    # Python's default shows a repeated warning once per location, and under
    # python -m names the location <frozen runpy>.  The filter goes last, so
    # -W and PYTHONWARNINGS still decide first.
    warnings.simplefilter("always", append=True)
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
