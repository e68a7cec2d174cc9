"""Workloads of the tvhazard benchmark and the user loop each one runs.

One dataset pass mirrors the command-line loop on one simulated campaign:
``simulate`` (generate, write observations, write the truth model), set-up
(import, read observations, build the knot set), ``fit`` (gamma=1 with the
command-line default solver settings, then write the model), ``evaluate``
(read the model, NLL over the full dataset), ``sweep`` (seeded 70/30 split,
gamma grid 0..16, validation NLL per fit) and ``compare`` (monotone gamma=1
fit, constant additive and proportional baselines on the same split).

The sweep and the compare step are timed in parts, one per fit, so that the
host speed probe that runs before each timed part (see ``probe``) samples
the host every second or so.  Every operation or part is counted as
attempted; it fails if it raises or if one of its correctness checks
fails.  Every dataset a run can draw has a stored seed-code objective; a
fit whose dataset has none fails its accuracy check.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import tvhazard as th

HERE = Path(__file__).resolve().parent
SETUP_CHILD = HERE / "setup_child.py"

GAMMAS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
SPLIT = 0.7
# allowed relative excess of a final penalized objective over the seed code's
OBJECTIVE_SLACK = 1e-6
# run seed whose datasets no other run seed draws, kept for checking claims
HELD_OUT_SEED = 97
# a run seed for which no balanced draw turns up in this many tries is an error
MAX_DRAWS = 100_000


def pool(blocks, per_block):
    """Dataset seeds ``1000*b + k`` for ``b < blocks`` and ``k < per_block``.

    With fewer than 97 blocks, the held-out seed's datasets lie outside it.
    """
    return tuple(1000 * b + k for b in range(blocks) for k in range(per_block))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # dataset passes per run; a fixed number, so every run does the same
    # amount of work whatever the host's speed
    datasets: int
    # dataset seeds a run draws from; each has a stored seed-code objective
    pool: tuple
    # largest relative distance of the draw's mean seed-code iterations from
    # the pool's, for each step that ``work`` counts; None: any draw
    balance: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's figure-1 task: few sites, so the solver and prox loop
        # dominate.  Solver work differs a lot between datasets (the
        # monotone fit takes 75 to 500 iterations), so a run averages over
        # several of them, drawn balanced.
        Workload("campaign-sweep", 1000, datasets=4, pool=pool(16, 10), balance=0.03),
        # Many sites, few knots: datagen, formats, design build and matvecs
        # take the largest share.  Most of its fits stop at the iteration
        # cap, but the monotone fit and the sweep still differ.
        Workload("fleet-wide", 5000, datasets=2, pool=pool(16, 2), balance=0.03),
        # tiny shape for the benchmark's own tests; not in BENCHMARK.json
        Workload("smoke", 120, datasets=1, pool=pool(4, 1)),
    )
}


def work(record):
    """Seed-code iterations of the gamma=1 fit, the whole sweep and the monotone fit."""
    it = record["iterations"]
    return it["fit"], sum(it["sweep"].values()), it["monotone"]


def dataset_seeds(workload, seed):
    """Dataset seeds of a run with ``--seed seed``: a seeded draw from the pool.

    With ``workload.balance`` the draw is repeated until its mean seed-code
    iterations lie within that relative distance of the pool's mean, for
    each of the steps ``work`` counts.  Every dataset stays drawable, those
    that hit the iteration cap too, but each run gets about the same solver
    work.  The held-out run seed takes datasets ``1000*seed + k``, outside
    the pool.
    """
    if seed == HELD_OUT_SEED:
        return [1000 * seed + k for k in range(workload.datasets)]
    rng = np.random.default_rng(seed)
    if workload.balance is None:
        return [int(s) for s in rng.choice(workload.pool, workload.datasets, replace=False)]
    stored = load_seed_objectives(workload)
    works = {s: work(stored[str(s)]) for s in workload.pool}
    target = [statistics.fmean(w[i] for w in works.values()) for i in range(3)]
    for _ in range(MAX_DRAWS):
        draw = [int(s) for s in rng.choice(workload.pool, workload.datasets, replace=False)]
        mean = [statistics.fmean(works[s][i] for s in draw) for i in range(3)]
        if all(abs(m / t - 1) <= workload.balance for m, t in zip(mean, target)):
            return draw
    raise RuntimeError(f"no balanced draw of {workload.name} datasets for seed {seed}")


def scenario(workload, dataset_seed):
    """The default scenario with seed ``dataset_seed``, resized to the workload."""
    return replace(th.default_scenario(seed=dataset_seed), n=workload.n)


def fit_config(gamma, monotone=False):
    # the command-line defaults: 500 iterations, tolerance 1e-7, step 1.0
    return th.SolverConfig(penalty=th.PenaltyConfig(gamma=gamma, monotone=monotone))


def split(observations, seed):
    """The seeded train/validation split of ``tvhazard sweep --seed seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    perm = rng.permutation(len(observations))
    n_train = max(1, min(len(observations) - 1, int(SPLIT * len(observations))))
    return [observations[i] for i in perm[:n_train]], [observations[i] for i in perm[n_train:]]


def objectives_path(workload):
    """Stored seed-code objectives of ``workload``, keyed by dataset seed."""
    return HERE / f"objectives-{workload.name}.json"


def load_seed_objectives(workload):
    path = objectives_path(workload)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Abort(Exception):
    """An operation raised; the rest of the dataset pass depends on it."""


class Op:
    def __init__(self, bench, metric):
        self.bench = bench
        self.metric = metric
        self.failed = False
        self.seconds = None

    def fail(self, message):
        if not self.failed:
            self.failed = True
            self.bench.failed += 1
        self.bench.errors.append(f"{self.metric}: {message}")

    def check(self, name, ok, detail=""):
        self.bench.checks[name]["passed" if ok else "failed"] += 1
        if not ok:
            self.fail(f"check {name} failed {detail}".rstrip())


PROBE_RNG = np.random.default_rng(0)
PROBE_MATRIX = PROBE_RNG.standard_normal((600, 400))
PROBE_VECTOR = np.ones(400)
PROBE_ARRAY = PROBE_RNG.standard_normal(1_000_000)


def probe():
    """Seconds taken by a fixed piece of work that calls no tvhazard code.

    It mixes the kinds of work the program does, since the host does not
    slow them all alike: an interpreter loop, small matrix-vector products
    in cache, allocation of small objects and JSON, and passes over an
    8 MB array.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i
    for _ in range(20):
        PROBE_MATRIX @ PROBE_VECTOR
    records = [{"i": i, "pair": (i, i + 1), "text": str(i)} for i in range(2_000)]
    json.dumps(records[:750])
    for _ in range(2):
        PROBE_ARRAY.sum()
    return time.perf_counter() - start


class Bench:
    """Samples, attempt/failure counts, check tallies and warnings of one run."""

    def __init__(self, workload, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)  # metric -> [(dataset seed, part, seconds)]
        self.probes = []  # probe() before each operation
        self.dataset = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = defaultdict(Counter)
        self.warnings = Counter()
        self.objective_excess = []
        self.info = {}
        self.stored = load_seed_objectives(workload)

    @contextmanager
    def op(self, metric, part=None):
        """Time one operation, or one ``part`` of it; a raise inside marks it
        failed and aborts the pass."""
        op = Op(self, metric)
        self.attempted += 1
        span = self.tracer.span("op." + metric) if self.tracer else nullcontext()
        # Objects the benchmark keeps between operations are frozen, so the
        # collector's cost inside an operation is that of the operation's own
        # objects, as in a fresh command-line process, not of the pass so far.
        gc.collect()
        gc.freeze()
        self.probes.append(probe())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with span:
                    start = time.perf_counter()
                    yield op
                    elapsed = time.perf_counter() - start
            except Exception as e:
                op.fail(f"{type(e).__name__}: {e}")
                raise Abort from e
            finally:
                gc.unfreeze()
                self.warnings.update(w.category.__name__ for w in caught)
        self.samples[metric].append(
            (self.dataset, part, elapsed if op.seconds is None else op.seconds))

    def check_fit(self, op, result, observations, stored, path):
        """Checks every fit gets: monotone trace, round trip, train NLL, accuracy floor."""
        trace = result.objective_trace
        op.check("objective_trace_nonincreasing",
                 all(b[1] <= a[1] for a, b in zip(trace, trace[1:])))
        final = trace[-1][1]
        if stored is None:
            op.check("objective_floor", False, "no stored seed-code objective")
        else:
            excess = (final - stored) / max(1.0, abs(stored))
            self.objective_excess.append(excess)
            op.check("objective_floor", excess <= OBJECTIVE_SLACK, f"excess {excess:.3g}")
        try:
            th.write_model(path, result.model)
            reread = th.read_model(path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", th.ZeroBracketWarning)
                train_nll = th.nll_dataset(reread, observations)
        except Exception as e:
            op.fail(f"round trip raised {type(e).__name__}: {e}")
            return
        op.check("model_round_trip", same_model(reread, result.model))
        op.check("reread_nll_equals_train_nll", train_nll == result.train_nll,
                 f"{train_nll!r} != {result.train_nll!r}")

    def validation_nll(self, op, nll, *args):
        """Held-out NLL: finite, or +inf with a ZeroBracketWarning; never NaN."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = nll(*args)
        zero = sum(issubclass(w.category, th.ZeroBracketWarning) for w in caught)
        self.warnings.update(w.category.__name__ for w in caught)
        op.check("validation_nll_valid",
                 math.isfinite(value) or (value == math.inf and zero > 0), repr(value))


def same_model(a, b):
    """Bitwise equality of two hazard models' knots and coefficient values."""
    return (a.d == b.d and a.knots == b.knots
            and th.model_matrix(a).tobytes() == th.model_matrix(b).tobytes())


def fresh_setup(obs_path):
    """Set-up in a new interpreter: import, read observations, build knots."""
    src = Path(th.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(SETUP_CHILD), str(src), str(obs_path)],
        capture_output=True, text=True, timeout=150,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up child exited {out.returncode}: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_dataset(bench, spec, workdir, fresh):
    """One pass of the user loop over dataset ``spec``; timings go to ``bench``.

    The sweep and the compare step run once; the sweep is timed as one part
    for the split and one per gamma, the compare step as one part per model.
    The other steps run more often, spread over the pass: the fit at its
    start and after the compare step, simulate at its start and after the
    sweep, set-up at its start and end, evaluate after each fit and each
    part.  The host's speed changes within seconds, so samples taken at one
    moment would all share its speed then.  With ``fresh`` the set-up is timed in a new interpreter, else in this
    process (the traced run).
    """
    obs_path = workdir / "observations.jsonl"
    model_path = workdir / "model.json"
    check_path = workdir / "check_model.json"
    stored = bench.stored.get(str(spec.seed))
    bench.dataset = spec.seed

    def simulate():
        with bench.op("simulate_s") as op:
            truth, generated = th.generate(spec)
            th.write_observations(obs_path, generated, d=spec.d, horizon=spec.horizon)
            th.write_model(workdir / "truth.json", truth)
        op.check("generated_count", len(generated) == spec.n)

    def setup():
        with bench.op("setup_s") as op:
            if fresh:
                child = fresh_setup(obs_path)
                op.seconds = child["seconds"]
                n = child["n"]
            else:
                observations, header = th.read_observations(obs_path)
                th.build_knot_set(observations, horizon=header["horizon"])
                n = len(observations)
        op.check("reread_count", n == spec.n)

    def evaluate(result, observations):
        with bench.op("evaluate_s") as op:
            model = th.read_model(model_path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", th.ZeroBracketWarning)
                total = th.nll_dataset(model, observations)
        op.check("evaluate_equals_train_nll", total == result.train_nll,
                 f"{total!r} != {result.train_nll!r}")

    simulate()
    bench.info["observation_file_mb"] = obs_path.stat().st_size / 2**20
    setup()
    observations, header = th.read_observations(obs_path)
    knots = th.build_knot_set(observations, horizon=header["horizon"])
    bench.info["knot_intervals"] = knots.n_intervals

    def fit():
        with bench.op("fit_s") as op:
            result = th.fit(observations, fit_config(1.0), knots=knots)
            th.write_model(model_path, result.model)
        bench.check_fit(op, result, observations, stored and stored["fit"], check_path)
        return result

    result = fit()
    evaluate(result, observations)

    with bench.op("sweep_s", "split"):
        train, val = split(observations, spec.seed)
        train_knots = th.build_knot_set(train, horizon=header["horizon"])
    for gamma in GAMMAS:
        with bench.op("sweep_s", f"gamma={gamma!r}") as op:
            res = th.fit(train, fit_config(gamma), knots=train_knots)
            bench.validation_nll(op, th.nll_dataset, res.model, val)
        bench.check_fit(op, res, train, stored and stored["sweep"][repr(gamma)], check_path)
        evaluate(result, observations)
    simulate()

    with bench.op("compare_s", "monotone") as op:
        mono = th.fit(train, fit_config(1.0, monotone=True), knots=train_knots)
        bench.validation_nll(op, th.nll_dataset, mono.model, val)
    bench.check_fit(op, mono, train, stored and stored["monotone"], check_path)
    evaluate(result, observations)
    with bench.op("compare_s", "constant") as op:
        const = th.fit_constant_additive(train)
        bench.validation_nll(op, th.nll_dataset, const.to_hazard_model(header["horizon"]), val)
    evaluate(result, observations)
    with bench.op("compare_s", "proportional") as op:
        prop = th.fit_proportional(train)
        bench.validation_nll(op, th.proportional_nll, prop, val)
    evaluate(result, observations)
    result = fit()
    evaluate(result, observations)
    setup()


def seed_objectives(spec, workdir):
    """Final penalized objectives and iteration counts of every fit
    ``run_dataset`` makes on ``spec``."""
    _, generated = th.generate(spec)
    obs_path = workdir / "observations.jsonl"
    th.write_observations(obs_path, generated, d=spec.d, horizon=spec.horizon)
    observations, header = th.read_observations(obs_path)
    knots = th.build_knot_set(observations, horizon=header["horizon"])

    train, _ = split(observations, spec.seed)
    train_knots = th.build_knot_set(train, horizon=header["horizon"])
    results = {
        "fit": th.fit(observations, fit_config(1.0), knots=knots),
        "sweep": {repr(g): th.fit(train, fit_config(g), knots=train_knots) for g in GAMMAS},
        "monotone": th.fit(train, fit_config(1.0, monotone=True), knots=train_knots),
    }

    def each(f):
        return {"fit": f(results["fit"]), "monotone": f(results["monotone"]),
                "sweep": {g: f(r) for g, r in results["sweep"].items()}}

    record = each(lambda r: r.objective_trace[-1][1])
    record["iterations"] = each(lambda r: r.objective_trace[-1][0])
    return record


def workdir_for(root):
    path = root / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
