"""Acceptance gate: seven checks, each printing one PASS/FAIL verdict line.

Every check runs at its stated tolerance; verdict lines are emitted outside
pytest's capture so a plain ``pytest`` run always shows one line per
criterion.  The figure-1 scenario (sweep + baselines on the default
synthetic campaign data) is computed once and shared by checks 5 and 6.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from tvhazard import (
    CampaignSpec,
    FeaturePath,
    HazardModel,
    KnotSet,
    Observation,
    PenaltyConfig,
    SolverConfig,
    StepFunction,
    ZeroBracketWarning,
    build_knot_set,
    default_scenario,
    fit,
    fit_constant_additive,
    fused_lasso_prox,
    generate,
    isotonic_project,
    matrix_model,
    model_matrix,
    nll_dataset,
    nll_gradient,
    refine_and_compare,
    sample_event_time,
    truth_model,
)
from tvhazard.cli import main

from oracles import (
    cumulative_hazard,
    fused_prox_bruteforce,
    grid_minimize,
    isotonic_bruteforce,
    representer_observations,
    scalar_nll,
)


def verdict(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}  ({detail})")


# ---------------------------------------------------------------------------
# 1. analytic gradient vs central finite differences


def _gradient_instance(rng):
    """d=5, <=6 knots, 20 observations, every value strictly positive."""
    K = int(rng.integers(1, 7))
    times = np.linspace(1.0, 7.0, K) + rng.uniform(-0.2, 0.2, size=K)
    ks = KnotSet(tuple(np.sort(times)), horizon=8.0)
    intercept = StepFunction(ks, tuple(rng.uniform(0.1, 0.6, size=ks.n_intervals)))
    coefficients = {
        j: StepFunction(ks, tuple(rng.uniform(0.05, 1.2, size=ks.n_intervals)))
        for j in range(5)
    }
    m = HazardModel(knots=ks, d=5, intercept=intercept, coefficients=coefficients)
    obs = []
    for _ in range(20):
        entries = {}
        for j in range(5):
            if rng.random() < 0.6:
                entries[j] = ((float(rng.uniform(0.0, 6.0)), 1.0),)
        p = FeaturePath(5, entries)
        if rng.random() < 0.6:
            l = float(rng.uniform(0.2, 6.5))
            r = min(l + float(rng.uniform(0.4, 1.4)), 8.0)
            obs.append(Observation.interval(p, l, r))
        else:
            obs.append(Observation.right_censored(p, float(rng.uniform(0.5, 8.0))))
    return m, ks, obs


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        m, ks, obs = _gradient_instance(rng)
        W = model_matrix(m)
        G = nll_gradient(m, obs)
        for r in range(W.shape[0]):
            for c in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[r, c] += h
                Wm[r, c] -= h  # stays feasible: every value exceeds h
                # differences of the scalar route, independent of the design
                fd = (
                    scalar_nll(matrix_model(ks, Wp), obs)
                    - scalar_nll(matrix_model(ks, Wm), obs)
                ) / (2 * h)
                rel = abs(G[r, c] - fd) / max(1.0, abs(G[r, c]))
                worst = max(worst, rel)
    dt = time.time() - t0
    ok = worst < 1e-5 and dt < 10.0
    verdict(capsys, 1, "gradient vs central differences", ok, f"max rel {worst:.2e}, {dt:.1f}s")
    assert worst < 1e-5
    assert dt < 10.0


# ---------------------------------------------------------------------------
# 2. prox operators vs brute-force oracles


def test_criterion_2_prox_oracles(capsys):
    t0 = time.time()
    rng = np.random.default_rng(102)

    worst_fused = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        y = rng.normal(scale=2.0, size=n)
        lam = float(rng.uniform(0.0, 2.5))
        gap = np.abs(fused_lasso_prox(y, lam) - fused_prox_bruteforce(y, lam)).max()
        worst_fused = max(worst_fused, gap)

    worst_iso = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        y = rng.normal(scale=2.0, size=n)
        gap = np.abs(isotonic_project(y) - isotonic_bruteforce(y)).max()
        worst_iso = max(worst_iso, gap)

    # the joint TV + nonnegativity prox is the one the solver runs, with the
    # rows constrained nondecreasing in monotone mode
    worst_joint = {False: 0.0, True: 0.0}  # by monotone
    for _ in range(20):
        n = int(rng.integers(2, 5))
        y = rng.normal(scale=1.5, size=n)
        lam = float(rng.uniform(0.1, 1.5))
        for monotone in (False, True):
            x = PenaltyConfig(gamma=lam, monotone=monotone).prox(y[None, :], 1.0)[0]

            def f(cand):
                pen = 0.5 * np.sum((cand - y) ** 2, axis=1)
                pen += lam * np.abs(np.diff(cand, axis=1)).sum(axis=1)
                ok = np.all(cand >= 0, axis=1)
                if monotone:
                    ok &= np.all(np.diff(cand, axis=1) >= 0, axis=1)
                return np.where(ok, pen, np.inf)

            hi = np.maximum(np.abs(y).max(), 1.0) * np.ones(n)
            gx, _, res = grid_minimize(f, np.zeros(n), hi, rounds=22)
            assert res < 1e-8  # the grid argmin itself is localized to < 1e-6
            worst_joint[monotone] = max(worst_joint[monotone], float(np.abs(x - gx).max()))

    dt = time.time() - t0
    ok = (worst_fused < 1e-6 and worst_iso < 1e-10 and worst_joint[False] < 1e-6
          and worst_joint[True] < 1e-6 and dt < 60.0)
    verdict(
        capsys,
        2,
        "prox vs brute-force oracles",
        ok,
        f"fused {worst_fused:.1e}, isotonic {worst_iso:.1e}, joint {worst_joint[False]:.1e}, "
        f"monotone joint {worst_joint[True]:.1e}, {dt:.1f}s",
    )
    assert worst_fused < 1e-6
    assert worst_iso < 1e-10
    assert worst_joint[False] < 1e-6
    assert worst_joint[True] < 1e-6
    assert dt < 60.0


# ---------------------------------------------------------------------------
# 3. representer property: refining the knot set buys nothing


def test_criterion_3_representer(capsys):
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        obs = representer_observations(rng)
        ks = build_knot_set(obs)
        config = SolverConfig(
            penalty=PenaltyConfig(gamma=1.0), max_iterations=30000, tolerance=1e-6
        )
        res = fit(obs, config, knots=ks)
        delta = refine_and_compare(res, obs, extra_knots=len(ks.times))
        worst = max(worst, -delta)  # improvement shows up as a negative delta
    dt = time.time() - t0
    ok = worst < 1e-4 and dt < 300.0
    verdict(capsys, 3, "knot refinement gains nothing", ok, f"max improvement {worst:.1e}, {dt:.1f}s")
    assert worst < 1e-4
    assert dt < 300.0


# ---------------------------------------------------------------------------
# 4. sampler exactness: KS vs Exponential(c) + inverse-consistency residual


class _FixedU:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_criterion_4_sampler_exactness(capsys):
    const = CampaignSpec(
        d=0,
        active=(),
        baseline_level=0.7,
        horizon=60.0,
        n=1,
        feature_density=0.0,
        scan_times=(30.0,),
    )
    truth_const = truth_model(const)
    rng = np.random.default_rng(104)
    path0 = FeaturePath(0, {})
    times = np.array([sample_event_time(path0, truth_const, rng) for _ in range(5000)])
    assert np.all(np.isfinite(times))  # survival beyond t=60 has mass exp(-42)
    pvalue = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / 0.7)).pvalue

    stepped = CampaignSpec(
        d=2,
        active=((0, ((1.0, 0.6),)), (1, ((0.5, 0.4), (2.5, 1.1)))),
        baseline_level=0.3,
        horizon=6.0,
        n=1,
        feature_density=0.5,
        scan_times=(2.0, 4.0),
    )
    truth_step = truth_model(stepped)
    worst = 0.0
    for _ in range(500):
        path = FeaturePath(2, {0: ((0.0, 1.0),)} if rng.random() < 0.5 else {})
        u = rng.random()
        tau = sample_event_time(path, truth_step, _FixedU(u))
        target = -math.log(u)
        if math.isfinite(tau) and tau < 6.0:
            worst = max(worst, abs(cumulative_hazard(truth_step, path, 0.0, tau) - target))
    ok = pvalue > 0.01 and worst < 1e-10
    verdict(
        capsys, 4, "sampler exactness", ok, f"KS p={pvalue:.3f}, inverse residual {worst:.1e}"
    )
    assert pvalue > 0.01
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 5 + 6. figure-1 ordering and change-point localization on the default scenario

GAMMAS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@pytest.fixture(scope="module")
def figure1():
    t0 = time.time()
    spec = default_scenario(0)
    _, obs = generate(spec)
    rng = np.random.default_rng(np.random.SeedSequence((0, 3)))
    perm = rng.permutation(len(obs))
    n_train = int(0.7 * len(obs))
    train = [obs[i] for i in perm[:n_train]]
    val = [obs[i] for i in perm[n_train:]]
    knots = build_knot_set(train, horizon=spec.horizon)

    def sweep(monotone):
        rows = []
        for gamma in GAMMAS:
            config = SolverConfig(
                penalty=PenaltyConfig(gamma=gamma, monotone=monotone),
                max_iterations=4000,
                tolerance=1e-8,
            )
            res = fit(train, config, knots=knots)
            with warnings.catch_warnings():
                # gamma=0 may assign zero mass to a held-out bracket: the
                # resulting inf is the overfitting signal criterion 5 expects
                warnings.simplefilter("ignore", ZeroBracketWarning)
                val_nll = nll_dataset(res.model, val) / len(val)
            rows.append(
                {
                    "gamma": gamma,
                    "result": res,
                    "train": res.train_nll / len(train),
                    "val": val_nll,
                }
            )
        return rows

    l1 = sweep(monotone=False)
    mono = sweep(monotone=True)
    const = fit_constant_additive(train)
    const_val = nll_dataset(const.to_hazard_model(spec.horizon), val) / len(val)
    return {
        "spec": spec,
        "l1": l1,
        "mono": mono,
        "const_val": const_val,
        "elapsed": time.time() - t0,
    }


# the figure-1 fits stop at their 4,000-iteration cap a little above tolerance
@pytest.mark.filterwarnings("ignore:stopped at max_iterations:tvhazard.SolverWarning")
def test_criterion_5_figure1_ordering(capsys, figure1):
    l1, mono = figure1["l1"], figure1["mono"]
    best = min(l1, key=lambda r: r["val"])
    best_mono = min(mono, key=lambda r: r["val"])
    const_val = figure1["const_val"]
    interior = best["gamma"] not in (GAMMAS[0], GAMMAS[-1])
    ordering = best["val"] < best_mono["val"] < const_val
    zero = l1[0]
    overfit = zero["train"] < best["train"] and zero["val"] > best["val"]
    dt = figure1["elapsed"]
    ok = interior and ordering and overfit and dt < 600.0
    verdict(
        capsys,
        5,
        "figure-1 ordering",
        ok,
        f"l1 {best['val']:.4f} @ g={best['gamma']:g} < mono {best_mono['val']:.4f} "
        f"< const {const_val:.4f}; g=0 train {zero['train']:.4f} < {best['train']:.4f}, "
        f"val {zero['val']:.4f}; {dt:.0f}s",
    )
    assert interior, "best gamma sits on the grid edge"
    assert ordering
    assert overfit
    assert dt < 600.0


@pytest.mark.filterwarnings("ignore:stopped at max_iterations:tvhazard.SolverWarning")
def test_criterion_6_change_point_localization(capsys, figure1):
    spec = figure1["spec"]
    best = min(figure1["l1"], key=lambda r: r["val"])
    model = best["result"].model
    B = model.knots.boundaries()
    scan_width = max(b - a for a, b in zip(spec.scan_times, spec.scan_times[1:]))

    active = dict(spec.active)
    worst_dist = 0.0
    for j, changes in active.items():
        sf = model.coefficients.get(j)
        assert sf is not None, f"active feature {j} fitted to zero"
        jumps = np.diff(sf.values)
        k = int(np.argmax(np.abs(jumps)))
        assert jumps[k] != 0.0
        t_hat = B[k + 1]
        dist = min(abs(t_hat - t) for t, _ in changes)
        worst_dist = max(worst_dist, dist)

    W = model_matrix(model)
    act_max = max(np.abs(W[j + 1]).max() for j in active)
    inact_max = max(
        (np.abs(W[j + 1]).max() for j in range(spec.d) if j not in active), default=0.0
    )
    ok = worst_dist <= scan_width and inact_max < 0.05 * act_max
    verdict(
        capsys,
        6,
        "change-point localization",
        ok,
        f"worst jump offset {worst_dist:.2f} <= {scan_width:g}, "
        f"inactive max {inact_max:.2e} < 0.05 x {act_max:.3f}",
    )
    assert worst_dist <= scan_width
    assert inact_max < 0.05 * act_max


# ---------------------------------------------------------------------------
# 7. bitwise determinism of the fit command


def test_criterion_7_cmd_fit_determinism(capsys, tmp_path):
    import json

    spec = {
        "d": 4,
        "active": [[0, [[1.0, 0.6]]], [2, [[0.5, 0.4], [2.0, 1.0]]]],
        "baseline_level": 0.25,
        "horizon": 4.0,
        "n": 120,
        "feature_density": 0.5,
        "scan_times": [1.0, 2.0, 3.0],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    obs = tmp_path / "obs.jsonl"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(obs), "--seed", "0"]) == 0
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = main(["fit", "--observations", str(obs), "--out", str(out), "--gamma", "1.0"])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    verdict(capsys, 7, "cmd_fit determinism", ok, f"model files identical: {len(blobs[0])} bytes")
    assert ok
