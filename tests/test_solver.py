"""Proximal gradient solver: descent, determinism, constraints, optima and the
stationarity certificate."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tvhazard.penalty
import tvhazard.solver
from tvhazard import (
    CampaignSpec,
    CensoredDesign,
    FeaturePath,
    FitResult,
    HazardModel,
    KnotSet,
    NumericalError,
    Observation,
    PenaltyConfig,
    SolverConfig,
    SolverWarning,
    build_knot_set,
    default_scenario,
    fit,
    fused_lasso_prox,
    generate,
    isotonic_project,
    model_matrix,
    nll_dataset,
    nonzero_parameter_count,
)
from tvhazard.timeline import _window_knots

from oracles import (
    limit_nll_grad,
    pooled_event_rate_loop,
    refine_and_compare,
    representer_observations,
    tv,
)


def sim_observations(rng, d=3, n=60, horizon=6.0):
    """Small censored dataset with a healthy mix of brackets and censorings."""
    obs = []
    for _ in range(n):
        entries = {}
        for j in range(d):
            if rng.random() < 0.5:
                t = float(rng.uniform(0.0, horizon - 1.0))
                entries[j] = ((t, float(rng.uniform(0.2, 1.5))),)
        p = FeaturePath(d, entries)
        if rng.random() < 0.55:
            l = float(rng.uniform(0.2, horizon - 0.6))
            r = min(l + float(rng.uniform(0.3, 1.5)), horizon)
            obs.append(Observation.interval(p, l, r))
        else:
            obs.append(Observation.right_censored(p, float(rng.uniform(0.5, horizon))))
    return obs


def cfg(gamma, **kw):
    return SolverConfig(penalty=PenaltyConfig(gamma=gamma), **kw)


class TestConfigValidation:
    def test_solver_config_rejects_bad_values(self):
        pen = PenaltyConfig(gamma=1.0)
        with pytest.raises(ValueError):
            SolverConfig(penalty=pen, tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(penalty=pen, max_iterations=0)

    @pytest.mark.parametrize(
        "tol, match",
        [(math.inf, "finite and > 0, got inf"), (math.nan, "finite and > 0, got nan"),
         (-1e-7, "finite and > 0, got -1e-07"), (True, "a number, got True"),
         ("1e-7", "a number, got '1e-7'")],
        ids=["inf", "nan", "negative", "bool", "str"],
    )
    def test_tolerance_is_a_finite_positive_real(self, tol, match):
        # tolerance=inf certified any start at iteration 1
        with pytest.raises(ValueError, match=f"tolerance must be {match}"):
            SolverConfig(penalty=PenaltyConfig(gamma=1.0), tolerance=tol)
        stored = SolverConfig(penalty=PenaltyConfig(), tolerance=np.float32(0.5)).tolerance
        assert type(stored) is float and stored == 0.5

    def test_converged_is_the_certified_stop(self):
        # FitResult states the stop once; converged reads it
        assert "converged" not in {f.name for f in fields(FitResult)}
        res = fit(sim_observations(np.random.default_rng(3)), cfg(1.0))
        assert res.converged is True and res.stop == "certified"
        for stop in ("stalled", "max_iterations", "step_underflow"):
            assert replace(res, stop=stop).converged is False

    @pytest.mark.parametrize("cap", [2.5, True])
    def test_iteration_cap_must_be_an_integer(self, cap):
        # a float cap failed inside the solver's loop; True ran one iteration
        with pytest.raises(ValueError, match=f"max_iterations must be an integer, got {cap}"):
            SolverConfig(penalty=PenaltyConfig(gamma=1.0), max_iterations=cap)
        assert SolverConfig(penalty=PenaltyConfig(), max_iterations=np.int64(7)).max_iterations == 7

    def test_fit_rejects_empty_observations(self):
        with pytest.raises(ValueError):
            fit([], cfg(1.0))


class TestFullBatch:
    def test_objective_trace_descends(self):
        rng = np.random.default_rng(21)
        for gamma in (0.0, 1.0):
            obs = sim_observations(rng)
            res = fit(obs, cfg(gamma, max_iterations=200, tolerance=1e-6))
            vals = [v for _, v in res.objective_trace]
            diffs = np.diff(vals)
            # the trace records the best objective so far
            assert np.all(diffs <= 1e-8 * np.maximum(1.0, np.abs(vals[:-1])))
            its = [i for i, _ in res.objective_trace]
            assert its == list(range(len(its)))

    def test_a_default_fit_certifies_at_the_scale_probe(self):
        # 10^5 sites: the head exposure of the cells spans five decades, and
        # a default gamma=1 fit certifies inside the default cap, silently
        spec = replace(default_scenario(0), n=100_000)
        _, obs = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(obs, cfg(1.0))
        assert res.converged and res.objective_trace[-1][0] <= res.config.max_iterations

    def test_bitwise_deterministic(self):
        obs = sim_observations(np.random.default_rng(22))
        config = cfg(0.5, max_iterations=300, tolerance=1e-6)
        r1 = fit(obs, config)
        r2 = fit(obs, config)
        W1, W2 = model_matrix(r1.model), model_matrix(r2.model)
        assert np.array_equal(W1, W2)
        assert r1.objective_trace == r2.objective_trace
        assert r1.train_nll == r2.train_nll
        assert (r1.stop, r1.mapping_norm) == (r2.stop, r2.mapping_norm)

    @pytest.mark.parametrize(
        "penalty",
        [PenaltyConfig(gamma=0.0), PenaltyConfig(gamma=1.0), PenaltyConfig(gamma=1.0, monotone=True)],
        ids=["gamma0", "gamma1", "monotone"],
    )
    def test_train_nll_from_the_fit_design(self, penalty, monkeypatch):
        # fit builds one design and takes train_nll from it, bitwise what
        # nll_dataset gives for the returned model; the exact nll runs once,
        # for train_nll.  Each iteration takes one gradient, at the point its
        # step starts from (nll_grad), and each line-search trial one floored
        # value (nll with floored=True).  The gamma=0 set has three brackets
        # on cells with no head exposure, which its limit design drops
        obs = sim_observations(np.random.default_rng(24), n=40)
        calls = {"__init__": 0, "nll": 0, "floored nll": 0, "nll_grad": 0}
        for name in ("__init__", "nll", "nll_grad"):

            def counting(self, *args, _method=getattr(CensoredDesign, name), _name=name, **kwargs):
                floored = _name == "nll" and kwargs.get("floored", False)
                calls["floored nll" if floored else _name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(CensoredDesign, name, counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SolverWarning)
            res = fit(obs, SolverConfig(penalty=penalty, max_iterations=100))
        iterations = res.objective_trace[-1][0]
        assert calls["__init__"] == 1
        assert calls["nll"] == 1
        assert iterations > 0 and calls["floored nll"] >= iterations
        # the start's gradient, one per later iteration, and at the cap
        # one at the returned iterate for its mapping norm
        assert iterations <= calls["nll_grad"] <= iterations + 2
        monkeypatch.undo()
        assert nll_dataset(res.model, obs) == res.train_nll
        # the accuracy floor reads the trace's last objective.  No bracket
        # mass is floored here, so the fit's smooth value is the exact NLL of
        # its limit design, and adding the penalty's own value gives the
        # traced objective bitwise; each dropped bracket adds at most eps
        design = CensoredDesign(res.model.knots, obs)
        limit = design.limit_problem(penalty.gamma, penalty.monotone)[0]
        assert (limit is design) == (penalty.gamma > 0.0)
        W = model_matrix(res.model)
        assert np.all(design.V @ W.ravel() > 1e-12)
        assert res.objective_trace[-1][1] == limit.nll(W) + penalty.value(W)
        objective = res.train_nll + penalty.value(W)
        assert abs(objective - res.objective_trace[-1][1]) <= 4 * math.ulp(objective)

    def test_default_knots_equal_explicit_union(self):
        obs = sim_observations(np.random.default_rng(23), n=25)
        config = cfg(1.0, max_iterations=100)
        r1 = fit(obs, config)
        r2 = fit(obs, config, knots=build_knot_set(obs))
        assert np.array_equal(model_matrix(r1.model), model_matrix(r2.model))

    def test_level_at_the_horizon_is_the_last_fitted_level(self):
        # brackets start at 0 and right-censoring sits at the horizon; the
        # knot set holds neither end, so the value at the horizon is the
        # level fitted on the last scan gap, not a start value left in a
        # column no observation reaches
        spec = CampaignSpec(
            d=2, active=((0, ((0.0, 0.5),)),), baseline_level=0.2, horizon=6.0, n=60,
            feature_density=0.5, scan_times=(1.0, 2.0, 3.0, 4.0, 5.0),
        )
        _, obs = generate(spec)
        assert {0.0, 6.0} <= {t for o in obs for t in (o.left, o.right)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SolverWarning)
            res = fit(obs, cfg(0.0, max_iterations=200))
        assert res.model.knots.times == (1.0, 2.0, 3.0, 4.0, 5.0)
        intercept, at = res.model.W[0], res.model.knots.interval_index
        assert intercept[at(6.0)] == intercept[at(6.0 - 1e-6)]

    def test_solution_is_nonnegative(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            obs = sim_observations(rng, n=40)
            res = fit(obs, cfg(0.3, max_iterations=200))
            assert np.all(model_matrix(res.model) >= 0.0)

    def test_intercept_only_matches_scalar_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            obs = sim_observations(rng, d=0, n=50)
            ks = KnotSet((), horizon=6.0)

            def f(w0):
                return nll_dataset(HazardModel(ks, [[w0]]), obs)

            oracle = scipy.optimize.minimize_scalar(
                f, bounds=(1e-9, 20.0), method="bounded", options={"xatol": 1e-12}
            )
            res = fit(obs, cfg(0.0, max_iterations=2000, tolerance=1e-5), knots=ks)
            w_hat = float(model_matrix(res.model)[0, 0])
            assert abs(w_hat - oracle.x) < 1e-6 * max(1.0, oracle.x)
            assert res.train_nll <= oracle.fun + 1e-9

    def test_unpenalized_fit_matches_box_lbfgs(self):
        # gamma = 0 makes the problem smooth + box constraints: L-BFGS-B is an
        # independent route to the same optimum.  A fixed modest knot set keeps
        # first-order descent well conditioned enough for a tight comparison.
        rng = np.random.default_rng(26)
        for _ in range(3):
            obs = sim_observations(rng, n=50)
            knots = KnotSet((1.5, 3.0, 4.5), horizon=6.0)
            design = CensoredDesign(knots, obs)
            size = math.prod(design.shape)
            ref = scipy.optimize.minimize(
                design.nll_grad,
                np.full(size, 0.1),
                jac=True,
                method="L-BFGS-B",
                bounds=[(0.0, None)] * size,
                options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 5000},
            )
            res = fit(obs, cfg(0.0, max_iterations=40000, tolerance=1e-6), knots=knots)
            fitted = res.objective_trace[-1][1]
            assert fitted <= ref.fun + 1e-5 * max(1.0, abs(ref.fun))
            assert ref.fun <= fitted + 1e-5 * max(1.0, abs(fitted))

    def test_unpenalized_fit_meets_the_kkt_conditions(self):
        # an oracle independent of L-BFGS-B: the gradient vanishes where
        # W > 0 and is nonnegative where W = 0, within 1e-5 of its largest
        # entry.  Four small sets on a fixed knot set, and the figure-1
        # training split on its own knots
        rng = np.random.default_rng(26)
        cases = [(sim_observations(rng, n=50), KnotSet((1.5, 3.0, 4.5), horizon=6.0)) for _ in range(4)]
        spec = default_scenario(0)
        _, obs = generate(spec)
        perm = np.random.default_rng(np.random.SeedSequence((0, 3))).permutation(len(obs))
        train = [obs[i] for i in perm[: int(0.7 * len(obs))]]
        cases.append((train, build_knot_set(train, horizon=spec.horizon)))
        for obs, knots in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error", SolverWarning)
                res = fit(obs, cfg(0.0), knots=knots)
            W = model_matrix(res.model)
            g = CensoredDesign(knots, obs).nll_grad(W.ravel())[1].reshape(W.shape)
            eps = 1e-5 * max(1.0, float(np.abs(g).max()))
            assert np.all(np.abs(g[W > 0.0]) <= eps)
            assert np.all(g[W == 0.0] >= -eps)
        # the figure-1 split certifies at the default settings, inside the cap
        assert res.converged and res.objective_trace[-1][0] < 500

    @pytest.mark.parametrize("monotone", [False, True], ids=["fused", "monotone"])
    def test_unpenalized_fit_matches_scipy_on_its_limit_problem(self, monotone):
        # the figure-1 training split on its own knots has cells with no head
        # exposure and some bracket exposure: the gamma=0 fit's objective is
        # the limit problem's minimum, which SciPy finds too
        spec = default_scenario(0)
        _, obs = generate(spec)
        perm = np.random.default_rng(np.random.SeedSequence((0, 3))).permutation(len(obs))
        train = [obs[i] for i in perm[: int(0.7 * len(obs))]]
        knots = build_knot_set(train, horizon=spec.horizon)
        design = CensoredDesign(knots, train)
        assert design.limit_problem(0.0, monotone)[0].V.shape[0] < design.V.shape[0]
        assert_matches_scipy_on_the_limit_problem(knots, train, monotone)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), monotone=st.booleans())
    def test_small_unpenalized_fits_match_scipy_on_their_limit_problem(self, seed, monotone):
        rng = np.random.default_rng(seed)
        obs = sim_observations(rng, d=2, n=int(rng.integers(6, 40)))
        assert_matches_scipy_on_the_limit_problem(build_knot_set(obs), obs, monotone)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("monotone", [False, True], ids=["fused", "monotone"])
    def test_rows_with_no_head_exposure_certify(self, gamma, monotone):
        # the feature row has no head exposure anywhere, so at every gamma it
        # rises as a constant at no TV cost and lowers the NLL without bound,
        # as does the intercept's first cell at gamma = 0.  At gamma = 1, and
        # in monotone mode at gamma = 0, these fits ended at the iteration
        # cap; on the limit problem they certify, and the returned model's
        # objective is the limit's up to rounding
        sites = [
            Observation.interval(FeaturePath(1, {0: ((0.0, 1.0),)}), 0, 1),
            Observation.interval(FeaturePath(1, {}), 1, 2),
            Observation.right_censored(FeaturePath(1, {}), 3),
            Observation.interval(FeaturePath(1, {}), 0, 2),
        ]
        penalty = PenaltyConfig(gamma=gamma, monotone=monotone)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(sites, SolverConfig(penalty=penalty))
        assert res.converged
        W = model_matrix(res.model)
        assert W[1, 0] > 36.0 and (np.all(W[1] == W[1, 0]) or not (gamma or monotone))
        if monotone:
            assert np.all(np.diff(W, axis=1) >= 0.0)
        objective = res.train_nll + penalty.value(W)
        assert abs(objective - res.objective_trace[-1][1]) <= 4 * math.ulp(objective)

    def test_solution_is_prox_fixed_point(self):
        # stationarity certificate: a prox-gradient step from the solution
        # must (nearly) return the solution
        obs = sim_observations(np.random.default_rng(27), n=50)
        knots = build_knot_set(obs)
        res = fit(obs, cfg(1.0, max_iterations=4000, tolerance=1e-6), knots=knots)
        W = model_matrix(res.model)
        design = CensoredDesign(knots, obs)
        _, g = design.nll_grad(W.ravel())
        g = g.reshape(W.shape)
        s = 1e-3
        Y = W - s * g
        Wn = np.vstack([
            np.maximum(fused_lasso_prox(Y[r], 1.0 * s), 0.0) for r in range(W.shape[0])
        ])
        move = np.abs(Wn - W).max()
        assert move <= 1e-6 * max(1.0, np.abs(W).max())

    def test_huge_gamma_flattens_every_row(self):
        obs = sim_observations(np.random.default_rng(28), n=40)
        res = fit(obs, cfg(1e4, max_iterations=1000, tolerance=1e-6))
        W = model_matrix(res.model)
        for r in range(W.shape[0]):
            assert tv(W[r]) < 1e-8

    def test_sparsity_shrinks_along_gamma_path(self):
        obs = sim_observations(np.random.default_rng(29), n=60)
        grid = KnotSet(tuple(np.linspace(0.75, 5.25, 7)), horizon=6.0)
        counts = [
            fit(obs, cfg(g, max_iterations=10000, tolerance=1e-6), knots=grid).nonzero_parameter_count
            for g in (0.25, 1.0, 4.0, 16.0, 64.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]

    def test_monotone_mode_yields_nondecreasing_rows(self):
        obs = sim_observations(np.random.default_rng(30), n=50)
        pen = PenaltyConfig(gamma=0.5, monotone=True)
        res = fit(obs, SolverConfig(penalty=pen, max_iterations=400))
        W = model_matrix(res.model)
        assert np.all(np.diff(W, axis=1) >= 0.0)
        assert np.all(W >= 0.0)

    def test_converged_flag_reflects_tolerance(self):
        obs = sim_observations(np.random.default_rng(35), n=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tight = fit(obs, cfg(1.0, max_iterations=2000, tolerance=1e-6))
        assert tight.converged
        # stopping at the iteration cap is reported, once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            starved = fit(obs, cfg(1.0, max_iterations=1, tolerance=1e-6))
        assert not starved.converged
        assert [w.category for w in caught] == [SolverWarning]
        assert "max_iterations=1" in str(caught[0].message)


@pytest.fixture
def steps(monkeypatch):
    """Every line search of the fits that follow, as ``(Y, Z, t, f(Z))``:
    the point it starts from, its last trial, that trial's step and smooth
    value (``None`` after an underflow)."""
    seen = []
    backtrack = tvhazard.solver._backtrack

    def recording(design, Y, f, g, step, penalty, D):
        Z, fZ, t = backtrack(design, Y, f, g, step, penalty, D)
        seen.append((Y.copy(), Z, t, fZ))
        return Z, fZ, t

    monkeypatch.setattr(tvhazard.solver, "_backtrack", recording)
    return seen


def mapping_norm_at(knots, obs, W, penalty, t):
    """``||W - [prox_t(W - t grad f(W))]_+|| / t`` from scratch, ``f`` the
    fit's limit problem (:func:`oracles.limit_nll_grad`)."""
    _, g = limit_nll_grad(knots, obs, penalty.gamma, penalty.monotone)(W.ravel())
    Y = W - t * g.reshape(W.shape)
    if penalty.monotone:
        # the linear TV term of nondecreasing rows joins the gradient
        Y[:, -1] -= t * penalty.gamma
        Y[:, 0] += t * penalty.gamma
        Z = np.vstack([isotonic_project(row) for row in Y])
    else:
        Z = np.vstack([fused_lasso_prox(row, penalty.gamma * t) for row in Y])
    return float(np.linalg.norm(W - np.maximum(Z, 0.0))) / t


def start_ref(knots, obs, penalty):
    """The certificate's reference from scratch: ``max(1, G(X0))``, the
    mapping norm at ``t = 1`` of the start ``X0``, the intercept at the
    pooled event rate with every feature row zero."""
    X0 = np.zeros(CensoredDesign(knots, obs).shape)
    X0[0] = pooled_event_rate_loop(obs)
    return max(1.0, mapping_norm_at(knots, obs, X0, penalty, 1.0))


def assert_matches_scipy_on_the_limit_problem(knots, obs, monotone):
    """The default gamma=0 fit certifies silently, and its final objective is
    within 1e-8 relative of SciPy's L-BFGS-B on the limit problem from
    scratch (:func:`oracles.limit_nll_grad`); in monotone mode SciPy runs
    on each row's increments ``delta >= 0``, ``w = cumsum(delta)``."""
    penalty = PenaltyConfig(gamma=0.0, monotone=monotone)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(obs, SolverConfig(penalty=penalty), knots=knots)
    assert res.converged
    shape = res.model.W.shape
    nll_grad = limit_nll_grad(knots, obs, 0.0, monotone)

    def fun(x):
        W = np.cumsum(x.reshape(shape), axis=1) if monotone else x
        f, g = nll_grad(W.ravel())
        if monotone:
            g = np.cumsum(g.reshape(shape)[:, ::-1], axis=1)[:, ::-1]
        return f, g.ravel()

    x0 = np.zeros(shape)
    x0[:, 0 if monotone else slice(None)] = 0.1
    ref = scipy.optimize.minimize(
        fun, x0.ravel(), jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * x0.size,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000, "maxfun": 40000},
    )
    fitted = res.objective_trace[-1][1]
    assert abs(fitted - ref.fun) <= 1e-8 * max(1.0, abs(ref.fun)), (fitted, ref.fun)


class TestCertificate:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        gamma=st.sampled_from([0.0, 0.1, 1.0, 8.0]),
        monotone=st.booleans(),
        scale=st.sampled_from([0.01, 0.3, 2.0]),
        steps=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5, unique=True),
    )
    def test_mapping_norm_does_not_increase_with_the_step(self, seed, gamma, monotone, scale,
                                                          steps):
        # the norm at t = 1 is the certificate's, and at the start its
        # reference: it is at most that of any shorter step (Beck 2017, Thm
        # 10.9), which holds when the prox is a true prox.  Checked from
        # scratch and with the penalty's own prox, which the solver calls, up
        # to 1e-12 of the norm's rounding scale at the shorter step,
        # ||W|| / t + ||g||: at t = 1e-6 rounding W - t g alone moves it 4e-11
        rng = np.random.default_rng(seed)
        obs = sim_observations(rng, d=2, n=int(rng.integers(6, 40)))
        knots = build_knot_set(obs)
        design = CensoredDesign(knots, obs)
        penalty = PenaltyConfig(gamma=gamma, monotone=monotone)
        W = rng.uniform(0.0, scale, design.shape)
        W[rng.random(W.shape) < 0.3] = 0.0
        g = design.nll_grad(W)[1]
        ts = sorted(steps)
        slack = [1e-12 * (np.linalg.norm(W) / t + np.linalg.norm(g)) for t in ts]
        for norms in ([mapping_norm_at(knots, obs, W, penalty, t) for t in ts],
                      [float(np.linalg.norm(W - penalty.prox(W - t * g, t))) / t for t in ts]):
            assert all(b <= a + e for a, b, e in zip(norms, norms[1:], slack)), norms

    @pytest.mark.parametrize(
        "penalty, n, seed, knots",
        [
            (PenaltyConfig(gamma=1.0), 40, 36, None),
            (PenaltyConfig(gamma=0.5, monotone=True), 40, 36, None),
            # 37 knot intervals over 12 sites: 26 cells have no head
            # exposure, and the metric takes the bracket exposure of 9
            (PenaltyConfig(gamma=1.0), 12, 30, None),
            # coarse knots, so that the unpenalized optimum exists
            (PenaltyConfig(gamma=0.0), 50, 26, KnotSet((1.5, 3.0, 4.5), horizon=6.0)),
        ],
        ids=["tv", "monotone", "long steps", "unpenalized"],
    )
    def test_converged_means_small_mapping_norm_at_step_one(self, penalty, n, seed, knots, steps):
        # the certificate is the mapping norm at t = 1 of the returned model
        # over its norm at the start, both recomputed here from scratch
        obs = sim_observations(np.random.default_rng(seed), n=n)
        knots = knots or build_knot_set(obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(obs, SolverConfig(penalty=penalty, tolerance=1e-5), knots=knots)
        assert res.converged and res.stop == "certified"
        W = model_matrix(res.model)
        ref = start_ref(knots, obs, penalty)
        gap = mapping_norm_at(knots, obs, W, penalty, 1.0)
        assert gap / ref == pytest.approx(res.mapping_norm, rel=1e-9)
        assert res.mapping_norm <= res.config.tolerance
        assert gap <= res.config.tolerance * ref
        if penalty.gamma > 0.0:
            # FISTA certifies at a step from the returned model
            assert steps[-1][0].tobytes() == W.tobytes()

    def test_every_step_starts_from_a_nonnegative_point(self, steps):
        # extrapolated points are clipped at zero, like the iterates
        obs = sim_observations(np.random.default_rng(39), n=40)
        fit(obs, cfg(1.0, tolerance=1e-5))
        assert len(steps) > 10
        assert all(np.all(Y >= 0.0) for Y, _, _, _ in steps)

    def test_capped_fit_reports_the_norm_at_the_returned_model(self, steps):
        # the last step started from an extrapolated point, so the norm at
        # the returned model takes one more gradient.  The gamma=0 set has
        # cells along which the objective falls forever: its norm is its
        # limit problem's, where the lifted cells have no exposure
        obs = sim_observations(np.random.default_rng(40), n=40)
        knots = build_knot_set(obs)
        for gamma in (1.0, 0.0):
            steps.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = fit(obs, cfg(gamma, max_iterations=6), knots=knots)
            assert res.stop == "max_iterations" and not res.converged
            assert [w.category for w in caught] == [SolverWarning]
            W = model_matrix(res.model)
            if gamma > 0.0:
                assert steps[-1][0].tobytes() != W.tobytes()
            penalty = PenaltyConfig(gamma=gamma)
            gap = mapping_norm_at(knots, obs, W, penalty, 1.0)
            assert gap / start_ref(knots, obs, penalty) == pytest.approx(res.mapping_norm, rel=1e-9)

    def test_warnings_point_at_the_caller(self):
        # an uncertified fit warns at the first frame outside the package,
        # at gamma = 0 as at gamma = 1
        obs = sim_observations(np.random.default_rng(40), n=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(obs, cfg(1.0, max_iterations=3))
            fit(obs, cfg(0.0, max_iterations=3))
        assert [w.category for w in caught] == [SolverWarning] * 2
        assert [w.filename for w in caught] == [__file__] * 2

    def test_stall_stops_long_before_the_cap(self):
        # a tolerance below the rounding floor of the objective cannot be
        # certified; the fit stops once a momentum-free step raises the
        # objective, and says so once
        obs = sim_observations(np.random.default_rng(37), d=2, n=12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fit(obs, cfg(1.0, max_iterations=30000, tolerance=1e-14))
        assert res.stop == "stalled" and not res.converged
        assert res.objective_trace[-1][0] < 3000
        assert [w.category for w in caught] == [SolverWarning]
        assert "stalled" in str(caught[0].message)
        assert f"{res.mapping_norm:.3g}" in str(caught[0].message)

    @pytest.mark.parametrize("n, seed, gamma", [(40, 25, 1e20), (28, 6, 8.0)])
    def test_a_tied_step_from_the_best_iterate_is_taken(self, n, seed, gamma):
        # near a minimizer a momentum-free step can move X and round to X's
        # objective; taking it lets these fits of the command-line tests'
        # scenario certify, where refusing it stalls them (16 of 960 such
        # default fits stalled without the rule)
        spec = CampaignSpec(
            d=4, active=((0, ((1.0, 0.6),)), (2, ((0.5, 0.4), (2.0, 1.0)))), baseline_level=0.25,
            horizon=4.0, n=n, feature_density=0.5, scan_times=(1.0, 2.0, 3.0), seed=seed,
        )
        _, obs = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit(obs, cfg(gamma)).stop == "certified"

    def test_step_underflow_at_the_best_iterate_warns_once(self, monkeypatch):
        # no trial ever meets the sufficient-decrease bound: the fit gives
        # up at its start, uncertified, with one warning
        obs = sim_observations(np.random.default_rng(38), n=20)
        nll = CensoredDesign.nll

        def rejecting(self, w, floored=False):
            return math.inf if floored else nll(self, w, floored)

        monkeypatch.setattr(CensoredDesign, "nll", rejecting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fit(obs, cfg(1.0))
        assert res.stop == "step_underflow" and not res.converged
        assert res.objective_trace[-1][0] == 1
        assert [w.category for w in caught] == [SolverWarning]
        assert "underflow" in str(caught[0].message)

    def test_underflow_reports_the_norm_at_the_returned_model(self, steps, monkeypatch):
        # criterion 3's second dataset, monotone, with every trial after the
        # 60th rejected: the next line search from the best iterate
        # underflows, and the fit reports the certificate's norm there
        rng = np.random.default_rng(103)
        representer_observations(rng)
        obs = representer_observations(rng)
        knots = build_knot_set(obs)
        penalty = PenaltyConfig(gamma=1.0, monotone=True)
        nll, trials = CensoredDesign.nll, []

        def rejecting_late(self, w, floored=False):
            trials.append(floored)
            return math.inf if floored and len(trials) > 60 else nll(self, w, floored)

        monkeypatch.setattr(CensoredDesign, "nll", rejecting_late)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fit(obs, SolverConfig(penalty=penalty, tolerance=1e-8), knots=knots)
        assert res.stop == "step_underflow" and not res.converged
        assert res.objective_trace[-1][0] > 10
        assert [w.category for w in caught] == [SolverWarning]
        assert f"{res.mapping_norm:.3g}" in str(caught[0].message)
        W = model_matrix(res.model)
        Y, _, _, fZ = steps[-1]
        assert fZ is None and Y.tobytes() == W.tobytes()
        monkeypatch.setattr(CensoredDesign, "nll", nll)
        gap = mapping_norm_at(knots, obs, W, penalty, 1.0)
        assert gap / start_ref(knots, obs, penalty) == pytest.approx(res.mapping_norm, rel=1e-9)

    def test_underflow_at_an_extrapolated_point_restarts(self, monkeypatch):
        # a line search that underflows at an extrapolated point does not
        # end the fit: the next step starts from the best iterate, and the
        # fit certifies
        obs = sim_observations(np.random.default_rng(39), n=40)
        backtrack, iterates, starts = tvhazard.solver._backtrack, [], []

        def underflowing_once(design, Y, f, g, step, penalty, D):
            Z, fZ, t = backtrack(design, Y, f, g, step, penalty, D)
            iterates.append(Z.tobytes())
            starts.append(Y.tobytes())
            # the first start that no trial has reached is extrapolated
            if len(starts) > 2 and Y.tobytes() not in iterates and not forced:
                forced.append(len(starts))
                return Z, None, t
            return Z, fZ, t

        forced = []
        monkeypatch.setattr(tvhazard.solver, "_backtrack", underflowing_once)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(obs, cfg(1.0, tolerance=1e-6))
        (k,) = forced
        assert starts[k] in iterates[:k]
        assert res.converged and res.stop == "certified"


class TestOpeningSearch:
    @pytest.mark.parametrize(
        "curvature, step",
        [
            ([0.0, 0.0], 1.0),
            ([1.0, math.nan], 1.0),
            ([1.0, math.inf], 1.0),
            ([4.0, 1.0], 1.0),
            ([8.0 * 2**10], 2.0**-10),
            ([8.0 * 2**10 * 0.75], 2.0**-9),
            ([8.0 * 2**10 * 1.25], 2.0**-10),
            ([8e12], 2.0**-39),
            ([1e300], 2.0**-39),
            ([5e-324], 1.0),
        ],
    )
    def test_opening_step_is_a_power_of_two_at_or_above_eight_over_the_max(self, curvature, step):
        # within the trials 1, 1/2, ..., 2^-39 a search from 1.0 makes above the floor
        assert tvhazard.solver._opening_step(np.array(curvature)) == step

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 7),
        penalty=st.sampled_from([PenaltyConfig(gamma=0.0), PenaltyConfig(gamma=1.0),
                                 PenaltyConfig(gamma=4.0), PenaltyConfig(gamma=0.5, monotone=True)]),
        metric=st.booleans(),
        moved=st.booleans(),
        k=st.integers(0, 39),
    )
    @example(seed=0, penalty=PenaltyConfig(gamma=1.0), metric=False, moved=False, k=39)
    @example(seed=1, penalty=PenaltyConfig(gamma=1.0), metric=True, moved=False, k=0)
    def test_halves_from_where_it_opens(self, seed, penalty, metric, moved, k):
        # from the start, or from a point past it, in either metric: a search
        # from 2^-k returns what the search from 1.0 returns when that one
        # accepts a step of at most 2^-k, and otherwise its own first trial
        rng = np.random.default_rng(seed)
        obs = sim_observations(rng, n=(12, 40, 84)[seed % 3])
        design = CensoredDesign(build_knot_set(obs), obs)
        Y = np.zeros(design.shape)
        Y[0] = design.pooled_event_rate
        if moved:
            Y += rng.uniform(0.0, 0.05, Y.shape)
        f, g = design.nll_grad(Y)
        D = tvhazard.solver._metric(design) if metric else np.ones_like(Y)
        backtrack = tvhazard.solver._backtrack
        Z, fZ, t = backtrack(design, Y, f, g, 2.0**-k, penalty, D)
        want_Z, want_fZ, want_t = backtrack(design, Y, f, g, 1.0, penalty, D)
        if want_t <= 2.0**-k:
            assert (Z.tobytes(), fZ, t) == (want_Z.tobytes(), want_fZ, want_t)
        else:
            assert t == 2.0**-k and fZ is not None

    def test_a_non_finite_start_objective_is_refused(self, monkeypatch):
        # refused at the start, before any line search
        obs = sim_observations(np.random.default_rng(0), n=20)
        monkeypatch.setattr(CensoredDesign, "nll_grad", lambda self, w: (math.inf, np.zeros_like(w)))
        monkeypatch.setattr(tvhazard.solver, "_backtrack", None)
        with pytest.raises(NumericalError, match="objective not finite at initialization: inf"):
            fit(obs, cfg(1.0))

    def test_a_default_fit_makes_few_trials_before_iteration_two(self, monkeypatch):
        # the start's search and iteration 1's opened at 1.0: 28 trials
        prox, nll_grad = PenaltyConfig.prox, CensoredDesign.nll_grad
        calls, before = [0], []

        def counting(self, *args):
            calls[0] += 1
            return prox(self, *args)

        def recording(self, *args, **kwargs):
            before.append(calls[0])
            return nll_grad(self, *args, **kwargs)

        monkeypatch.setattr(PenaltyConfig, "prox", counting)
        monkeypatch.setattr(CensoredDesign, "nll_grad", recording)
        _, obs = generate(default_scenario(0))
        assert len(obs) == 1000
        fit(obs, cfg(1.0))
        # the second gradient is iteration 1's last evaluation
        assert 2 <= before[1] <= 8


# Row entries: signed zeros, tiny and ordinary magnitudes of either sign.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e-12, 1e-12),
    st.floats(-1e3, 1e3),
)


@st.composite
def prox_inputs(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    Y = draw(arrays(np.float64, (rows, cols), elements=_ENTRIES))
    for r in range(rows):
        kind = draw(st.sampled_from(("as drawn", "nonpositive", "constant")))
        if kind == "nonpositive":
            Y[r] = np.where(Y[r] > 0.0, -Y[r], Y[r])  # keeps both signed zeros
        elif kind == "constant":
            Y[r] = Y[r, 0]
    gammas = st.one_of(
        st.just(0.0), st.floats(1e-20, 1e2), st.integers(-20, 2).map(lambda k: 10.0**k)
    )
    pen = PenaltyConfig(gamma=draw(gammas), monotone=draw(st.booleans()))
    # the metric's per-entry weights, or none
    weights = st.one_of(st.integers(-3, 5).map(lambda k: 10.0**k), st.floats(1e-3, 1e5))
    D = draw(st.none() | arrays(np.float64, (rows, cols), elements=weights))
    return Y, draw(st.floats(1e-6, 10.0)), pen, D


class TestProxMatrix:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(prox_inputs())
    # a weight tiny next to |y|, where the TV prox used to round a level of
    # this nonpositive row up to +4.4e-16
    @example((np.array([[-2.1, -2.7, 0.0]]), 1.0, PenaltyConfig(gamma=1e-17), None))
    @example((np.array([[-0.0, -0.0], [-1.0, 0.0]]), 0.5, PenaltyConfig(gamma=1.0, monotone=True),
              None))
    @example((np.array([[-0.0, -1.0, -0.0], [-1.0, 0.0, -2.0]]), 0.5,
              PenaltyConfig(gamma=1.0, monotone=True), np.array([[1e5, 1e-3, 1.0]] * 2)))
    def test_rows_that_clip_to_zero_are_skipped_bitwise(self, args):
        # with and without the metric's weights
        Y, step, pen, D = args
        d = np.ones_like(Y) if D is None else D
        want = []
        for r in range(Y.shape[0]):
            if pen.monotone:
                shift = np.zeros(Y.shape[1])
                if shift.size > 1:
                    shift[0], shift[-1] = pen.gamma * step / d[r, 0], -pen.gamma * step / d[r, -1]
                z = isotonic_project(Y[r] + shift, d[r])
                spread = Y[r].max() - Y[r].min()
                if z[0] == z[-1] and 4.0 * pen.gamma * step >= d[r].sum() * spread:
                    # the weight flattens the row: its solution is the row
                    # itself if constant, else its weighted mean
                    mean = math.fsum(Y[r] * d[r]) / math.fsum(d[r])
                    z = Y[r] if spread == 0.0 else np.full(Y.shape[1], mean)
            else:
                z = fused_lasso_prox(Y[r], pen.gamma * step, d[r])
            want.append(np.maximum(z, 0.0))
        got = pen.prox(Y, step, D)
        assert got.tobytes() == np.array(want).tobytes()

    def test_default_fit_never_proxes_a_row_that_clips_to_zero(self, monkeypatch):
        row_max = []

        def recording(y, weight, d=None):
            # one call proxes a stack of rows: record each row's maximum
            row_max.extend(y.max(axis=-1).tolist())
            return fused_lasso_prox(y, weight, d)

        monkeypatch.setattr(tvhazard.penalty, "fused_lasso_prox", recording)
        _, obs = generate(default_scenario(0))
        fit(obs, cfg(1.0))
        assert row_max and min(row_max) > 0.0


class TestRefinement:
    def test_extra_knots_do_not_improve(self):
        # candidate jumps at censoring boundaries + feature changes should be
        # enough: doubling the knot count buys (essentially) nothing once the
        # base fit is converged hard
        rng = np.random.default_rng(41)
        for _ in range(3):
            obs = sim_observations(rng, d=2, n=12)
            ks = build_knot_set(obs)
            res = fit(obs, cfg(1.0, max_iterations=30000, tolerance=1e-6), knots=ks)
            delta = refine_and_compare(res, obs, extra_knots=len(ks.times))
            assert delta >= -1e-4

    def test_refit_is_a_plain_fit_on_the_refined_knots(self):
        # one route into the solver: a fit on the refined knots starts where
        # every fit starts, and repeats bitwise
        obs = sim_observations(np.random.default_rng(45), d=2, n=12)
        ks = build_knot_set(obs)
        res = fit(obs, cfg(1.0, tolerance=1e-6), knots=ks)
        grid = np.linspace(0.0, ks.horizon, len(ks.times) + 2)[1:-1]
        refit = fit(obs, res.config, knots=_window_knots([*ks.times, *grid], ks.horizon))
        want = refit.objective_trace[-1][1] - res.objective_trace[-1][1]
        assert refine_and_compare(res, obs, extra_knots=len(ks.times)) == want

    def test_zero_extra_knots_is_exact_zero(self):
        # the window rule keeps a knot set's own times as they are
        obs = sim_observations(np.random.default_rng(42), n=20)
        res = fit(obs, cfg(1.0, max_iterations=200))
        assert refine_and_compare(res, obs, extra_knots=0) == 0.0


class TestHelpers:
    def test_objective_is_nll_plus_tv(self):
        rng = np.random.default_rng(44)
        obs = sim_observations(rng, n=20)
        knots = build_knot_set(obs)
        W = rng.uniform(0.0, 1.0, size=(4, knots.n_intervals))
        m = HazardModel(knots, W)
        pen = PenaltyConfig(gamma=1.7)
        expect = nll_dataset(m, obs) + 1.7 * sum(tv(W[r]) for r in range(W.shape[0]))
        assert np.isclose(nll_dataset(m, obs) + pen.value(m.W), expect, rtol=1e-12)

    def test_nonzero_parameter_count_rules(self):
        assert nonzero_parameter_count(np.zeros((3, 4))) == 0
        assert nonzero_parameter_count(np.array([[0.5, 0.5, 0.5]])) == 1
        assert nonzero_parameter_count(np.array([[0.5, 0.7, 0.7]])) == 2
        # sub-epsilon jumps are treated as storage noise, not parameters
        assert nonzero_parameter_count(np.array([[1.0, 1.0 + 5e-7]])) == 1
        W = np.array([[0.2, 0.2], [0.0, 0.9]])
        assert nonzero_parameter_count(W) == 2  # zero base costs nothing
        assert nonzero_parameter_count(np.array([[0.2, 0.2], [0.3, 0.9]])) == 3
