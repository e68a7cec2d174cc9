"""Constant-coefficient baselines: closed-form oracles, gradients, separation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.sparse

import tvhazard.baseline
from tvhazard import (
    ConstantAdditiveModel,
    KnotSet,
    Observation,
    PenaltyConfig,
    ProportionalModel,
    SeparationWarning,
    SolverConfig,
    SolverWarning,
    default_scenario,
    fit,
    fit_constant_additive,
    fit_proportional,
    generate,
    model_matrix,
    nll_dataset,
    proportional_nll,
)
from tvhazard.baseline import _pieces, _proportional_value_grad
from tvhazard.likelihood import _pooled_event_rate
from tvhazard.timeline import _run_table

from oracles import change_times, level_at, tv


def sim_observations(rng, d=2, n=50, horizon=6.0):
    obs = []
    for _ in range(n):
        entries = {}
        for j in range(d):
            if rng.random() < 0.5:
                t = float(rng.uniform(0.0, horizon - 1.0))
                entries[j] = ((t, float(rng.uniform(0.2, 1.5))),)
        if rng.random() < 0.55:
            l = float(rng.uniform(0.2, horizon - 0.6))
            r = min(l + float(rng.uniform(0.3, 1.5)), horizon)
            obs.append(Observation.interval(d, entries, l, r))
        else:
            obs.append(Observation.right_censored(d, entries, float(rng.uniform(0.5, horizon))))
    return obs


def changing_observations(rng, d=2, n=8, horizon=6.0):
    """Observations whose features change several times each: at t=0,
    back to zero, and exactly at the ends of the censoring window."""
    obs = []
    for _ in range(n):
        l = float(rng.uniform(0.2, horizon - 0.6))
        r = min(l + float(rng.uniform(0.3, 1.5)), horizon)
        interval = rng.random() < 0.55
        entries = {}
        for j in range(d):
            times = sorted({0.0, l, r, *rng.uniform(0.0, horizon + 1.0, size=2).tolist()})
            values = rng.uniform(0.2, 1.5, size=len(times))
            values[1 + j] = 0.0
            entries[j] = tuple(zip(times, values.tolist()))
        if interval:
            obs.append(Observation.interval(d, entries, l, r))
        else:
            obs.append(Observation.right_censored(d, entries, r))
    return obs


def constant_nll(w0, w, obs):
    """Censored NLL of the constant additive model, written out by hand."""

    def lam_int(entries, a, b):
        cuts = [a] + [t for t in change_times(entries) if a < t < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            rate = w0 + sum(w[j] * level_at(entries, j, lo) for j in range(len(w)))
            total += rate * (hi - lo)
        return total

    val = 0.0
    for o in obs:
        if o.kind == "interval":
            m = lam_int(o.entries, o.left, o.right)
            val += lam_int(o.entries, 0.0, o.left) - math.log1p(-math.exp(-m))
        else:
            val += lam_int(o.entries, 0.0, o.right)
    return val


class TestConstantAdditive:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            ConstantAdditiveModel(intercept=-0.1, weights=(0.2,))
        with pytest.raises(ValueError):
            ConstantAdditiveModel(intercept=0.1, weights=(-0.2,))

    @pytest.mark.parametrize(
        "intercept, weights",
        [(math.nan, ()), (math.inf, ()), (True, (False,)), (1.0, (math.inf,)), (1.0, (math.nan,)),
         ("0.5", ()), (1.0, ("0.5",))],
    )
    def test_only_finite_real_values_are_taken(self, intercept, weights):
        with pytest.raises(ValueError):
            ConstantAdditiveModel(intercept, weights)

    def test_to_hazard_model_has_same_likelihood(self):
        rng = np.random.default_rng(50)
        obs = sim_observations(rng, d=2, n=25)
        cam = ConstantAdditiveModel(intercept=0.3, weights=(0.5, 0.0))
        hm = cam.to_hazard_model(horizon=6.0)
        assert cam.d == hm.d == 2
        assert hm.W.tolist() == [[0.3], [0.5], [0.0]]
        expect = constant_nll(0.3, (0.5, 0.0), obs)
        assert np.isclose(nll_dataset(hm, obs), expect, rtol=1e-12)

    def test_fit_matches_box_constrained_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            obs = sim_observations(rng, d=2, n=50)
            fitted = fit_constant_additive(obs)

            def total(v):
                return constant_nll(v[0], v[1:], obs)

            ref = scipy.optimize.minimize(
                total,
                np.full(3, 0.1),
                method="L-BFGS-B",
                bounds=[(0.0, None)] * 3,
                options={"ftol": 1e-15, "maxiter": 2000},
            )
            got = np.array([fitted.intercept, *fitted.weights])
            assert total(got) <= ref.fun + 1e-7 * max(1.0, abs(ref.fun))
            assert np.allclose(got, ref.x, atol=5e-4)

    def test_is_the_fit_on_one_interval(self):
        obs = sim_observations(np.random.default_rng(57), d=2, n=50)
        knots = KnotSet((), horizon=max(o.right for o in obs))
        res = fit(obs, SolverConfig(penalty=PenaltyConfig()), knots=knots)
        fitted = fit_constant_additive(obs)
        assert (fitted.intercept, *fitted.weights) == tuple(model_matrix(res.model)[:, 0].tolist())

    def test_features_always_present_together_split_their_sum(self):
        # features 0 and 1 switch on together with the same value; merged,
        # they are one feature.  Only the sum of their weights is
        # identifiable, and both fits reach the same likelihood
        rng = np.random.default_rng(58)
        pairs, merged = [], []
        for _ in range(80):
            both, alone = {}, {}
            if rng.random() < 0.6:
                on = ((float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.5, 1.5))),)
                both.update({0: on, 1: on})
                alone[0] = on
            if rng.random() < 0.5:
                other = ((float(rng.uniform(0.0, 5.0)), 1.0),)
                both[2] = alone[1] = other
            if rng.random() < 0.55:
                l = float(rng.uniform(0.2, 5.4))
                r = min(l + float(rng.uniform(0.3, 1.5)), 6.0)
                pairs.append(Observation.interval(3, both, l, r))
                merged.append(Observation.interval(2, alone, l, r))
            else:
                t = float(rng.uniform(0.5, 6.0))
                pairs.append(Observation.right_censored(3, both, t))
                merged.append(Observation.right_censored(2, alone, t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split, one = fit_constant_additive(pairs), fit_constant_additive(merged)
        nll_split = nll_dataset(split.to_hazard_model(6.0), pairs)
        nll_one = nll_dataset(one.to_hazard_model(6.0), merged)
        assert nll_split == pytest.approx(nll_one, rel=1e-12)
        assert split.weights[0] + split.weights[1] == pytest.approx(one.weights[0], abs=1e-6)
        assert one.weights[0] > 0.01

    def test_no_events_means_zero_hazard(self):
        obs = [Observation.right_censored(1, {}, 3.0) for _ in range(10)]
        fitted = fit_constant_additive(obs)
        assert fitted.intercept == pytest.approx(0.0, abs=1e-10)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_constant_additive([])

    def test_huge_gamma_fit_agrees_with_constant_baseline(self):
        # gamma -> inf forces constant rows, which is exactly this baseline
        obs = sim_observations(np.random.default_rng(52), d=2, n=60)
        res = fit(
            obs,
            SolverConfig(
                penalty=PenaltyConfig(gamma=1e5), max_iterations=5000, tolerance=1e-6
            ),
        )
        W = model_matrix(res.model)
        assert max(tv(W[r]) for r in range(W.shape[0])) < 1e-8
        base = fit_constant_additive(obs)
        got = np.array([base.intercept, *base.weights])
        assert np.allclose(W[:, 0], got, atol=2e-4)


class TestProportional:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            ProportionalModel(base_rate=0.0, weights=(0.1,))

    @pytest.mark.parametrize(
        "base_rate, weights",
        [(math.inf, ()), (math.nan, ()), (True, ()), (1.0, (math.nan,)), (1.0, (-math.inf,)),
         (1.0, (True,)), ("0.5", ())],
    )
    def test_only_finite_real_values_are_taken(self, base_rate, weights):
        with pytest.raises(ValueError):
            ProportionalModel(base_rate, weights)

    def test_nll_matches_quadrature(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            obs = changing_observations(rng, d=2, n=8)
            model = ProportionalModel(
                base_rate=float(rng.uniform(0.05, 0.8)),
                weights=tuple(rng.normal(0.0, 0.7, size=2)),
            )

            def lam_int(entries, a, b):
                def rate(t):
                    s = sum(model.weights[j] * level_at(entries, j, t) for j in range(2))
                    return model.base_rate * math.exp(s)

                pts = [t for t in change_times(entries) if a < t < b]
                val, _ = scipy.integrate.quad(rate, a, b, points=pts, limit=200)
                return val

            expect = 0.0
            for o in obs:
                if o.kind == "interval":
                    m = lam_int(o.entries, o.left, o.right)
                    expect += lam_int(o.entries, 0.0, o.left) - math.log1p(-math.exp(-m))
                else:
                    expect += lam_int(o.entries, 0.0, o.right)
            assert np.isclose(proportional_nll(model, obs), expect, rtol=1e-9)
        # as nll_dataset: no observations, no likelihood terms
        assert proportional_nll(model, []) == 0.0

    def test_a_zero_valued_run_cuts_no_piece(self):
        # a feature is 0 before its first change, so a zero-valued change
        # before it leaves the path as it was: the run table keeps that run,
        # and the pieces and the fit must not see it
        rng = np.random.default_rng(56)
        obs = sim_observations(rng, d=2, n=40)
        padded = [replace(o, entries={j: ((c[0][0] / 2, 0.0), *c) for j, c in o.entries.items()})
                  for o in obs]
        assert len(_run_table(padded)[1]) > len(_run_table(obs)[1])
        for a, b in zip(_pieces(*_run_table(padded)), _pieces(*_run_table(obs)), strict=True):
            a, b = (x.toarray() if scipy.sparse.issparse(x) else x for x in (a, b))
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert fit_proportional(padded) == fit_proportional(obs)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            obs = sim_observations(rng, d=2, n=15)
            per = _pieces(*_run_table(obs))
            XT = per[0].T.tocsr()
            theta = np.concatenate((rng.normal(-1.0, 0.3, 1), rng.normal(0.0, 0.5, 2)))
            _, g = _proportional_value_grad(theta, per, XT)
            h = 1e-6
            for k in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fp, _ = _proportional_value_grad(tp, per, XT)
                fm, _ = _proportional_value_grad(tm, per, XT)
                fd = (fp - fm) / (2 * h)
                assert abs(g[k] - fd) / max(1.0, abs(g[k])) < 1e-6

    def test_fit_is_stationary_and_beats_null(self):
        rng = np.random.default_rng(55)
        obs = sim_observations(rng, d=2, n=80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_proportional(obs)
        theta = np.concatenate(([math.log(model.base_rate)], model.weights))
        per = _pieces(*_run_table(obs))
        _, g = _proportional_value_grad(theta, per, per[0].T.tocsr())
        assert np.abs(g).max() < 1e-4
        null = fit_proportional(
            [
                Observation(d=2, entries={}, kind=o.kind, left=o.left, right=o.right)
                for o in obs
            ]
        )
        assert proportional_nll(model, obs) <= proportional_nll(null, obs) + 1e-9

    def test_recovers_planted_log_hazard_ratio(self):
        rng = np.random.default_rng(56)
        lam0, w_true = 0.25, 0.9
        obs = []
        for _ in range(400):
            x = 1.0 if rng.random() < 0.5 else 0.0
            entries = {0: ((0.0, 1.0),)} if x else {}
            t = float(rng.exponential(1.0 / (lam0 * math.exp(w_true * x))))
            if t >= 8.0:
                obs.append(Observation.right_censored(1, entries, 8.0))
            else:
                obs.append(Observation.interval(1, entries, 0.9 * t, min(1.1 * t + 1e-3, 8.0)))
        model = fit_proportional(obs)
        assert abs(model.weights[0] - w_true) < 0.25
        assert abs(math.log(model.base_rate) - math.log(lam0)) < 0.25

    def test_separation_hits_weight_cap_and_warns(self):
        # one carrier whose event bracket is so narrow that the MLE hazard
        # ratio exceeds the cap: NLL falls linearly in w until mass ~ 1
        obs = [Observation.interval(1, {0: ((0.0, 1.0),)}, 0.0, 1e-22)]
        obs += [Observation.interval(1, {}, 1.0, 2.0) for _ in range(5)]
        obs += [Observation.right_censored(1, {}, 4.0) for _ in range(5)]
        with pytest.warns(SeparationWarning):
            model = fit_proportional(obs)
        assert abs(model.weights[0]) >= 50.0 - 1e-6

    def test_lbfgsb_failure_warns_once(self, monkeypatch):
        # an iteration cap of 1 stops the quasi-Newton uncertified: one
        # SolverWarning, and the last iterate comes back
        obs = sim_observations(np.random.default_rng(55), d=2, n=80)
        monkeypatch.setattr(tvhazard.baseline, "_MAX_ITERATIONS", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_proportional(obs)
        assert [w.category for w in caught] == [SolverWarning]
        assert "uncertified (max_iterations)" in str(caught[0].message)
        assert model.weights != (0.0, 0.0)

    def test_certifies_on_the_figure1_split_below_scipy(self):
        # the certificate stops the fit, where SciPy's L-BFGS-B at ftol
        # 1e-12 stopped above it; the objective is no higher than SciPy's
        spec = default_scenario(0)
        _, obs = generate(spec)
        perm = np.random.default_rng(np.random.SeedSequence((0, 3))).permutation(len(obs))
        train = [obs[i] for i in perm[: int(0.7 * len(obs))]]
        d, table, left, right, is_interval = _run_table(train)
        pieces = _pieces(d, table, left, right, is_interval)
        XT = pieces[0].T.tocsr()
        hi = np.concatenate(([30.0], np.full(d, 50.0)))

        def objective(theta):
            return _proportional_value_grad(theta, pieces, XT)

        def mapping_norm(theta):
            return np.linalg.norm(theta - np.clip(theta - objective(theta)[1], -hi, hi))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_proportional(train)
        theta = np.concatenate(([math.log(model.base_rate)], model.weights))
        x0 = np.concatenate(([math.log(_pooled_event_rate(left, right, is_interval))], np.zeros(d)))
        assert mapping_norm(theta) <= 1e-7 * max(1.0, mapping_norm(x0))
        ref = scipy.optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                      bounds=list(zip(-hi, hi)),
                                      options={"maxiter": 2000, "ftol": 1e-12, "gtol": 1e-10})
        assert objective(theta)[0] <= ref.fun + 1e-9 * abs(ref.fun)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_proportional([])
