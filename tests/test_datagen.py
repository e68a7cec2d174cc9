"""Synthetic campaign generator: planted truths, exact sampling, censoring."""

import math

import numpy as np
import pytest
import scipy.stats

from tvhazard import (
    CampaignSpec,
    FeaturePath,
    HazardModel,
    KnotSet,
    StepFunction,
    default_scenario,
    generate,
    sample_event_time,
    truth_model,
)

from oracles import cumulative_hazard


def tiny_spec(**overrides):
    base = dict(
        d=3,
        active=((0, ((1.0, 0.5),)), (2, ((0.5, 0.3), (2.0, 0.9)))),
        baseline_level=0.2,
        horizon=4.0,
        n=10,
        feature_density=0.5,
        scan_times=(1.0, 2.0, 3.0),
    )
    base.update(overrides)
    return CampaignSpec(**base)


class _FixedU:
    """Stub RNG: hands ``sample_event_time`` a chosen uniform draw."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSpecValidation:
    def test_accepts_well_formed(self):
        tiny_spec()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            tiny_spec(d=-1)
        with pytest.raises(ValueError):
            tiny_spec(n=0)
        with pytest.raises(ValueError):
            tiny_spec(n=10.5)
        with pytest.raises(ValueError):
            tiny_spec(d=4.5)
        with pytest.raises(ValueError):
            tiny_spec(horizon=0.0)
        with pytest.raises(ValueError):
            tiny_spec(feature_density=1.5)
        with pytest.raises(ValueError):
            tiny_spec(baseline_level=-0.1)

    def test_rejects_bad_active_entries(self):
        with pytest.raises(ValueError):
            tiny_spec(active=((5, ((1.0, 0.5),)),))  # index out of range
        with pytest.raises(ValueError):
            tiny_spec(active=((0, ((1.0, 0.5),)), (0, ((2.0, 0.1),))))
        with pytest.raises(ValueError):
            tiny_spec(active=((0, ((2.0, 0.5), (1.0, 0.1))),))
        with pytest.raises(ValueError):
            tiny_spec(active=((0, ((1.0, -0.5),)),))
        with pytest.raises(ValueError):
            tiny_spec(active=((0, ((9.0, 0.5),)),))  # beyond horizon

    def test_monotone_truth_enforced(self):
        with pytest.raises(ValueError):
            tiny_spec(active=((0, ((1.0, 0.5), (2.0, 0.2))),), monotone_truth=True)
        tiny_spec(active=((0, ((1.0, 0.2), (2.0, 0.5))),), monotone_truth=True)

    def test_rejects_degenerate_and_bad_scans(self):
        with pytest.raises(ValueError):
            tiny_spec(active=((0, ((1.0, 0.0),)),), baseline_level=0.0)
        with pytest.raises(ValueError):
            tiny_spec(scan_times=(1.0, 1.0))
        with pytest.raises(ValueError):
            tiny_spec(scan_times=(1.0, 5.0))  # at/after horizon


class TestTruthModel:
    def test_knots_are_positive_change_times(self):
        truth = truth_model(tiny_spec())
        assert tuple(truth.knots.times) == (0.5, 1.0, 2.0)
        assert truth.knots.horizon == 4.0

    def test_changes_at_the_window_ends_merge_into_them(self):
        # 5e-10 merges into 0 and 4.0 is the horizon: neither is a knot, and
        # the level set at 5e-10 holds from 0
        spec = tiny_spec(active=((0, ((0.0, 0.4), (5e-10, 0.5), (2.0, 0.9), (4.0, 1.1))),))
        truth = truth_model(spec)
        assert truth.knots.times == (2.0,)
        assert truth.coefficients[0].values == (0.5, 0.9)

    def test_levels_step_at_the_right_places(self):
        truth = truth_model(tiny_spec())
        f0, f2 = truth.coefficients[0], truth.coefficients[2]
        assert f0(0.9) == 0.0 and f0(1.0) == 0.5 and f0(3.9) == 0.5
        assert f2(0.4) == 0.0 and f2(0.5) == 0.3 and f2(2.0) == 0.9
        assert 1 not in truth.coefficients
        assert np.all(np.asarray(truth.intercept.values) == 0.2)

    def test_all_zero_feature_dropped(self):
        spec = tiny_spec(active=((1, ((1.0, 0.0),)),))
        truth = truth_model(spec)
        assert truth.coefficients == {}
        assert truth.d == 3

    def test_default_scenario_shape(self):
        spec = default_scenario(0)
        assert spec.d == 40 and spec.n == 1000 and len(spec.active) == 4
        truth = truth_model(spec)
        assert tuple(truth.knots.times) == (1.2, 1.4, 2.3, 4.1, 4.2, 5.2)
        assert sorted(truth.coefficients) == [3, 11, 19, 27]
        assert truth.coefficients[19](5.0) == 0.0  # campaign 19 ended


class TestSampler:
    def test_inverse_residual_tiny(self):
        # replay the uniform draw and check Lambda(0, tau) == -log(u) exactly
        spec = tiny_spec(n=1, baseline_level=0.4, horizon=6.0, scan_times=(2.0, 4.0))
        truth = truth_model(spec)
        rng = np.random.default_rng(60)
        worst = 0.0
        hits = 0
        for _ in range(500):
            path = FeaturePath(3, {0: ((0.0, 1.0),)} if rng.random() < 0.5 else {})
            u = rng.random()
            tau = sample_event_time(path, truth, _FixedU(u))
            target = -math.log(u)
            if math.isfinite(tau) and tau < truth.knots.horizon:
                hits += 1
                resid = abs(cumulative_hazard(truth, path, 0.0, tau) - target)
                worst = max(worst, resid)
            else:
                assert cumulative_hazard(truth, path, 0.0, truth.knots.horizon) < target
        assert hits > 100
        assert worst < 1e-10

    def test_unit_uniform_draw_survives(self):
        truth = truth_model(tiny_spec())
        assert sample_event_time(FeaturePath(3, {}), truth, _FixedU(0.0)) == math.inf

    def test_constant_hazard_is_exponential(self):
        # d = 0, constant baseline c: draws must be Exponential(c)
        spec = CampaignSpec(
            d=0,
            active=(),
            baseline_level=0.7,
            horizon=60.0,
            n=1,
            feature_density=0.0,
            scan_times=(30.0,),
        )
        truth = truth_model(spec)
        rng = np.random.default_rng(61)
        path = FeaturePath(0, {})
        times = np.array([sample_event_time(path, truth, rng) for _ in range(5000)])
        assert np.all(np.isfinite(times[times < 60.0]))
        stat = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / 0.7))
        assert stat.pvalue > 0.01

    def test_two_segment_mass_split(self):
        # hazard 0.3 before t=2, 1.1 after: event count before 2 is binomial
        ks = KnotSet((2.0,), horizon=50.0)
        truth = HazardModel(
            knots=ks,
            d=0,
            intercept=StepFunction(ks, (0.3, 1.1)),
            coefficients={},
        )
        rng = np.random.default_rng(62)
        path = FeaturePath(0, {})
        n = 4000
        taus = np.array([sample_event_time(path, truth, rng) for _ in range(n)])
        p = 1.0 - math.exp(-0.3 * 2.0)
        k = int((taus <= 2.0).sum())
        assert abs(k - n * p) < 4.0 * math.sqrt(n * p * (1 - p))


class TestGenerate:
    def test_deterministic(self):
        spec = tiny_spec(n=40)
        t1, o1 = generate(spec)
        t2, o2 = generate(spec)
        assert o1 == o2
        assert t1 == t2

    def test_seed_changes_observations(self):
        _, o1 = generate(tiny_spec(n=40, seed=0))
        _, o2 = generate(tiny_spec(n=40, seed=1))
        assert o1 != o2

    def test_brackets_contain_replayed_event_times(self):
        # replay each site's private stream and check the censoring logic
        spec = tiny_spec(n=200)
        truth, obs = generate(spec)
        scans = spec.scan_times
        for site, o in enumerate(obs):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, site)))
            present = rng.random(spec.d) < spec.feature_density
            path = FeaturePath(spec.d, {int(j): ((0.0, 1.0),) for j in np.flatnonzero(present)})
            assert path == o.path
            tau = sample_event_time(path, truth, rng)
            if o.kind == "interval":
                assert o.left < tau <= o.right
                assert o.right in scans
                assert o.left == 0.0 or o.left in scans
            else:
                assert o.right == spec.horizon
                assert tau > scans[-1]
            assert o.id == f"site-{site:06d}"

    def test_zero_baseline_featureless_sites_never_event(self):
        spec = default_scenario(0)
        _, obs = generate(spec)
        quiet = [o for o in obs if not o.path.entries]
        assert len(quiet) > 0
        assert all(o.kind == "right" and o.right == spec.horizon for o in quiet)

    def test_default_scenario_has_usable_event_mix(self):
        spec = default_scenario(0)
        _, obs = generate(spec)
        events = sum(1 for o in obs if o.kind == "interval")
        assert 100 < events < 900
        carriers = sum(1 for o in obs if o.path.entries)
        # density 0.08 over 40 features: most sites carry something
        assert carriers > 900
