"""Synthetic campaign generator: planted truths, exact sampling, censoring."""

import bisect
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tvhazard import (
    CampaignSpec,
    FeaturePath,
    HazardModel,
    KnotSet,
    Observation,
    default_scenario,
    generate,
    truth_model,
    write_model,
    write_observations,
)

from tvhazard.datagen import _site_uniforms

from oracles import cumulative_hazard, event_time, merge_times, site_uniforms_loop


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ValueError, match="seed"):
            tiny_spec(seed=seed)

    def test_real_fields_become_floats(self):
        spec = tiny_spec(horizon=4, baseline_level=np.float32(0.25), feature_density=np.int64(1))
        values = (spec.horizon, spec.baseline_level, spec.feature_density)
        assert [type(v) for v in values] == [float] * 3 and values == (4.0, 0.25, 1.0)

    @pytest.mark.parametrize("field", ["horizon", "baseline_level", "feature_density"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, "4.0", 10**400, True],
        ids=["nan", "inf", "str", "huge int", "bool"],
    )
    def test_non_finite_or_non_real_fields_name_themselves(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_spec(**{field: value})

    def test_integer_seed_becomes_an_int(self):
        seed = tiny_spec(seed=np.uint64(2**63)).seed
        assert type(seed) is int and seed == 2**63

    def test_numpy_integers_become_ints(self):
        spec = tiny_spec(d=np.int32(3), n=np.int64(10), active=((np.uint8(2), ((1.0, 0.5),)),))
        assert (type(spec.d), type(spec.n), type(spec.active[0][0])) == (int, int, int)
        assert spec == tiny_spec(active=((2, ((1.0, 0.5),)),))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"d": True}, "d must be an integer, got True"),
            ({"n": True}, "n must be an integer, got True"),
            ({"active": ((2.5, ((1.0, 0.5),)),)}, "planted feature index must be an integer"),
            ({"active": ((True, ((1.0, 0.5),)),)}, "planted feature index must be an integer"),
        ],
        ids=["d-bool", "n-bool", "index-2.5", "index-bool"],
    )
    def test_booleans_and_fractions_are_not_integers(self, overrides, match):
        # operator.index took True as 1; int() planted index 2.5 as feature 2
        with pytest.raises(ValueError, match=match):
            tiny_spec(**overrides)

    @pytest.mark.parametrize("level", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_planted_level_names_its_feature(self, level):
        # NaN passed every comparison and failed later, in truth_model
        with pytest.raises(ValueError, match=f"planted level {level} for feature 2 is not finite"):
            tiny_spec(active=((0, ((1.0, 0.5),)), (2, ((0.5, 0.3), (2.0, level)))))

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

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"scan_times": ("1", "2")}, "scan time must be a number, got '1'"),
            ({"scan_times": (1.0, True)}, "scan time must be a number, got True"),
            ({"active": ((0, (("1", 0.5),)),)}, "change time must be a number, got '1'"),
            ({"active": ((0, ((True, 0.5),)),)}, "change time must be a number, got True"),
            ({"active": ((0, ((1.0, "0.5"),)),)}, "planted level must be a number, got '0.5'"),
            ({"active": ((0, ((1.0, True),)),)}, "planted level must be a number, got True"),
            ({"monotone_truth": "no"}, "monotone_truth must be a bool, got 'no'"),
            ({"monotone_truth": 1}, "monotone_truth must be a bool, got 1"),
        ],
        ids=["scan-str", "scan-bool", "time-str", "time-bool", "level-str", "level-bool",
             "monotone-str", "monotone-int"],
    )
    def test_strings_and_booleans_are_not_times_or_levels(self, overrides, match):
        # float() read "1" as 1.0 and True as 1.0, and "no" counted as true
        with pytest.raises(ValueError, match=match):
            tiny_spec(**overrides)

    def test_times_and_levels_become_floats(self):
        spec = tiny_spec(active=((0, ((1, np.float32(0.5)),)),), scan_times=(np.int64(1), 2, 3.0))
        assert spec == tiny_spec(active=((0, ((1.0, 0.5),)),))
        assert all(type(x) is float for x in (*spec.active[0][1][0], *spec.scan_times))

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
        assert truth.W[1].tolist() == [0.5, 0.9]

    def test_levels_step_at_the_right_places(self):
        truth = truth_model(tiny_spec())
        at = truth.knots.interval_index
        f0, f2 = truth.W[1], truth.W[3]
        assert f0[at(0.9)] == 0.0 and f0[at(1.0)] == 0.5 and f0[at(3.9)] == 0.5
        assert f2[at(0.4)] == 0.0 and f2[at(0.5)] == 0.3 and f2[at(2.0)] == 0.9
        assert not truth.W[2].any()
        assert np.all(truth.W[0] == 0.2)

    def test_all_zero_feature_dropped(self, tmp_path):
        # an all-zero planted row stays zero and the truth file omits it
        spec = tiny_spec(active=((1, ((1.0, 0.0),)),))
        truth = truth_model(spec)
        assert not truth.W[1:].any()
        assert truth.d == 3
        write_model(tmp_path / "truth.json", truth)
        assert '"rows": [\n ]' in (tmp_path / "truth.json").read_text()

    def test_default_scenario_shape(self):
        spec = default_scenario(0)
        assert spec.d == 40 and spec.n == 1000 and len(spec.active) == 4
        truth = truth_model(spec)
        assert tuple(truth.knots.times) == (1.2, 1.4, 2.3, 4.1, 4.2, 5.2)
        assert np.flatnonzero(truth.W[1:].any(axis=1)).tolist() == [3, 11, 19, 27]
        assert truth.W[20, truth.knots.interval_index(5.0)] == 0.0  # campaign 19 ended


@st.composite
def sampler_cases(draw):
    """A truth with a nonzero baseline on at most 12 intervals and d <= 4,
    a path constant from t=0 with levels in (0, 3], and a uniform draw."""
    d = draw(st.integers(0, 4))
    horizon = draw(st.floats(0.5, 10.0))
    times = draw(st.lists(st.floats(0.01, horizon - 0.01), max_size=11))
    knots = KnotSet(merge_times(times), horizon)
    row = st.lists(st.floats(0.0, 2.0), min_size=knots.n_intervals, max_size=knots.n_intervals)
    baseline = draw(row.filter(any))
    W = np.zeros((d + 1, knots.n_intervals))
    W[0] = baseline
    for j in range(d):
        if draw(st.booleans()):
            W[j + 1] = draw(row)
    truth = HazardModel(knots, W)
    levels = st.floats(0.0, 3.0, exclude_min=True)
    path = FeaturePath(d, {j: ((0.0, draw(levels)),) for j in range(d) if draw(st.booleans())})
    return truth, path, draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


class TestSampler:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sampler_cases())
    def test_inverse_residual_tiny(self, case):
        # replay the uniform draw: Lambda(0, tau) == -log(u) when the event
        # falls in the window, and no event exactly when Lambda(0, H) < -log(u)
        truth, path, u = case
        tau = event_time(path, truth, u)
        target = -math.log(u)
        H = truth.knots.horizon
        assert math.isinf(tau) == (cumulative_hazard(truth, path, 0.0, H) < target)
        if math.isfinite(tau):
            assert 0.0 < tau <= H
            assert abs(cumulative_hazard(truth, path, 0.0, tau) - target) <= 1e-10

    def test_unit_uniform_draw_survives(self):
        truth = truth_model(tiny_spec())
        assert event_time(FeaturePath(3, {}), truth, 0.0) == math.inf

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
        times = np.array([event_time(path, truth, rng.random()) for _ in range(5000)])
        assert np.all(np.isfinite(times[times < 60.0]))
        stat = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / 0.7))
        assert stat.pvalue > 0.01

    def test_two_segment_mass_split(self):
        # hazard 0.3 before t=2, 1.1 after: event count before 2 is binomial
        ks = KnotSet((2.0,), horizon=50.0)
        truth = HazardModel(ks, [(0.3, 1.1)])
        rng = np.random.default_rng(62)
        path = FeaturePath(0, {})
        n = 4000
        taus = np.array([event_time(path, truth, rng.random()) for _ in range(n)])
        p = 1.0 - math.exp(-0.3 * 2.0)
        k = int((taus <= 2.0).sum())
        assert abs(k - n * p) < 4.0 * math.sqrt(n * p * (1 - p))


def check_against_replay(spec):
    """Replay each site's own ``default_rng`` stream one site at a time and
    check that ``generate`` returns the records the public constructors
    build from the replayed times, field types included."""
    truth, obs = generate(spec)
    assert len(obs) == spec.n
    scans = spec.scan_times
    draws = site_uniforms_loop(spec.seed, range(spec.n), spec.d + 1)
    for site, o in enumerate(obs):
        present = draws[site, : spec.d] < spec.feature_density
        path = FeaturePath(spec.d, {int(j): ((0.0, 1.0),) for j in np.flatnonzero(present)})
        tau = event_time(path, truth, draws[site, spec.d])
        uid = f"site-{site:06d}"
        k = bisect.bisect_left(scans, tau)
        if k < len(scans):
            left = scans[k - 1] if k else 0.0
            assert left < tau <= scans[k]
            want = Observation.interval(path, left, scans[k], id=uid)
        else:
            assert tau > (scans[-1] if scans else 0.0)
            want = Observation.right_censored(path, spec.horizon, id=uid)
        assert o == want
        assert type(o.path.d) is int and type(o.left) is float and type(o.right) is float
        for j, changes in o.path.entries.items():
            assert type(j) is int and type(changes) is tuple
            for change in changes:
                assert type(change) is tuple and [type(x) for x in change] == [float, float]


class TestGenerate:
    # sha256 of the observation and truth files of default_scenario(seed)
    # resized to n sites, keyed by (seed, n); the benchmark's stored
    # objectives rest on these bytes: n = 1000 is the campaign-sweep size,
    # n = 5000 the fleet-wide size
    DEFAULT_SCENARIO_FILES = {
        (0, 1000): ("fe7013875312d8ca82f0549c7aa0c6b4b37f78313e69a0ca5532f4022a80f27e",
                    "da3dca7173cb890ff173f8715f750418a5e3d2d98ff78ad3c18b96950ae4a976"),
        (1, 1000): ("115cb90a772678296875de9f35325e2e667476583ac51719890c26027124a1c3",
                    "da3dca7173cb890ff173f8715f750418a5e3d2d98ff78ad3c18b96950ae4a976"),
        (2, 1000): ("c51565d84637aea26ebe7ab8668236a6c1864add26da4b5ae76ae51dec74fe9b",
                    "da3dca7173cb890ff173f8715f750418a5e3d2d98ff78ad3c18b96950ae4a976"),
        (0, 5000): ("40a8288d3f38a30ecee52aaeeb33f8c860518ab340c5f93dcb8375e1551d2d20",
                    "da3dca7173cb890ff173f8715f750418a5e3d2d98ff78ad3c18b96950ae4a976"),
        (1000, 5000): ("8fe56d24f9210c55deebdb4f5fd5c267f95d1f7851275bab03ca455385d46782",
                       "da3dca7173cb890ff173f8715f750418a5e3d2d98ff78ad3c18b96950ae4a976"),
    }

    @pytest.mark.parametrize(
        "seed, n",
        [
            pytest.param(seed, n, id=f"{seed}" if n == 1000 else f"{seed}-n{n}")
            for seed, n in sorted(DEFAULT_SCENARIO_FILES)
        ],
    )
    def test_default_scenario_files_are_stable(self, seed, n, tmp_path):
        spec = replace(default_scenario(seed), n=n)
        truth, obs = generate(spec)
        write_observations(tmp_path / "obs.jsonl", obs, d=spec.d, horizon=spec.horizon)
        write_model(tmp_path / "truth.json", truth)
        digests = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("obs.jsonl", "truth.json")
        )
        assert digests == self.DEFAULT_SCENARIO_FILES[seed, n]

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
        check_against_replay(tiny_spec(n=200))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=50, d=0, active=()),
            dict(n=1),
            dict(n=50, feature_density=0.0),
            dict(n=50, feature_density=1.0, seed=2**64 + 3),
            dict(n=50, horizon=4, scan_times=(1, 2, 3)),
        ],
        ids=["d=0", "n=1", "density=0", "density=1", "int horizon"],
    )
    def test_edge_specs_match_the_replay(self, overrides):
        check_against_replay(tiny_spec(**overrides))

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


def site_uniforms(seed, sites, count):
    """``_site_uniforms``'s draws as a (len(sites), count) array."""
    draws = list(_site_uniforms(seed, np.asarray(sites), count))
    return np.array(draws, dtype=float).reshape(count, len(sites)).T


class TestSiteStreams:
    # every site's stream, computed in one array pass, must be bitwise the
    # doubles of its own default_rng(SeedSequence((seed, site)))
    @pytest.mark.parametrize("count", [1, 41])
    @pytest.mark.parametrize("seed", [0, 1, 97003, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
    def test_streams_match_one_generator_per_site(self, seed, count):
        # 2**100 takes five entropy words: more than SeedSequence's pool
        for sites in (range(300), range(2**32 - 300, 2**32)):
            got = site_uniforms(seed, sites, count)
            assert got.tobytes() == site_uniforms_loop(seed, sites, count).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**128 - 1),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
        st.integers(0, 50),
    )
    def test_streams_match_for_any_seed_and_sites(self, seed, sites, count):
        got = site_uniforms(seed, sites, count)
        assert got.tobytes() == site_uniforms_loop(seed, sites, count).tobytes()
