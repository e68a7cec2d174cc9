"""Knot grids, step functions, feature paths, and exact integration."""

import math

import numpy as np
import pytest
import scipy.integrate

from tvhazard import (
    FeaturePath,
    KnotSet,
    Observation,
    StepFunction,
    build_knot_set,
    eval_feature,
    eval_step,
    merge_times,
)

from oracles import integrate_step, integrate_step_product


def random_knots(rng, horizon=10.0, max_knots=6):
    k = rng.integers(0, max_knots + 1)
    times = np.sort(rng.uniform(0.05, horizon - 0.05, size=k))
    # keep spacing above the merge tolerance
    times = merge_times(times.tolist(), tol=1e-6)
    return KnotSet(tuple(times), horizon)


class TestKnotSet:
    def test_boundaries_and_counts(self):
        ks = KnotSet((1.0, 2.5), 4.0)
        assert tuple(ks.boundaries()) == (0.0, 1.0, 2.5, 4.0)
        assert ks.n_intervals == 3
        assert KnotSet((), 4.0).n_intervals == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            KnotSet((2.0, 1.0), 4.0)

    def test_rejects_duplicates_within_tolerance(self):
        with pytest.raises(ValueError):
            KnotSet((1.0, 1.0 + 1e-12), 4.0)

    def test_rejects_times_outside_window(self):
        with pytest.raises(ValueError):
            KnotSet((5.0,), 4.0)
        with pytest.raises(ValueError):
            KnotSet((-1.0,), 4.0)

    def test_interval_index_right_continuous(self):
        ks = KnotSet((1.0, 2.0), 5.0)
        # at a knot the index belongs to the interval on the right
        assert ks.interval_index(0.0) == 0
        assert ks.interval_index(1.0) == 1
        assert ks.interval_index(1.999) == 1
        assert ks.interval_index(2.0) == 2
        assert ks.interval_index(5.0) == 2


class TestStepFunction:
    def test_eval_matches_interval_values(self):
        ks = KnotSet((1.0, 3.0), 5.0)
        f = StepFunction(ks, (0.5, 2.0, 0.25))
        assert f(0.0) == 0.5
        assert f(1.0) == 2.0  # right-continuous at the jump
        assert f(2.9999) == 2.0
        assert f(3.0) == 0.25

    def test_value_count_must_match(self):
        with pytest.raises(ValueError):
            StepFunction(KnotSet((1.0,), 2.0), (1.0,))

    def test_jump_round_trip_is_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ks = random_knots(rng)
            values = rng.normal(size=ks.n_intervals)
            # inject exact plateaus so some deltas vanish
            if ks.n_intervals >= 3 and rng.random() < 0.5:
                values[1] = values[0]
            f = StepFunction(ks, tuple(values))
            base, jumps = f.to_jumps()
            g = StepFunction.from_jumps(ks, base, jumps)
            assert g.values == f.values  # exact equality, not approx

    def test_to_jumps_drops_flat_segments(self):
        from fractions import Fraction

        ks = KnotSet((1.0, 2.0, 3.0), 4.0)
        f = StepFunction(ks, (0.7, 0.7, 1.1, 1.1))
        base, jumps = f.to_jumps()
        assert base == 0.7
        assert jumps == ((2.0, Fraction(1.1) - Fraction(0.7)),)

    def test_from_jumps_rejects_off_knot_time(self):
        ks = KnotSet((1.0,), 2.0)
        with pytest.raises(ValueError):
            StepFunction.from_jumps(ks, 0.0, ((0.5, 1.0),))


class TestFeaturePath:
    def test_value_is_zero_before_first_change(self):
        p = FeaturePath(3, {1: ((2.0, 5.0),)})
        assert eval_feature(p, 1, 0.0) == 0.0
        assert eval_feature(p, 1, 1.999) == 0.0
        assert eval_feature(p, 1, 2.0) == 5.0
        assert eval_feature(p, 0, 100.0) == 0.0

    def test_latest_change_wins(self):
        p = FeaturePath(1, {0: ((1.0, 1.0), (4.0, 0.25), (6.0, 0.0))})
        assert eval_feature(p, 0, 3.0) == 1.0
        assert eval_feature(p, 0, 4.0) == 0.25
        assert eval_feature(p, 0, 7.0) == 0.0

    def test_out_of_range_feature_raises(self):
        p = FeaturePath(2, {})
        with pytest.raises(IndexError):
            eval_feature(p, 2, 0.0)
        with pytest.raises(IndexError):
            eval_feature(p, -1, 0.0)

    def test_change_times_collects_all_features(self):
        p = FeaturePath(4, {0: ((1.0, 1.0),), 3: ((0.5, 2.0), (1.0, 0.0))})
        assert p.change_times() == (0.5, 1.0)

    def test_binary_search_agrees_with_linear_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.integers(1, 8)
            ts = np.sort(rng.uniform(0, 10, size=k))
            ts = merge_times(ts.tolist(), tol=1e-6)
            vs = rng.uniform(0, 3, size=len(ts))
            p = FeaturePath(1, {0: tuple(zip(ts, vs))})
            for t in rng.uniform(0, 12, size=20):
                expect = 0.0
                for ct, cv in zip(ts, vs):
                    if ct <= t:
                        expect = cv
                assert eval_feature(p, 0, t) == expect


class TestObservation:
    def test_interval_requires_ordered_bracket(self):
        p = FeaturePath(1, {})
        with pytest.raises(ValueError):
            Observation.interval(p, 2.0, 2.0)
        with pytest.raises(ValueError):
            Observation.interval(p, -1.0, 2.0)
        o = Observation.interval(p, 0.0, 2.0)
        assert (o.left, o.right, o.kind) == (0.0, 2.0, "interval")

    def test_right_censoring_needs_positive_time(self):
        p = FeaturePath(1, {})
        with pytest.raises(ValueError):
            Observation.right_censored(p, 0.0)
        o = Observation.right_censored(p, 3.5)
        assert o.kind == "right"
        assert o.right == 3.5


class TestBuildKnotSet:
    def test_single_right_censoring(self):
        p = FeaturePath(1, {})
        ks = build_knot_set([Observation.right_censored(p, 5.0)])
        assert ks.times == (5.0,)
        assert ks.horizon == 5.0

    def test_union_of_brackets_and_changes(self):
        p = FeaturePath(1, {0: ((1.5, 1.0),)})
        obs = [
            Observation.interval(p, 1.0, 2.0),
            Observation.right_censored(p, 3.0),
        ]
        ks = build_knot_set(obs)
        assert ks.times == (1.0, 1.5, 2.0, 3.0)

    def test_boundary_coincident_knots_kept(self):
        # the union is literal: censoring boundaries and change times stay
        # even when they coincide with the origin or horizon
        p = FeaturePath(1, {0: ((0.0, 1.0),)})
        obs = [Observation.interval(p, 0.0, 2.0)]
        ks = build_knot_set(obs, horizon=2.0)
        assert ks.times == (0.0, 2.0)
        assert tuple(ks.boundaries()) == (0.0, 0.0, 2.0, 2.0)

    def test_changes_beyond_horizon_dropped(self):
        p = FeaturePath(1, {0: ((1.0, 1.0), (9.0, 0.0))})
        obs = [Observation.right_censored(p, 4.0)]
        ks = build_knot_set(obs, horizon=4.0)
        assert ks.times == (1.0, 4.0)

    def test_near_duplicates_merge(self):
        p = FeaturePath(1, {0: ((2.0 + 1e-12, 1.0),)})
        obs = [Observation.interval(p, 1.0, 2.0), Observation.right_censored(p, 3.0)]
        ks = build_knot_set(obs)
        assert ks.times == (1.0, 2.0, 3.0)

    def test_knot_count_scales_with_distinct_times(self):
        rng = np.random.default_rng(3)
        p = FeaturePath(1, {})
        obs = []
        raw = []
        for _ in range(40):
            l, r = np.sort(rng.uniform(0.1, 9.9, size=2))
            obs.append(Observation.interval(p, l, r))
            raw += [l, r]
        ks = build_knot_set(obs, horizon=10.0)
        assert ks.times == tuple(merge_times(raw))


class TestMergeTimes:
    def test_sorts_and_dedupes(self):
        assert merge_times([3.0, 1.0, 1.0, 2.0]) == (1.0, 2.0, 3.0)

    def test_tolerance_keeps_first_representative(self):
        out = merge_times([1.0, 1.0 + 5e-10, 2.0])
        assert out == (1.0, 2.0)


class TestIntegration:
    def test_integrate_step_exact_small_case(self):
        ks = KnotSet((1.0, 2.0), 4.0)
        f = StepFunction(ks, (1.0, 3.0, 0.5))
        assert integrate_step(f, 0.0, 4.0) == 1.0 + 3.0 + 0.5 * 2
        assert integrate_step(f, 0.5, 1.5) == 0.5 * 1.0 + 0.5 * 3.0
        assert integrate_step(f, 2.0, 2.0) == 0.0

    def test_integrate_step_matches_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            ks = random_knots(rng)
            f = StepFunction(ks, tuple(rng.uniform(0, 4, size=ks.n_intervals)))
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            ref, err = scipy.integrate.quad(
                lambda t: eval_step(f, t), a, b,
                points=[t for t in ks.times if a < t < b], limit=200,
            )
            assert integrate_step(f, a, b) == pytest.approx(ref, abs=max(1e-9, 10 * err))

    def test_integrate_step_product_matches_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ks = random_knots(rng)
            f = StepFunction(ks, tuple(rng.uniform(0, 4, size=ks.n_intervals)))
            k = rng.integers(0, 5)
            ts = merge_times(np.sort(rng.uniform(0, ks.horizon, size=k)).tolist(), tol=1e-6)
            vals = rng.uniform(0, 2, size=len(ts))
            p = FeaturePath(1, {0: tuple(zip(ts, vals))} if len(ts) else {})
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            pts = [t for t in list(ks.times) + list(ts) if a < t < b]
            ref, err = scipy.integrate.quad(
                lambda t: eval_step(f, t) * eval_feature(p, 0, t), a, b,
                points=sorted(pts), limit=200,
            )
            got = integrate_step_product(f, p, 0, a, b)
            assert got == pytest.approx(ref, abs=max(1e-9, 10 * err))

    def test_bounds_validated(self):
        f = StepFunction(KnotSet((1.0,), 2.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            integrate_step(f, 1.5, 0.5)
        with pytest.raises(ValueError):
            integrate_step(f, 0.0, 3.0)
