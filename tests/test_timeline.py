"""Knot grids, step-function rows, feature paths, and exact integration."""

import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvhazard import (
    CensoredDesign,
    FeaturePath,
    HazardModel,
    KnotSet,
    Observation,
    build_knot_set,
)
from tvhazard.formats import _row_from_json, _row_json
from tvhazard.timeline import MERGE_TOL

from oracles import integrate_step, integrate_step_product, level_at, merge_times


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

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_horizon_that_is_not_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="must be finite and positive"):
            KnotSet((), horizon)

    @pytest.mark.parametrize(
        "times, horizon, match",
        [
            (("1.0",), 4.0, "knot must be a number, got '1.0'"),
            ((True,), 4.0, "knot must be a number, got True"),
            ((), "4", "horizon must be a number, got '4'"),
            ((), True, "horizon must be a number, got True"),
        ],
        ids=["knot-str", "knot-bool", "horizon-str", "horizon-bool"],
    )
    def test_strings_and_booleans_are_refused(self, times, horizon, match):
        # float() read "1.0" as 1.0 and True as 1.0
        with pytest.raises(ValueError, match=match):
            KnotSet(times, horizon)

    def test_interval_index_right_continuous(self):
        ks = KnotSet((1.0, 2.0), 5.0)
        # at a knot the index belongs to the interval on the right
        assert ks.interval_index(0.0) == 0
        assert ks.interval_index(1.0) == 1
        assert ks.interval_index(1.999) == 1
        assert ks.interval_index(2.0) == 2
        assert ks.interval_index(5.0) == 2

    @pytest.mark.parametrize("t", [-1e-9, 5.0 + 1e-9, math.nan])
    def test_interval_index_outside_window_raises(self, t):
        with pytest.raises(ValueError, match=r"outside observation window \[0, 5.0\]"):
            KnotSet((1.0, 2.0), 5.0).interval_index(t)


class TestStepFunction:
    """A coefficient path is a row of a model's ``W``: one value per knot interval."""

    def test_eval_matches_interval_values(self):
        ks = KnotSet((1.0, 3.0), 5.0)
        row = HazardModel(ks, [[0.5, 2.0, 0.25]]).W[0]
        assert row[ks.interval_index(0.0)] == 0.5
        assert row[ks.interval_index(1.0)] == 2.0  # right-continuous at the jump
        assert row[ks.interval_index(2.9999)] == 2.0
        assert row[ks.interval_index(3.0)] == 0.25

    def test_value_count_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            HazardModel(KnotSet((1.0,), 2.0), [[1.0]])

    def test_to_jumps_drops_flat_segments(self):
        # the model-file encoding of a row: its base level, then one exact
        # delta at each knot where the level changes
        ks = KnotSet((1.0, 2.0, 3.0), 4.0)
        row = json.loads(_row_json(ks.times, [0.7, 0.7, 1.1, 1.1]), parse_float=str)
        assert row["base"] == "0.7"
        assert [jm["t"] for jm in row["jumps"]] == ["2.0"]
        assert Fraction(row["jumps"][0]["delta"]) == Fraction(1.1) - Fraction(0.7)

    def test_from_jumps_rejects_off_knot_time(self):
        ks = KnotSet((1.0,), 2.0)
        row = {"base": Decimal("0.0"), "jumps": [{"t": Decimal("0.5"), "delta": Decimal("1.0")}]}
        with pytest.raises(ValueError, match="is not a knot"):
            _row_from_json(ks, row)


def exposures(path, knots):
    """The design's exposure of every coefficient row on every knot
    interval for one observation of ``path``, right-censored at the horizon."""
    design = CensoredDesign(knots, [Observation.right_censored(path, knots.horizon)])
    return design._u_colsum.reshape(design.shape)


class TestFeaturePath:
    def test_value_is_zero_before_first_change(self):
        p = FeaturePath(3, {1: ((2.0, 5.0),)})
        U = exposures(p, KnotSet((1.0, 2.0), 4.0))
        assert U[2].tolist() == [0.0, 0.0, 10.0]
        assert not U[1].any() and not U[3].any()

    def test_latest_change_wins(self):
        p = FeaturePath(1, {0: ((1.0, 1.0), (4.0, 0.25), (6.0, 0.0))})
        U = exposures(p, KnotSet((1.0, 4.0, 6.0), 8.0))
        assert U[1].tolist() == [0.0, 3.0, 0.5, 0.0]

    def test_out_of_range_feature_raises(self):
        with pytest.raises(ValueError, match="outside"):
            FeaturePath(2, {2: ((0.0, 1.0),)})
        with pytest.raises(ValueError, match="outside"):
            FeaturePath(2, {-1: ((0.0, 1.0),)})
        with pytest.raises(ValueError, match="d must be nonnegative"):
            FeaturePath(-1, {})

    @pytest.mark.parametrize(
        "d, entries, match",
        [
            (2.5, {}, "d must be an integer, got 2.5"),
            (True, {}, "d must be an integer, got True"),
            (3, {1.7: ((0.0, 1.0),)}, "feature index must be an integer, got 1.7"),
            (3, {True: ((0.0, 1.0),)}, "feature index must be an integer, got True"),
        ],
        ids=["d-float", "d-bool", "index-float", "index-bool"],
    )
    def test_non_integers_are_refused_not_truncated(self, d, entries, match):
        # int() read d=2.5 as 2, feature 1.7 as 1 and True as 1
        with pytest.raises(ValueError, match=match):
            FeaturePath(d, entries)

    def test_numpy_integers_become_ints(self):
        p = FeaturePath(np.int64(3), {np.uint8(1): ((0.0, 1.0),)})
        assert type(p.d) is int and p.d == 3
        assert [type(j) for j in p.entries] == [int] and list(p.entries) == [1]

    @pytest.mark.parametrize(
        "changes, match",
        [
            (((math.inf, 1.0),), "non-finite change"),
            (((math.nan, 1.0),), "non-finite change"),
            (((1.0, math.nan),), "non-finite change"),
            (((-0.5, 1.0),), "is negative"),
            (((1.0, 1.0), (1.0, 2.0)), "not strictly increasing"),
            (((2.0, 1.0), (1.0, 2.0)), "not strictly increasing"),
        ],
        ids=["time-inf", "time-nan", "value-nan", "negative", "repeated", "decreasing"],
    )
    def test_rejects_bad_changes(self, changes, match):
        with pytest.raises(ValueError, match=match):
            FeaturePath(1, {0: changes})

    @pytest.mark.parametrize(
        "changes, match",
        [
            ((("0", 1.0),), "change time must be a number, got '0'"),
            (((False, 1.0),), "change time must be a number, got False"),
            (((0.0, "1"),), "change value must be a number, got '1'"),
            (((0.0, True),), "change value must be a number, got True"),
            (((0.0, 10**400),), "change value 1000.* is too large for a float"),
        ],
        ids=["time-str", "time-bool", "value-str", "value-bool", "value-huge"],
    )
    def test_strings_and_booleans_are_refused(self, changes, match):
        # float() read "0" as 0.0 and True as 1.0
        with pytest.raises(ValueError, match=match):
            FeaturePath(1, {0: changes})

    def test_reals_become_floats(self):
        p = FeaturePath(1, {0: ((np.int64(0), np.float32(0.5)), (1, 2))})
        assert p == FeaturePath(1, {0: ((0.0, 0.5), (1.0, 2.0))})
        assert all(type(x) is float for change in p.entries[0] for x in change)

    def test_change_times_collects_all_features(self):
        p = FeaturePath(4, {0: ((1.0, 1.0),), 3: ((0.5, 2.0), (1.0, 0.0))})
        assert p.change_times() == (0.5, 1.0)


class TestObservation:
    def test_interval_requires_ordered_bracket(self):
        p = FeaturePath(1, {})
        with pytest.raises(ValueError):
            Observation.interval(p, 2.0, 2.0)
        with pytest.raises(ValueError):
            Observation.interval(p, -1.0, 2.0)
        o = Observation.interval(p, 0.0, 2.0)
        assert (o.left, o.right, o.kind) == (0.0, 2.0, "interval")

    @pytest.mark.parametrize(
        "kind, left, right, match",
        [
            ("left", 0.0, 1.0, "unknown censoring kind 'left'"),
            ("interval", 0.0, math.inf, "censoring times must be finite"),
            ("interval", math.nan, 1.0, "censoring times must be finite"),
            ("right", math.inf, math.inf, "censoring times must be finite"),
        ],
        ids=["kind", "interval-inf", "interval-nan", "right-inf"],
    )
    def test_rejects_unknown_kind_and_non_finite_times(self, kind, left, right, match):
        with pytest.raises(ValueError, match=match):
            Observation(FeaturePath(1, {}), kind, left, right)

    @pytest.mark.parametrize(
        "left, right, match",
        [
            ("1.5", 2.0, "left must be a number, got '1.5'"),
            (1.5, "2", "right must be a number, got '2'"),
            (False, 2.0, "left must be a number, got False"),
            (0.0, True, "right must be a number, got True"),
        ],
        ids=["left-str", "right-str", "left-bool", "right-bool"],
    )
    def test_strings_and_booleans_are_refused(self, left, right, match):
        # float() read "1.5" as 1.5 and True as 1.0
        with pytest.raises(ValueError, match=match):
            Observation.interval(FeaturePath(1, {}), left, right)

    @pytest.mark.parametrize("at", ["2", True])
    def test_a_right_censoring_time_that_is_a_string_or_boolean_is_refused(self, at):
        with pytest.raises(ValueError, match=f"right must be a number, got {at!r}"):
            Observation.right_censored(FeaturePath(1, {}), at)

    def test_right_censoring_needs_positive_time(self):
        p = FeaturePath(1, {})
        with pytest.raises(ValueError):
            Observation.right_censored(p, 0.0)
        o = Observation.right_censored(p, 3.5)
        assert o.kind == "right"
        assert o.right == 3.5


def near_end_times(horizon):
    """Times in ``[0, horizon]``, most of them within a few ``MERGE_TOL`` of an end."""
    offsets = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    return st.one_of(
        st.floats(0.0, horizon),
        offsets.map(lambda k: k * MERGE_TOL),
        offsets.map(lambda k: horizon - k * MERGE_TOL),
    )


@st.composite
def observation_sets(draw):
    horizon = draw(st.sampled_from([1.0, 4.0, 9.0]))
    times = near_end_times(horizon)
    obs = []
    for _ in range(draw(st.integers(1, 6))):
        changes = sorted(set(draw(st.lists(times, max_size=3))))
        p = FeaturePath(1, {0: tuple((t, 1.0) for t in changes)})
        a, b = sorted((draw(times), draw(times)))
        if a < b and draw(st.booleans()):
            obs.append(Observation.interval(p, a, b))
        elif b > 0:
            obs.append(Observation.right_censored(p, b))
    return obs, horizon


class TestBuildKnotSet:
    def test_single_right_censoring(self):
        p = FeaturePath(1, {})
        ks = build_knot_set([Observation.right_censored(p, 5.0)])
        assert ks.times == ()  # 5.0 is the horizon, not an interior knot
        assert ks.horizon == 5.0

    def test_union_of_brackets_and_changes(self):
        p = FeaturePath(1, {0: ((1.5, 1.0),)})
        obs = [
            Observation.interval(p, 1.0, 2.0),
            Observation.right_censored(p, 3.0),
        ]
        ks = build_knot_set(obs)
        assert ks.times == (1.0, 1.5, 2.0)

    def test_boundary_coincident_knots_dropped(self):
        # censoring boundaries and change times at either end of the window
        # would only add intervals of zero width
        p = FeaturePath(1, {0: ((0.0, 1.0), (2.0, 0.5))})
        obs = [Observation.interval(p, 0.0, 1.0), Observation.right_censored(p, 2.0)]
        ks = build_knot_set(obs, horizon=2.0)
        assert ks.times == (1.0,)
        assert tuple(ks.boundaries()) == (0.0, 1.0, 2.0)

    def test_rejects_no_observations_and_a_boundary_past_the_horizon(self):
        with pytest.raises(ValueError, match="empty dataset"):
            build_knot_set([])
        obs = [Observation.right_censored(FeaturePath(1, {}), 5.0)]
        with pytest.raises(ValueError, match="censoring boundary 5.0 beyond horizon 4.0"):
            build_knot_set(obs, horizon=4.0)

    def test_changes_beyond_horizon_dropped(self):
        p = FeaturePath(1, {0: ((1.0, 1.0), (9.0, 0.0))})
        obs = [Observation.right_censored(p, 4.0)]
        ks = build_knot_set(obs, horizon=4.0)
        assert ks.times == (1.0,)

    def test_near_duplicates_merge(self):
        p = FeaturePath(1, {0: ((2.0 + 1e-12, 1.0),)})
        obs = [Observation.interval(p, 1.0, 2.0), Observation.right_censored(p, 3.0)]
        ks = build_knot_set(obs)
        assert ks.times == (1.0, 2.0)

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(observation_sets(), st.booleans())
    def test_every_interval_wider_than_merge_tol(self, drawn, explicit_horizon):
        obs, horizon = drawn
        assume(obs)
        ks = build_knot_set(obs, horizon=horizon if explicit_horizon else None)
        B = ks.boundaries()
        # a window no wider than MERGE_TOL (horizon = a tiny right-censoring
        # time) is one interval; otherwise no interval is that narrow
        assert np.all(np.diff(B) > MERGE_TOL) or (ks.times == () and ks.horizon <= MERGE_TOL)
        # nothing is lost: every candidate time merged into a boundary
        for o in obs:
            for t in (o.left, o.right, *o.path.change_times()):
                if t <= ks.horizon:
                    assert np.abs(B - t).min() <= MERGE_TOL


class TestMergeTimes:
    # the knot set merges the censoring boundaries and change times
    def test_sorts_and_dedupes(self):
        p = FeaturePath(1, {})
        obs = [Observation.interval(p, l, r) for l, r in ((3.0, 4.0), (1.0, 2.0), (1.0, 3.0))]
        assert build_knot_set(obs, horizon=5.0).times == (1.0, 2.0, 3.0, 4.0)

    def test_tolerance_keeps_first_representative(self):
        p = FeaturePath(1, {})
        obs = [Observation.interval(p, 1.0 + 5e-10, 2.0), Observation.interval(p, 1.0, 3.0)]
        assert build_knot_set(obs, horizon=5.0).times == (1.0, 2.0, 3.0)


class TestIntegration:
    def test_integrate_step_exact_small_case(self):
        ks = KnotSet((1.0, 2.0), 4.0)
        f = (1.0, 3.0, 0.5)
        assert integrate_step(ks, f, 0.0, 4.0) == 1.0 + 3.0 + 0.5 * 2
        assert integrate_step(ks, f, 0.5, 1.5) == 0.5 * 1.0 + 0.5 * 3.0
        assert integrate_step(ks, f, 2.0, 2.0) == 0.0

    def test_integrate_step_matches_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            ks = random_knots(rng)
            f = rng.uniform(0, 4, size=ks.n_intervals).tolist()
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            ref, err = scipy.integrate.quad(
                lambda t: f[ks.interval_index(t)], a, b,
                points=[t for t in ks.times if a < t < b], limit=200,
            )
            assert integrate_step(ks, f, a, b) == pytest.approx(ref, abs=max(1e-9, 10 * err))

    def test_integrate_step_product_matches_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ks = random_knots(rng)
            f = rng.uniform(0, 4, size=ks.n_intervals).tolist()
            k = rng.integers(0, 5)
            ts = merge_times(np.sort(rng.uniform(0, ks.horizon, size=k)).tolist(), tol=1e-6)
            vals = rng.uniform(0, 2, size=len(ts))
            p = FeaturePath(1, {0: tuple(zip(ts, vals))} if len(ts) else {})
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            pts = [t for t in list(ks.times) + list(ts) if a < t < b]
            ref, err = scipy.integrate.quad(
                lambda t: f[ks.interval_index(t)] * level_at(p, 0, t), a, b,
                points=sorted(pts), limit=200,
            )
            got = integrate_step_product(ks, f, p, 0, a, b)
            assert got == pytest.approx(ref, abs=max(1e-9, 10 * err))

    def test_bounds_validated(self):
        ks = KnotSet((1.0,), 2.0)
        with pytest.raises(ValueError):
            integrate_step(ks, (1.0, 2.0), 1.5, 0.5)
        with pytest.raises(ValueError):
            integrate_step(ks, (1.0, 2.0), 0.0, 3.0)
