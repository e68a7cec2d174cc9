"""Knot grids, step-function rows, records and their feature paths, and exact integration."""

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
    HazardModel,
    KnotSet,
    Observation,
    build_knot_set,
)
from tvhazard.formats import _row_from_json, _row_json
from tvhazard.timeline import MERGE_TOL, _real

from oracles import (
    change_times,
    integrate_step,
    integrate_step_product,
    knot_set_per_path,
    level_at,
    merge_times,
)


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

    def test_decimals_become_floats(self):
        # a model file's number tokens are parsed as Decimals
        assert _real(Decimal("2.5"), "knot") == 2.5 and type(_real(Decimal("2.5"), "knot")) is float
        ks = KnotSet((Decimal("0.1"),), Decimal("2"))
        assert ks.times == (0.1,) and type(ks.horizon) is float and ks.horizon == 2.0

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


def exposures(d, entries, knots):
    """The design's exposure of every coefficient row on every knot
    interval for one record of path ``entries``, right-censored at the horizon."""
    design = CensoredDesign(knots, [Observation.right_censored(d, entries, knots.horizon)])
    return design._u_colsum.reshape(design.shape)


def site(d, entries):
    """A right-censored record of path ``entries``: the path rule's subject."""
    return Observation.right_censored(d, entries, 1.0)


class TestObservationPath:
    def test_value_is_zero_before_first_change(self):
        U = exposures(3, {1: ((2.0, 5.0),)}, KnotSet((1.0, 2.0), 4.0))
        assert U[2].tolist() == [0.0, 0.0, 10.0]
        assert not U[1].any() and not U[3].any()

    def test_latest_change_wins(self):
        U = exposures(1, {0: ((1.0, 1.0), (4.0, 0.25), (6.0, 0.0))}, KnotSet((1.0, 4.0, 6.0), 8.0))
        assert U[1].tolist() == [0.0, 3.0, 0.5, 0.0]

    def test_out_of_range_feature_raises(self):
        with pytest.raises(ValueError, match="outside"):
            site(2, {2: ((0.0, 1.0),)})
        with pytest.raises(ValueError, match="outside"):
            site(2, {-1: ((0.0, 1.0),)})
        with pytest.raises(ValueError, match="d must be nonnegative"):
            site(-1, {})

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
            site(d, entries)

    def test_numpy_integers_become_ints(self):
        o = site(np.int64(3), {np.uint8(1): ((0.0, 1.0),)})
        assert type(o.d) is int and o.d == 3
        assert [type(j) for j in o.entries] == [int] and list(o.entries) == [1]

    @pytest.mark.parametrize(
        "changes, match",
        [
            (((math.inf, 1.0),), "non-finite change"),
            (((math.nan, 1.0),), "non-finite change"),
            (((1.0, math.nan),), "non-finite change"),
            (((-0.5, 1.0),), "is negative"),
            (((1.0, 1.0), (1.0, 2.0)), "not strictly increasing"),
            (((2.0, 1.0), (1.0, 2.0)), "not strictly increasing"),
            # a negative value makes a head exposure negative: the NLL then
            # falls without bound as that feature's weight rises
            (((0.0, -1.0),), "change value -1.0 for feature 0 is negative"),
            (((0.0, 1.0), (2.0, -5e-324)), "change value -5e-324 for feature 0 is negative"),
        ],
        ids=["time-inf", "time-nan", "value-nan", "negative", "repeated", "decreasing",
             "value-negative", "value-negative-subnormal"],
    )
    def test_rejects_bad_changes(self, changes, match):
        with pytest.raises(ValueError, match=match):
            site(1, {0: changes})

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
            site(1, {0: changes})

    def test_reals_become_floats(self):
        o = site(1, {0: ((np.int64(0), np.float32(0.5)), (1, 2))})
        assert o == site(1, {0: ((0.0, 0.5), (1.0, 2.0))})
        assert all(type(x) is float for change in o.entries[0] for x in change)

    def test_change_times_collects_all_features(self):
        # the oracle the scalar likelihood and knot_set_per_path cut paths at
        o = site(4, {0: ((1.0, 1.0),), 3: ((0.5, 2.0), (1.0, 0.0))})
        assert change_times(o.entries) == (0.5, 1.0)

    def test_a_record_that_is_not_a_path_is_refused_when_built(self):
        # a path object of its own let Observation("not a path", "right",
        # 1.0, 1.0) through; only its first use, build_knot_set([o]), raised
        # AttributeError: 'str' object has no attribute 'd'
        with pytest.raises(ValueError, match="d must be an integer, got 'not a path'"):
            Observation("not a path", {}, "right", 1.0, 1.0)
        with pytest.raises(ValueError, match="d must be an integer, got 1.5"):
            Observation.interval(1.5, {}, 0.0, 1.0)

    def test_the_path_is_checked_before_the_censoring(self):
        with pytest.raises(ValueError, match="change value -1.0 for feature 0 is negative"):
            Observation.interval(1, {0: ((0.0, -1.0),)}, 2.0, 1.0)
        with pytest.raises(ValueError, match="interval censoring needs"):
            Observation.interval(1, {0: ((0.0, 1.0),)}, 2.0, 1.0)

    def test_entries_are_read_only_and_drop_empty_features(self):
        entries = {0: [(0.0, 1.0)], 2: []}
        o = site(3, entries)
        assert dict(o.entries) == {0: ((0.0, 1.0),)}
        with pytest.raises(TypeError):
            o.entries[1] = ((0.0, 2.0),)
        entries[1] = ((0.0, 2.0),)
        assert 1 not in o.entries


class TestObservation:
    def test_interval_requires_ordered_bracket(self):
        with pytest.raises(ValueError):
            Observation.interval(1, {}, 2.0, 2.0)
        with pytest.raises(ValueError):
            Observation.interval(1, {}, -1.0, 2.0)
        o = Observation.interval(1, {}, 0.0, 2.0)
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
            Observation(1, {}, kind, left, right)

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
            Observation.interval(1, {}, left, right)

    @pytest.mark.parametrize("at", ["2", True])
    def test_a_right_censoring_time_that_is_a_string_or_boolean_is_refused(self, at):
        with pytest.raises(ValueError, match=f"right must be a number, got {at!r}"):
            Observation.right_censored(1, {}, at)

    @pytest.mark.parametrize("uid", [5, None, b"site"])
    def test_id_must_be_a_string(self, uid):
        # the reader's str() turned id=5 into '5' and id=None into 'None',
        # so the record no longer equalled itself after a write and read
        with pytest.raises(ValueError, match=f"id must be a str, got {uid!r}"):
            Observation.right_censored(1, {}, 2.0, id=uid)

    def test_right_censoring_needs_positive_time(self):
        with pytest.raises(ValueError):
            Observation.right_censored(1, {}, 0.0)
        o = Observation.right_censored(1, {}, 3.5)
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
        entries = {0: tuple((t, 1.0) for t in changes)}
        a, b = sorted((draw(times), draw(times)))
        if a < b and draw(st.booleans()):
            obs.append(Observation.interval(1, entries, a, b))
        elif b > 0:
            obs.append(Observation.right_censored(1, entries, b))
    return obs, horizon


@st.composite
def shared_time_sets(draw):
    """Records whose paths have one to three features drawing change times
    from one small pool, so times repeat across features, records and
    boundaries; some lie near a window end, some past the horizon.  The
    first record's feature 0 always starts with a zero-valued change, a
    change time the knot set must keep although it changes no value."""
    horizon = draw(st.sampled_from([1.0, 4.0, 9.0]))
    pool = draw(st.lists(st.one_of(near_end_times(horizon), st.floats(horizon, 2 * horizon)),
                         min_size=1, max_size=8))
    times = st.sampled_from(pool)
    d = draw(st.integers(1, 3))
    obs = []
    for _ in range(draw(st.integers(1, 8))):
        entries = {j: [(t, draw(st.floats(0.0, 2.0))) for t in
                       sorted(set(draw(st.lists(times, min_size=int(not obs and j == 0),
                                                max_size=4))))]
                   for j in range(d)}
        if not obs:
            entries[0][0] = (entries[0][0][0], 0.0)
        a, b = sorted((draw(near_end_times(horizon)), draw(near_end_times(horizon))))
        if a < b and draw(st.booleans()):
            obs.append(Observation.interval(d, entries, a, b))
        elif b > 0:
            obs.append(Observation.right_censored(d, entries, b))
    return obs, horizon


class TestBuildKnotSet:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(shared_time_sets(), st.booleans())
    def test_matches_the_per_path_build(self, drawn, explicit_horizon):
        # one set of every boundary and change time gives the knot set that
        # each path's sorted change times gave, time for time
        obs, horizon = drawn
        assume(obs)
        horizon = horizon if explicit_horizon else None
        got, want = build_knot_set(obs, horizon=horizon), knot_set_per_path(obs, horizon)
        assert got == want
        assert [t.hex() for t in got.times] == [t.hex() for t in want.times]
        assert got.horizon.hex() == want.horizon.hex()

    def test_single_right_censoring(self):
        ks = build_knot_set([Observation.right_censored(1, {}, 5.0)])
        assert ks.times == ()  # 5.0 is the horizon, not an interior knot
        assert ks.horizon == 5.0

    def test_union_of_brackets_and_changes(self):
        entries = {0: ((1.5, 1.0),)}
        obs = [
            Observation.interval(1, entries, 1.0, 2.0),
            Observation.right_censored(1, entries, 3.0),
        ]
        ks = build_knot_set(obs)
        assert ks.times == (1.0, 1.5, 2.0)

    def test_boundary_coincident_knots_dropped(self):
        # censoring boundaries and change times at either end of the window
        # would only add intervals of zero width
        entries = {0: ((0.0, 1.0), (2.0, 0.5))}
        obs = [Observation.interval(1, entries, 0.0, 1.0), Observation.right_censored(1, entries, 2.0)]
        ks = build_knot_set(obs, horizon=2.0)
        assert ks.times == (1.0,)
        assert tuple(ks.boundaries()) == (0.0, 1.0, 2.0)

    def test_rejects_no_observations_and_a_boundary_past_the_horizon(self):
        with pytest.raises(ValueError, match="empty dataset"):
            build_knot_set([])
        obs = [Observation.right_censored(1, {}, 5.0)]
        with pytest.raises(ValueError, match="censoring boundary 5.0 beyond horizon 4.0"):
            build_knot_set(obs, horizon=4.0)

    def test_refuses_records_of_mixed_dimension(self):
        obs = [Observation.right_censored(1, {}, 2.0),
               Observation.right_censored(2, {}, 3.0)]
        with pytest.raises(ValueError, match="dimension mismatch: paths with d=1 and d=2"):
            build_knot_set(obs)

    @pytest.mark.parametrize("horizon", ["9", True])
    def test_a_horizon_that_is_not_a_number_is_refused(self, horizon):
        # "9" failed the boundary comparison with a TypeError
        obs = [Observation.right_censored(1, {}, 0.5)]
        with pytest.raises(ValueError, match=f"horizon must be a number, got {horizon!r}"):
            build_knot_set(obs, horizon=horizon)

    def test_changes_beyond_horizon_dropped(self):
        obs = [Observation.right_censored(1, {0: ((1.0, 1.0), (9.0, 0.0))}, 4.0)]
        ks = build_knot_set(obs, horizon=4.0)
        assert ks.times == (1.0,)

    def test_near_duplicates_merge(self):
        entries = {0: ((2.0 + 1e-12, 1.0),)}
        obs = [Observation.interval(1, entries, 1.0, 2.0), Observation.right_censored(1, entries, 3.0)]
        ks = build_knot_set(obs)
        assert ks.times == (1.0, 2.0)

    def test_knot_count_scales_with_distinct_times(self):
        rng = np.random.default_rng(3)
        obs = []
        raw = []
        for _ in range(40):
            l, r = np.sort(rng.uniform(0.1, 9.9, size=2))
            obs.append(Observation.interval(1, {}, l, r))
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
            for t in (o.left, o.right, *change_times(o.entries)):
                if t <= ks.horizon:
                    assert np.abs(B - t).min() <= MERGE_TOL


class TestMergeTimes:
    # the knot set merges the censoring boundaries and change times
    def test_sorts_and_dedupes(self):
        obs = [Observation.interval(1, {}, l, r) for l, r in ((3.0, 4.0), (1.0, 2.0), (1.0, 3.0))]
        assert build_knot_set(obs, horizon=5.0).times == (1.0, 2.0, 3.0, 4.0)

    def test_tolerance_keeps_first_representative(self):
        obs = [Observation.interval(1, {}, 1.0 + 5e-10, 2.0), Observation.interval(1, {}, 1.0, 3.0)]
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
            entries = {0: tuple(zip(ts, vals))} if len(ts) else {}
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            pts = [t for t in list(ks.times) + list(ts) if a < t < b]
            ref, err = scipy.integrate.quad(
                lambda t: f[ks.interval_index(t)] * level_at(entries, 0, t), a, b,
                points=sorted(pts), limit=200,
            )
            got = integrate_step_product(ks, f, entries, 0, a, b)
            assert got == pytest.approx(ref, abs=max(1e-9, 10 * err))

    def test_bounds_validated(self):
        ks = KnotSet((1.0,), 2.0)
        with pytest.raises(ValueError):
            integrate_step(ks, (1.0, 2.0), 1.5, 0.5)
        with pytest.raises(ValueError):
            integrate_step(ks, (1.0, 2.0), 0.0, 3.0)
