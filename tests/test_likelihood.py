"""Hazard evaluation, censored-data NLL, gradients, and the design cache."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvhazard import (
    CensoredDesign,
    FeaturePath,
    HazardModel,
    KnotSet,
    Observation,
    ProportionalModel,
    StepFunction,
    ZeroBracketWarning,
    build_knot_set,
    default_scenario,
    fit_proportional,
    generate,
    hazard,
    matrix_model,
    merge_times,
    model_matrix,
    nll_dataset,
    nll_gradient,
    proportional_nll,
)
from tvhazard.likelihood import _log1mexp_vec, _pooled_event_rate, _run_table

from oracles import (
    cumulative_hazard,
    dense_design,
    log1mexp,
    nll_observation,
    pooled_event_rate_loop,
    scalar_nll,
    survival,
)


def random_instance(rng, d=3, n_knots=4, horizon=8.0):
    """Random nonnegative model plus feature paths on a shared window."""
    times = np.sort(rng.uniform(0.3, horizon - 0.3, size=n_knots))
    ks = KnotSet(tuple(times), horizon)
    intercept = StepFunction(ks, tuple(rng.uniform(0.05, 0.6, size=ks.n_intervals)))
    coefficients = {
        int(j): StepFunction(ks, tuple(rng.uniform(0.0, 1.5, size=ks.n_intervals)))
        for j in rng.choice(d, size=rng.integers(1, d + 1), replace=False)
    }
    m = HazardModel(knots=ks, d=d, intercept=intercept, coefficients=coefficients)
    return m, ks


def random_path(rng, d, horizon):
    entries = {}
    for j in range(d):
        if rng.random() < 0.6:
            k = int(rng.integers(1, 3))
            ts = np.sort(rng.uniform(0.0, horizon, size=k))
            entries[j] = tuple((float(t), float(rng.uniform(0.0, 2.0))) for t in ts)
    return FeaturePath(d, entries)


def random_observations(rng, d, horizon, n=12):
    obs = []
    for _ in range(n):
        p = random_path(rng, d, horizon)
        if rng.random() < 0.5:
            l, r = np.sort(rng.uniform(0.1, horizon, size=2))
            if r - l < 1e-3:
                r = min(horizon, l + 0.5)
            obs.append(Observation.interval(p, float(l), float(r)))
        else:
            obs.append(Observation.right_censored(p, float(rng.uniform(0.5, horizon))))
    return obs


@st.composite
def design_inputs(draw, horizon=10.0, low=-3.0):
    """Knots and observations with feature paths that ``generate`` never makes:
    several runs per feature, zero and non-unit values (nonzero ones drawn
    from ``[low, 3]`` besides 1), a change at t=0 and changes past the
    horizon, features in any order; optionally no interval observation at
    all."""
    d = draw(st.integers(0, 3))
    change_times = st.one_of(st.just(0.0), st.floats(0.0, 1.5 * horizon))
    values = st.one_of(st.just(0.0), st.just(1.0), st.floats(low, 3.0))
    all_right = draw(st.integers(0, 3)) == 0
    obs = []
    for _ in range(draw(st.integers(1, 8))):
        entries = {}
        for j in draw(st.permutations(range(d))):
            times = sorted(draw(st.lists(change_times, max_size=4, unique=True)))
            entries[j] = [(t, draw(values)) for t in times]
        path = FeaturePath(d, entries)
        if all_right or draw(st.booleans()):
            obs.append(Observation.right_censored(path, draw(st.floats(0.01, horizon))))
        else:
            left = draw(st.one_of(st.just(0.0), st.floats(0.0, horizon - 0.5)))
            right = draw(st.floats(left, horizon).filter(lambda r: r > left))
            obs.append(Observation.interval(path, left, right))
    if draw(st.booleans()):
        return build_knot_set(obs), obs
    times = draw(st.lists(st.floats(0.0, horizon), max_size=6))
    return KnotSet(merge_times(times), horizon), obs


class TestHazardModel:
    def test_rejects_negative_values(self):
        ks = KnotSet((1.0,), 2.0)
        bad = StepFunction(ks, (-0.1, 0.2))
        with pytest.raises(ValueError):
            HazardModel(knots=ks, d=0, intercept=bad)

    def test_rejects_mismatched_knots(self):
        ks = KnotSet((1.0,), 2.0)
        other = KnotSet((0.5,), 2.0)
        with pytest.raises(ValueError):
            HazardModel(
                knots=ks,
                d=1,
                intercept=StepFunction(ks, (0.1, 0.1)),
                coefficients={0: StepFunction(other, (0.0, 0.0))},
            )

    def test_rejects_out_of_range_feature(self):
        ks = KnotSet((), 2.0)
        sf = StepFunction(ks, (0.1,))
        with pytest.raises(ValueError):
            HazardModel(knots=ks, d=1, intercept=sf, coefficients={1: sf})

    def test_hazard_is_additive_in_features(self):
        ks = KnotSet((1.0,), 3.0)
        m = HazardModel(
            knots=ks,
            d=2,
            intercept=StepFunction(ks, (0.2, 0.2)),
            coefficients={
                0: StepFunction(ks, (1.0, 2.0)),
                1: StepFunction(ks, (0.5, 0.0)),
            },
        )
        p = FeaturePath(2, {0: ((0.0, 1.0),), 1: ((0.5, 2.0),)})
        assert hazard(m, p, 0.25) == 0.2 + 1.0
        assert hazard(m, p, 0.75) == 0.2 + 1.0 + 2.0 * 0.5
        assert hazard(m, p, 2.0) == 0.2 + 2.0 + 0.0


class TestCumulativeHazard:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, ks = random_instance(rng)
            p = random_path(rng, m.d, ks.horizon)
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            pts = sorted(
                t for t in list(ks.times) + list(p.change_times()) if a < t < b
            )
            ref, err = scipy.integrate.quad(
                lambda t: hazard(m, p, t), a, b, points=pts, limit=300
            )
            assert cumulative_hazard(m, p, a, b) == pytest.approx(
                ref, abs=max(1e-9, 10 * err)
            )

    def test_additive_over_splits(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m, ks = random_instance(rng)
            p = random_path(rng, m.d, ks.horizon)
            a, c = np.sort(rng.uniform(0, ks.horizon, size=2))
            b = rng.uniform(a, c)
            whole = cumulative_hazard(m, p, a, c)
            split = cumulative_hazard(m, p, a, b) + cumulative_hazard(m, p, b, c)
            assert whole == pytest.approx(split, abs=1e-12)

    def test_survival_is_exp_of_minus_cumulative(self):
        rng = np.random.default_rng(7)
        m, ks = random_instance(rng)
        p = random_path(rng, m.d, ks.horizon)
        for t in (0.0, 1.7, ks.horizon):
            assert survival(m, p, t) == pytest.approx(
                math.exp(-cumulative_hazard(m, p, 0.0, t)), rel=1e-14
            )


class TestLog1mExp:
    def test_against_high_precision(self):
        # mpmath at 60 digits as the reference on both sides of the branch
        with mpmath.workdps(60):
            for x in [1e-15, 1e-9, 1e-4, 0.1, 0.5, math.log(2), 0.7, 1.0, 5.0, 40.0, 700.0]:
                ref = float(mpmath.log(1 - mpmath.e ** (-mpmath.mpf(x))))
                assert log1mexp(x) == pytest.approx(ref, rel=1e-14), x
                assert _log1mexp_vec(np.array([x]))[0] == pytest.approx(ref, rel=1e-14), x

    def test_zero_and_negative_give_minus_inf(self):
        assert log1mexp(0.0) == -math.inf
        assert log1mexp(-1.0) == -math.inf

    def test_monotone_in_x(self):
        xs = np.logspace(-12, 2, 200)
        vals = [log1mexp(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestNLLObservation:
    def test_right_censored_is_cumulative_hazard(self):
        ks = KnotSet((2.0,), 5.0)
        m = HazardModel(knots=ks, d=0, intercept=StepFunction(ks, (0.5, 1.0)))
        p = FeaturePath(0, {})
        o = Observation.right_censored(p, 3.0)
        assert nll_observation(m, o) == pytest.approx(0.5 * 2 + 1.0 * 1, rel=1e-15)

    def test_interval_closed_form(self):
        # hazard 0.5 on [0,2), 1.0 after; event inside (1, 3]
        ks = KnotSet((2.0,), 5.0)
        m = HazardModel(knots=ks, d=0, intercept=StepFunction(ks, (0.5, 1.0)))
        p = FeaturePath(0, {})
        o = Observation.interval(p, 1.0, 3.0)
        lam_pre = 0.5  # Lambda(0,1)
        lam_br = 0.5 + 1.0  # Lambda(1,3)
        want = lam_pre - math.log(1.0 - math.exp(-lam_br))
        assert nll_observation(m, o) == pytest.approx(want, rel=1e-14)

    def test_zero_mass_bracket_warns_and_is_inf(self):
        ks = KnotSet((1.0,), 4.0)
        m = HazardModel(knots=ks, d=0, intercept=StepFunction(ks, (0.5, 0.0)))
        p = FeaturePath(0, {})
        o = Observation.interval(p, 2.0, 3.0)  # hazard identically 0 there
        with pytest.warns(ZeroBracketWarning):
            assert nll_observation(m, o) == math.inf
        # the dataset NLL warns once per call, counting the zero brackets
        obs = [o, Observation.interval(p, 0.5, 3.0), o, Observation.interval(p, 1.5, 4.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert nll_dataset(m, obs) == math.inf
        assert [w.category for w in caught] == [ZeroBracketWarning]
        assert "3 event bracket" in str(caught[0].message)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_dataset_matches_scalar_oracle(self, data):
        # nonnegative paths and levels: every term of both routes is >= 0
        knots, obs = data.draw(design_inputs(low=1e-3))
        shape = (obs[0].path.d + 1, knots.n_intervals)
        level = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
        W = data.draw(st.lists(level, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        m = matrix_model(knots, np.reshape(W, shape))
        with warnings.catch_warnings(record=True) as oracle_caught:
            warnings.simplefilter("always")
            want = scalar_nll(m, obs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = nll_dataset(m, obs)
        if want == math.inf:
            assert got == math.inf
            assert [w.category for w in caught] == [ZeroBracketWarning]
            assert f"{len(oracle_caught)} event bracket" in str(caught[0].message)
        else:
            assert not caught
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dataset_is_plain_sum(self):
        rng = np.random.default_rng(8)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        total = sum(nll_observation(m, o) for o in obs)
        assert nll_dataset(m, obs) == pytest.approx(total, rel=1e-14)
        assert nll_dataset(m, []) == 0.0


class TestModelMatrix:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        m, ks = random_instance(rng)
        W = model_matrix(m)
        assert W.shape == (m.d + 1, ks.n_intervals)
        m2 = matrix_model(ks, W)
        assert model_matrix(m2).tolist() == W.tolist()

    def test_zero_rows_omitted(self):
        ks = KnotSet((1.0,), 2.0)
        W = np.array([[0.3, 0.3], [0.0, 0.0], [0.2, 0.0]])
        m = matrix_model(ks, W)
        assert set(m.coefficients) == {1}
        assert m.d == 2


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            m, ks = random_instance(rng, d=3, n_knots=3)
            obs = random_observations(rng, m.d, ks.horizon, n=8)
            W = model_matrix(m)
            G = nll_gradient(m, obs)
            assert G.shape == W.shape
            h0 = 1e-4
            for r in range(W.shape[0]):
                for c in range(W.shape[1]):
                    # Differentiate at w + 2*h0 so both stencils stay feasible.
                    Wb = W.copy()
                    Wb[r, c] += 2 * h0

                    def central(h):
                        Wp, Wm = Wb.copy(), Wb.copy()
                        Wp[r, c] += h
                        Wm[r, c] -= h
                        fp = scalar_nll(matrix_model(ks, Wp), obs)
                        fm = scalar_nll(matrix_model(ks, Wm), obs)
                        return (fp - fm) / (2 * h)

                    # Richardson extrapolation kills the O(h^2) term.
                    fd = (4 * central(h0 / 2) - central(h0)) / 3
                    gg = nll_gradient(matrix_model(ks, Wb), obs)[r, c]
                    scale = max(1.0, abs(gg))
                    assert abs(gg - fd) / scale < 1e-5, (r, c)

    def test_zero_bracket_gradient_raises(self):
        ks = KnotSet((1.0,), 4.0)
        m = HazardModel(knots=ks, d=0, intercept=StepFunction(ks, (0.5, 0.0)))
        p = FeaturePath(0, {})
        o = Observation.interval(p, 2.0, 3.0)
        with pytest.raises(ValueError, match="floor"):
            nll_gradient(m, [o])

    def test_dimension_mismatch_rejected(self):
        ks = KnotSet((), 4.0)
        m = HazardModel(knots=ks, d=1, intercept=StepFunction(ks, (0.5,)))
        o = Observation.right_censored(FeaturePath(2, {1: ((0.0, 1.0),)}), 2.0)
        with pytest.raises(ValueError):
            nll_gradient(m, [o])
        # the messages name both dimensions (a bare size mismatch in numpy
        # or scipy would raise ValueError too)
        with pytest.raises(ValueError, match="model d=1"):
            nll_dataset(m, [o])
        mixed = [o, Observation.interval(FeaturePath(1, {0: ((0.0, 1.0),)}), 1.0, 2.0)]
        with pytest.raises(ValueError, match="paths with d=2 and d=1"):
            fit_proportional(mixed)
        with pytest.raises(ValueError, match="model d=1"):
            proportional_nll(ProportionalModel(base_rate=0.5, weights=(0.1,)), [o])


class TestCensoredDesign:
    def test_nll_matches_per_observation_route(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m, ks = random_instance(rng)
            obs = random_observations(rng, m.d, ks.horizon)
            design = CensoredDesign(ks, obs)
            w = model_matrix(m).ravel()
            assert design.nll(w) == pytest.approx(scalar_nll(m, obs), rel=1e-12)

    def test_grad_matches_api_route(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m, ks = random_instance(rng)
            obs = random_observations(rng, m.d, ks.horizon)
            design = CensoredDesign(ks, obs)
            w = model_matrix(m).ravel()
            v1, g1 = design.nll_grad(w)
            g2 = nll_gradient(m, obs).ravel()
            assert v1 == design.nll(w)
            assert np.allclose(g1, g2, rtol=1e-10, atol=1e-12)

    def test_zero_mass_behaviour_matches_floor(self):
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0)]
        design = CensoredDesign(ks, obs)
        w = np.array([0.5, 0.0])  # no hazard inside the bracket
        with pytest.warns(ZeroBracketWarning):
            assert design.nll(w) == math.inf
        with pytest.raises(ValueError):
            design.nll_grad(w)
        # a positive floor clamps the bracket mass and keeps things finite
        fv, fg = design.nll_grad(w, floor=1e-12)
        assert math.isfinite(fv) and np.all(np.isfinite(fg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert design.nll(w, floor=1e-12) == fv

    def test_zero_mass_warning_names_the_caller(self):
        # a direct design.nll and nll_dataset alike warn at the line that
        # called into the package
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0)]
        m = HazardModel(knots=ks, d=0, intercept=StepFunction(ks, (0.5, 0.0)))
        design = CensoredDesign(ks, obs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert design.nll(design.flat_coefficients(m)) == math.inf
            assert nll_dataset(m, obs) == math.inf
        assert [w.category for w in caught] == [ZeroBracketWarning] * 2
        assert [w.filename for w in caught] == [__file__] * 2

    def test_head_term_as_column_sum_dot(self):
        # nll/nll_grad take the head term as _u_colsum @ w, the column sum
        # of the dense oracle's U; the reference sums the per-observation
        # head terms U @ w
        rng = np.random.default_rng(16)
        for _ in range(40):
            m, ks = random_instance(rng, d=int(rng.integers(1, 6)), n_knots=int(rng.integers(0, 8)))
            obs = random_observations(rng, m.d, ks.horizon, n=int(rng.integers(1, 30)))
            design = CensoredDesign(ks, obs)
            U, _ = dense_design(ks, obs)
            w = model_matrix(m).ravel() * (rng.random(U.shape[1]) < 0.7)
            for floor in (0.0, 1e-12):
                br = design.V @ w
                if floor > 0.0:
                    br = np.maximum(br, floor)
                elif np.any(br <= 0.0):
                    continue
                value = float((U @ w).sum()) - sum(log1mexp(float(b)) for b in br)
                grad = U.sum(axis=0)
                grad -= design.V.T @ (np.exp(-br) / -np.expm1(-br))
                got_value, got_grad = design.nll_grad(w, floor=floor)
                assert got_value == pytest.approx(value, rel=1e-13, abs=0.0)
                assert got_grad.tobytes() == grad.tobytes()
                # the value-only route, which line-search trials take
                assert design.nll(w, floor=floor) == got_value

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design_inputs())
    def test_matches_dense_oracle_bitwise(self, case):
        knots, obs = case
        design = CensoredDesign(knots, obs)
        U, V = dense_design(knots, obs)
        # observations added in input order, as U.sum(axis=0) adds them
        # whenever U has more than one column
        colsum = np.zeros(U.shape[1])
        for row in U:
            colsum += row
        assert design._u_colsum.tobytes() == colsum.tobytes()
        assert design.V.shape == V.shape
        assert design.V.toarray().tobytes() == V.tobytes()
        assert design.V.has_canonical_format
        assert design.interval_rows.tolist() == [
            i for i, o in enumerate(obs) if o.kind == "interval"
        ]

    def test_build_keeps_no_dense_head_matrix(self):
        # at this shape (n=5000, d=40, 10 intervals) the dense n x (d+1)K
        # head matrix alone would take 15.6 MB
        _, obs = generate(replace(default_scenario(1), n=5000))
        knots = build_knot_set(obs)
        tracemalloc.start()
        try:
            CensoredDesign(knots, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_design_rejects_inconsistent_dimensions(self):
        ks = KnotSet((), 4.0)
        obs = [
            Observation.right_censored(FeaturePath(1, {}), 2.0),
            Observation.right_censored(FeaturePath(2, {}), 2.0),
        ]
        with pytest.raises(ValueError):
            CensoredDesign(ks, obs)

    def test_flat_coefficients_fit_only_their_design(self):
        # a design serves every model of its knot set and dimension, bitwise
        # as nll_dataset would; any other model is refused
        rng = np.random.default_rng(16)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        design = CensoredDesign(ks, obs)
        assert design.nll(design.flat_coefficients(m)) == nll_dataset(m, obs)
        other = KnotSet(ks.times, ks.horizon + 1.0)
        moved = HazardModel(knots=other, d=m.d, intercept=StepFunction(other, m.intercept.values))
        with pytest.raises(ValueError, match="knot sets"):
            design.flat_coefficients(moved)
        wide = HazardModel(knots=ks, d=m.d + 1, intercept=m.intercept)
        with pytest.raises(ValueError, match=f"model d={m.d + 1}"):
            design.flat_coefficients(wide)


@st.composite
def censored_times(draw):
    """Up to 300 observations with empty paths at times spread over twelve
    orders of magnitude; in half the draws all are right-censored."""
    times = st.floats(1e-6, 1e6)
    all_right = draw(st.booleans())
    obs = []
    for _ in range(draw(st.integers(1, 300))):
        if all_right or draw(st.booleans()):
            obs.append(Observation.right_censored(FeaturePath(0, {}), draw(times)))
        else:
            left = draw(st.one_of(st.just(0.0), times))
            obs.append(Observation.interval(FeaturePath(0, {}), left, left + draw(times)))
    return obs


class TestPooledEventRate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(censored_times())
    @example([Observation.right_censored(FeaturePath(0, {}), t) for t in (0.5, 3.0, 7.25)])
    def test_run_table_arrays_match_the_loop_bitwise(self, obs):
        # the start's rate, from the arrays of the one pass over the
        # observations, adds the exposures in input order
        _, _, left, right, is_interval = _run_table(obs)
        got = _pooled_event_rate(left, right, is_interval)
        want = pooled_event_rate_loop(obs)
        assert type(got) is float
        assert got.hex() == want.hex()
        if not is_interval.any():
            assert got == 0.0


class TestWarningHygiene:
    def test_no_warnings_on_positive_models(self):
        rng = np.random.default_rng(15)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll_dataset(m, obs)
