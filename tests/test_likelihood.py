"""Hazard evaluation, censored-data NLL, gradients, and the design cache."""

import copy
import math
import pickle
import sys
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
    NumericalError,
    Observation,
    PenaltyConfig,
    ProportionalModel,
    SolverConfig,
    ZeroBracketWarning,
    build_knot_set,
    default_scenario,
    fit,
    fit_proportional,
    generate,
    model_matrix,
    nll_dataset,
    proportional_nll,
    read_observations,
    write_observations,
)
from tvhazard import timeline
from tvhazard.likelihood import _bracket_terms, _pooled_event_rate
from tvhazard.timeline import _run_table

from oracles import (
    change_times,
    cumulative_hazard,
    dense_design,
    hazard,
    log1mexp,
    merge_times,
    nll_observation,
    pooled_event_rate_loop,
    run_table_loop,
    scalar_nll,
    survival,
)


def random_instance(rng, d=3, n_knots=4, horizon=8.0):
    """Random nonnegative model plus feature paths on a shared window."""
    times = np.sort(rng.uniform(0.3, horizon - 0.3, size=n_knots))
    ks = KnotSet(tuple(times), horizon)
    W = np.zeros((d + 1, ks.n_intervals))
    W[0] = rng.uniform(0.05, 0.6, size=ks.n_intervals)
    for j in rng.choice(d, size=rng.integers(1, d + 1), replace=False):
        W[j + 1] = rng.uniform(0.0, 1.5, size=ks.n_intervals)
    return HazardModel(ks, W), ks


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
def design_inputs(draw, horizon=10.0, low=0.0):
    """Knots and observations with feature paths that ``generate`` never makes:
    several runs per feature, zero and non-unit values (drawn from ``[low,
    3]`` besides 0 and 1; a path refuses a negative one), a change at t=0
    and changes past the horizon, features in any order; optionally no
    interval observation at all."""
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
        with pytest.raises(ValueError, match="negative"):
            HazardModel(ks, [(-0.1, 0.2)])
        with pytest.raises(ValueError, match="negative"):
            HazardModel(ks, [(0.1, 0.2), (0.0, -1e-300)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            HazardModel(KnotSet((1.0,), 2.0), [(0.1, 0.2), (bad, 0.0)])

    def test_rejects_mismatched_knots(self):
        # W's columns are the intervals of its own knot set
        ks = KnotSet((1.0,), 2.0)
        other = KnotSet((0.5, 1.0), 2.0)
        with pytest.raises(ValueError, match="shape"):
            HazardModel(ks, np.zeros((2, other.n_intervals)))

    @pytest.mark.parametrize("W", [np.zeros((0, 2)), np.zeros(2), np.zeros((1, 2, 1))],
                             ids=["no rows", "1-D", "3-D"])
    def test_rejects_a_matrix_that_is_not_rows_by_intervals(self, W):
        with pytest.raises(ValueError, match="shape"):
            HazardModel(KnotSet((1.0,), 2.0), W)

    def test_stores_a_read_only_float_copy_with_positive_zeros(self):
        ks = KnotSet((1.0,), 2.0)
        W = np.array([[-0.0, 1.0], [0.0, -0.0]])
        m = HazardModel(ks, W)
        assert not np.signbit(m.W).any()
        assert m.W.dtype == float and not m.W.flags.writeable
        with pytest.raises(ValueError):
            m.W[0, 0] = 1.0
        W[0, 1] = 7.0  # the caller's array is not the model's
        assert m.W[0, 1] == 1.0
        assert HazardModel(ks, [[0, 1]]).W.dtype == float

    def test_d_is_the_row_count_after_the_intercept(self):
        ks = KnotSet((), 2.0)
        assert HazardModel(ks, [[0.5]]).d == 0
        assert HazardModel(ks, np.zeros((41, 1))).d == 40

    def test_equality_is_by_value(self):
        ks = KnotSet((1.0,), 2.0)
        m = HazardModel(ks, [(0.5, 1.0), (0.0, 0.25)])
        assert m == HazardModel(KnotSet((1.0,), 2.0), np.array([[0.5, 1.0], [-0.0, 0.25]]))
        assert m != HazardModel(ks, [(0.5, 1.0), (0.0, 0.5)])
        assert m != HazardModel(ks, [(0.5, 1.0), (0.0, 0.25), (0.0, 0.0)])
        assert m != HazardModel(KnotSet((1.5,), 2.0), m.W)
        assert m != ks
        with pytest.raises(TypeError):
            hash(m)


class TestCumulativeHazard:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, ks = random_instance(rng)
            p = random_path(rng, m.d, ks.horizon)
            a, b = np.sort(rng.uniform(0, ks.horizon, size=2))
            pts = sorted(
                t for t in list(ks.times) + list(change_times(p)) if a < t < b
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
                assert _bracket_terms(np.array([x]))[0][0] == pytest.approx(ref, rel=1e-14), x

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
        m = HazardModel(ks, [(0.5, 1.0)])
        p = FeaturePath(0, {})
        o = Observation.right_censored(p, 3.0)
        assert nll_observation(m, o) == pytest.approx(0.5 * 2 + 1.0 * 1, rel=1e-15)

    def test_interval_closed_form(self):
        # hazard 0.5 on [0,2), 1.0 after; event inside (1, 3]
        ks = KnotSet((2.0,), 5.0)
        m = HazardModel(ks, [(0.5, 1.0)])
        p = FeaturePath(0, {})
        o = Observation.interval(p, 1.0, 3.0)
        lam_pre = 0.5  # Lambda(0,1)
        lam_br = 0.5 + 1.0  # Lambda(1,3)
        want = lam_pre - math.log(1.0 - math.exp(-lam_br))
        assert nll_observation(m, o) == pytest.approx(want, rel=1e-14)

    def test_zero_mass_bracket_warns_and_is_inf(self):
        ks = KnotSet((1.0,), 4.0)
        m = HazardModel(ks, [(0.5, 0.0)])
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
        m = HazardModel(knots, np.reshape(W, shape))
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

    def test_a_subnormal_bracket_mass_warns_nothing(self):
        # 1/(e^x - 1) overflows to +inf below x = 1/max float; the exact NLL
        # never uses it and the gradient clamps the mass at the floor
        ks = KnotSet((), 2.2250738585e-313)
        o = Observation.interval(FeaturePath(0, {}), 0.0, ks.horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nll_dataset(HazardModel(ks, [[1.0]]), [o]) == -math.log(ks.horizon)
            grad = CensoredDesign(ks, [o]).nll_grad([1.0])[1][0]
            assert grad == pytest.approx(-ks.horizon / math.expm1(1e-12), rel=1e-14)

    def test_dataset_is_plain_sum(self):
        rng = np.random.default_rng(8)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        total = sum(nll_observation(m, o) for o in obs)
        assert nll_dataset(m, obs) == pytest.approx(total, rel=1e-14)
        assert nll_dataset(m, []) == 0.0


class TestModelMatrix:
    def test_round_trip(self):
        # model_matrix is a writable copy of W; a model built from it is equal
        rng = np.random.default_rng(9)
        m, ks = random_instance(rng)
        W = model_matrix(m)
        assert W.shape == (m.d + 1, ks.n_intervals)
        assert W.tobytes() == m.W.tobytes()
        W[0, 0] += 1.0
        assert m.W[0, 0] == W[0, 0] - 1.0
        W[0, 0] -= 1.0
        assert HazardModel(ks, W) == m


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            m, ks = random_instance(rng, d=3, n_knots=3)
            obs = random_observations(rng, m.d, ks.horizon, n=8)
            W = model_matrix(m)
            design = CensoredDesign(ks, obs)
            G = design.nll_grad(W.ravel())[1].reshape(W.shape)
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
                        fp = scalar_nll(HazardModel(ks, Wp), obs)
                        fm = scalar_nll(HazardModel(ks, Wm), obs)
                        return (fp - fm) / (2 * h)

                    # Richardson extrapolation kills the O(h^2) term.
                    fd = (4 * central(h0 / 2) - central(h0)) / 3
                    gg = design.nll_grad(Wb.ravel())[1].reshape(W.shape)[r, c]
                    scale = max(1.0, abs(gg))
                    assert abs(gg - fd) / scale < 1e-5, (r, c)

    def test_zero_bracket_gradient_is_the_floored_one(self):
        # a bracket with no hazard takes the value and gradient of a bracket
        # of mass 1e-12: -log(1 - e^-b) and -1/(e^b - 1) per unit exposure
        ks = KnotSet((1.0,), 4.0)
        m = HazardModel(ks, [(0.5, 0.0)])
        o = Observation.interval(FeaturePath(0, {}), 2.0, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = CensoredDesign(ks, [o]).nll_grad(model_matrix(m).ravel())
        assert value == pytest.approx(0.5 - math.log(-math.expm1(-1e-12)), rel=1e-14)
        assert grad == pytest.approx([1.0, 1.0 - 1.0 / math.expm1(1e-12)], rel=1e-14)

    def test_dimension_mismatch_rejected(self):
        ks = KnotSet((), 4.0)
        m = HazardModel(ks, [[0.5], [0.0]])
        o = Observation.right_censored(FeaturePath(2, {1: ((0.0, 1.0),)}), 2.0)
        # the messages name both dimensions (a bare size mismatch in numpy
        # or scipy would raise ValueError too)
        with pytest.raises(ValueError, match="model d=1"):
            nll_dataset(m, [o])
        mixed = [o, Observation.interval(FeaturePath(1, {0: ((0.0, 1.0),)}), 1.0, 2.0)]
        with pytest.raises(ValueError, match="paths with d=2 and d=1"):
            fit_proportional(mixed)
        with pytest.raises(ValueError, match="model d=1"):
            proportional_nll(ProportionalModel(base_rate=0.5, weights=(0.1,)), [o])


class TestHessianDiagonal:
    def test_matches_central_differences_of_the_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m, ks = random_instance(rng, d=3, n_knots=3)
            obs = random_observations(rng, m.d, ks.horizon, n=8)
            W = model_matrix(m)
            design = CensoredDesign(ks, obs)
            H = design.hessian_diagonal(W)
            assert H.shape == W.shape
            assert H.ravel().tobytes() == design.hessian_diagonal(W.ravel()).tobytes()
            for r, c in np.ndindex(W.shape):

                def central(h):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[r, c] += h
                    Wm[r, c] -= h
                    gp = design.nll_grad(Wp)[1][r, c]
                    return (gp - design.nll_grad(Wm)[1][r, c]) / (2 * h)

                # Richardson extrapolation kills the O(h^2) term
                fd = (4 * central(5e-5) - central(1e-4)) / 3
                assert abs(H[r, c] - fd) <= 1e-5 * max(1.0, H[r, c]), (r, c)

    def test_clamps_masses_at_the_floor(self):
        # the first bracket has no hazard at w and takes the floor's
        # curvature; the second has mass 0.25
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0),
               Observation.interval(FeaturePath(0, {}), 0.5, 1.5)]
        w = np.array([0.5, 0.0])

        def curvature(b):
            return math.exp(b) / math.expm1(b) ** 2

        low, mid = curvature(1e-12), curvature(0.25)
        want = [0.25 * mid, low + 0.25 * mid]
        got = CensoredDesign(ks, obs).hessian_diagonal(w)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_without_interval_observations(self):
        obs = [Observation.right_censored(FeaturePath(1, {0: ((0.5, 1.0),)}), 3.0)]
        design = CensoredDesign(KnotSet((1.0,), 4.0), obs)
        H = design.hessian_diagonal(np.ones((2, 2)))
        assert H.shape == (2, 2) and not H.any()


class TestCensoredDesign:
    def test_nll_matches_per_observation_route(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m, ks = random_instance(rng)
            obs = random_observations(rng, m.d, ks.horizon)
            design = CensoredDesign(ks, obs)
            w = model_matrix(m).ravel()
            assert design.nll(w) == pytest.approx(scalar_nll(m, obs), rel=1e-12)

    def test_grad_matches_dense_oracle(self):
        # head and bracket exposures both from the dense oracle, not the design
        rng = np.random.default_rng(13)
        for _ in range(25):
            m, ks = random_instance(rng)
            obs = random_observations(rng, m.d, ks.horizon)
            design = CensoredDesign(ks, obs)
            U, V = dense_design(ks, obs)
            w = model_matrix(m).ravel()
            v1, g1 = design.nll_grad(w)
            br = V @ w
            g2 = U.sum(axis=0) - V.T @ (np.exp(-br) / -np.expm1(-br))
            assert v1 == design.nll(w)
            assert np.allclose(g1, g2, rtol=1e-10, atol=1e-12)

    def test_zero_mass_behaviour_matches_floor(self):
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0)]
        design = CensoredDesign(ks, obs)
        w = np.array([0.5, 0.0])  # no hazard inside the bracket
        with pytest.warns(ZeroBracketWarning):
            assert design.nll(w) == math.inf
        # the floor clamps the bracket mass and keeps things finite
        fv, fg = design.nll_grad(w)
        assert math.isfinite(fv) and np.all(np.isfinite(fg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert design.nll(w, floored=True) == fv

    def test_zero_mass_warning_names_the_caller(self):
        # a direct design.nll and nll_dataset alike warn at the line that
        # called into the package
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0)]
        m = HazardModel(ks, [(0.5, 0.0)])
        design = CensoredDesign(ks, obs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert design.nll(m.W) == math.inf
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
            br = np.maximum(design.V @ w, 1e-12)
            value = float((U @ w).sum()) - sum(log1mexp(float(b)) for b in br)
            grad = U.sum(axis=0)
            grad -= design.V.T @ (np.exp(-br) / -np.expm1(-br))
            got_value, got_grad = design.nll_grad(w)
            assert got_value == pytest.approx(value, rel=1e-13, abs=0.0)
            assert got_grad.tobytes() == grad.tobytes()
            # the value-only route, which line-search trials take
            assert design.nll(w, floored=True) == got_value

    def test_nll_change_is_exact_where_rounded_values_lose_it(self):
        # against 50-digit arithmetic on the dense oracle's exposures, for
        # steps whose change is far above and far below the rounding of
        # the NLL itself
        rng = np.random.default_rng(17)
        lost = 0
        for scale in (1e-1, 1e-6, 1e-12):
            for _ in range(8):
                m, ks = random_instance(rng)
                obs = random_observations(rng, m.d, ks.horizon)
                design = CensoredDesign(ks, obs)
                U, V = dense_design(ks, obs)
                w = model_matrix(m).ravel()
                dw = scale * rng.uniform(-1.0, 1.0, size=w.size) * w
                with mpmath.workdps(50):
                    head = [mpmath.mpf(float(u)) for u in U.sum(axis=0)]

                    def exact_nll(x):
                        masses = [mpmath.fsum(mpmath.mpf(float(v)) * xk for v, xk in zip(row, x))
                                  for row in V]
                        return (mpmath.fsum(h * xk for h, xk in zip(head, x))
                                - mpmath.fsum(mpmath.log(1 - mpmath.exp(-b)) for b in masses))

                    x0 = [mpmath.mpf(float(v)) for v in w]
                    x1 = [a + mpmath.mpf(float(b)) for a, b in zip(x0, dw)]
                    want = float(exact_nll(x1) - exact_nll(x0))
                got = design.nll_change(w, dw)
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
                rounded = design.nll(w + dw, floored=True) - design.nll(w, floored=True)
                lost += abs(rounded - want) > 1e-3 * abs(want)
        # the difference of two rounded values misses most tiny changes
        assert lost >= 6

    def test_nll_change_clamps_masses_at_the_floor(self):
        # a bracket with no hazard at w: its mass is clamped on both sides,
        # as nll clamps it
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0),
               Observation.interval(FeaturePath(0, {}), 0.5, 1.5)]
        design = CensoredDesign(ks, obs)
        w, dw = np.array([0.5, 0.0]), np.array([0.1, 0.3])
        want = design.nll(w + dw, floored=True) - design.nll(w, floored=True)
        assert design.nll_change(w, dw) == pytest.approx(want, rel=1e-12)
        back = design.nll(w, floored=True) - design.nll(w + dw, floored=True)
        assert design.nll_change(w + dw, -dw) == pytest.approx(back, rel=1e-12)

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

    def test_design_rejects_observations_past_the_horizon(self):
        ks = KnotSet((1.0,), 4.0)
        p = FeaturePath(0, {})
        for o in (Observation.right_censored(p, 4.5), Observation.interval(p, 2.0, 4.5)):
            with pytest.raises(ValueError, match=r"outside knot range \[0, 4.0\]"):
                CensoredDesign(ks, [Observation.right_censored(p, 1.0), o])

    def test_nll_dataset_refuses_other_dimensions(self):
        # a design evaluates a model of its knot set at m.W bitwise as
        # nll_dataset does; nll_dataset refuses a model with a row more or
        # less than the paths have, naming both dimensions
        rng = np.random.default_rng(16)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        assert CensoredDesign(ks, obs).nll(m.W) == nll_dataset(m, obs)
        wide = HazardModel(ks, np.vstack([m.W, np.zeros(ks.n_intervals)]))
        with pytest.raises(ValueError, match=f"model d={m.d + 1}, observations d={m.d}"):
            nll_dataset(wide, obs)
        narrow = HazardModel(ks, m.W[:-1])
        with pytest.raises(ValueError, match=f"model d={m.d - 1}, observations d={m.d}"):
            nll_dataset(narrow, obs)

    def test_a_nan_total_is_refused(self):
        # the first site's head exposure 1e10 * 1.5e308 overflows to inf,
        # which a zero weight on its feature would turn into a NaN head
        # term: the design refuses it when built, without a NumPy warning
        ks = KnotSet((1.0,), 1.5e308)
        obs = [Observation.right_censored(FeaturePath(1, {0: ((0.0, 1e10),)}), 1.5e308),
               Observation.interval(FeaturePath(1, {}), 0.0, 1.0)]
        m = HazardModel(ks, [[0.2, 0.2], [0.0, 0.0]])
        overflow = r"an exposure \(a feature value times a time span\) overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=overflow):
                CensoredDesign(ks, obs)
            with pytest.raises(NumericalError, match=overflow):
                nll_dataset(m, obs)
            # an overflowing bracket exposure is refused the same way
            with pytest.raises(NumericalError, match=overflow):
                CensoredDesign(ks, [Observation.interval(obs[0].path, 0.0, 1.5e308)])
        # a NaN coefficient is refused too, where a zero bracket would not mask it
        plain = CensoredDesign(ks, obs[1:])
        with pytest.raises(NumericalError, match="total NLL is NaN"):
            plain.nll(np.array([[math.nan, 0.2], [0.0, 0.0]]))
        with pytest.warns(ZeroBracketWarning), pytest.raises(NumericalError):
            plain.nll(np.array([[0.0, math.nan], [0.0, 0.0]]))

    def test_a_right_censored_design_is_its_head_terms(self):
        # no interval observation leaves V without rows: every bracket term
        # is +0.0, the gradient and curvature of the brackets zero
        rng = np.random.default_rng(18)
        ks = KnotSet((1.0, 2.5), 4.0)
        path = FeaturePath(2, {0: ((0.5, 1.5),), 1: ((0.0, 2.0), (3.0, 0.5))})
        design = CensoredDesign(ks, [Observation.right_censored(path, t) for t in (1.2, 3.0, 4.0)])
        assert design.V.shape == (0, 9)
        w, dw = rng.uniform(0.0, 1.0, design.shape), rng.uniform(-0.1, 0.1, design.shape)
        u = design.head_exposure
        head = float(u.ravel() @ w.ravel())
        assert design.nll(w) == design.nll(w, floored=True) == head
        value, grad = design.nll_grad(w)
        assert value == head and grad.tobytes() == u.tobytes()
        assert design.nll_change(w, dw) == float(u.ravel() @ dw.ravel())

    def test_gradient_takes_the_argument_shape(self):
        # flat in gives flat out, (d+1, K) in gives (d+1, K) out, and the two
        # agree bitwise
        rng = np.random.default_rng(17)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        design = CensoredDesign(ks, obs)
        value, grad = design.nll_grad(m.W)
        flat_value, flat_grad = design.nll_grad(m.W.ravel())
        assert grad.shape == design.shape == m.W.shape
        assert flat_grad.shape == (m.W.size,)
        assert value == flat_value
        assert grad.tobytes() == flat_grad.tobytes()


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


def fresh_copies(observations):
    """The same records built anew: equal, but not the same objects."""
    return [replace(o, path=FeaturePath(o.path.d, o.path.entries)) for o in observations]


def assert_matches_the_loop(observations):
    """``_run_table`` of ``observations`` equals the per-run loop bitwise."""
    want, got = run_table_loop(observations), _run_table(observations)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:], strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def block_of(observations):
    """The one walked block every record carries, or None."""
    blocks = {id(o._runs[0]) if o._runs else None for o in observations}
    return observations[0]._runs[0] if len(blocks) == 1 and None not in blocks else None


class TestRunTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design_inputs())
    def test_table_matches_the_loop_bitwise(self, case):
        assert_matches_the_loop(case[1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(design_inputs(), st.data())
    def test_gathered_tables_match_the_loop_bitwise(self, case, data):
        # after one walk, lists of the walked records are gathered from its
        # block and keep it; lists that mix in other records are walked
        # again, and all of them equal the loop
        _, obs = case
        _run_table(obs)
        block = block_of(obs)
        assert block is not None
        n = len(obs)
        picks = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        gathered = [
            data.draw(st.permutations(obs)),
            [obs[i] for i in data.draw(picks)],
            obs + [obs[data.draw(st.integers(0, n - 1))]],
        ]
        for records in gathered:
            assert_matches_the_loop(records)
            assert block_of(records) is block
        with_copies = obs + fresh_copies(obs[data.draw(st.integers(0, n - 1)):])
        assert_matches_the_loop(with_copies)
        walked = block_of(with_copies)
        assert walked is not None and walked is not block
        second = fresh_copies(obs)
        _run_table(second)
        both = obs + second
        assert block_of(both) is None
        assert_matches_the_loop(both)
        assert block_of(both) is not None

    def test_every_read_returns_fresh_arrays(self):
        # the block never leaves timeline: a caller may write into the
        # first table too, and a later read is unchanged
        _, obs = generate(replace(default_scenario(5), n=50))
        first = _run_table(obs)
        block = block_of(obs)
        want = [a.tobytes() for a in first[1:]]
        for a in first[1:]:
            assert a.flags.writeable
            a[...] = 0
        second = _run_table(obs)
        assert block_of(obs) is block
        assert [a.tobytes() for a in second[1:]] == want

    def test_a_fit_sweep_walks_its_records_once(self, monkeypatch):
        # the first table walks the full set; the training fits and the
        # validation NLLs gather from its block
        walks = []
        walk = timeline._walk

        def counted(observations):
            walks.append(len(observations))
            return walk(observations)

        monkeypatch.setattr(timeline, "_walk", counted)
        truth, obs = generate(replace(default_scenario(4), n=300))
        nll_dataset(truth, obs)
        perm = np.random.default_rng(4).permutation(len(obs))
        train, val = [obs[i] for i in perm[:210]], [obs[i] for i in perm[210:]]
        knots = build_knot_set(train)
        for gamma in (1.0, 2.0, 4.0):
            result = fit(train, SolverConfig(penalty=PenaltyConfig(gamma=gamma)), knots=knots)
            nll_dataset(result.model, val)
        nll_dataset(result.model, obs)
        assert walks == [len(obs)]

    def test_a_design_after_the_knot_build_does_not_walk(self, monkeypatch, tmp_path):
        # the knot build walks freshly read records; the design over them,
        # and the fit's, gather from that walk
        spec = replace(default_scenario(7), n=200)
        write_observations(tmp_path / "obs.jsonl", generate(spec)[1], d=spec.d,
                           horizon=spec.horizon)
        obs, _ = read_observations(tmp_path / "obs.jsonl")
        knots = build_knot_set(obs)
        walks, walk = [], timeline._walk
        monkeypatch.setattr(timeline, "_walk", lambda records: walks.append(records) or walk(records))
        CensoredDesign(knots, obs)
        fit(obs, SolverConfig(penalty=PenaltyConfig(gamma=1.0)), knots=knots)
        assert walks == []

    def test_design_on_reused_records_equals_a_fresh_one(self):
        _, obs = generate(replace(default_scenario(3), n=400))
        rng = np.random.default_rng(3)
        obs += [replace(o, path=random_path(rng, 40, 9.0)) for o in obs[:100]]
        knots = build_knot_set(obs)
        CensoredDesign(knots, obs)
        warm = CensoredDesign(knots, obs)
        cold = CensoredDesign(knots, fresh_copies(obs))
        assert warm._u_colsum.tobytes() == cold._u_colsum.tobytes()
        for part in ("data", "indices", "indptr"):
            assert getattr(warm.V, part).tobytes() == getattr(cold.V, part).tobytes()

    def test_fit_on_reused_records_equals_a_fresh_one(self):
        _, obs = generate(replace(default_scenario(4), n=300))
        knots = build_knot_set(obs)
        config = SolverConfig(penalty=PenaltyConfig(gamma=1.0))
        nll_dataset(fit(obs, config, knots=knots).model, obs[::2])
        warm = fit(obs, config, knots=knots)
        cold = fit(fresh_copies(obs), config, knots=knots)
        assert model_matrix(warm.model).tobytes() == model_matrix(cold.model).tobytes()
        assert warm.objective_trace == cold.objective_trace
        assert warm.train_nll == cold.train_nll


class TestWalkedRecords:
    """A walk stamps each record with one private attribute that no
    comparison, representation, copy or pickle sees."""

    def test_pickles_copies_and_compares_as_before_the_walk(self):
        _, obs = generate(replace(default_scenario(5), n=40))
        before = [(pickle.dumps(o), repr(o)) for o in obs]
        _run_table(obs)
        assert block_of(obs) is not None
        for o, (pickled, text), other in zip(obs, before, fresh_copies(obs), strict=True):
            assert pickle.dumps(o) == pickled
            assert repr(o) == text
            assert o == other and other == o
            for twin in (pickle.loads(pickled), pickle.loads(pickle.dumps(o)), copy.copy(o),
                         copy.deepcopy(o), replace(o)):
                assert twin == o
                assert twin._runs is None

    @pytest.mark.parametrize("source", ["read_observations", "generate", "constructors"])
    def test_the_stamp_keeps_the_instance_dict_size(self, source, tmp_path):
        spec = replace(default_scenario(6), n=40)
        _, obs = generate(spec)
        if source == "read_observations":
            write_observations(tmp_path / "obs.jsonl", obs, d=spec.d, horizon=spec.horizon)
            obs, _ = read_observations(tmp_path / "obs.jsonl")
        elif source == "constructors":
            obs = [Observation.interval(o.path, o.left, o.right, o.id) if o.kind == "interval"
                   else Observation.right_censored(o.path, o.right, o.id) for o in obs]
        before = [sys.getsizeof(o.__dict__) for o in obs]
        _run_table(obs)
        assert block_of(obs) is not None
        assert [sys.getsizeof(o.__dict__) for o in obs] == before

    @pytest.mark.parametrize("source", ["read_observations", "generate", "constructors"])
    def test_a_walked_path_cannot_change_under_its_runs(self, source, tmp_path):
        # with entries a plain dict, setting a feature after the walk left
        # nll_dataset at the walked table's 50.357529906736794, where the
        # same records rebuilt gave 49.718237245853835
        spec = replace(default_scenario(0), n=200)
        truth, obs = generate(spec)
        if source == "read_observations":
            write_observations(tmp_path / "obs.jsonl", obs, d=spec.d, horizon=spec.horizon)
            obs, _ = read_observations(tmp_path / "obs.jsonl")
        elif source == "constructors":
            obs = fresh_copies(obs)
        value = nll_dataset(truth, obs)
        assert block_of(obs) is not None
        with pytest.raises(TypeError):
            obs[0].path.entries[11] = ((0.0, 5.0),)
        assert nll_dataset(truth, obs) == value == nll_dataset(truth, fresh_copies(obs))
        twin = pickle.loads(pickle.dumps(obs[0]))
        assert twin == obs[0] and twin._runs is None
        with pytest.raises(TypeError):
            twin.path.entries[11] = ((0.0, 5.0),)


class TestPooledEventRate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(censored_times())
    @example([Observation.right_censored(FeaturePath(0, {}), t) for t in (0.5, 3.0, 7.25)])
    def test_run_table_arrays_match_the_loop_bitwise(self, obs):
        # the start's rate, from the arrays of the one pass over the
        # observations, adds the exposures in input order; the design keeps
        # that one float
        _, _, left, right, is_interval = _run_table(obs)
        got = _pooled_event_rate(left, right, is_interval)
        want = pooled_event_rate_loop(obs)
        assert type(got) is float
        assert got.hex() == want.hex()
        design = CensoredDesign(KnotSet((), float(right.max())), obs)
        assert design.pooled_event_rate.hex() == want.hex()
        if not is_interval.any():
            assert got == 0.0

    def test_a_right_censoring_time_near_the_float_maximum_does_not_overflow(self):
        # the midpoint is taken of interval records only: 0.5 * (1.5e308 +
        # 1.5e308) overflowed for the right-censored site, then was discarded
        obs = [Observation.right_censored(FeaturePath(1, {}), 1.5e308),
               Observation.interval(FeaturePath(1, {0: ((0.0, 2.0),)}), 1.0, 3.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            design = CensoredDesign(KnotSet((1.0,), 1.5e308), obs)
        assert design.pooled_event_rate.hex() == pooled_event_rate_loop(obs).hex()

    def test_a_total_exposure_past_the_float_maximum_is_refused_without_a_warning(self):
        # no time overflows, but the running sum of two 1e308 censoring
        # times does: the rate is 0.0 and the design's refusal the only output
        obs = [Observation.right_censored(FeaturePath(0, {}), 1e308)] * 2
        obs.append(Observation.interval(FeaturePath(0, {}), 1.0, 2.0))
        _, _, left, right, is_interval = _run_table(obs)
        overflow = r"an exposure \(a feature value times a time span\) overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _pooled_event_rate(left, right, is_interval) == 0.0
            with pytest.raises(NumericalError, match=overflow):
                CensoredDesign(KnotSet((), 1e308), obs)


class TestWarningHygiene:
    def test_no_warnings_on_positive_models(self):
        rng = np.random.default_rng(15)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll_dataset(m, obs)
