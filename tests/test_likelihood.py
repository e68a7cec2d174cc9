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
)
from tvhazard.likelihood import _bracket_terms, _pooled_event_rate, _run_table

from oracles import (
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
        # 1/(e^x - 1) overflows to +inf below x = 1/max float; the NLL never
        # uses it and the gradient's rounded value is -inf
        ks = KnotSet((), 2.2250738585e-313)
        o = Observation.interval(FeaturePath(0, {}), 0.0, ks.horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nll_dataset(HazardModel(ks, [[1.0]]), [o]) == -math.log(ks.horizon)
            assert CensoredDesign(ks, [o]).nll_grad([1.0])[1][0] == -math.inf

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

    def test_zero_bracket_gradient_raises(self):
        ks = KnotSet((1.0,), 4.0)
        m = HazardModel(ks, [(0.5, 0.0)])
        p = FeaturePath(0, {})
        o = Observation.interval(p, 2.0, 3.0)
        with pytest.raises(ValueError, match="floor"):
            CensoredDesign(ks, [o]).nll_grad(model_matrix(m).ravel())

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
            H = design.hessian_diagonal(W, floor=1e-12)
            assert H.shape == W.shape
            assert H.ravel().tobytes() == design.hessian_diagonal(W.ravel(), 1e-12).tobytes()
            for r, c in np.ndindex(W.shape):

                def central(h):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[r, c] += h
                    Wm[r, c] -= h
                    gp = design.nll_grad(Wp, floor=1e-12)[1][r, c]
                    return (gp - design.nll_grad(Wm, floor=1e-12)[1][r, c]) / (2 * h)

                # Richardson extrapolation kills the O(h^2) term
                fd = (4 * central(5e-5) - central(1e-4)) / 3
                assert abs(H[r, c] - fd) <= 1e-5 * max(1.0, H[r, c]), (r, c)

    @pytest.mark.parametrize("floor", [1e-12, 1e-6, 0.5])
    def test_clamps_masses_at_the_floor(self, floor):
        # the first bracket has no hazard at w and takes the floor's
        # curvature; the second has mass 0.25, or the floor where it is larger
        ks = KnotSet((1.0,), 4.0)
        obs = [Observation.interval(FeaturePath(0, {}), 2.0, 3.0),
               Observation.interval(FeaturePath(0, {}), 0.5, 1.5)]
        w = np.array([0.5, 0.0])

        def curvature(b):
            return math.exp(b) / math.expm1(b) ** 2

        low, mid = curvature(floor), curvature(max(0.25, floor))
        want = [0.25 * mid, low + 0.25 * mid]
        got = CensoredDesign(ks, obs).hessian_diagonal(w, floor)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_without_interval_observations(self):
        obs = [Observation.right_censored(FeaturePath(1, {0: ((0.5, 1.0),)}), 3.0)]
        design = CensoredDesign(KnotSet((1.0,), 4.0), obs)
        H = design.hessian_diagonal(np.ones((2, 2)), 1e-12)
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
                got = design.nll_change(w, dw, floor=1e-12)
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
                rounded = design.nll(w + dw, floor=1e-12) - design.nll(w, floor=1e-12)
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
        want = design.nll(w + dw, floor=1e-12) - design.nll(w, floor=1e-12)
        assert design.nll_change(w, dw, floor=1e-12) == pytest.approx(want, rel=1e-12)
        back = design.nll(w, floor=1e-12) - design.nll(w + dw, floor=1e-12)
        assert design.nll_change(w + dw, -dw, floor=1e-12) == pytest.approx(back, rel=1e-12)

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

    def test_gradient_takes_the_argument_shape(self):
        # flat in gives flat out, (d+1, K) in gives (d+1, K) out, and the two
        # agree bitwise, with and without a floor
        rng = np.random.default_rng(17)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        design = CensoredDesign(ks, obs)
        for floor in (0.0, 1e-12):
            value, grad = design.nll_grad(m.W, floor=floor)
            flat_value, flat_grad = design.nll_grad(m.W.ravel(), floor=floor)
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


class TestRunTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design_inputs())
    def test_table_matches_the_loop_bitwise(self, case):
        _, obs = case
        want, got = run_table_loop(obs), _run_table(obs)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:], strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

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


class TestWarningHygiene:
    def test_no_warnings_on_positive_models(self):
        rng = np.random.default_rng(15)
        m, ks = random_instance(rng)
        obs = random_observations(rng, m.d, ks.horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll_dataset(m, obs)
