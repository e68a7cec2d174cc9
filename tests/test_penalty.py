"""Total-variation prox, isotonic projection, and the penalty's row-wise prox step."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvhazard import PenaltyConfig, fused_lasso_prox, isotonic_project

from oracles import (
    fused_lasso_prox_array,
    fused_prox_bruteforce,
    fused_prox_dual,
    fused_prox_kkt_residual,
    grid_minimize,
    isotonic_bruteforce,
    tv,
)


def fused_objective(x, y, lam):
    return 0.5 * np.sum((x - y) ** 2) + lam * tv(x)


def prox_step(y, lam, monotone=False):
    """The penalty's prox update of one coefficient row (the intercept row)."""
    pen = PenaltyConfig(gamma=lam, monotone=monotone)
    return pen.prox(np.asarray(y, float)[None, :], 1.0)[0]


@st.composite
def prox_rows(draw):
    """Rows of length 1-120 with signed zeros and ties: mixed, nonpositive or constant."""
    levels = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-1e3, 1e3))
    y = draw(arrays(np.float64, st.integers(1, 120), elements=levels))
    kind = draw(st.sampled_from(["mixed", "nonpositive", "constant"]))
    if kind == "nonpositive":
        y = np.where(y > 0.0, -y, y)
    elif kind == "constant":
        y = np.full(y.size, y[0])
    return y


@st.composite
def prox_stacks(draw):
    """Stacks of 1-6 rows of length 1-12; each row mixed, nonpositive or constant."""
    levels = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-1e3, 1e3))
    Y = draw(arrays(np.float64, (draw(st.integers(1, 6)), draw(st.integers(1, 12))), elements=levels))
    for r in range(Y.shape[0]):
        kind = draw(st.sampled_from(["mixed", "nonpositive", "constant"]))
        if kind == "nonpositive":
            Y[r] = np.where(Y[r] > 0.0, -Y[r], Y[r])
        elif kind == "constant":
            Y[r] = Y[r, 0]
    return Y


def prox_weights(top=20):
    """Weights from 0 and 1e-20 up to ``10**top``: powers of ten and floats."""
    return st.one_of(
        st.sampled_from([0.0, 1e-17]),
        st.integers(-20, top).map(lambda e: 10.0**e),
        st.floats(1e-20, 10.0**top),
    )


class TestTV:
    def test_basic_values(self):
        # the penalty's value: gamma times the rows' summed total variation
        pen = PenaltyConfig(gamma=1.0)
        assert pen.value(np.array([[1.0]])) == 0.0
        assert pen.value(np.array([[0.0, 1.0, 0.0]])) == 2.0
        assert pen.value(np.array([[2.0, 2.0, 2.0]])) == 0.0
        assert PenaltyConfig(gamma=1.5).value(np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 3.0]])) == 4.5
        assert PenaltyConfig(gamma=0.0).value(np.array([[0.0, 1.0]])) == 0.0


@pytest.mark.parametrize("y", [np.array([]), np.zeros((2, 0)), np.zeros((0, 3))],
                         ids=["empty-row", "empty-rows", "no-rows"])
@pytest.mark.parametrize("project", [lambda y: fused_lasso_prox(y, 0.5), isotonic_project],
                         ids=["fused", "isotonic"])
def test_an_empty_y_is_rejected(project, y):
    with pytest.raises(ValueError, match="y must be nonempty"):
        project(y)


class TestFusedLassoProx:
    def test_weight_zero_is_identity(self):
        y = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(fused_lasso_prox(y, 0.0), y)

    def test_single_element_identity(self):
        assert fused_lasso_prox(np.array([4.2]), 10.0) == np.array([4.2])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fused_lasso_prox(np.array([1.0, 2.0]), -0.5)

    def test_huge_weight_gives_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=rng.integers(2, 9))
            out = fused_lasso_prox(y, 1e6)
            assert np.allclose(out, y.mean(), atol=1e-8)

    def test_two_point_shrinkage_closed_form(self):
        # for n=2 the prox shrinks the gap by 2*lam until the values meet
        y = np.array([0.0, 1.0])
        assert np.allclose(fused_lasso_prox(y, 0.25), [0.25, 0.75], atol=1e-12)
        assert np.allclose(fused_lasso_prox(y, 0.5), [0.5, 0.5], atol=1e-12)
        assert np.allclose(fused_lasso_prox(y, 3.0), [0.5, 0.5], atol=1e-12)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            y = rng.normal(scale=rng.choice([0.1, 1.0, 10.0]), size=n)
            lam = float(rng.choice([1e-3, 0.1, 0.5, 2.0]))
            got = fused_lasso_prox(y, lam)
            want = fused_prox_bruteforce(y, lam)
            assert np.allclose(got, want, atol=1e-6), (y, lam)

    def test_matches_dual_box_qp(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            y = rng.normal(size=n) * rng.choice([0.2, 1.0, 5.0])
            lam = float(rng.uniform(0.01, 3.0))
            got = fused_lasso_prox(y, lam)
            want = fused_prox_dual(y, lam)
            assert np.allclose(got, want, atol=1e-8), (y, lam)

    def test_objective_never_above_candidates(self):
        # the prox value must beat y itself, the global mean, and jittered copies
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            y = rng.normal(size=n)
            lam = float(rng.uniform(0.0, 2.0))
            x = fused_lasso_prox(y, lam)
            fx = fused_objective(x, y, lam)
            assert fx <= fused_objective(y, y, lam) + 1e-12
            assert fx <= fused_objective(np.full(n, y.mean()), y, lam) + 1e-12
            for _ in range(10):
                z = x + rng.normal(scale=1e-3, size=n)
                assert fx <= fused_objective(z, y, lam) + 1e-12

    def test_mean_preserved(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            y = rng.normal(size=rng.integers(2, 12))
            lam = rng.uniform(0, 3)
            assert fused_lasso_prox(y, lam).mean() == pytest.approx(y.mean(), abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            y = rng.normal(size=6)
            c = rng.normal()
            a = fused_lasso_prox(y + c, 0.7)
            b = fused_lasso_prox(y, 0.7) + c
            assert np.allclose(a, b, atol=1e-10)

    def test_nonexpansive(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            a, b = rng.normal(size=n), rng.normal(size=n)
            lam = rng.uniform(0, 2)
            pa, pb = fused_lasso_prox(a, lam), fused_lasso_prox(b, lam)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    def test_never_exceeds_the_row_maximum(self):
        # weights tiny next to |y| once rounded levels up past max(y),
        # e.g. to +4.4e-16 from [-2.1, -2.7, 0.0]
        cases = (([-2.1, -2.7, 0.0], 1e-17), ([-0.4, -0.8, 0.0], 1e-18), ([-1.2, -0.6], 1e-19))
        for y, lam in cases:
            assert fused_lasso_prox(np.array(y), lam).max() <= max(y)
        rng = np.random.default_rng(49)
        for _ in range(2000):
            y = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=rng.integers(2, 12))
            y[rng.random(y.size) < 0.3] = 0.0
            lam = 10.0 ** rng.uniform(-20, 1)
            assert fused_lasso_prox(y, lam).max() <= y.max(), (y, lam)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(prox_rows(), prox_weights())
    @example(np.array([-2.1, -2.7, 0.0]), 1e-17)
    @example(np.array([0.0, 0.0]), 0.5)
    def test_meets_the_optimality_conditions_at_every_weight(self, y, weight):
        # up to rounding of order len(y) * max|y|, whatever the weight
        got = fused_lasso_prox(y, weight)
        assert fused_prox_kkt_residual(y, weight, got) <= 1e-12, (y, weight)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(prox_rows(), prox_weights(top=3))
    @example(np.array([-2.1, -2.7, 0.0]), 1e-17)
    @example(np.array([0.0, 0.0]), 0.5)
    def test_agrees_with_the_array_recursion(self, y, weight):
        # the message-passing DP is a second algorithm; its own error grows
        # like eps * weight, so the two are compared at moderate weights
        gap = np.abs(fused_lasso_prox(y, weight) - fused_lasso_prox_array(y, weight)).max()
        assert gap <= 1e-12 * y.size * max(1.0, np.abs(y).max()), (y, weight)

    def test_a_weight_that_flattens_the_row_gives_its_mean(self):
        # the weight dwarfs the row: an exact screen gives the mean, and a
        # constant row itself, where y +- weight would lose the row
        assert fused_lasso_prox(np.ones(5), 1e20).tolist() == [1.0] * 5
        assert fused_lasso_prox(np.full(3, 0.1), 1e20).tolist() == [0.1] * 3
        assert fused_lasso_prox([1.0, 2.0, 4.0], 1e300).tolist() == [7 / 3] * 3
        rng = np.random.default_rng(53)
        for weight in (1e6, 1e9, 1e12):
            y = rng.normal(size=10)
            assert np.abs(fused_lasso_prox(y, weight) - y.mean()).max() <= 1e-15
        for monotone in (False, True):
            got = PenaltyConfig(gamma=1e20, monotone=monotone).prox(np.array([[0.5, 0.2, 0.9]]), 1.0)
            assert np.abs(got - 1.6 / 3).max() <= 1e-15
        for weight in (np.inf, np.nan):
            with pytest.raises(ValueError, match="weight must be finite"):
                fused_lasso_prox([1.0, 2.0], weight)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(prox_stacks(), prox_weights())
    @example(np.array([[-2.1, -2.7, 0.0], [1.0, -1.0, 3.0]]), 1e-17)
    def test_a_stack_is_its_rows_proxed_one_by_one(self, Y, weight):
        # one call on a 2-D stack: bitwise the per-row results stacked,
        # each row capped at its own maximum
        got = fused_lasso_prox(Y, weight)
        want = np.vstack([fused_lasso_prox(row, weight) for row in Y])
        assert got.shape == Y.shape
        assert got.tobytes() == want.tobytes(), (Y, weight)

    def test_a_stack_with_a_nonfinite_row_is_rejected_like_the_row(self):
        Y = np.array([[0.5, 1.0, -2.0], [1.0, np.nan, 0.0]])
        with pytest.raises(ValueError, match="y must be finite"):
            fused_lasso_prox(Y[1], 0.5)
        with pytest.raises(ValueError, match="y must be finite"):
            fused_lasso_prox(Y, 0.5)
        with pytest.raises(ValueError):
            fused_lasso_prox(np.zeros((2, 2, 2)), 0.5)

    def test_tv_never_increases(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            y = rng.normal(size=rng.integers(2, 12))
            assert tv(fused_lasso_prox(y, rng.uniform(0, 2))) <= tv(y) + 1e-10


class TestIsotonicProject:
    def test_already_monotone_is_fixed_point(self):
        y = np.array([0.0, 0.5, 0.5, 2.0])
        assert np.array_equal(isotonic_project(y), y)

    def test_decreasing_pair_pools_to_mean(self):
        assert np.allclose(isotonic_project(np.array([2.0, 0.0])), [1.0, 1.0])

    def test_matches_bruteforce_partitions(self):
        rng = np.random.default_rng(50)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            y = rng.normal(scale=rng.choice([0.5, 2.0]), size=n)
            got = isotonic_project(y)
            want = isotonic_bruteforce(y)
            assert np.allclose(got, want, atol=1e-10), y

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.integers(1, 8),
                  elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3))))
    def test_matches_bruteforce_oracle_exactly_nondecreasing(self, y):
        z = isotonic_project(y)
        assert np.abs(z - isotonic_bruteforce(y)).max() <= 1e-12 * max(1.0, np.abs(y).max())
        assert np.all(np.diff(z) >= 0.0)

    def test_output_nondecreasing_sum_preserved_idempotent(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            y = rng.normal(size=int(rng.integers(1, 30)))
            z = isotonic_project(y)
            assert np.all(np.diff(z) >= -1e-12)
            assert z.sum() == pytest.approx(y.sum(), abs=1e-9)
            assert np.allclose(isotonic_project(z), z, atol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(prox_stacks())
    def test_a_stack_is_its_rows_projected_one_by_one(self, Y):
        got = isotonic_project(Y)
        want = np.vstack([isotonic_project(row) for row in Y])
        assert got.shape == Y.shape
        assert got.tobytes() == want.tobytes(), Y

    def test_a_stack_with_a_nonfinite_row_is_rejected_like_the_row(self):
        Y = np.array([[0.5, 1.0, -2.0], [1.0, np.inf, 0.0]])
        with pytest.raises(ValueError, match="y must be finite"):
            isotonic_project(Y[1])
        with pytest.raises(ValueError, match="y must be finite"):
            isotonic_project(Y)
        with pytest.raises(ValueError, match="2-D stack"):
            isotonic_project(np.zeros((2, 2, 2)))


class TestProxStep:
    def test_fused_then_clip_is_joint_minimizer(self):
        # grid-certify that clipping the TV prox solves the TV +
        # nonnegativity problem jointly
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            y = rng.normal(scale=1.5, size=n)
            lam = float(rng.uniform(0.05, 1.5))
            x = prox_step(y, lam)
            assert np.all(x >= 0)

            def f(cand):
                pen = 0.5 * np.sum((cand - y) ** 2, axis=1)
                pen += lam * np.abs(np.diff(cand, axis=1)).sum(axis=1)
                return np.where(np.all(cand >= 0, axis=1), pen, np.inf)

            hi = np.maximum(np.abs(y).max(), 1.0) * np.ones(n)
            gx, gv, res = grid_minimize(f, np.zeros(n), hi)
            fx = float(f(x[None, :])[0])
            assert fx <= gv + 1e-6
            # the grid certifies optimality down to its own resolution
            assert gv - fx <= (lam + 1.0) * n * res + n * res**2

    def test_monotone_then_clip_is_joint_projection(self):
        # grid-certify that the shifted isotonic projection plus clipping
        # solves the TV + nondecreasing + nonnegativity problem jointly
        rng = np.random.default_rng(61)
        lam = 0.3
        for _ in range(20):
            n = int(rng.integers(2, 5))
            y = rng.normal(scale=1.5, size=n)
            x = prox_step(y, lam, monotone=True)
            assert np.all(x >= 0) and np.all(np.diff(x) >= -1e-12)

            def f(cand):
                pen = 0.5 * np.sum((cand - y) ** 2, axis=1)
                pen += lam * np.abs(np.diff(cand, axis=1)).sum(axis=1)
                ok = np.all(cand >= 0, axis=1) & np.all(np.diff(cand, axis=1) >= 0, axis=1)
                return np.where(ok, pen, np.inf)

            hi = np.maximum(np.abs(y).max(), 1.0) * np.ones(n)
            gx, gv, res = grid_minimize(f, np.zeros(n), hi)
            fx = float(f(x[None, :])[0])
            assert fx <= gv + 1e-6
            assert gv - fx <= n * res * (np.abs(y).max() + 1.0)

    @pytest.mark.parametrize("monotone", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad, monotone):
        # a NaN row has a NaN maximum: it must reach the validator, not be
        # written as a row that clips to zero
        Y = np.array([[0.5, 0.2, 0.1], [0.3, bad, -1.0], [-1.0, -2.0, -0.5]])
        pen = PenaltyConfig(gamma=0.4, monotone=monotone)
        with pytest.raises(ValueError, match="finite"):
            pen.prox(Y, 1.0)

    def test_monotone_mode_weight_matters(self):
        # on a nondecreasing row TV is w[-1] - w[0]: the weight moves the
        # first entry up and the last one down before the projection
        y = np.array([1.0, 0.2, 0.8])
        assert np.allclose(prox_step(y, 0.0, monotone=True), [0.6, 0.6, 0.8])
        assert np.array_equal(prox_step(y, 0.05, monotone=True),
                              np.maximum(isotonic_project([1.05, 0.2, 0.75]), 0.0))
        # a weight this large flattens the row to its mean
        assert np.allclose(prox_step(y, 5.0, monotone=True), np.full(3, y.mean()))

    def test_gamma_validation(self):
        for gamma in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                PenaltyConfig(gamma=gamma)
