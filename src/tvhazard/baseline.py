"""Constant-coefficient reference models under the same censored likelihood.

Two baselines for held-out comparisons against the time-varying fit, both
fitted by maximum likelihood on the identical censored data: a constant
additive-hazard model, the one-interval special case of the main model
class and fitted by :func:`~tvhazard.solver.fit` itself, and a
constant-base-rate proportional-hazards model ``lambda(t|x) = lambda_0 *
exp(w . x(t))``, fitted with a small ridge term for identifiability with
collinear binary features by a projected BFGS on NumPy
(:func:`_box_quasi_newton`), which stops on the package's certificate: the
box mapping norm at most ``1e-7`` times its value at the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .likelihood import HazardModel, _bracket_terms, _pooled_event_rate, _warn_at_caller
from .penalty import PenaltyConfig
from .solver import SolverConfig, SolverWarning, fit
from .timeline import KnotSet, _real, _run_table

_WEIGHT_CAP = 50.0
_L2_WEIGHT = 1e-6  # the ridge on the proportional model's weights
# the proportional fit's quasi-Newton: the certificate's relative tolerance,
# the iteration cap, the Armijo fraction and the relative curvature floor
# below which a step does not update the inverse Hessian estimate
_TOLERANCE = 1e-7
_MAX_ITERATIONS = 2000
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps


class SeparationWarning(UserWarning):
    """A proportional-model weight hit the divergence cap (quasi-separation)."""


@dataclass(frozen=True)
class ConstantAdditiveModel:
    """Additive hazard with time-constant coefficients: ``w_0 + w . x(t)``."""

    intercept: float
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "intercept", _real(self.intercept, "intercept"))
        object.__setattr__(self, "weights", tuple(_real(w, "weight") for w in self.weights))
        if not all(0.0 <= v < math.inf for v in (self.intercept, *self.weights)):
            raise ValueError("constant additive model requires finite, nonnegative values")

    @property
    def d(self):
        return len(self.weights)

    def to_hazard_model(self, horizon):
        """Equivalent one-interval :class:`HazardModel` on ``[0, horizon]``."""
        return HazardModel(KnotSet((), horizon=horizon), np.array([[self.intercept, *self.weights]]).T)


@dataclass(frozen=True)
class ProportionalModel:
    """Proportional hazards with constant base rate: ``lambda_0 exp(w . x(t))``."""

    base_rate: float
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "base_rate", _real(self.base_rate, "base_rate"))
        object.__setattr__(self, "weights", tuple(_real(w, "weight") for w in self.weights))
        if not (0.0 < self.base_rate < math.inf and all(map(math.isfinite, self.weights))):
            raise ValueError("proportional model requires a finite base_rate > 0, finite weights")

    @property
    def d(self):
        return len(self.weights)


def fit_constant_additive(observations):
    """Censored-likelihood fit of the constant additive model.

    :func:`~tvhazard.solver.fit` with the default settings on one interval,
    ``[0, max right end]``, where a row has one value and no total
    variation.  Of features always present together only the sum of
    weights is identifiable; the fit splits it between them.
    """
    observations = list(observations)
    knots = KnotSet((), horizon=float(_run_table(observations)[3].max()))
    result = fit(observations, SolverConfig(penalty=PenaltyConfig()), knots=knots)
    W = result.model.W[:, 0]
    return ConstantAdditiveModel(intercept=W[0], weights=tuple(W[1:]))


_EXP_CAP = 700.0  # keeps exp() finite while the optimizer probes extreme weights


def _pieces(d, table, left, right, is_interval):
    """Cut every path into constant-feature pieces at 0 and at every start
    and end of its nonzero runs in the records' run table; the arguments
    are :func:`~tvhazard.timeline._run_table`'s results.

    Returns ``(X, XT, obs, head, bracket, is_interval)``: the sparse
    (pieces, d) feature rows and their transpose (CSR, so the gradient's
    product does not build a transposed view per call), each piece's
    observation, its overlaps with the head
    window ``[0, e_i]`` and the bracket ``[l_i, r_i]`` (empty when
    right-censored), and which observations are interval-censored.
    """
    # the intercept run is the base rate; a zero-valued run sets nothing
    table = table[(table[:, 1] > 0) & (table[:, 4] != 0.0)]
    n = len(left)
    run_obs = table[:, 0].astype(np.intp)
    starts, ends = table[:, 2], table[:, 3]
    finite = np.isfinite(ends)
    # a piece is keyed by (observation, start) as obs * stride + time rank;
    # rank len(times) stands for +inf, past every piece of its observation
    times = np.unique(np.concatenate(([0.0], starts, ends[finite])))
    stride = len(times) + 1
    run_first = run_obs * stride + np.searchsorted(times, starts)
    run_end = run_obs * stride + np.where(finite, np.searchsorted(times, ends), len(times))
    keys = np.unique(np.concatenate((np.arange(n) * stride, run_first, run_end[finite])))
    obs = keys // stride
    lo = times[keys % stride]
    hi = np.append(lo[1:], np.inf)
    hi[:-1][obs[1:] != obs[:-1]] = np.inf
    # each run sets its value on the pieces from its start to its end
    first = np.searchsorted(keys, run_first)
    count = np.searchsorted(keys, run_end) - first
    run = np.repeat(np.arange(len(table)), count)
    piece = first[run] + np.arange(len(run)) - np.repeat(np.cumsum(count) - count, count)
    column = table[run, 1].astype(np.intp) - 1
    X = scipy.sparse.csr_matrix((table[run, 4], (piece, column)), shape=(len(keys), d))
    left, right = left[obs], right[obs]
    # a right-censored observation stores left = right: its bracket is empty
    head = np.clip(np.minimum(hi, left) - lo, 0.0, None)
    bracket = np.clip(np.minimum(hi, right) - np.maximum(lo, left), 0.0, None)
    return X, X.T.tocsr(), obs, head, bracket, is_interval


def proportional_nll(model, observations):
    """Censored NLL of a :class:`ProportionalModel` (exact piece-wise)."""
    observations = list(observations)
    if not observations:
        return 0.0
    pieces = _pieces(*_run_table(observations))
    if pieces[0].shape[1] != model.d:
        raise ValueError(f"dimension mismatch: model d={model.d}, paths d={pieces[0].shape[1]}")
    theta = np.concatenate(([math.log(model.base_rate)], model.weights))
    value, _ = _proportional_value_grad(theta, pieces, 0.0)
    return value


def _proportional_value_grad(theta, pieces, l2_weight):
    """Penalized NLL and its gradient in ``(log lambda_0, w)``."""
    X, XT, obs, head, bracket, is_interval = pieces
    rate = np.exp(np.minimum(theta[0] + X @ theta[1:], _EXP_CAP))
    # mass > 0 on every bracket: positive base rate over a nonempty bracket
    mass = np.bincount(obs, weights=rate * bracket, minlength=len(is_interval))[is_interval]
    log_mass, inv = _bracket_terms(mass)
    value = float((rate * head).sum() - log_mass.sum())
    coef = np.zeros(len(is_interval))
    coef[is_interval] = inv
    q = rate * (head - coef[obs] * bracket)
    grad = np.concatenate(([q.sum()], XT @ q))
    if l2_weight > 0.0:
        w = theta[1:]
        value += l2_weight * float(w @ w)
        grad[1:] += 2.0 * l2_weight * w
    return value, grad


def fit_proportional(observations):
    """Censored-likelihood fit of the constant-base-rate proportional model.

    :func:`_box_quasi_newton` over ``(log lambda_0, w)`` with ``|w_j| <=
    50`` and a ridge of weight ``1e-6`` on ``w``, from the pooled event rate
    (0.01 without events) and zero weights, to the package's certificate:
    the box mapping norm ``||theta - clip(theta - grad)||`` at most ``1e-7``
    times ``max(1, its value at the start)``.  Hitting the cap indicates
    quasi-separation and raises a :class:`SeparationWarning`; a fit that
    stops uncertified raises a :class:`~tvhazard.solver.SolverWarning`.
    """
    d, table, left, right, is_interval = _run_table(list(observations))
    pieces = _pieces(d, table, left, right, is_interval)

    rate0 = _pooled_event_rate(left, right, is_interval) or 0.01
    x0 = np.concatenate(([math.log(rate0)], np.zeros(d)))
    hi = np.concatenate(([30.0], np.full(d, _WEIGHT_CAP)))

    theta, rel, stop = _box_quasi_newton(
        lambda theta: _proportional_value_grad(theta, pieces, _L2_WEIGHT), x0, -hi, hi)
    if stop != "certified":
        _warn_at_caller(
            f"proportional fit stopped uncertified ({stop}) at relative mapping norm "
            f"{rel:.3g}; returning its last iterate",
            SolverWarning,
        )
    if np.any(np.abs(theta[1:]) >= _WEIGHT_CAP - 1e-6):
        _warn_at_caller(
            "proportional-model weights hit the +-50 cap (possible separation)",
            SeparationWarning,
        )
    return ProportionalModel(base_rate=math.exp(theta[0]), weights=tuple(theta[1:]))


def _box_quasi_newton(fun, x, lo, hi):
    """Minimize ``fun`` (value and gradient) over the box ``[lo, hi]`` from ``x``.

    Projected BFGS (Kim, Sra & Dhillon, SIAM J. Sci. Comput. 32(6), 2010):
    the direction is ``-H g`` on the free coordinates, those the gradient
    does not hold at a bound, with ``H`` the dense BFGS estimate of the
    inverse Hessian restricted to them; the steps are projected and
    backtracked by halving to Armijo's bound.  A steepest-descent step, the
    first or one after a direction that fails to descend, opens at
    ``1/||g||``, as L-BFGS-B's first does; ``H`` starts at ``s.y / y.y``
    times the identity with the first pair it keeps (Nocedal & Wright,
    eq. 6.20).  ``H`` is dense, ``(d + 1)^2`` floats: at the tens of
    features a campaign records it costs a few NumPy calls per step, where
    an L-BFGS two-loop costs several per stored pair.

    Stops certified once the box mapping norm ``||x - clip(x - g)||`` is at
    most ``_TOLERANCE * max(1, its value at the start)``.  Returns ``(x,
    relative norm, stop)``, ``stop`` one of ``"certified"``, ``"stalled"``
    (no trial step moves ``x`` and lowers ``fun``) and ``"max_iterations"``.
    """
    f, g = fun(x)
    H = ref = None
    for iteration in range(_MAX_ITERATIONS + 1):
        pg = x - np.clip(x - g, lo, hi)
        norm = math.sqrt(float(pg @ pg))
        if ref is None:
            ref = max(1.0, norm)
        if norm <= _TOLERANCE * ref or iteration == _MAX_ITERATIONS:
            break
        # a coordinate the gradient holds at a bound has pg = 0
        free = pg != 0.0
        q = np.where(free, g, 0.0)
        if H is not None:
            p = -np.where(free, H @ q, 0.0)
            if not float(g @ p) < 0.0:  # lost to rounding: start H afresh
                H = None
        if H is None:
            p = -q
            step = 1.0 / math.sqrt(float(q @ q))
        else:
            step = 1.0
        while True:
            trial = np.clip(x + step * p, lo, hi)
            s = trial - x
            if not s.any():
                return x, norm / ref, "stalled"
            f_trial, g_trial = fun(trial)
            if f_trial <= f + _ARMIJO * float(g @ s):
                break
            step *= 0.5
        y = g_trial - g
        sy = float(s @ y)
        if sy > _EPS * float(y @ y):
            rho = 1.0 / sy
            if H is None:
                H = np.eye(len(x)) / (rho * float(y @ y))
            # H <- (I - rho s y')H(I - rho y s') + rho s s' = H + t s' + s t'
            u = H @ y
            t = (0.5 * rho * (1.0 + rho * float(y @ u))) * s - rho * u
            ts = np.outer(t, s)
            H += ts
            H += ts.T
        x, f, g = trial, f_trial, g_trial
    return x, norm / ref, "certified" if norm <= _TOLERANCE * ref else "max_iterations"
