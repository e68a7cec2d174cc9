"""Solver for the TV-penalized censored likelihood.

Minimizes, over the coefficient matrix ``W`` (rows = intercept + features,
columns = knot intervals),

    NLL(W) + gamma * sum_rows TV(W[r])        s.t. W >= 0 (+ monotone mode)

by one of two routes.  Every fit with a TV term or monotone mode runs
monotone FISTA (Beck & Teboulle 2009) with function-value restart
(O'Donoghue & Candes 2015) and backtracking line search, in a diagonal
metric: variable-metric forward-backward (Combettes & Vu 2014) with the
metric ``D`` the design's head exposure per cell (see :func:`_metric`).  A
step from ``Y`` is ``prox^D_t(Y - t grad f(Y) / D)``, whose prox solves the
penalty's row problems at the per-entry weights ``D``.  Head exposure spans
five decades across the cells of a large design (1 to 1e5 at 10^5 sites);
in the identity metric the step must suit the stiffest cell and the
iteration count grew with the number of sites.  An unpenalized fit (gamma =
0, not monotone) is smooth plus the box ``W >= 0`` and runs L-BFGS-B (Byrd,
Lu, Nocedal & Zhu 1995) instead.  The knot set is frozen before
optimization; candidate jump times are never inserted adaptively.

Both routes share one start and one certificate: ``converged`` is a
stationarity certificate in the identity metric.  A fit is certified when
its returned iterate ``X`` has ``G(X) <= tolerance * max(1, G(X0))``, with
``G(X) = ||X - [prox_1(X - grad f(X))]_+||`` the prox-gradient mapping
norm at step 1 (Frobenius norms; :func:`_certificate`) and ``G(X0)`` the
certificate's norm at the start ``X0``, one prox.  The mapping norm does
not increase with the step (Beck, First-Order Methods in Optimization,
2017, Thm 10.9), so ``G(X0)`` is at most that of any step ``t <= 1`` from
``X0``.  FISTA tests the certificate at ``X`` whenever a step from ``X`` is
small in its metric, or fails to lower the objective; L-BFGS-B tests it
after every iteration.  Every fit starts from the same point, so the
reference means the same for every fit.  The reachable norm
is bounded below: once a step's decrease falls under the rounding error of
the objective, a step from ``X`` no longer lowers it and the fit stops as
stalled, or, when every trial of FISTA's sufficient-decrease test fails, as
a step underflow.  :func:`fit` runs the start, hands it to the route and
turns every uncertified exit into one :class:`SolverWarning`, raised at the
first caller outside the package.

Every line search is FISTA's.  It tries the step it is given and halves
it until a trial meets the sufficient-decrease bound (:func:`_backtrack`).
The first opens at a power of two from the NLL's Hessian diagonal at
``X0`` over the metric (:func:`_opening_step`), near the step it accepts:
on the gamma=1 fits of the benchmark's datasets it took 1-4 trials, where
from 1.0 it took 11-13.  Each later search opens at 1.5 times the last
accepted step, at most 1.0.

The solver sees the problem only through the :class:`CensoredDesign`
(``nll``, ``nll_change``, ``nll_grad``, ``hessian_diagonal``, ``shape``,
``pooled_event_rate`` and the two exposure arrays of the metric) and the
:class:`PenaltyConfig` (``value``, ``prox``).  The smooth part is the
likelihood alone, with its bracket masses clamped at the design's
positivity floor; TV and every constraint, monotone mode's too, live in
the penalty's prox.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import optimize

from .likelihood import CensoredDesign, HazardModel, NumericalError, _warn_at_caller
from .penalty import PenaltyConfig
from .timeline import _integer, _real, build_knot_set

# Backtracking parameters: the largest step, shrink on sufficient-decrease
# violation, regrow on acceptance, give up below the floor.
_MAX_STEP = 1.0
_SHRINK = 0.5
_GROW = 1.5
_STEP_FLOOR = 1e-12
# A relative margin of about a million float64 roundoffs: a trial that fails
# the rounded sufficient-decrease bound by less may fail it by rounding
# alone, and is tested again with the exact change.
_ROUNDING = 1e-10
# Corrections L-BFGS-B stores: on the benchmark's unpenalized sweep fits 20
# took 653 iterations where 10 took 902 (ten datasets, n = 1000).
_LBFGS_MEMORY = 20


class SolverWarning(UserWarning):
    """Diagnostic from the optimizer (e.g. line-search step underflow)."""


@dataclass(frozen=True)
class SolverConfig:
    """Optimizer settings.

    ``tolerance`` is the stationarity certificate, a finite, positive real
    number (:func:`~tvhazard.timeline._real`): a fit converges when the
    prox-gradient mapping norm at step 1 of its best iterate, ``G(X) = ||X
    - [prox_1(X - grad f(X))]_+||``, is at most ``tolerance * max(1,
    G(X0))``, ``G(X0)`` the certificate's norm at the start (see the module
    docstring); it is not a bound on the change of the objective.  Every
    line search halves its step from where it opens: FISTA's first at a
    power of two set by the NLL's curvature at the start (see
    :func:`_opening_step`), every later one at 1.5 times the last accepted
    step, at most 1.0.
    """

    penalty: PenaltyConfig
    max_iterations: int = 500
    tolerance: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", _integer(self.max_iterations, "max_iterations"))
        object.__setattr__(self, "tolerance", _real(self.tolerance, "tolerance"))
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: model, convergence record, and bookkeeping.

    ``objective_trace`` holds ``(iteration, penalized objective)`` pairs
    starting at iteration 0: the objective of the best iterate after each
    iteration, so it is nonincreasing and ends at the returned model's.
    ``stop`` is one of ``"certified"``, ``"stalled"``, ``"max_iterations"``
    and ``"step_underflow"``, and ``mapping_norm`` is the certificate's
    relative mapping norm at step 1 of the returned model.
    ``train_nll`` is the unpenalized dataset NLL of the fitted model,
    evaluated on the fit's own :class:`CensoredDesign` exactly as
    :func:`nll_dataset` (and so the evaluation command) evaluates it: the
    two agree bitwise.  ``nonzero_parameter_count`` counts base
    values and jumps exceeding the sparsity epsilon
    (1e-6 x max absolute fitted value).
    """

    model: object
    objective_trace: tuple
    train_nll: float
    mapping_norm: float
    stop: str
    nonzero_parameter_count: int
    config: SolverConfig

    @property
    def converged(self):
        """Whether the fit is certified: ``stop == "certified"``."""
        return self.stop == "certified"


def nonzero_parameter_count(W):
    """Stored parameters above the sparsity epsilon, in jump representation.

    Counts per row: a nonzero base value plus every jump whose magnitude
    exceeds ``1e-6 * max|W|``.
    """
    W = np.asarray(W, float)
    mx = float(np.abs(W).max()) if W.size else 0.0
    if mx == 0.0:
        return 0
    eps = 1e-6 * mx
    count = int((np.abs(W[:, 0]) > eps).sum())
    if W.shape[1] > 1:
        count += int((np.abs(np.diff(W, axis=1)) > eps).sum())
    return count


def _backtrack(design, Y, f, g, step, penalty, D):
    """Backtracking line search of a prox-gradient step from ``Y`` in the
    diagonal metric ``D`` (an array in ``Y``'s shape).

    ``f`` and ``g`` are the smooth value and gradient at ``Y``.  Trial steps
    ``step, step/2, ...`` each cost one prox and one value-only evaluation.
    Returns ``(Z, f(Z), t)`` for the first trial ``Z = prox^D_t(Y - t g /
    D)`` that meets the sufficient-decrease bound ``f(Z) <= f + <g, Z - Y>
    + ||Z - Y||_D^2 / 2t``, or ``(Z, None, t)`` for the last trial once a
    further halving would fall below the step floor.  Near a minimizer
    ``f(Z) - f`` falls below the rounding of ``f`` and the rounded values
    fail the bound at every step until it underflows, so a trial they fail
    by less than ``_ROUNDING * |f|`` is tested again with the exact change
    ``design.nll_change``.
    """
    h = g / D
    while True:
        Z = penalty.prox(Y - step * h, step, D)
        dZ = Z - Y
        fZ = design.nll(Z, floored=True)
        slope = float(np.vdot(g, dZ))
        curve = float(np.vdot(dZ, D * dZ)) / (2.0 * step)
        excess = fZ - (f + slope + curve)
        if excess <= 0.0 or (excess <= _ROUNDING * abs(f)
                             and design.nll_change(Y, dZ) <= slope + curve):
            return Z, fZ, step
        if step * _SHRINK < _STEP_FLOOR:
            return Z, None, step
        step *= _SHRINK


def _opening_step(curvature):
    """The first trial step of FISTA's first line search from curvature
    estimates (an array): the power of two at or above ``8 /
    max(curvature)``, clamped into the trials ``1, 1/2, ...`` that a search
    from 1.0 makes above the step floor; 1.0 for a zero or non-finite
    maximum.

    On the gamma=1 fits of the benchmark's datasets a search from 1.0
    accepted 1.5 to 8.7 times ``1 / max`` of the start's Hessian diagonal
    over the metric, so one from the opening trial took 1-4 trials.
    """
    top = float(np.max(curvature, initial=0.0))
    if not 0.0 < top < math.inf or 8.0 / top >= _MAX_STEP:
        return _MAX_STEP
    mantissa, exponent = math.frexp(max(8.0 / top, _STEP_FLOOR))
    return math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent)


def _metric(design):
    """FISTA's diagonal metric: the design's head exposure per cell.

    A cell with none takes its bracket exposure, and a cell with neither
    the smallest positive entry (all ones if no entry is positive).  Small
    sets on fine knots have many cells with bracket but no head exposure;
    with the smallest positive head exposure in their place, a 12-site set
    on 37 knot intervals had its default gamma=1 fit stop at the 500-
    iteration cap with relative norm 2e-5, where its bracket exposure
    certifies it in 83 iterations."""
    u = design.head_exposure
    D = np.where(u > 0.0, u, design.bracket_exposure)
    positive = D[D > 0.0]
    return np.where(D > 0.0, D, positive.min() if positive.size else 1.0)


def _certificate(penalty, X, g, ref):
    """The relative mapping norm at ``t = 1`` of an iterate ``X`` with
    gradient ``g``: ``||X - [prox_1(X - g)]_+|| / ref``, ``ref`` the
    certificate's norm at the start, at least 1 (see :func:`_start`)."""
    return float(np.linalg.norm(X - penalty.prox(X - g, 1.0))) / ref


def _fit_full_batch(design, config, X, f, g, ref):
    """Monotone FISTA in the diagonal metric of :func:`_metric`, with
    function-value restart, from :func:`_start`'s ``(X, f, g, ref)``.  The
    first line search opens at :func:`_opening_step` of the NLL's Hessian
    diagonal at the start over ``D``; each later one at 1.5 times the last
    accepted step, at most 1.0.

    ``X`` is the best iterate so far and ``Y`` the point the next step
    starts from: ``X`` itself (a momentum-free step) or ``X`` extrapolated
    along its last move and clipped at zero.  A step that does not lower
    the objective, or whose line search underflows at an extrapolated
    point, is not taken and restarts the momentum: the next step starts
    from ``X``.  A momentum-free step that moves ``X`` and ties its
    objective is taken: near a minimizer the objective rounds alike at both
    points.  The step's mapping norm in its metric, ``||D (Y - Z)|| / t /
    ref``, screens for the certificate: a step from an extrapolated
    point that passes the tolerance restarts the momentum too, so that the
    next iteration tests ``X`` itself.  A step from ``X`` tests the
    certificate of :func:`_certificate` at ``X`` when it passes the screen
    or is not taken; the fit ends when the certificate passes (certified),
    or else when the step was not taken: its line search underflowed or it
    raised the objective (stalled).  At the iteration cap the certificate
    is tested at ``X`` once more.

    Returns ``(X, trace, stop, mapping_norm)``: the trace holds the
    objective at ``X`` after every iteration, ``stop`` is ``"certified"``,
    ``"stalled"``, ``"max_iterations"`` or ``"step_underflow"``, and
    ``mapping_norm`` is the certificate's relative mapping norm at the
    returned ``X``.
    """
    pen = config.penalty
    tol = config.tolerance
    D = _metric(design)
    FX = f  # the start has no TV
    trace = [(0, FX)]
    Y, at_x, momentum = X, True, 1.0
    step = _opening_step(design.hessian_diagonal(X) / D)
    for it in range(1, config.max_iterations + 1):
        Z, fZ, t = _backtrack(design, Y, f, g, step, pen, D)
        near = float(np.linalg.norm(D * (Y - Z))) / t / ref <= tol
        FZ = math.inf if fZ is None else fZ + pen.value(Z)
        # a momentum-free step that moves X and ties its objective is taken:
        # near a minimizer the objective rounds alike on both sides of it
        lower = FZ < FX or (at_x and FZ == FX and not np.array_equal(Z, X))
        if at_x and (near or not lower):
            rel = _certificate(pen, X, g, ref)
            if rel <= tol or not lower:
                trace.append((it, FX))
                # a momentum-free step that raised F: X is fixed up to rounding
                stop = "stalled" if fZ is not None else "step_underflow"
                return X, trace, "certified" if rel <= tol else stop, rel
        beta = 0.0
        if lower:
            grown = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / grown
            X_prev, X, FX, momentum = X, Z, FZ, grown
        else:
            momentum = 1.0
        if near:
            beta, momentum = 0.0, 1.0
        if beta > 0.0:
            Y = X + beta * (X - X_prev)
            np.maximum(Y, 0.0, out=Y)
            at_x = False
        else:
            Y, at_x = X, True
        trace.append((it, FX))
        if fZ is not None:
            step = min(t * _GROW, _MAX_STEP)
        f, g = design.nll_grad(Y)
    if not at_x:
        f, g = design.nll_grad(X)
    rel = _certificate(pen, X, g, ref)
    return X, trace, "certified" if rel <= tol else "max_iterations", rel


def _fit_box_lbfgs(design, config, X, f, g, ref):
    """Unpenalized fit (gamma = 0, not monotone): L-BFGS-B (Byrd, Lu,
    Nocedal & Zhu 1995) on the smooth part with the bounds ``W >= 0``, from
    :func:`_start`'s ``(X, f, g, ref)``; L-BFGS-B scales its own first step.

    The certificate is :func:`_fit_full_batch`'s, :func:`_certificate`:
    the fit is certified at the first iterate ``X`` whose relative mapping
    norm at ``t = 1``, ``||X - [X - grad f(X)]_+|| / ref``, is at most
    ``tolerance``.
    L-BFGS-B's own stopping tests are off, so otherwise it stops at the
    iteration cap, or stalls: a step no longer lowers the objective or its
    line search fails.  Returns what :func:`_fit_full_batch` returns; the
    trace holds the objective after every L-BFGS-B iteration.
    """
    pen = config.penalty
    trace = [(0, f)]
    rel = _certificate(pen, X, g, ref)  # at the latest iterate X
    seen = None  # the last point L-BFGS-B evaluated, f and grad f there

    def fun(w):
        nonlocal seen
        val, grad = design.nll_grad(w)
        seen = w.copy(), val, grad
        return val, grad

    def callback(intermediate_result):
        nonlocal X, rel
        # a new iterate is the last point its line search evaluated
        w = intermediate_result.x
        val, grad = seen[1:] if np.array_equal(w, seen[0]) else design.nll_grad(w)
        X = w.reshape(X.shape).copy()
        trace.append((len(trace), val))
        rel = _certificate(pen, X, grad.reshape(X.shape), ref)
        if rel <= config.tolerance:
            raise StopIteration

    with _one_blas_thread():
        optimize.minimize(
            fun, X.ravel(), jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * X.size,
            callback=callback,
            options={"maxiter": config.max_iterations, "maxcor": _LBFGS_MEMORY, "ftol": 0.0,
                     "gtol": 0.0},
        )
    stop = "max_iterations" if len(trace) > config.max_iterations else "stalled"
    return X, trace, "certified" if rel <= config.tolerance else stop, rel


@functools.cache
def _scipy_openblas():
    """SciPy's bundled OpenBLAS, or None where SciPy links another BLAS."""
    for path in glob.glob(os.path.join(scipy.__path__[0], os.pardir, "scipy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads"):
            lib.scipy_openblas_get_num_threads.argtypes = []
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
            return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """SciPy's OpenBLAS on one thread inside the block.  L-BFGS-B hands a
    small triangular solve to a worker thread every iteration, which on a
    busy two-core host waited for a core each time (0.4-0.5 s per sweep fit,
    not 10-20 ms).  The solve splits by columns: the results are the same."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(threads)


def _start(design, config):
    """The one start of every fit, and the certificate's reference.

    The start ``X`` is an intercept at the design's pooled event rate with
    every feature row zero, so it has no TV and its objective is its floored
    NLL ``f``.  Returns ``(X, f, g, ref)``: ``g`` the gradient at ``X`` and
    ``ref`` the certificate's norm at ``X``, at least 1: one prox, no line
    search.  Raises :class:`NumericalError` if ``f`` is not finite.
    """
    X = np.zeros(design.shape)
    X[0, :] = design.pooled_event_rate
    f, g = design.nll_grad(X)
    if not math.isfinite(f):
        raise NumericalError(f"objective not finite at initialization: {f!r}")
    return X, f, g, max(1.0, _certificate(config.penalty, X, g, 1.0))


def fit(observations, config, knots=None):
    """Fit the penalized model; returns a :class:`FitResult`.

    The knot set defaults to :func:`build_knot_set` of the observations
    (candidate jumps at every censoring boundary and feature change time).
    The objective is convex, so the one start (an intercept at the pooled
    event rate, every feature row zero) reaches the optimum.  An
    unpenalized fit (gamma = 0, not monotone) runs L-BFGS-B, every other
    fit monotone FISTA in the head-exposure metric; both certify the same
    way (see the module docstring).  A fit that stops uncertified warns
    once, with a :class:`SolverWarning` that says why.  Deterministic:
    identical observations, config, and knots reproduce the result bitwise.
    """
    observations = list(observations)
    if knots is None:
        knots = build_knot_set(observations)
    design = CensoredDesign(knots, observations)
    pen = config.penalty
    route = _fit_box_lbfgs if pen.gamma == 0.0 and not pen.monotone else _fit_full_batch
    W, trace, stop, rel = route(design, config, *_start(design, config))
    if stop != "certified":
        why = {
            "max_iterations": f"stopped at max_iterations={config.max_iterations}",
            "stalled": f"stalled at iteration {trace[-1][0]}: a step from the best iterate "
            "no longer lowers the objective",
            "step_underflow": f"line-search step size underflowed at iteration {trace[-1][0]}",
        }[stop]
        _warn_at_caller(
            f"{why}, with relative mapping norm {rel:.3g} > tolerance "
            f"{config.tolerance:g}; returning the best iterate",
            SolverWarning,
        )

    model = HazardModel(knots, W)
    return FitResult(
        model=model,
        objective_trace=tuple(trace),
        train_nll=design.nll(model.W),
        mapping_norm=rel,
        stop=stop,
        nonzero_parameter_count=nonzero_parameter_count(W),
        config=config,
    )

