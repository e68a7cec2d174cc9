"""Solver for the TV-penalized censored likelihood.

Minimizes, over the coefficient matrix ``W`` (rows = intercept + features,
columns = knot intervals),

    NLL(W) + gamma * sum_rows TV(W[r])        s.t. W >= 0 (+ monotone mode)

by one of two routes.  Every fit with a TV term or monotone mode runs
monotone FISTA (Beck & Teboulle 2009) with function-value restart
(O'Donoghue & Candes 2015) and backtracking line search.  An unpenalized
fit (gamma = 0, not monotone) is smooth plus the box ``W >= 0`` and runs
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) instead.  The knot set is frozen
before optimization; candidate jump times are never inserted adaptively.

Both routes share one start and one certificate: ``converged`` is a
stationarity certificate.  With ``G_t(X) = ||X - [prox_t(X - t grad
f(X))]_+|| / t`` the prox-gradient mapping norm (Frobenius norm) and ``G1``
its value at FISTA's iteration 1, a fit is certified when its returned
iterate ``X`` has ``G_t(X) <= tolerance * max(1, G1)``.  FISTA tests this
at its accepted step ``t``; steps never exceed 1 and ``G_t`` does not
increase with ``t``, so the bound holds at ``t = 1`` too.  L-BFGS-B takes
``G1`` from one FISTA line search from the start and tests ``t = 1`` after
every iteration.  Every fit starts from the same point, so ``G1`` means the
same for every fit.  The reachable norm is bounded below: once a step's
decrease falls under the rounding error of the objective, a step from
``X`` no longer lowers it and the fit stops as stalled (relative norms of
about 6e-10 to 8e-8 on datasets of 12 to 40 sites), or, when rounding fails
every trial of FISTA's sufficient-decrease test, as a step underflow.
Every uncertified exit warns once, at the first caller outside the package.

The solver sees the problem only through the :class:`CensoredDesign`
(``nll``, ``nll_grad``, ``shape``, ``pooled_event_rate``) and the
:class:`PenaltyConfig` (``value``, ``prox``).  The smooth part is the
likelihood alone; TV and every constraint, monotone mode's too, live in the
penalty's prox.
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

from .likelihood import CensoredDesign, HazardModel, _warn_at_caller, nll_dataset
from .penalty import PenaltyConfig
from .timeline import _window_knots, build_knot_set

# Backtracking parameters: the first trial step of a fit (and the largest
# step), shrink on sufficient-decrease violation, regrow on acceptance, give
# up below the floor.
_FIRST_STEP = 1.0
_SHRINK = 0.5
_GROW = 1.2
_STEP_FLOOR = 1e-12
# Bracket masses are clamped here inside the optimizer (positivity floor).
_MASS_FLOOR = 1e-12
# Corrections L-BFGS-B stores: on the benchmark's unpenalized sweep fits 20
# took 653 iterations where 10 took 902 (ten datasets, n = 1000).
_LBFGS_MEMORY = 20


class NumericalError(RuntimeError):
    """The objective became non-finite where the contract requires finiteness."""


class SolverWarning(UserWarning):
    """Diagnostic from the optimizer (e.g. line-search step underflow)."""


@dataclass(frozen=True)
class SolverConfig:
    """Optimizer settings.

    ``tolerance`` is the stationarity certificate: a fit converges when the
    relative prox-gradient mapping norm at its best iterate, ``G_t(X) /
    max(1, G1)``, is at most ``tolerance`` (see the module docstring); it is
    not a bound on the change of the objective.  The backtracking line search
    starts from a first trial step of 1.0.
    """

    penalty: PenaltyConfig
    max_iterations: int = 500
    tolerance: float = 1e-7

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: model, convergence record, and bookkeeping.

    ``objective_trace`` holds ``(iteration, penalized objective)`` pairs
    starting at iteration 0: the objective of the best iterate after each
    iteration, so it is nonincreasing and ends at the returned model's.
    ``converged`` is ``stop == "certified"``; ``stop`` is one of
    ``"certified"``, ``"stalled"``, ``"max_iterations"`` and
    ``"step_underflow"``, and ``mapping_norm`` is the relative mapping norm
    ``G_t(X) / max(1, G1)`` at the returned model.
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
    converged: bool
    mapping_norm: float
    stop: str
    nonzero_parameter_count: int
    config: SolverConfig


def objective(model, observations, penalty):
    """Penalized objective: dataset NLL + gamma * total variation of all rows,
    bitwise a fit's last traced objective when no bracket mass is floored."""
    return nll_dataset(model, observations) + penalty.value(model.W)


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


def _backtrack(design, Y, f, g, step, config):
    """Backtracking line search of a prox-gradient step from ``Y``.

    ``f`` and ``g`` are the smooth value and gradient at ``Y``.  Trial steps
    ``step, step/2, ...`` each cost one prox and one value-only evaluation.
    Returns ``(Z, f(Z), t)`` for the first trial ``Z = prox_t(Y - t g)``
    that meets the sufficient-decrease bound, or ``(Z, None, t)`` for the
    last trial once a further halving would fall below the step floor.
    """
    while True:
        Z = config.penalty.prox(Y - step * g, step)
        dZ = Z - Y
        fZ = design.nll(Z, floor=_MASS_FLOOR)
        bound = f + float(np.vdot(g, dZ)) + float(np.vdot(dZ, dZ)) / (2.0 * step)
        if fZ <= bound:
            return Z, fZ, step
        if step * _SHRINK < _STEP_FLOOR:
            return Z, None, step
        step *= _SHRINK


def _fit_full_batch(design, config):
    """Monotone FISTA with function-value restart, from :func:`_start`.

    ``X`` is the best iterate so far and ``Y`` the point the next step
    starts from: ``X`` itself (a momentum-free step) or ``X`` extrapolated
    along its last move and clipped at zero.  A step that does not lower
    the objective, or whose line search underflows at an extrapolated
    point, is not taken and restarts the momentum: the next step starts
    from ``X``.  A step from an extrapolated point whose relative mapping
    norm passes the tolerance restarts it too, so that the next iteration
    tests ``X`` itself.  A step from ``X`` ends the fit when its relative
    mapping norm ``||X - Z|| / t / max(1, G1)`` passes (certified), its line
    search underflows, or it does not lower the objective (stalled).  An
    exit at the iteration cap or at an underflow reports the mapping norm
    at ``X`` for the step its last line search started from.

    Returns ``(X, trace, stop, mapping_norm)``: the trace holds the
    objective at ``X`` after every iteration, ``stop`` is ``"certified"``,
    ``"stalled"``, ``"max_iterations"`` or ``"step_underflow"``, and
    ``mapping_norm`` is the relative mapping norm at the returned ``X``.
    """
    pen = config.penalty
    tol = config.tolerance
    X, f, g, first, ref = _start(design, config)
    FX = f  # the start has no TV
    trace = [(0, FX)]
    Y, at_x, momentum = X, True, 1.0
    step = _FIRST_STEP
    for it in range(1, config.max_iterations + 1):
        Z, fZ, t = first if it == 1 else _backtrack(design, Y, f, g, step, config)
        rel = float(np.linalg.norm(Y - Z)) / t / ref
        FZ = math.inf if fZ is None else fZ + pen.value(Z)
        if at_x and (rel <= tol or fZ is None or not FZ < FX):
            trace.append((it, FX))
            if rel <= tol:
                return X, trace, "certified", rel
            if fZ is not None:
                # a momentum-free step that does not lower F: X is a fixed
                # point up to rounding
                return _uncertified(X, trace, "stalled", rel, config, it)
            stop = "step_underflow"
            break
        beta = 0.0
        if FZ < FX:
            grown = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / grown
            X_prev, X, FX, momentum = X, Z, FZ, grown
        else:
            momentum = 1.0
        if rel <= tol:
            beta, momentum = 0.0, 1.0
        if beta > 0.0:
            Y = X + beta * (X - X_prev)
            np.maximum(Y, 0.0, out=Y)
            at_x = False
        else:
            Y, at_x = X, True
        trace.append((it, FX))
        if fZ is not None:
            step = min(t * _GROW, _FIRST_STEP)
        f, g = design.nll_grad(Y, floor=_MASS_FLOOR)
    else:
        stop = "max_iterations"
        if not at_x:
            f, g = design.nll_grad(X, floor=_MASS_FLOOR)
    # G_step(X) for the step the last line search started from
    gap = float(np.linalg.norm(X - pen.prox(X - step * g, step))) / step
    return _uncertified(X, trace, stop, gap / ref, config, it)


def _fit_box_lbfgs(design, config):
    """Unpenalized fit (gamma = 0, not monotone): L-BFGS-B (Byrd, Lu,
    Nocedal & Zhu 1995) on the smooth part with the bounds ``W >= 0``, from
    :func:`_start`.

    The certificate is :func:`_fit_full_batch`'s: ``G1`` is the mapping
    norm of one line search from the start, and the fit is certified at
    the first iterate ``X`` whose relative mapping norm at ``t = 1``,
    ``||X - [X - grad f(X)]_+|| / max(1, G1)``, is at most ``tolerance``.
    L-BFGS-B's own stopping tests are off, so otherwise it stops at the
    iteration cap, or stalls: a step no longer lowers the objective or its
    line search fails.  Returns what :func:`_fit_full_batch` returns; the
    trace holds the objective after every L-BFGS-B iteration.
    """
    pen = config.penalty
    X, f, g, _, ref = _start(design, config)

    def relative_norm(W, grad):
        return float(np.linalg.norm(W - pen.prox(W - grad, 1.0))) / ref

    trace = [(0, f)]
    rel = relative_norm(X, g)  # at the latest iterate X
    seen = None  # the last point L-BFGS-B evaluated, f and grad f there

    def fun(w):
        nonlocal seen
        val, grad = design.nll_grad(w, floor=_MASS_FLOOR)
        seen = w.copy(), val, grad
        return val, grad

    def callback(intermediate_result):
        nonlocal X, rel
        # a new iterate is the last point its line search evaluated
        w = intermediate_result.x
        val, grad = seen[1:] if np.array_equal(w, seen[0]) else design.nll_grad(
            w, floor=_MASS_FLOOR)
        X = w.reshape(X.shape).copy()
        trace.append((len(trace), val))
        rel = relative_norm(X, grad.reshape(X.shape))
        if rel <= config.tolerance:
            raise StopIteration

    with _one_blas_thread():
        optimize.minimize(
            fun, X.ravel(), jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * X.size,
            callback=callback,
            options={"maxiter": config.max_iterations, "maxcor": _LBFGS_MEMORY, "ftol": 0.0,
                     "gtol": 0.0},
        )
    if rel <= config.tolerance:
        return X, trace, "certified", rel
    stop = "max_iterations" if len(trace) > config.max_iterations else "stalled"
    return _uncertified(X, trace, stop, rel, config, len(trace) - 1)


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


def _uncertified(X, trace, stop, rel, config, it):
    why = {
        "max_iterations": f"stopped at max_iterations={config.max_iterations}",
        "stalled": f"stalled at iteration {it}: a step from the best iterate no "
        "longer lowers the objective",
        "step_underflow": f"line-search step size underflowed at iteration {it}",
    }[stop]
    _warn_at_caller(
        f"{why}, with relative mapping norm {rel:.3g} > tolerance "
        f"{config.tolerance:g}; returning the best iterate",
        SolverWarning,
    )
    return X, trace, stop, rel


def _start(design, config):
    """The one start of every fit, and the first line search from it.

    The start is an intercept at the design's pooled event rate with every
    feature row zero, so it has no TV and its objective is its floored NLL
    ``f``.  Returns ``(X, f, g, first, ref)``: ``g`` the gradient at ``X``,
    ``first`` what :func:`_backtrack` returns for a step from ``X`` at the
    first trial step, and ``ref = max(1, G1)`` from that step.  Raises
    :class:`NumericalError` if ``f`` is not finite.
    """
    X = np.zeros(design.shape)
    X[0, :] = design.pooled_event_rate
    f, g = design.nll_grad(X, floor=_MASS_FLOOR)
    if not math.isfinite(f):
        raise NumericalError(f"objective not finite at initialization: {f!r}")
    first = _backtrack(design, X, f, g, _FIRST_STEP, config)
    Z, _, t = first
    return X, f, g, first, max(1.0, float(np.linalg.norm(X - Z)) / t)


def fit(observations, config, knots=None):
    """Fit the penalized model; returns a :class:`FitResult`.

    The knot set defaults to :func:`build_knot_set` of the observations
    (candidate jumps at every censoring boundary and feature change time).
    The objective is convex, so the one start (an intercept at the pooled
    event rate, every feature row zero) reaches the optimum.  An
    unpenalized fit (gamma = 0, not monotone) runs L-BFGS-B, every other
    fit monotone FISTA; both certify the same way (see the module
    docstring).  Deterministic:
    identical observations, config, and knots reproduce the result bitwise.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("no observations")
    if knots is None:
        knots = build_knot_set(observations)
    design = CensoredDesign(knots, observations)
    pen = config.penalty
    route = _fit_box_lbfgs if pen.gamma == 0.0 and not pen.monotone else _fit_full_batch
    W, trace, stop, rel = route(design, config)

    model = HazardModel(knots, W)
    return FitResult(
        model=model,
        objective_trace=tuple(trace),
        train_nll=design.nll(model.W),
        converged=stop == "certified",
        mapping_norm=rel,
        stop=stop,
        nonzero_parameter_count=nonzero_parameter_count(W),
        config=config,
    )


def refine_and_compare(fit_result, observations, extra_knots):
    """Refit on a knot set enriched with uniformly-placed extra knots.

    The refined knot set merges the fit's knots with ``extra_knots`` evenly
    spaced times and, like :func:`build_knot_set`, keeps only times strictly
    inside ``(0, horizon)``.

    Returns ``refined optimum - original optimum`` (penalized objectives).
    If coefficient paths jumping only at censoring boundaries and feature
    change times are sufficient, the delta stays above a small negative
    tolerance: refinement buys nothing.  The refit is ``fit(observations,
    fit_result.config, knots=refined)``, from the same start as every fit.
    """
    knots = fit_result.model.knots
    if extra_knots < 0:
        raise ValueError("extra_knots must be >= 0")
    grid = np.linspace(0.0, knots.horizon, int(extra_knots) + 2)[1:-1]
    refined = _window_knots(list(knots.times) + list(grid), knots.horizon)
    if refined.times == knots.times:
        return 0.0
    refit = fit(observations, fit_result.config, knots=refined)
    return refit.objective_trace[-1][1] - fit_result.objective_trace[-1][1]
