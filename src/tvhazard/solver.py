"""Proximal gradient solver for the TV-penalized censored likelihood.

Minimizes, over the coefficient matrix ``W`` (rows = intercept + features,
columns = knot intervals),

    NLL(W) + gamma * sum_rows tv(W[r])        s.t. W >= 0 (+ monotone mode)

by full-batch proximal gradient descent with backtracking line search.  The
knot set is frozen before optimization; candidate jump times are never
inserted adaptively.

Monotone mode makes every row nondecreasing and is handled by
reformulation: on the feasible set a row's TV telescopes to the linear term
``W[r, -1] - W[r, 0]``, which joins the smooth objective, and the row's prox
becomes isotonic projection + clipping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .likelihood import CensoredDesign, matrix_model, model_matrix, nll_dataset
from .penalty import PenaltyConfig, fused_lasso_prox, isotonic_project, tv
from .timeline import KnotSet, build_knot_set, merge_times

# Backtracking parameters: the first trial step of a fit, shrink on
# sufficient-decrease violation, regrow on acceptance, give up below the floor.
_FIRST_STEP = 1.0
_SHRINK = 0.5
_GROW = 1.2
_STEP_FLOOR = 1e-12
_DECREASE_SLACK = 1e-12
# Bracket masses are clamped here inside the optimizer (positivity floor).
_MASS_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """The objective became non-finite where the contract requires finiteness."""


class SolverWarning(UserWarning):
    """Diagnostic from the optimizer (e.g. line-search step underflow)."""


@dataclass(frozen=True)
class SolverConfig:
    """Optimizer settings.

    The backtracking line search starts from a first trial step of 1.0.
    ``ridge`` adds ``ridge * ||feature rows||^2`` to the smooth objective
    (used by the constant baseline).
    """

    penalty: PenaltyConfig
    max_iterations: int = 500
    tolerance: float = 1e-7
    ridge: float = 0.0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: model, convergence record, and bookkeeping.

    ``objective_trace`` holds ``(iteration, penalized objective)`` pairs
    starting at iteration 0; it is nonincreasing.
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
    nonzero_parameter_count: int
    config: SolverConfig


def objective(model, observations, penalty):
    """Penalized objective: dataset NLL + gamma * total variation of all rows."""
    val = nll_dataset(model, observations)
    val += penalty.gamma * tv(model.intercept.values)
    for j in sorted(model.coefficients):
        val += penalty.gamma * tv(model.coefficients[j].values)
    return val


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


def _smooth_value_grad(design, W, pen, ridge):
    val, grad = design.nll_grad(W.ravel(), floor=_MASS_FLOOR)
    grad = grad.reshape(W.shape)
    if ridge > 0.0:
        val += ridge * float((W[1:] ** 2).sum())
        grad[1:] += 2.0 * ridge * W[1:]
    if pen.monotone and pen.gamma > 0.0 and W.shape[1] > 1:
        # monotone mode binds every row: the linear TV term is whole columns
        for v in (W[:, -1] - W[:, 0]).tolist():
            val += pen.gamma * v
        grad[:, -1] += pen.gamma
        grad[:, 0] -= pen.gamma
    return val, grad


def _nonsmooth(W, pen):
    # gamma * TV of the rows; in monotone mode it is all in the smooth part
    if pen.monotone or pen.gamma == 0.0 or W.shape[1] == 1:
        return 0.0
    row_tv = np.abs(np.diff(W, axis=1)).sum(axis=1)
    # summed in order, not with sum(): Python >= 3.12 compensates float sums
    total = 0.0
    for v in row_tv.tolist():
        total += v
    return pen.gamma * total


def _prox_matrix(Y, step, pen):
    """Row-wise prox of ``Y``: isotonic projection of every row in monotone
    mode, else the TV prox with weight ``gamma * step``, then clipping at
    zero.

    Neither prox raises a row's maximum, so a row that is <= 0 everywhere
    clips to exactly +0.0 and is left zero without calling either prox
    (``np.maximum`` maps -0.0 to +0.0, so the result is bitwise the one the
    prox and the clip would give).  A row whose maximum is NaN is not
    <= 0, so it reaches the prox and its ``ValueError``.
    """
    out = np.zeros_like(Y)
    weight = pen.gamma * step
    for r in np.flatnonzero(~(Y.max(axis=1) <= 0.0)).tolist():
        out[r] = isotonic_project(Y[r]) if pen.monotone else fused_lasso_prox(Y[r], weight)
    return np.maximum(out, 0.0, out=out)


def _fit_full_batch(design, W0, config):
    pen = config.penalty
    ridge = config.ridge
    W = W0.copy()
    f, g = _smooth_value_grad(design, W, pen, ridge)
    F = f + _nonsmooth(W, pen)
    if not math.isfinite(F):
        raise NumericalError(f"objective not finite at initialization: {F!r}")
    trace = [(0, F)]
    step = _FIRST_STEP
    converged = False
    for it in range(1, config.max_iterations + 1):
        while True:
            Wn = _prox_matrix(W - step * g, step, pen)
            dW = Wn - W
            # the accepted trial's gradient is the next iteration's
            fn, gn = _smooth_value_grad(design, Wn, pen, ridge)
            bound = f + float(np.vdot(g, dW)) + float(np.vdot(dW, dW)) / (2.0 * step)
            if fn <= bound + _DECREASE_SLACK:
                break
            step *= _SHRINK
            if step < _STEP_FLOOR:
                warnings.warn(
                    "line-search step size underflowed; returning best iterate",
                    SolverWarning,
                    stacklevel=2,
                )
                return W, trace, False
        Fn = fn + _nonsmooth(Wn, pen)
        W, f, g = Wn, fn, gn
        trace.append((it, Fn))
        rel = abs(F - Fn) / max(1.0, abs(F))
        F = Fn
        if rel < config.tolerance:
            converged = True
            break
        step *= _GROW
    if not converged:
        warnings.warn(
            f"stopped at max_iterations={config.max_iterations} with relative objective "
            f"change {rel:.3g} >= tolerance {config.tolerance:g}; returning the last iterate",
            SolverWarning,
            stacklevel=2,
        )
    return W, trace, converged


def _default_start(design):
    events = len(design.interval_rows)
    exposure = 0.0
    for o in design.observations:
        exposure += o.right if o.kind == "right" else 0.5 * (o.left + o.right)
    w0 = events / exposure if exposure > 0.0 else 0.0
    W = np.zeros((design.d + 1, design.n_slots))
    W[0, :] = w0
    return W


def fit(observations, config, knots=None):
    """Fit the penalized model; returns a :class:`FitResult`.

    The knot set defaults to :func:`build_knot_set` of the observations
    (candidate jumps at every censoring boundary and feature change time).
    The objective is convex, so the one start (an intercept at the pooled
    event rate, every feature row zero) reaches the optimum.  Deterministic:
    identical observations, config, and knots reproduce the result bitwise.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("no observations")
    if knots is None:
        knots = build_knot_set(observations)
    design = CensoredDesign(knots, observations)
    W, trace, conv = _fit_full_batch(design, _default_start(design), config)

    model = matrix_model(knots, W)
    return FitResult(
        model=model,
        objective_trace=tuple(trace),
        train_nll=design.nll(model_matrix(model)),
        converged=conv,
        nonzero_parameter_count=nonzero_parameter_count(W),
        config=config,
    )


def refine_and_compare(fit_result, observations, extra_knots):
    """Refit on a knot set enriched with uniformly-placed extra knots.

    Returns ``refined optimum - original optimum`` (penalized objectives).
    If coefficient paths jumping only at censoring boundaries and feature
    change times are sufficient, the delta stays above a small negative
    tolerance: refinement buys nothing.  The refit warm-starts from the
    original solution mapped onto the refined partition.
    """
    observations = list(observations)
    model = fit_result.model
    knots = model.knots
    config = fit_result.config
    if extra_knots < 0:
        raise ValueError("extra_knots must be >= 0")
    grid = np.linspace(knots.origin, knots.horizon, int(extra_knots) + 2)[1:-1]
    merged = merge_times(list(knots.times) + list(grid))
    if merged == tuple(knots.times):
        return 0.0
    refined = KnotSet(merged, horizon=knots.horizon, origin=knots.origin)

    design = CensoredDesign(refined, observations)
    # map the fitted solution onto the refined partition (function-preserving)
    W_orig = model_matrix(model)
    starts = refined.boundaries()[:-1]
    cols = [knots.interval_index(s) for s in starts]
    W0 = W_orig[:, cols]
    _, trace, _ = _fit_full_batch(design, W0, config)
    return trace[-1][1] - fit_result.objective_trace[-1][1]
