"""Proximal gradient solver for the TV-penalized censored likelihood.

Minimizes, over the coefficient matrix ``W`` (rows = intercept + features,
columns = knot intervals),

    NLL(W) + gamma * sum_rows tv(W[r])        s.t. W >= 0 (+ monotone rows)

by full-batch proximal gradient descent with backtracking line search.  The
knot set is frozen before optimization; candidate jump times are never
inserted adaptively.

Monotone rows are handled by reformulation: on the feasible set their TV
telescopes to the linear term ``W[r, -1] - W[r, 0]``, which joins the smooth
objective, and the row's prox becomes isotonic projection + clipping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .likelihood import CensoredDesign, matrix_model, model_matrix, nll_dataset
from .penalty import PenaltyConfig, fused_lasso_prox, isotonic_project, tv
from .timeline import KnotSet, build_knot_set, merge_times

# Backtracking parameters: shrink on sufficient-decrease violation, regrow on
# acceptance, give up below the floor.
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

    ``step_size`` is the first trial step of the backtracking line search,
    the solver's one step rule.  ``ridge`` adds ``ridge * ||feature rows||^2``
    to the smooth objective (used by the constant baseline).  ``n_starts > 1``
    reruns from perturbed initializations (seeded) and keeps the best
    optimum.
    """

    penalty: PenaltyConfig
    max_iterations: int = 500
    tolerance: float = 1e-7
    step_size: float = 1.0
    seed: int = 0
    n_starts: int = 1
    ridge: float = 0.0

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step_size must be > 0")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


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


def _monotone_rows(pen, n_rows):
    return frozenset(range(n_rows)) if pen.monotone else frozenset()


def _smooth_value_grad(design, W, pen, ridge, mono_rows):
    val, grad = design.nll_grad(W.ravel(), floor=_MASS_FLOOR)
    grad = grad.reshape(W.shape)
    if ridge > 0.0:
        val += ridge * float((W[1:] ** 2).sum())
        grad[1:] += 2.0 * ridge * W[1:]
    if mono_rows and pen.gamma > 0.0 and W.shape[1] > 1:
        # monotone mode binds every row: the linear TV term is whole columns
        for v in (W[:, -1] - W[:, 0]).tolist():
            val += pen.gamma * v
        grad[:, -1] += pen.gamma
        grad[:, 0] -= pen.gamma
    return val, grad


def _nonsmooth(W, pen, mono_rows):
    # gamma * TV of the rows whose TV is not already in the smooth part
    if pen.gamma == 0.0 or W.shape[1] == 1:
        return 0.0
    row_tv = np.abs(np.diff(W, axis=1)).sum(axis=1)
    total = 0.0
    for r, v in enumerate(row_tv.tolist()):
        if r not in mono_rows:
            total += v
    return pen.gamma * total


def _prox_matrix(Y, step, pen, mono_rows):
    """Row-wise prox of ``Y``: isotonic projection on monotone rows, the TV
    prox with weight ``gamma * step`` on the others, then clipping at zero.

    Neither prox raises a row's maximum, so a row that is <= 0 everywhere
    clips to exactly +0.0 and is left zero without calling either prox
    (``np.maximum`` maps -0.0 to +0.0, so the result is bitwise the one the
    prox and the clip would give).  A row whose maximum is NaN is not
    <= 0, so it reaches the prox and its ``ValueError``.
    """
    out = np.zeros_like(Y)
    weight = pen.gamma * step
    for r in np.flatnonzero(~(Y.max(axis=1) <= 0.0)).tolist():
        out[r] = isotonic_project(Y[r]) if r in mono_rows else fused_lasso_prox(Y[r], weight)
    return np.maximum(out, 0.0, out=out)


def _fit_full_batch(design, W0, config, mono_rows, callback):
    pen = config.penalty
    ridge = config.ridge
    W = W0.copy()
    f, g = _smooth_value_grad(design, W, pen, ridge, mono_rows)
    F = f + _nonsmooth(W, pen, mono_rows)
    if not math.isfinite(F):
        raise NumericalError(f"objective not finite at initialization: {F!r}")
    trace = [(0, F)]
    step = config.step_size
    converged = False
    for it in range(1, config.max_iterations + 1):
        while True:
            Wn = _prox_matrix(W - step * g, step, pen, mono_rows)
            dW = Wn - W
            # the accepted trial's gradient is the next iteration's
            fn, gn = _smooth_value_grad(design, Wn, pen, ridge, mono_rows)
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
        Fn = fn + _nonsmooth(Wn, pen, mono_rows)
        W, f, g = Wn, fn, gn
        trace.append((it, Fn))
        if callback is not None:
            callback(it, Fn, W)
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


def _perturbed_start(design, base, k, seed):
    # constant rows only: feasible in both modes, zero TV
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2, k)))
    W = np.zeros_like(base)
    w0 = base[0, 0] if base[0, 0] > 0 else 1.0
    W[0, :] = w0 * math.exp(rng.uniform(-1.0, 1.0))
    W[1:, :] = rng.uniform(0.0, 0.5 * w0, size=(W.shape[0] - 1, 1))
    return W


def fit(observations, config, knots=None, callback=None):
    """Fit the penalized model; returns a :class:`FitResult`.

    The knot set defaults to :func:`build_knot_set` of the observations
    (candidate jumps at every censoring boundary and feature change time).
    Deterministic: identical observations, config, and knots reproduce the
    result bitwise.  ``callback(iteration, objective, W)`` is invoked once
    per accepted iterate.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("no observations")
    if knots is None:
        knots = build_knot_set(observations)
    design = CensoredDesign(knots, observations)
    mono_rows = _monotone_rows(config.penalty, design.d + 1)

    base = _default_start(design)
    best = None
    for k in range(config.n_starts):
        W0 = base if k == 0 else _perturbed_start(design, base, k, config.seed)
        W, trace, conv = _fit_full_batch(design, W0, config, mono_rows, callback)
        if best is None or trace[-1][1] < best[1][-1][1]:
            best = (W, trace, conv)
    W, trace, conv = best

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
    mono_rows = _monotone_rows(config.penalty, design.d + 1)
    # map the fitted solution onto the refined partition (function-preserving)
    W_orig = model_matrix(model)
    starts = refined.boundaries()[:-1]
    cols = [knots.interval_index(s) for s in starts]
    W0 = W_orig[:, cols]
    _, trace, _ = _fit_full_batch(design, W0, config, mono_rows, None)
    return trace[-1][1] - fit_result.objective_trace[-1][1]
