"""Proximal gradient solver for the TV-penalized censored likelihood.

Minimizes, over the coefficient matrix ``W`` (rows = intercept + features,
columns = knot intervals),

    NLL(W) + gamma * sum_rows tv(W[r])        s.t. W >= 0 (+ monotone mode)

by monotone FISTA (Beck & Teboulle 2009) with function-value restart
(O'Donoghue & Candes 2015) and backtracking line search.  The knot set is
frozen before optimization; candidate jump times are never inserted
adaptively.

``converged`` is a stationarity certificate.  With ``G_t(X) = ||X -
[prox_t(X - t grad f(X))]_+|| / t`` the prox-gradient mapping norm (Frobenius
norm, ``t`` the accepted line-search step) and ``G1`` its value at iteration
1, a fit is certified when a step from its best iterate ``X`` has ``G_t(X) <=
tolerance * max(1, G1)``.  Steps never exceed 1 and ``G_t`` does not
increase with ``t``, so the bound holds at ``t = 1`` too.  The reachable
norm is bounded below: once a step's decrease falls under the rounding
error of the objective, a step from ``X`` no longer lowers it and the fit
stops as stalled (relative norms of about 2e-8 to 3e-6 on datasets of a few
dozen sites).  Unpenalized fits (gamma = 0) converge slowly and may still
reach the iteration cap.  Every uncertified exit warns once.

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
from .timeline import _window_knots, build_knot_set

# Backtracking parameters: the first trial step of a fit (and the largest
# step), shrink on sufficient-decrease violation, regrow on acceptance, give
# up below the floor.
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

    ``tolerance`` is the stationarity certificate: a fit converges when the
    relative prox-gradient mapping norm at its best iterate, ``G_t(X) /
    max(1, G1)``, is at most ``tolerance`` (see the module docstring); it is
    not a bound on the change of the objective.  The backtracking line search
    starts from a first trial step of 1.0.  ``ridge`` adds ``ridge *
    ||feature rows||^2`` to the smooth objective (used by the constant
    baseline).
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


def _smooth(design, W, pen, ridge, with_grad=True):
    """Smooth part of the objective at ``W`` (NLL with floored bracket
    masses, ridge, monotone mode's linear TV term) and its gradient, or
    ``None`` for the gradient without ``with_grad``: one ``nll_grad`` or
    one value-only ``nll`` call."""
    if with_grad:
        val, grad = design.nll_grad(W.ravel(), floor=_MASS_FLOOR)
        grad = grad.reshape(W.shape)
    else:
        val, grad = design.nll(W.ravel(), floor=_MASS_FLOOR), None
    if ridge > 0.0:
        val += ridge * float((W[1:] ** 2).sum())
        if with_grad:
            grad[1:] += 2.0 * ridge * W[1:]
    if pen.monotone and pen.gamma > 0.0 and W.shape[1] > 1:
        # monotone mode binds every row: the linear TV term is whole columns
        for v in (W[:, -1] - W[:, 0]).tolist():
            val += pen.gamma * v
        if with_grad:
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


def _backtrack(design, Y, f, g, step, config):
    """Backtracking line search of a prox-gradient step from ``Y``.

    ``f`` and ``g`` are the smooth value and gradient at ``Y``.  Trial steps
    ``step, step/2, ...`` each cost one prox and one value-only evaluation.
    Returns ``(Z, f(Z), t)`` for the first trial ``Z = prox_t(Y - t g)``
    that meets the sufficient-decrease bound, or ``(Z, None, t)`` for the
    last trial once a further halving would fall below the step floor.
    """
    pen = config.penalty
    while True:
        Z = _prox_matrix(Y - step * g, step, pen)
        dZ = Z - Y
        fZ, _ = _smooth(design, Z, pen, config.ridge, with_grad=False)
        bound = f + float(np.vdot(g, dZ)) + float(np.vdot(dZ, dZ)) / (2.0 * step)
        if fZ <= bound + _DECREASE_SLACK:
            return Z, fZ, step
        if step * _SHRINK < _STEP_FLOOR:
            return Z, None, step
        step *= _SHRINK


def _fit_full_batch(design, W0, config):
    """Monotone FISTA with function-value restart, from ``W0``.

    ``X`` is the best iterate so far and ``Y`` the point the next step
    starts from: ``X`` itself (a momentum-free step) or ``X`` extrapolated
    along its last move and clipped at zero.  A step that does not lower
    the objective, or whose line search underflows at an extrapolated
    point, is not taken and restarts the momentum: the next step starts
    from ``X``.  A step from an extrapolated point whose relative mapping
    norm passes the tolerance restarts it too, so that the next iteration
    tests ``X`` itself.  A step from ``X`` ends the fit when its relative
    mapping norm ``||X - Z|| / t / max(1, G1)`` passes (certified), its line
    search underflows, or it does not lower the objective (stalled).

    Returns ``(X, trace, stop, mapping_norm)``: the trace holds the
    objective at ``X`` after every iteration, ``stop`` is ``"certified"``,
    ``"stalled"``, ``"max_iterations"`` or ``"step_underflow"``, and
    ``mapping_norm`` is the relative mapping norm at the returned ``X``.
    """
    pen = config.penalty
    tol = config.tolerance
    X = W0.copy()
    f, g = _smooth(design, X, pen, config.ridge)
    FX = f + _nonsmooth(X, pen)
    if not math.isfinite(FX):
        raise NumericalError(f"objective not finite at initialization: {FX!r}")
    trace = [(0, FX)]
    Y, at_x, momentum = X, True, 1.0
    step = _FIRST_STEP
    ref = None  # max(1, G1): the mapping norm of iteration 1
    for it in range(1, config.max_iterations + 1):
        Z, fZ, t = _backtrack(design, Y, f, g, step, config)
        gap = float(np.linalg.norm(Y - Z)) / t
        if ref is None:
            ref = max(1.0, gap)
        rel = gap / ref
        FZ = math.inf if fZ is None else fZ + _nonsmooth(Z, pen)
        if at_x and (rel <= tol or fZ is None or not FZ < FX):
            trace.append((it, FX))
            if rel <= tol:
                return X, trace, "certified", rel
            # a momentum-free step that does not lower F: X is a fixed
            # point up to rounding
            stop = "step_underflow" if fZ is None else "stalled"
            return _uncertified(X, trace, stop, rel, config, it)
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
        f, g = _smooth(design, Y, pen, config.ridge)
    if not at_x:
        f, g = _smooth(design, X, pen, config.ridge)
    gap = float(np.linalg.norm(X - _prox_matrix(X - step * g, step, pen))) / step
    return _uncertified(X, trace, "max_iterations", gap / ref, config, config.max_iterations)


def _uncertified(X, trace, stop, rel, config, it):
    why = {
        "max_iterations": f"stopped at max_iterations={config.max_iterations}",
        "stalled": f"stalled at iteration {it}: a step from the best iterate no "
        "longer lowers the objective",
        "step_underflow": f"line-search step size underflowed at iteration {it}",
    }[stop]
    warnings.warn(
        f"{why}, with relative mapping norm {rel:.3g} > tolerance "
        f"{config.tolerance:g}; returning the best iterate",
        SolverWarning,
        stacklevel=4,
    )
    return X, trace, stop, rel


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
    W, trace, stop, rel = _fit_full_batch(design, _default_start(design), config)

    model = matrix_model(knots, W)
    return FitResult(
        model=model,
        objective_trace=tuple(trace),
        train_nll=design.nll(model_matrix(model)),
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
    tolerance: refinement buys nothing.  The refit warm-starts from the
    original solution mapped onto the refined partition.
    """
    observations = list(observations)
    model = fit_result.model
    knots = model.knots
    config = fit_result.config
    if extra_knots < 0:
        raise ValueError("extra_knots must be >= 0")
    grid = np.linspace(0.0, knots.horizon, int(extra_knots) + 2)[1:-1]
    refined = _window_knots(list(knots.times) + list(grid), knots.horizon)
    if refined.times == knots.times:
        return 0.0

    design = CensoredDesign(refined, observations)
    # map the fitted solution onto the refined partition (function-preserving)
    W_orig = model_matrix(model)
    starts = refined.boundaries()[:-1]
    cols = [knots.interval_index(s) for s in starts]
    W0 = W_orig[:, cols]
    _, trace, _, _ = _fit_full_batch(design, W0, config)
    return trace[-1][1] - fit_result.objective_trace[-1][1]
