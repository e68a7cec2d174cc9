"""Additive hazard models and the censored negative log-likelihood.

The hazard of a unit with feature path ``x`` is

    lambda(x, t) = w_0(t) + sum_j x_j(t) * w_j(t)

with every coefficient path a nonnegative step function on a shared knot set.
Survival is ``exp(-Lambda(0, t))`` with ``Lambda`` the cumulative hazard.  An
interval-censored observation ``(l, r]`` contributes

    Lambda(0, l) - log(1 - exp(-Lambda(l, r)))

to the negative log-likelihood and a right-censored one contributes
``Lambda(0, at)``.  Every integral is exact piecewise-constant arithmetic
in one engine, :class:`CensoredDesign`, which serves the fit,
:func:`nll_dataset` and :func:`nll_gradient`; the log terms use expm1/log1p
forms that stay accurate for tiny brackets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .timeline import StepFunction, eval_feature, eval_step

_LOG2 = math.log(2.0)


class ZeroBracketWarning(UserWarning):
    """A model assigned exactly zero probability mass to an observed event bracket."""


@dataclass(frozen=True)
class HazardModel:
    """Additive hazard model: intercept plus sparse per-feature coefficient paths.

    Parameters
    ----------
    knots : KnotSet
        Shared partition for every coefficient path.
    d : int
        Feature-space dimension; coefficient keys must lie in ``[0, d)``.
    intercept : StepFunction
        The baseline rate ``w_0``.
    coefficients : dict
        Maps feature index ``j`` to its coefficient path ``w_j``; absent
        features are identically zero.  Treat as immutable after construction.

    All stored values must be nonnegative so that the hazard is a valid rate
    for any nonnegative feature path.
    """

    knots: KnotSet
    d: int
    intercept: StepFunction
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        self._check_row(self.intercept, "intercept")
        for j, sf in self.coefficients.items():
            if not 0 <= int(j) < self.d:
                raise ValueError(f"coefficient index {j} outside [0, {self.d})")
            self._check_row(sf, f"coefficient {j}")

    def _check_row(self, sf, what):
        if sf.knots != self.knots:
            raise ValueError(f"{what} does not share the model's knot set")
        if any(v < 0 for v in sf.values):
            raise ValueError(f"{what} has a negative value; hazards require w >= 0")

    def __call__(self, p, t):
        return hazard(self, p, t)


def hazard(m, p, t):
    """Instantaneous hazard ``w_0(t) + sum_j x_j(t) w_j(t)``."""
    total = eval_step(m.intercept, t)
    for j in m.coefficients.keys() & p.entries.keys():
        total += eval_feature(p, j, t) * eval_step(m.coefficients[j], t)
    return total


def nll_dataset(m, observations):
    """Exact censored NLL of model ``m`` on ``observations`` (0.0 for none).

    Evaluates :class:`CensoredDesign` at the model's coefficients with no
    mass floor: a bracket with exactly zero hazard mass makes the NLL
    ``+inf``, with one :class:`ZeroBracketWarning` that counts such
    brackets, rather than an exception.  Raises ``ValueError`` if a path's
    dimension differs from the model's.
    """
    observations = list(observations)
    if not observations:
        return 0.0
    design = CensoredDesign(m.knots, observations)
    return design.nll(design.flat_coefficients(m))


def model_matrix(m):
    """Dense (d+1, intervals) value matrix; row 0 is the intercept."""
    W = np.zeros((m.d + 1, m.knots.n_intervals))
    W[0] = m.intercept.values
    for j, sf in m.coefficients.items():
        W[j + 1] = sf.values
    return W


def matrix_model(knots, W):
    """Inverse of :func:`model_matrix`; all-zero feature rows are omitted."""
    W = np.asarray(W, float)
    coefficients = {}
    for j in range(1, W.shape[0]):
        if np.any(W[j] != 0.0):
            coefficients[j - 1] = StepFunction(knots, tuple(W[j]))
    return HazardModel(
        knots=knots,
        d=W.shape[0] - 1,
        intercept=StepFunction(knots, tuple(W[0])),
        coefficients=coefficients,
    )


class CensoredDesign:
    """Precomputed exposures for fast NLL and gradient evaluation.

    For coefficient matrix ``W`` (row 0 = intercept) flattened to ``w``, the
    head term of observation ``i`` (hazard mass on ``[0, e_i]``, with ``e_i``
    the bracket's left end or the censoring time) and the mass of each
    interval bracket ``[l_i, r_i]`` are linear in ``w``.

    The constructor takes every nonzero constant run from one segment table
    (:func:`_run_table`) and overlaps every run with every knot interval in
    one broadcast, once for the head window and once for the bracket.
    The dataset NLL needs only the sum of the head terms, so head exposures
    are reduced straight to their column sum ``_u_colsum``; the n x (d+1)K
    matrix of per-observation head exposures is never formed.  Bracket
    exposures are kept as the CSR matrix ``V``, one row per interval
    observation; ``interval_rows`` holds those observations' indices.

    Each cell adds its runs in run order and the column sum adds
    observations in input order, so ``_u_colsum`` and ``V`` are bitwise
    reproducible across runs.
    """

    def __init__(self, knots, observations):
        observations = list(observations)
        d, table = _run_table(observations)
        left = np.array([o.left for o in observations])
        right = np.array([o.right for o in observations])
        outside = np.flatnonzero(right > knots.horizon)
        if outside.size:
            o = observations[outside[0]]
            raise ValueError(
                f"observation times ({o.left}, {o.right}) outside knot range [0, {knots.horizon}]"
            )
        self.knots = knots
        self.observations = observations
        self.d = d
        self.n = len(observations)
        self.n_slots = K = knots.n_intervals
        self.shape = (d + 1, K)

        obs = table[:, 0].astype(np.intp)
        row = table[:, 1].astype(np.intp)
        is_interval = np.array([o.kind == "interval" for o in observations])
        B = knots.boundaries()

        # head window [0, left]: a right-censored observation stores left = right
        head = _run_exposures(table, B, 0.0, left[obs])
        cells = (row[:, None] * K + np.arange(K)).ravel()
        self._u_colsum = np.bincount(cells, weights=head.ravel(), minlength=(d + 1) * K)
        del head, cells

        keep = is_interval[obs]
        table, obs, row = table[keep], obs[keep], row[keep]
        bracket = _run_exposures(table, B, left[obs], right[obs])
        self.interval_rows = np.flatnonzero(is_interval)
        v_row = np.searchsorted(self.interval_rows, obs)
        r, k = np.nonzero(bracket)
        self.V = scipy.sparse.csr_matrix(
            (bracket[r, k], (v_row[r], row[r] * K + k)),
            shape=(len(self.interval_rows), (d + 1) * K),
        )
        # the gradient's product with V.T, stored as CSR: three times faster
        # than going through V.T and bitwise the same (rows added in order)
        self._V_t = self.V.T.tocsr()

    def flat_coefficients(self, m):
        """Model ``m``'s coefficients flattened as this design's ``w``.

        Evaluating several models on one observation set (a gamma sweep's
        validation NLLs) this way builds the design once.  Raises
        ``ValueError`` if ``m``'s knots or dimension differ from the design's.
        """
        if m.knots != self.knots:
            raise ValueError("model and design have different knot sets")
        if m.d != self.d:
            raise ValueError(f"dimension mismatch: model d={m.d}, observations d={self.d}")
        return model_matrix(m).ravel()

    def nll(self, w, floor=0.0):
        """Dataset NLL at flattened coefficients ``w``.

        With ``floor = 0`` the value is exact: zero-mass brackets yield
        ``+inf`` and one :class:`ZeroBracketWarning` that counts them.  With
        ``floor > 0`` bracket masses are clamped below at ``floor``, as in
        :meth:`nll_grad`, whose value this then equals bitwise: the
        optimizer's line-search trials need the value only.
        """
        w = np.asarray(w).ravel()
        total = float(self._u_colsum @ w)
        if self.V.shape[0]:
            br = self.V @ w
            if floor > 0.0:
                br = np.maximum(br, floor)
            elif np.any(br <= 0.0):
                warnings.warn(
                    f"model assigns zero mass to {np.count_nonzero(br <= 0.0)} event "
                    "bracket(s); NLL is +inf",
                    ZeroBracketWarning,
                    stacklevel=3,
                )
                return math.inf
            total += float(-_log1mexp_vec(br).sum())
        return total

    def nll_grad(self, w, floor=0.0):
        """NLL value and gradient (flattened) at ``w``.

        With ``floor > 0`` bracket masses are clamped below at ``floor``
        (optimizer use: keeps the objective finite and smooth near the
        boundary); with ``floor = 0`` the value is bitwise :meth:`nll`'s and
        a zero-mass bracket raises ``ValueError``: the gradient is undefined
        there.
        """
        w = np.asarray(w).ravel()
        value = float(self._u_colsum @ w)
        grad = self._u_colsum.copy()
        if self.V.shape[0]:
            br = self.V @ w
            if floor > 0.0:
                br = np.maximum(br, floor)
            elif np.any(br <= 0.0):
                raise ValueError(
                    "zero-mass event bracket: gradient undefined without a floor; "
                    "keep the intercept strictly positive (positivity floor)"
                )
            value += float(-_log1mexp_vec(br).sum())
            grad -= self._V_t @ _inv_expm1(br)
        return value, grad


def _run_table(observations):
    """Every nonzero constant run of the observations' paths, as one table.

    Returns the paths' common dimension ``d`` and a (runs, 5) float array of
    ``(observation, coefficient row, start, end, value)`` rows, sorted by
    observation, then row, then start.  Row 0 is the intercept, one run of
    value 1 from time 0; feature ``j`` is row ``j + 1``, one run per nonzero
    change until the next change (or forever).  The runs go into one flat
    list, five numbers each, converted once and reshaped; a list of
    per-run tuples made the build about 1.7x as slow.  Raises
    ``ValueError`` for no observations or paths of different dimensions.
    """
    if not observations:
        raise ValueError("no observations")
    d = observations[0].path.d
    flat = []
    for i, o in enumerate(observations):
        if o.path.d != d:
            raise ValueError(f"dimension mismatch: paths with d={d} and d={o.path.d}")
        flat += (i, 0, 0.0, math.inf, 1.0)
        for j, changes in sorted(o.path.entries.items()):
            for c, (start, v) in enumerate(changes):
                if v != 0.0:
                    end = changes[c + 1][0] if c + 1 < len(changes) else math.inf
                    flat += (i, j + 1, start, end, v)
    return d, np.array(flat, dtype=float).reshape(-1, 5)


def _run_exposures(table, B, a, b):
    """Exposure of each segment-table run on its window ``[a, b]``, per knot interval.

    Returns a (runs, intervals) array.  The row of the first run of each
    (observation, coefficient row) holds the sum over that pair's runs, added
    in run order; the rows of its later runs are zero.
    """
    lo = np.maximum(B[:-1], np.maximum(a, table[:, 2])[:, None])
    out = np.minimum(B[1:], np.minimum(b, table[:, 3])[:, None])
    out -= lo
    del lo
    np.clip(out, 0.0, None, out=out)
    out *= table[:, 4][:, None]
    pair = table[:, :2]
    later = np.flatnonzero((pair[1:] == pair[:-1]).all(axis=1)) + 1
    if later.size:
        first = np.arange(len(table))
        first[later] = 0
        np.maximum.accumulate(first, out=first)
        np.add.at(out, first[later], out[later])
        out[later] = 0.0
    return out


def _inv_expm1(x):
    # 1/(e^x - 1) written as e^-x/(1 - e^-x): no overflow for huge x
    return np.exp(-x) / (-np.expm1(-x))


def _log1mexp_vec(x):
    out = np.empty_like(x)
    small = x < _LOG2
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(-x[small]))
        out[~small] = np.log1p(-np.exp(-x[~small]))
    return out


def nll_gradient(m, observations):
    """Exact gradient of :func:`nll_dataset` w.r.t. every coefficient value.

    Returns a dense ``(d+1, intervals)`` array: row 0 is the intercept, row
    ``j+1`` is feature ``j``.  Each right-censored observation contributes
    feature-weighted segment overlaps with ``[0, at]``; each interval
    observation additionally contributes the bracket term
    ``-(exp(-L)/(1-exp(-L))) * dL/dw`` with ``L`` the bracket mass.

    Raises
    ------
    ValueError
        If some bracket has exactly zero mass (gradient undefined there);
        start from a strictly positive intercept to stay off the boundary.
    """
    design = CensoredDesign(m.knots, observations)
    _, grad = design.nll_grad(design.flat_coefficients(m))
    return grad.reshape(design.shape)
