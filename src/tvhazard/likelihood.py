"""Additive hazard models and the censored negative log-likelihood.

The hazard of a unit with feature path ``x`` is

    lambda(x, t) = w_0(t) + sum_j x_j(t) * w_j(t)

with every coefficient path a nonnegative step function on a shared knot set,
so a model is that knot set and one value per (coefficient row, knot
interval): the matrix ``W`` of :class:`HazardModel`, which the design, the
solver and the model files all compute with.  Survival is ``exp(-Lambda(0,
t))`` with ``Lambda`` the cumulative hazard.  An interval-censored
observation ``(l, r]`` contributes

    Lambda(0, l) - log(1 - exp(-Lambda(l, r)))

to the negative log-likelihood and a right-censored one contributes
``Lambda(0, at)``.  Every integral is exact piecewise-constant arithmetic
in one engine, :class:`CensoredDesign`, which serves the fit and
:func:`nll_dataset`; the log terms use expm1/log1p forms that stay accurate
for tiny brackets.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .timeline import _run_table

_LOG2 = math.log(2.0)
# the positivity floor: the optimizer's value, gradient and curvature clamp
# every bracket mass here, so they stay finite and smooth at zero mass
_MASS_FLOOR = 1e-12
# every module of the package lives here
_PACKAGE = os.path.dirname(os.path.abspath(__file__)) + os.sep


class ZeroBracketWarning(UserWarning):
    """A model assigned exactly zero probability mass to an observed event bracket."""


class NumericalError(RuntimeError):
    """The objective became non-finite where the contract requires finiteness."""


def _warn_at_caller(message, category):
    """Warn at the first caller outside the package."""
    frame, level = sys._getframe(), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


@dataclass(frozen=True, eq=False)
class HazardModel:
    """Additive hazard model: one value per coefficient row and knot interval.

    ``W`` is the (d+1, intervals) matrix on the shared partition ``knots``:
    row 0 is the intercept ``w_0``, row ``j + 1`` feature ``j``'s path
    ``w_j``, and column ``k`` the ``k``-th interval (at a breakpoint a path
    takes the value to its right).  It is stored as a read-only float copy
    with zero as +0.0, so a model never depends on the sign of a zero.  Every
    value must be finite and nonnegative, so that the hazard is a valid rate
    for any nonnegative feature path.  Models compare by value and are
    unhashable.
    """

    knots: KnotSet
    W: np.ndarray

    def __post_init__(self):
        # -0.0 + 0.0 is +0.0; every other float is unchanged
        W = np.asarray(self.W, dtype=float) + 0.0
        if W.ndim != 2 or W.shape[0] == 0 or W.shape[1] != self.knots.n_intervals:
            raise ValueError(f"W has shape {W.shape}, not (d+1, {self.knots.n_intervals})")
        if not (np.isfinite(W) & (W >= 0.0)).all():
            raise ValueError("W has a non-finite or negative value; hazards require 0 <= w < inf")
        W.flags.writeable = False
        object.__setattr__(self, "W", W)

    @property
    def d(self):
        """Feature-space dimension: the number of rows after the intercept."""
        return self.W.shape[0] - 1

    def __eq__(self, other):
        if not isinstance(other, HazardModel):
            return NotImplemented
        return self.knots == other.knots and np.array_equal(self.W, other.W)


def nll_dataset(m, observations):
    """Exact censored NLL of model ``m`` on ``observations`` (0.0 for none).

    Evaluates :class:`CensoredDesign` at the model's coefficients with no
    mass floor (:meth:`CensoredDesign.nll`): a bracket with exactly zero
    hazard mass makes the NLL ``+inf``, with one :class:`ZeroBracketWarning`
    that counts such brackets, rather than an exception, and a NaN total
    raises :class:`NumericalError`.  Raises ``ValueError`` if a path's
    dimension differs from the model's or a record ends past its horizon.
    """
    observations = list(observations)
    if not observations:
        return 0.0
    design = CensoredDesign(m.knots, observations)
    if m.d != design.d:
        raise ValueError(f"dimension mismatch: model d={m.d}, observations d={design.d}")
    return design.nll(m.W)


def model_matrix(m):
    """A writable copy of ``m.W``: the (d+1, intervals) matrix, row 0 the intercept."""
    return m.W.copy()


class CensoredDesign:
    """Precomputed exposures for fast NLL and gradient evaluation.

    For coefficient matrix ``W`` (row 0 = intercept), the head term of
    observation ``i`` (hazard mass on ``[0, e_i]``, with ``e_i`` the
    bracket's left end or the censoring time) and the mass of each interval
    bracket ``[l_i, r_i]`` are linear in ``W``.  Every method takes ``W``
    of shape ``shape`` = (d+1, intervals) or flattened row by row.
    :meth:`nll` is exact by default; the optimizer's :meth:`nll_grad`,
    :meth:`nll_change`, :meth:`hessian_diagonal` and ``nll(w,
    floored=True)`` clamp every bracket mass below at ``_MASS_FLOOR``.

    The constructor reads the records' run table
    (:func:`tvhazard.timeline._run_table`, gathered without a walk when
    the knot set was built from them) and overlaps every run with every
    knot interval in one broadcast, once for the head window and once for
    the bracket.  An exposure (a feature value times a time span) that
    overflows raises :class:`NumericalError`.
    The dataset NLL needs only the sum of the head terms, so head exposures
    are reduced straight to their column sum ``_u_colsum``; the n x (d+1)K
    matrix of per-observation head exposures is never formed.  Bracket
    exposures are kept as the CSR matrix ``V``, one row per interval
    observation, in input order.
    ``pooled_event_rate`` is the observations' events over exposure
    (:func:`_pooled_event_rate`), the solver's start intercept.

    Each cell adds its runs in run order and the column sum adds
    observations in input order, so ``_u_colsum`` and ``V`` are bitwise
    reproducible across runs.
    """

    def __init__(self, knots, observations):
        d, table, left, right, is_interval = _run_table(list(observations))
        outside = np.flatnonzero(right > knots.horizon)
        if outside.size:
            i = outside[0]
            raise ValueError(
                f"observation times ({left[i]}, {right[i]}) outside knot range [0, {knots.horizon}]"
            )
        self.pooled_event_rate = _pooled_event_rate(left, right, is_interval)
        self.d = d
        K = knots.n_intervals
        self.shape = (d + 1, K)

        obs = table[:, 0].astype(np.intp)
        row = table[:, 1].astype(np.intp)
        B = knots.boundaries()

        # head window [0, left]: a right-censored observation stores left = right
        head = _run_exposures(table, B, 0.0, left[obs])
        cells = (row[:, None] * K + np.arange(K)).ravel()
        self._u_colsum = np.bincount(cells, weights=head.ravel(), minlength=(d + 1) * K)
        del head, cells

        keep = is_interval[obs]
        table, obs, row = table[keep], obs[keep], row[keep]
        bracket = _run_exposures(table, B, left[obs], right[obs])
        interval_rows = np.flatnonzero(is_interval)
        v_row = np.searchsorted(interval_rows, obs)
        r, k = np.nonzero(bracket)
        self.V = scipy.sparse.csr_matrix(
            (bracket[r, k], (v_row[r], row[r] * K + k)),
            shape=(len(interval_rows), (d + 1) * K),
        )
        if not (np.isfinite(self._u_colsum).all() and np.isfinite(self.V.data).all()):
            raise NumericalError("an exposure (a feature value times a time span) overflows")
        # the gradient's product with V.T, stored as CSR: three times faster
        # than going through V.T and bitwise the same (rows added in order)
        self._V_t = self.V.T.tocsr()

    @property
    def head_exposure(self):
        """The head exposure of each cell, summed over the observations, in
        the shape of ``W``: the constant part of the NLL's gradient."""
        return self._u_colsum.reshape(self.shape)

    @property
    def bracket_exposure(self):
        """The bracket exposure of each cell, summed over the interval
        observations, in the shape of ``W``."""
        return np.asarray(self.V.sum(axis=0)).reshape(self.shape)

    def nll(self, w, floored=False):
        """Dataset NLL at coefficients ``w``.

        By default the value is exact: zero-mass brackets yield ``+inf``
        and one :class:`ZeroBracketWarning` that counts them, and a NaN
        total raises :class:`NumericalError`.  With ``floored`` it is
        :meth:`nll_grad`'s value bitwise, bracket masses clamped at the
        floor: the optimizer's line-search trials need the value only.
        """
        w = np.asarray(w).ravel()
        total = float(self._u_colsum @ w)
        br = self.V @ w
        if floored:
            return total + float(-_bracket_terms(np.maximum(br, _MASS_FLOOR))[0].sum())
        zero = np.count_nonzero(br <= 0.0)
        if zero:
            _warn_at_caller(f"model assigns zero mass to {zero} event bracket(s); NLL is +inf",
                            ZeroBracketWarning)
        total += math.inf if zero else float(-_bracket_terms(br)[0].sum())
        if math.isnan(total):
            raise NumericalError("total NLL is NaN: a coefficient is NaN or a term overflows")
        return total

    def nll_change(self, w, dw):
        """``nll(w + dw, floored=True) - nll(w, floored=True)`` from the
        change of each term: accurate to the rounding of the change itself,
        where the difference of the two rounded values is lost once it falls
        below the rounding of either.  A bracket whose mass moves from ``b``
        to ``b + db`` changes its term by ``-log1p(r)``, ``r = (1 - e^-db) /
        (e^b - 1)``, while ``|r| <= 1/2``; beyond that its two terms differ
        by more than their rounding and are subtracted."""
        w = np.asarray(w).ravel()
        dw = np.asarray(dw).ravel()
        b, db = self.V @ w, self.V @ dw
        moved = b + db
        low = (b < _MASS_FLOOR) | (moved < _MASS_FLOOR)
        if low.any():
            b, moved = np.maximum(b, _MASS_FLOOR), np.maximum(moved, _MASS_FLOOR)
            db = np.where(low, moved - b, db)
        log_mass, inv = _bracket_terms(b)
        r = -np.expm1(-db) * inv
        change = log_mass - _bracket_terms(moved)[0]
        small = np.abs(r) <= 0.5
        change[small] = -np.log1p(r[small])
        return float(self._u_colsum @ dw) + float(change.sum())

    def nll_grad(self, w):
        """Floored NLL value and its gradient at ``w``, the gradient in
        ``w``'s shape: the value is ``nll(w, floored=True)`` bitwise, and a
        zero-mass bracket contributes the finite gradient of a bracket at
        the floor."""
        shape = np.shape(w)
        w = np.asarray(w).ravel()
        log_mass, inv = _bracket_terms(np.maximum(self.V @ w, _MASS_FLOOR))
        value = float(self._u_colsum @ w) + float(-log_mass.sum())
        return value, (self._u_colsum - self._V_t @ inv).reshape(shape)

    def hessian_diagonal(self, w):
        """The diagonal of the floored NLL's Hessian at ``w``, in ``w``'s shape.

        A bracket of mass ``b`` has the term ``-log(1 - e^-b)``, whose second
        derivative is ``inv (1 + inv)`` with ``inv = 1/(e^b - 1)``; the
        diagonal is ``(V o V)^T`` of those (zeros without interval
        observations).  FISTA opens its first line search from it.
        """
        inv = _bracket_terms(np.maximum(self.V @ np.asarray(w).ravel(), _MASS_FLOOR))[1]
        return (self._V_t.power(2) @ (inv * (1.0 + inv))).reshape(np.shape(w))


def _pooled_event_rate(left, right, is_interval):
    """Events over exposure, added in input order (``cumsum``, not the pairwise
    ``sum``); an event's exposure ends at its bracket's midpoint.  A total
    past the float maximum gives 0.0: the design then refuses its exposures."""
    exposure = right.copy()
    exposure[is_interval] = 0.5 * (left[is_interval] + right[is_interval])
    with np.errstate(over="ignore"):
        exposure = float(np.cumsum(exposure)[-1])
    return int(is_interval.sum()) / exposure if exposure > 0.0 else 0.0


@np.errstate(over="ignore", invalid="ignore")
def _run_exposures(table, B, a, b):
    """Exposure of each segment-table run on its window ``[a, b]``, per knot interval.

    Returns a (runs, intervals) array.  The row of the first run of each
    (observation, coefficient row) holds the sum over that pair's runs, added
    in run order; the rows of its later runs are zero.  An overflow gives
    ``inf`` or NaN without a warning: the design refuses it once.
    """
    lo = np.maximum(B[:-1], np.maximum(a, table[:, 2])[:, None])
    out = np.minimum(B[1:], np.minimum(b, table[:, 3])[:, None])
    out -= lo
    del lo
    np.clip(out, 0.0, None, out=out)
    out *= table[:, 4][:, None]
    obs, row = table[:, 0], table[:, 1]
    later = np.flatnonzero((obs[1:] == obs[:-1]) & (row[1:] == row[:-1])) + 1
    if later.size:
        first = np.arange(len(table))
        first[later] = 0
        np.maximum.accumulate(first, out=first)
        np.add.at(out, first[later], out[later])
        out[later] = 0.0
    return out


def _bracket_terms(x):
    """``log(1 - e^-x)`` and ``1/(e^x - 1)`` of each bracket mass ``x``, from
    one ``exp`` and one ``expm1``."""
    e, one_minus_e = np.exp(-x), -np.expm1(-x)
    # log(1 - e^-x) through expm1 below log 2 and through log1p above;
    # 1/(e^x - 1) written as e^-x/(1 - e^-x): no overflow for huge x, and
    # +inf, the rounded value, for a subnormal x below 1/max float
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(x < _LOG2, np.log(one_minus_e), np.log1p(-e)), e / one_minus_e
