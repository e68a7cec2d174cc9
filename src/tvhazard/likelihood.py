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
from itertools import chain

import numpy as np
import scipy.sparse

_LOG2 = math.log(2.0)
# every module of the package lives here
_PACKAGE = os.path.dirname(os.path.abspath(__file__)) + os.sep


class ZeroBracketWarning(UserWarning):
    """A model assigned exactly zero probability mass to an observed event bracket."""


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
    mass floor: a bracket with exactly zero hazard mass makes the NLL
    ``+inf``, with one :class:`ZeroBracketWarning` that counts such
    brackets, rather than an exception.  Raises ``ValueError`` if a path's
    dimension differs from the model's.
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
    bracket ``[l_i, r_i]`` are linear in ``W``.  :meth:`nll` and
    :meth:`nll_grad` take ``W`` of shape ``shape`` = (d+1, intervals) or
    flattened row by row.

    The constructor takes every nonzero constant run from one segment table
    (:func:`_run_table`) and overlaps every run with every knot interval in
    one broadcast, once for the head window and once for the bracket.
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

    def nll(self, w, floor=0.0):
        """Dataset NLL at coefficients ``w``.

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
                _warn_at_caller(
                    f"model assigns zero mass to {np.count_nonzero(br <= 0.0)} event "
                    "bracket(s); NLL is +inf",
                    ZeroBracketWarning,
                )
                return math.inf
            total += float(-_bracket_terms(br)[0].sum())
        return total

    def nll_change(self, w, dw, floor):
        """``nll(w + dw, floor) - nll(w, floor)`` from the change of each
        term, ``floor > 0``: accurate to the rounding of the change itself,
        where the difference of the two rounded values is lost once it falls
        below the rounding of either.  A bracket whose mass moves from ``b``
        to ``b + db`` changes its term by ``-log1p(r)``, ``r = (1 - e^-db) /
        (e^b - 1)``, while ``|r| <= 1/2``; beyond that its two terms differ
        by more than their rounding and are subtracted."""
        w = np.asarray(w).ravel()
        dw = np.asarray(dw).ravel()
        total = float(self._u_colsum @ dw)
        if self.V.shape[0]:
            b, db = self.V @ w, self.V @ dw
            moved = b + db
            low = (b < floor) | (moved < floor)
            if low.any():
                b, moved = np.maximum(b, floor), np.maximum(moved, floor)
                db = np.where(low, moved - b, db)
            log_mass, inv = _bracket_terms(b)
            r = -np.expm1(-db) * inv
            change = log_mass - _bracket_terms(moved)[0]
            small = np.abs(r) <= 0.5
            change[small] = -np.log1p(r[small])
            total += float(change.sum())
        return total

    def nll_grad(self, w, floor=0.0):
        """NLL value and gradient at ``w``, the gradient in ``w``'s shape.

        With ``floor > 0`` bracket masses are clamped below at ``floor``
        (optimizer use: keeps the objective finite and smooth near the
        boundary); with ``floor = 0`` the value is bitwise :meth:`nll`'s and
        a zero-mass bracket raises ``ValueError``: the gradient is undefined
        there.
        """
        shape = np.shape(w)
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
            log_mass, inv = _bracket_terms(br)
            value += float(-log_mass.sum())
            grad -= self._V_t @ inv
        return value, grad.reshape(shape)

    def hessian_diagonal(self, w, floor):
        """The diagonal of the NLL's Hessian at ``w``, in ``w``'s shape, with
        bracket masses clamped below at ``floor > 0`` as in :meth:`nll_grad`.

        A bracket of mass ``b`` has the term ``-log(1 - e^-b)``, whose second
        derivative is ``inv (1 + inv)`` with ``inv = 1/(e^b - 1)``; the
        diagonal is ``(V o V)^T`` of those (zeros without interval
        observations).  The solver opens its first line searches from it.
        """
        shape = np.shape(w)
        V_t = self._V_t
        if not V_t.nnz:
            return np.zeros(shape)
        inv = _bracket_terms(np.maximum(self.V @ np.asarray(w).ravel(), floor))[1]
        squared = scipy.sparse.csr_matrix((V_t.data * V_t.data, V_t.indices, V_t.indptr),
                                          shape=V_t.shape)
        return (squared @ (inv * (1.0 + inv))).reshape(shape)


def _run_table(observations):
    """The one pass over the observations: their paths' nonzero constant
    runs as one table, and their brackets and kinds.

    Returns the paths' common dimension ``d``; a (runs, 5) float array of
    ``(observation, coefficient row, start, end, value)`` rows, sorted by
    observation, then row, then start; and the ``left`` and ``right`` ends
    and ``is_interval`` flags, in input order.  Row 0 is the intercept, one
    run of value 1 from time 0; feature ``j`` is row ``j + 1``, one run per
    nonzero change until the next change (or forever).  Python only chains
    the paths' change lists into flat arrays; the runs' ends, their
    observation and row columns and the intercept rows are filled by NumPy.
    Raises ``ValueError`` for no observations or paths of different
    dimensions.
    """
    if not observations:
        raise ValueError("no observations")
    n = len(observations)
    paths = [o.path for o in observations]
    dims = [p.d for p in paths]
    d = dims[0]
    if dims.count(d) != n:
        other = next(x for x in dims if x != d)
        raise ValueError(f"dimension mismatch: paths with d={d} and d={other}")
    left = np.array([o.left for o in observations])
    right = np.array([o.right for o in observations])
    is_interval = np.array([o.kind == "interval" for o in observations])
    # one item per feature with changes, in path order
    entries = [p.entries for p in paths]
    changes = list(chain.from_iterable(map(dict.values, entries)))
    size = np.array(list(map(len, changes)), dtype=np.intp)
    flat = np.array(list(chain.from_iterable(chain.from_iterable(changes))), dtype=float)
    start, value = flat.reshape(-1, 2).T
    # each change lasts until its feature's next change, the last one forever
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[np.cumsum(size) - 1] = math.inf
    row = np.repeat(np.array(list(chain.from_iterable(entries)), dtype=np.intp) + 1, size)
    obs = np.repeat(np.repeat(np.arange(n), list(map(len, entries))), size)
    keep = value != 0.0
    table = np.empty((n + int(keep.sum()), 5))
    table[:n] = (0.0, 0.0, 0.0, math.inf, 1.0)
    table[:n, 0] = np.arange(n)
    for c, column in enumerate((obs, row, start, end, value)):
        table[n:, c] = column[keep]
    # intercept runs first; the stable sort by (observation, row) keeps each
    # feature's runs in time order
    key = np.concatenate((np.arange(n) * (d + 1), (obs * (d + 1) + row)[keep]))
    return d, table[np.argsort(key, kind="stable")], left, right, is_interval


def _pooled_event_rate(left, right, is_interval):
    """Events over exposure, added in input order (``cumsum``, not the pairwise
    ``sum``); an event's exposure ends at its bracket's midpoint."""
    exposure = float(np.cumsum(np.where(is_interval, 0.5 * (left + right), right))[-1])
    return int(is_interval.sum()) / exposure if exposure > 0.0 else 0.0


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
