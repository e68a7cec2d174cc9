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

    The constructor takes every nonzero constant run from one segment table
    (:func:`_run_table`) and overlaps every run with every knot interval in
    one broadcast, once for the head window and once for the bracket.
    The table of a list of records is walked from their paths once and
    kept as one read-only block that the records point to: a later design
    over records of that one block (the same list, a permutation, a
    sublist, repeats) gathers its rows from it, while records never
    walked, or from two blocks, are walked again.  A block holds 40 B per
    run and about 110 B per record, its ``(block, position)`` pair
    included, and is freed with the records.
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
            raise NumericalError(
                "total NLL is NaN: an exposure overflows (a feature value times a time "
                "span) where the weight is zero, or a coefficient is NaN"
            )
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
        observations).  The solver opens its first line searches from it.
        """
        inv = _bracket_terms(np.maximum(self.V @ np.asarray(w).ravel(), _MASS_FLOOR))[1]
        return (self._V_t.power(2) @ (inv * (1.0 + inv))).reshape(np.shape(w))


def _run_table(observations):
    """The paths' nonzero constant runs as one table, and the records'
    brackets and kinds, from one walk over each set of records.

    Returns the paths' common dimension ``d``; a (runs, 5) float array of
    ``(observation, coefficient row, start, end, value)`` rows, sorted by
    observation, then row, then start; and the ``left`` and ``right`` ends
    and ``is_interval`` flags, in input order.  Row 0 is the intercept, one
    run of value 1 from time 0; feature ``j`` is row ``j + 1``, one run per
    nonzero change until the next change (or forever).

    The first call over a list walks its paths (:func:`_walk`) and keeps
    the result as one read-only block, stamping each record with
    ``Observation._runs = (block, position)``; that call returns the
    block's own arrays.  A later call whose records all carry one block
    (a permutation, a sublist, repeats) gathers their rows from it with
    NumPy, bitwise what a walk would give.  Records never walked, or from
    two blocks, are walked and stamped again.  Raises ``ValueError`` for no
    observations or paths of different dimensions.
    """
    if not observations:
        raise ValueError("no observations")
    first = observations[0]._runs
    if first is not None:
        block = first[0]
        stamps = [o._runs for o in observations]
        if all(s is not None and s[0] is block for s in stamps):
            return _gather(block, np.fromiter((s[1] for s in stamps), np.intp, len(stamps)))
    d, table, left, right, is_interval = _walk(observations)
    for array in (table, left, right, is_interval):
        array.flags.writeable = False
    # each record's rows start at the first row of its observation number
    offsets = np.searchsorted(table[:, 0], np.arange(len(observations) + 1))
    # a tuple of an int and arrays, so the cyclic collector stops tracking
    # it, and then the stamps that hold it
    block = (d, table, offsets, left, right, is_interval)
    stamp = object.__setattr__
    for i, o in enumerate(observations):
        stamp(o, "_runs", (block, i))
    return d, table, left, right, is_interval


def _gather(block, positions):
    """:func:`_walk`'s result for the block's records at ``positions``:
    their rows in that order, renumbered."""
    d, table, offsets, left, right, is_interval = block
    first = offsets[positions]
    count = offsets[positions + 1] - first
    # row r of the result is row (first of its record) + (its rank there)
    starts = np.cumsum(count) - count
    rows = np.arange(int(count.sum())) + np.repeat(first - starts, count)
    out = table[rows]
    out[:, 0] = np.repeat(np.arange(len(positions)), count)
    return d, out, left[positions], right[positions], is_interval[positions]


def _walk(observations):
    """The one Python pass over the records' paths behind :func:`_run_table`.

    Python only chains the paths' change lists into flat arrays; the runs'
    ends, their observation and row columns and the intercept rows are
    filled by NumPy.
    """
    n = len(observations)
    paths = [o.path for o in observations]
    dims = [p.d for p in paths]
    d = dims[0]
    if dims.count(d) != n:
        other = next(x for x in dims if x != d)
        raise ValueError(f"dimension mismatch: paths with d={d} and d={other}")
    left = np.array([o.left for o in observations])
    right = np.array([o.right for o in observations])
    is_interval = np.fromiter((o.kind == "interval" for o in observations), bool, n)
    # one item per feature with changes, in path order; fromiter skips the
    # type discovery that np.array does on a list
    entries = [p.entries for p in paths]
    changes = list(chain.from_iterable(map(dict.values, entries)))
    size = np.fromiter(map(len, changes), np.intp, len(changes))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(changes)), float)
    start, value = flat.reshape(-1, 2).T
    # each change lasts until its feature's next change, the last one forever
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[np.cumsum(size) - 1] = math.inf
    row = np.repeat(np.fromiter(chain.from_iterable(entries), np.intp, len(changes)) + 1, size)
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
