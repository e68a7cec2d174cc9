"""Total-variation penalty: its value and its proximal operator.

:class:`PenaltyConfig` is the nonsmooth part of the fit's objective,
``gamma * sum_rows TV(W[r])`` under ``W >= 0``, with every row nondecreasing
in monotone mode.  Its prox solves, per coefficient row and in the diagonal
metric of per-entry weights ``d > 0`` (all ones by default),

    argmin_w  (1/2) sum_k d_k (y_k - w_k)^2 + weight * sum_l |w[l+1] - w[l]|
    s.t. w >= 0

exactly by Condat's direct algorithm (fused lasso) in its weighted form,
then clips at zero; in one dimension clipping after the TV prox is exact.
The weighted pass is Condat's with the open segment's running weight in
place of its entry count and ``+-weight / d_k`` in place of ``+-weight``;
at unit weights its arithmetic is the unweighted pass's, bitwise.  In
monotone mode the TV of a nondecreasing row is ``w[last] - w[first]``, so
the prox is weighted isotonic projection of the row with ``weight / d``
added to its first entry and taken from its last, then clipping; the
projection is a port of SciPy's pool-adjacent-violators
(``scipy.optimize.isotonic_regression``) to Python lists, bitwise SciPy's
result without SciPy's per-row call overhead or its import.  Both
operators compute ``y +- weight / d``, which loses a row the weight dwarfs;
the screen of :func:`_flat` gives such a row its constant solution, the
weighted mean, instead.  Neither operator raises a (shifted) row's maximum,
so a row that is <= 0 everywhere clips to exactly zero and the prox skips
it; ``fused_lasso_prox`` caps each row at its maximum to keep the skip
bitwise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .timeline import _real, _switch


@dataclass(frozen=True)
class PenaltyConfig:
    """The penalty of one fit: its switches, its value and its prox.

    Every fitted row is clipped at zero, so hazards stay valid rates.

    Parameters
    ----------
    gamma : float
        Total-variation weight, a finite real number >= 0
        (:func:`~tvhazard.timeline._real`), stored as a Python float.
    monotone : bool
        Constrain every coefficient row, the intercept included, to be
        nondecreasing in time; a switch (:func:`~tvhazard.timeline._switch`).
    """

    gamma: float = 0.0
    monotone: bool = False

    def __post_init__(self):
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma"))
        _switch(self.monotone, "monotone")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")

    def value(self, W):
        """``gamma`` times the total variation of the rows of ``W``."""
        if self.gamma == 0.0 or W.shape[1] == 1:
            return 0.0
        row_tv = np.abs(np.diff(W, axis=1)).sum(axis=1)
        # cumsum adds the rows in order; NumPy's sum() is pairwise and
        # Python's compensates float sums from 3.12 on
        return self.gamma * float(np.cumsum(row_tv)[-1])

    def prox(self, Y, step, D=None):
        """The prox of ``gamma * step * TV`` and the constraints, applied to
        every row of ``Y`` in the metric of the positive per-entry weights
        ``D`` (``Y``'s shape; all ones if None; see the module docstring)."""
        out = np.zeros_like(Y)
        weight = self.gamma * step
        D = np.ones_like(Y) if D is None else D
        shifted = Y
        if self.monotone and Y.shape[1] > 1:
            shifted = Y.copy()
            shifted[:, 0] += weight / D[:, 0]
            shifted[:, -1] -= weight / D[:, -1]
        # skipped rows stay +0.0, as the clip would leave them (np.maximum
        # maps -0.0 to +0.0); a NaN maximum is not <= 0, so its row reaches
        # the operator and its ValueError
        active = np.flatnonzero(~(shifted.max(axis=1) <= 0.0))
        if self.monotone and active.size:
            out[active] = isotonic_project(shifted[active], D[active])
            flat = _flat(Y[active], weight, D[active])[0]
            for r, f in zip(active.tolist(), flat):
                # a flat row the shift lost projects to a constant row
                if f and out[r, 0] == out[r, -1]:
                    out[r] = _constant_row(Y[r].tolist(), D[r].tolist())
        elif active.size:
            out[active] = fused_lasso_prox(Y[active], weight, D[active])
        return np.maximum(out, 0.0, out=out)


def _validated(y):
    """``y`` as a float row or 2-D stack of rows: nonempty and finite."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be a row or a 2-D stack of rows, got {y.ndim} dimensions")
    if y.size == 0:
        raise ValueError("y must be nonempty")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    return y


def _weights(d, y):
    """Per-entry weights for the rows of ``y``, as a 2-D stack: ``d`` in
    ``y``'s shape, finite and positive, or all ones if None."""
    rows = y.reshape(-1, y.shape[-1])
    if d is None:
        return np.ones_like(rows)
    d = np.asarray(d, dtype=float)
    if d.shape != y.shape:
        raise ValueError(f"d has shape {d.shape}, not y's {y.shape}")
    if not (np.isfinite(d) & (d > 0.0)).all():
        raise ValueError("d must be finite and > 0")
    return d.reshape(rows.shape)


def fused_lasso_prox(y, weight, d=None):
    """Exact minimizer of ``(1/2) sum_k d_k (y_k - w_k)^2 + weight * TV(w)``,
    of a row ``y`` or of each row of a 2-D stack ``y``, with per-entry
    weights ``d`` in ``y``'s shape (all ones if None).

    Condat's direct algorithm (IEEE Signal Process. Lett. 20(11), 2013),
    weighted, on Python lists of floats, behind the screen of
    :func:`_flat`.  A stack is validated, converted and capped once, so its
    result is bitwise the rows' results stacked, at one call's NumPy
    overhead.
    """
    y = _validated(y)
    if not 0 <= weight < math.inf:
        raise ValueError(f"weight must be finite and >= 0, got {weight!r}")
    d = _weights(d, y)
    if y.shape[-1] == 1 or weight == 0.0:
        return y.copy()
    lam = float(weight)
    rows = y.reshape(d.shape)
    flat, top = _flat(rows, lam, d)
    out = []
    for row, w, f in zip(rows.tolist(), d.tolist(), flat):
        if f:
            out += _constant_row(row, w)
        else:
            _condat_row(row, w, lam, out)
    # rounding can lift a level past max(y), which the minimizer never exceeds;
    # the cap (np.minimum keeps signed zeros) keeps PenaltyConfig.prox's skip bitwise
    return np.minimum(np.array(out).reshape(rows.shape), top).reshape(y.shape)


def _flat(rows, weight, d):
    """Which rows of the 2-D ``rows`` have a constant prox in either mode at
    the weights ``d`` (a list of bools), and their maxima (a column), from
    one sort.  The weighted mean is the prox when all ``|sum_{i<=k} d_i (y_i
    - mean)| <= weight``, and each is at most ``sum(d) * (max - min) / 4``:
    ``4 * weight >= sum(d) * (max - min)`` is exact."""
    ends = np.sort(rows, axis=1)
    return (4.0 * weight >= d.sum(axis=1) * (ends[:, -1] - ends[:, 0])).tolist(), ends[:, -1:]


def _constant_row(row, d):
    """A constant solution: the row (a list) if constant, else its mean
    weighted by the list ``d``."""
    if min(row) == max(row):
        return row
    return [math.fsum(map(operator.mul, row, d)) / math.fsum(d)] * len(row)


def _condat_row(y, d, lam, out):
    """Condat's algorithm on a row ``y`` (a list of at least two floats) at
    per-entry weights ``d`` (a list of positive floats) and weight ``lam >
    0``; appends the solution to the list ``out``.  The open segment runs
    from ``k0`` to ``k``, weighs ``seg`` (the sum of its ``d``), has its
    value in ``[vmin, vmax]`` and the dual at ``k`` in ``[umax, umin]``.  When
    the next entry pushes the dual out of ``[-lam, lam]``, the segment
    closes at one bound, up to where the dual last sat at its limit
    (``kminus``, ``kplus``), and restarts.  Each product with a weight of
    1.0 and each division by one is exact, so at unit weights every
    operation is the unweighted algorithm's."""
    n = len(y)
    k = k0 = kminus = kplus = 0
    mlam = -lam
    umin, umax = lam, mlam
    seg = dk = d[0]
    vmin, vmax = y[0] - lam / dk, y[0] + lam / dk
    twolam = lam + lam
    while True:
        while k == n - 1:
            # at the right end the dual must come to zero
            if umin < 0.0:
                out += [vmin] * (kminus + 1 - k0)
                k = kminus = k0 = kminus + 1
                seg = dk = d[k]
                vmin, umin, umax = y[k], lam, dk * (y[k] + lam / dk - vmax)
            elif umax > 0.0:
                out += [vmax] * (kplus + 1 - k0)
                k = kplus = k0 = kplus + 1
                seg = dk = d[k]
                vmax, umin, umax = y[k], dk * (y[k] - lam / dk - vmin), mlam
            else:
                out += [vmin + umin / seg] * (n - k0)
                return
        k += 1
        yk, dk = y[k], d[k]
        seg += dk
        umin += dk * (yk - vmin)
        if umin < mlam:  # vmin is too high: a jump down after kminus
            out += [vmin] * (kminus + 1 - k0)
            k = kminus = kplus = k0 = kminus + 1
            seg = dk = d[k]
            vmin, vmax = y[k], y[k] + twolam / dk
            umin, umax = lam, mlam
            continue
        umax += dk * (yk - vmax)
        if umax > lam:  # vmax is too low: a jump up after kplus
            out += [vmax] * (kplus + 1 - k0)
            k = kminus = kplus = k0 = kplus + 1
            seg = dk = d[k]
            vmin, vmax = y[k] - twolam / dk, y[k]
            umin, umax = lam, mlam
            continue
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / seg
            umin = lam
        if umax <= mlam:
            kplus = k
            vmax += (umax + lam) / seg
            umax = mlam


def isotonic_project(y, d=None):
    """Projection onto nondecreasing sequences in the metric of per-entry
    weights ``d`` (``y``'s shape; all ones if None), of a row ``y`` or of
    each row of a 2-D stack ``y``.

    SciPy's pool-adjacent-violators (``scipy.optimize.isotonic_regression``),
    ported by :func:`_pava_row` to Python lists, on input validated once:
    each result row is nondecreasing, idempotent, and preserves the row's
    weighted sum.
    """
    y = _validated(y)
    d = _weights(d, y)
    rows = y.reshape(d.shape)
    out = []
    for row, w in zip(rows.tolist(), d.tolist()):
        _pava_row(row, w, out)
    return np.array(out).reshape(y.shape)


def _pava_row(x, w, out):
    """Busing's PAVA (J. Stat. Softw. 102(1), 2022, Algorithm 1) on a row
    ``x`` (a list of floats) at positive weights ``w`` (a list), both
    overwritten; appends the projection to the list ``out``.

    A line-for-line port of SciPy's ``_pava_pybind.pava``, with its two
    ``>=`` tests in place of Busing's ``>`` and its order of operations, so
    the result is bitwise SciPy's.  Blocks are kept in place: block ``b``
    has value ``x[b]``, weight ``w[b]`` and covers entries ``r[b]`` to
    ``r[b + 1] - 1``.  A new entry that does not rise above the last block
    merges with it, takes in the next entries while they do not rise above
    the merged value, then merges back while the previous block does not
    lie below it.
    """
    n = len(x)
    r = [0] * (n + 1)
    r[1] = 1
    b = 0
    xb_prev, wb_prev = x[0], w[0]
    i = 1
    while i < n:
        b += 1
        xb, wb = x[i], w[i]
        if xb_prev >= xb:
            b -= 1
            sb = wb_prev * xb_prev + wb * xb
            wb += wb_prev
            xb = sb / wb
            while i < n - 1 and xb >= x[i + 1]:
                i += 1
                sb += w[i] * x[i]
                wb += w[i]
                xb = sb / wb
            while b > 0 and x[b - 1] >= xb:
                b -= 1
                sb += w[b] * x[b]
                wb += w[b]
                xb = sb / wb
        x[b] = xb_prev = xb
        w[b] = wb_prev = wb
        r[b + 1] = i + 1
        i += 1
    for k in range(b + 1):
        out += [x[k]] * (r[k + 1] - r[k])
