"""Total-variation penalty: its value and its proximal operator.

:class:`PenaltyConfig` is the nonsmooth part of the fit's objective,
``gamma * sum_rows TV(W[r])`` under ``W >= 0``, with every row nondecreasing
in monotone mode.  Its prox solves, per coefficient row,

    argmin_w  (1/2) ||y - w||^2 + weight * sum_l |w[l+1] - w[l]|    s.t. w >= 0

exactly by dynamic-programming message passing (fused lasso), then clips at
zero; in one dimension clipping after the TV prox is exact.
The recursion runs on Python floats: on NumPy arrays, boxing a scalar per
element access made it 3-4x slower, and its result is bitwise the array
version's.  ``fused_lasso_prox`` also takes a 2-D stack of rows, bitwise as
the rows one by one, so one call per step proxes every row that needs it.
In monotone mode the TV of a nondecreasing row telescopes to the linear
term ``w[last] - w[first]``, so the prox is isotonic projection
(``scipy.optimize.isotonic_regression``) of the row with ``weight`` added to
its first entry and taken from its last, then clipping, row by row.
Neither operator raises a (shifted) row's maximum, so a row that is <= 0
everywhere clips to exactly zero and the prox skips it; ``fused_lasso_prox``
caps each row at its maximum to keep the skip bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize


@dataclass(frozen=True)
class PenaltyConfig:
    """The penalty of one fit: its switches, its value and its prox.

    Every fitted row is clipped at zero, so hazards stay valid rates.

    Parameters
    ----------
    gamma : float
        Total-variation weight, finite and >= 0.
    monotone : bool
        Constrain every coefficient row, the intercept included, to be
        nondecreasing in time.
    """

    gamma: float = 0.0
    monotone: bool = False

    def __post_init__(self):
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

    def prox(self, Y, step):
        """The prox of ``gamma * step * TV`` and the constraints, applied to
        every row of ``Y`` (see the module docstring)."""
        out = np.zeros_like(Y)
        weight = self.gamma * step
        if self.monotone and Y.shape[1] > 1:
            Y = Y.copy()
            Y[:, 0] += weight
            Y[:, -1] -= weight
        # skipped rows stay +0.0, as the clip would leave them (np.maximum
        # maps -0.0 to +0.0); a NaN maximum is not <= 0, so its row reaches
        # the operator and its ValueError
        active = np.flatnonzero(~(Y.max(axis=1) <= 0.0))
        if self.monotone:
            for r in active.tolist():
                out[r] = isotonic_project(Y[r])
        elif active.size:
            out[active] = fused_lasso_prox(Y[active], weight)
        return np.maximum(out, 0.0, out=out)


def _validated(y, name="y"):
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(y).all():
        raise ValueError(f"{name} must be finite")
    return y


def fused_lasso_prox(y, weight):
    """Exact minimizer of ``(1/2)||y - w||^2 + weight * TV(w)``, of a row
    ``y`` or of each row of a 2-D stack ``y``.

    Dynamic-programming message passing over the piecewise-linear
    derivative of the backward value function: left-to-right, each step
    clips the derivative at ``+-weight`` and records the clip locations;
    the right-to-left sweep then reads the solution off the recorded
    thresholds.  Linear time per row, exact up to float arithmetic; no
    row's result exceeds that row's maximum.

    The recursion runs on Python lists of floats: indexing NumPy arrays
    element by element boxes a NumPy scalar per access and made the same
    loop 3-4x slower.  Every operation is the one the array version performs,
    in the same order, so the result is bitwise the array version's
    (``fused_lasso_prox_array`` in the tests' oracles).  A stack is
    validated, converted and capped once, so its result is bitwise the
    rows' results stacked, at one call's NumPy overhead.
    """
    y = _validated(y)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be a row or a 2-D stack of rows, got {y.ndim} dimensions")
    if not weight >= 0:
        raise ValueError(f"weight must be >= 0, got {weight!r}")
    if y.shape[-1] == 1 or weight == 0.0:
        return y.copy()
    lam = float(weight)
    rows = y.reshape(-1, y.shape[-1]).tolist()
    beta = np.array([_fused_lasso_row(row, lam) for row in rows]).reshape(y.shape)
    # The exact minimizer never exceeds max(y) (capping it there lowers the
    # fit term and does not raise the TV), but when weight is tiny next to
    # |y| the threshold arithmetic can round a level up past it, e.g. to
    # +4.4e-16 from [-2.1, -2.7, 0.0] at weight 1e-17.  PenaltyConfig.prox
    # skips rows that are <= 0 everywhere as clipping to exactly zero; the
    # cap keeps that bitwise equal to this prox plus clipping.  ``np.minimum``
    # keeps the sign of zero a comparison on Python floats would flip.
    return np.minimum(beta, y.max(axis=-1, keepdims=True))


def _fused_lasso_row(ys, lam):
    """The fused-lasso recursion on one row ``ys`` (a list of at least two
    floats) at weight ``lam > 0``; returns the solution as a list."""
    n = len(ys)
    beta = [0.0] * n
    # breakpoints of the clipped derivative, with slope/intercept increments
    x = [0.0] * (2 * n)
    a = [0.0] * (2 * n)
    b = [0.0] * (2 * n)
    # clip thresholds per step, for the backward sweep
    tm = [0.0] * (n - 1)
    tp = [0.0] * (n - 1)

    tm[0] = ys[0] - lam
    tp[0] = ys[0] + lam
    l = n - 1
    r = n
    x[l] = tm[0]
    x[r] = tp[0]
    a[l] = 1.0
    b[l] = -ys[0] + lam
    a[r] = -1.0
    b[r] = ys[0] + lam
    afirst = 1.0
    bfirst = -lam - ys[1]
    alast = -1.0
    blast = -lam + ys[1]

    for k in range(1, n - 1):
        # leftmost breakpoint where the derivative exceeds -lam
        alo, blo = afirst, bfirst
        lo = l
        while lo <= r and alo * x[lo] + blo <= -lam:
            alo += a[lo]
            blo += b[lo]
            lo += 1
        # rightmost breakpoint where the derivative is below +lam
        ahi, bhi = alast, blast
        hi = r
        while hi >= lo and -(ahi * x[hi] + bhi) >= lam:
            ahi += a[hi]
            bhi += b[hi]
            hi -= 1

        tm[k] = (-lam - blo) / alo
        tp[k] = (lam + bhi) / (-ahi)
        l = lo - 1
        r = hi + 1
        x[l] = tm[k]
        x[r] = tp[k]
        a[l] = alo
        b[l] = blo + lam
        a[r] = ahi
        b[r] = bhi + lam
        afirst = 1.0
        bfirst = -lam - ys[k + 1]
        alast = -1.0
        blast = -lam + ys[k + 1]

    # last coefficient: zero of the unclipped derivative
    alo, blo = afirst, bfirst
    for lo in range(l, r + 1):
        if alo * x[lo] + blo > 0.0:
            break
        alo += a[lo]
        blo += b[lo]
    beta[n - 1] = -blo / alo

    for k in range(n - 2, -1, -1):
        if beta[k + 1] > tp[k]:
            beta[k] = tp[k]
        elif beta[k + 1] < tm[k]:
            beta[k] = tm[k]
        else:
            beta[k] = beta[k + 1]
    return beta


def isotonic_project(y):
    """Euclidean projection onto nondecreasing sequences.

    SciPy's pool-adjacent-violators (``scipy.optimize.isotonic_regression``)
    on validated input: the result is nondecreasing, idempotent, and
    preserves the total sum.
    """
    return scipy.optimize.isotonic_regression(_validated(y)).x
