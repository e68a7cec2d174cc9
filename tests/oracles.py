"""Brute-force and dual-route oracles shared by the unit and acceptance tests.

Everything here recomputes answers by a route independent of the library
implementation: exhaustive enumeration over block partitions, a
box-constrained dual least-squares solve, plain vectorized grid search, a
per-run loop over feature paths, or the scalar likelihood route that
integrates one observation at a time on the common refinement of knots and
change times.  All but two are exponential or polynomially slow and meant
for tiny instances only.  The exceptions are earlier library code kept as
bitwise references: ``fused_lasso_prox_array``, the prox recursion on NumPy
arrays, for the Python-float version the library runs;
``write_observations_streamed``, which encodes record by record with
``json.dump``, for the library's one-write observation writer;
``pooled_event_rate_loop``, one observation at a time, for the start's
rate computed from the run table's arrays; and ``dyadic_decimal``, exact
rational arithmetic on integers, for the model writer's decimal deltas.
``representer_observations`` is not an oracle: it draws the datasets of
acceptance criterion 3, which the solver tests reuse.
"""

import bisect
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import scipy.optimize

from tvhazard import (
    FeaturePath,
    Observation,
    ZeroBracketWarning,
    eval_feature,
    merge_times,
)
from tvhazard.formats import observation_record


def fused_prox_bruteforce(y, lam):
    """Exact minimizer of (1/2)||y-x||^2 + lam*TV(x) by enumeration.

    Enumerates every contiguous block partition (the solution is blockwise
    constant) and every sign pattern of the block-to-block differences; for
    a fixed pattern stationarity gives the block values in closed form:

        v_k = mean_k + lam * (s_k - s_{k-1}) / n_k,   s_0 = s_K = 0.

    A candidate is kept only if the realized difference signs match the
    assumed pattern strictly; equal adjacent values are produced by the
    coarser partition with those blocks merged.  Exponential in len(y).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    best, best_obj = None, np.inf
    for cuts in itertools.product((0, 1), repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        sizes = np.diff(bounds)
        k = sizes.size
        means = np.array([y[bounds[i]:bounds[i + 1]].mean() for i in range(k)])
        for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
            s = np.concatenate(([0.0], signs, [0.0]))
            v = means + lam * (s[1:] - s[:-1]) / sizes
            d = np.diff(v)
            if np.any(d == 0.0) or not np.all(np.sign(d) == np.asarray(signs)):
                continue
            x = np.repeat(v, sizes)
            obj = 0.5 * np.sum((x - y) ** 2) + lam * np.abs(d).sum()
            if obj < best_obj:
                best_obj, best = obj, x
    return best


def fused_prox_dual(y, lam):
    """Fused-lasso prox through its dual: a box-constrained least squares.

    x* = y - D^T z* where z* minimizes ||D^T z - y||^2 over the box
    |z_i| <= lam and D is the first-difference matrix.  Solved with the
    active-set BVLS method, an entirely different algorithm from the
    primal message-passing recursion under test.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n == 1 or lam == 0.0:
        return y.copy()
    d_mat = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    d_mat[idx, idx] = -1.0
    d_mat[idx, idx + 1] = 1.0
    res = scipy.optimize.lsq_linear(
        d_mat.T, y, bounds=(-lam, lam), method="bvls", tol=1e-14
    )
    return y - d_mat.T @ res.x


def fused_lasso_prox_array(y, weight):
    """Reference fused-lasso prox: the message-passing DP on NumPy arrays.

    The library's :func:`tvhazard.fused_lasso_prox` runs the same recursion
    on Python floats; this array version performs the same operations in the
    same order, so the two must agree bitwise, signed zeros included.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n == 1 or weight == 0.0:
        return y.copy()

    lam = float(weight)
    beta = np.empty(n)
    # breakpoints of the clipped derivative, with slope/intercept increments
    x = np.empty(2 * n)
    a = np.empty(2 * n)
    b = np.empty(2 * n)
    # clip thresholds per step, for the backward sweep
    tm = np.empty(n - 1)
    tp = np.empty(n - 1)

    tm[0] = y[0] - lam
    tp[0] = y[0] + lam
    l = n - 1
    r = n
    x[l] = tm[0]
    x[r] = tp[0]
    a[l] = 1.0
    b[l] = -y[0] + lam
    a[r] = -1.0
    b[r] = y[0] + lam
    afirst = 1.0
    bfirst = -lam - y[1]
    alast = -1.0
    blast = -lam + y[1]

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
        bfirst = -lam - y[k + 1]
        alast = -1.0
        blast = -lam + y[k + 1]

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
    # the exact minimizer never exceeds max(y); rounding can, at tiny weights
    return np.minimum(beta, y.max(), out=beta)


def write_observations_streamed(path, observations, d, horizon):
    """Observation file written record by record through ``json.dump``."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"d": int(d), "horizon": float(horizon), "time_unit": "abstract"}, f)
        f.write("\n")
        for o in observations:
            json.dump(observation_record(o), f)
            f.write("\n")


def dyadic_decimal(q):
    """Exact finite-decimal string of a dyadic rational :class:`Fraction`.

    Differences of floats have denominator 2**k, and m/2**k == (m*5**k)/10**k,
    so the decimal expansion always terminates.
    """
    n, d = q.numerator, q.denominator
    k = d.bit_length() - 1
    if d != 1 << k:
        raise ValueError(f"{q!r} is not a dyadic rational")
    digits = str(abs(n * 5**k)).rjust(k + 1, "0")
    out = f"{digits[:-k]}.{digits[-k:]}" if k else digits
    if "." in out:
        out = out.rstrip("0").rstrip(".")
    return ("-" if n < 0 else "") + out


def pooled_event_rate_loop(observations):
    """Events over exposure, one observation at a time in input order; an
    event's exposure ends at its bracket's midpoint; 0.0 without exposure."""
    events, exposure = 0, 0.0
    # summed in order, not with sum(): Python >= 3.12 compensates float sums
    for o in observations:
        if o.kind == "right":
            exposure += o.right
        else:
            events += 1
            exposure += 0.5 * (o.left + o.right)
    return events / exposure if exposure > 0.0 else 0.0


def isotonic_bruteforce(y):
    """Projection onto nondecreasing sequences by partition enumeration.

    The projection is blockwise constant at block means with strictly
    increasing means across blocks; ties belong to the merged partition.
    Means and squared errors are exact fractions: in floats, partitions
    whose objectives differ by less than the rounding of a large total
    (e.g. 1e-14 next to 18.75) would tie and the first one would win.
    """
    exact = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    n = len(exact)
    best, best_obj = None, None
    for cuts in itertools.product((0, 1), repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        blocks = [exact[a:b] for a, b in zip(bounds, bounds[1:])]
        means = [sum(block) / len(block) for block in blocks]
        if any(a >= b for a, b in zip(means, means[1:])):
            continue
        obj = sum((v - m) ** 2 for block, m in zip(blocks, means) for v in block)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best = np.repeat([float(m) for m in means], [len(block) for block in blocks])
    return best


def representer_observations(rng):
    """One dataset of acceptance criterion 3: 12 sites, 2 binary features."""
    obs = []
    for _ in range(12):
        entries = {}
        for j in range(2):
            if rng.random() < 0.5:
                entries[j] = ((float(rng.uniform(0.0, 5.0)), 1.0),)
        p = FeaturePath(2, entries)
        if rng.random() < 0.55:
            l = float(rng.uniform(0.2, 5.4))
            r = min(l + float(rng.uniform(0.3, 1.5)), 6.0)
            obs.append(Observation.interval(p, l, r))
        else:
            obs.append(Observation.right_censored(p, float(rng.uniform(0.5, 6.0))))
    return obs


def grid_minimize(f, lo, hi, rounds=8, pts=13):
    """Vectorized zooming grid search over a box.

    ``f`` maps an (m, n) array of candidate points to m objective values
    (np.inf marks infeasible points).  Each round evaluates a full ``pts**n``
    lattice, then shrinks the box to one lattice cell around the incumbent.
    Returns ``(x_best, f_best, resolution)`` with ``resolution`` the final
    per-coordinate lattice spacing.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    n = lo.size
    best_x, best_v = None, np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in mesh], axis=1)
        vals = f(cand)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_x = float(vals[i]), cand[i].copy()
        # keep two cells around the incumbent: constraint-infeasible lattice
        # points can otherwise mask the basin of the true optimum
        span = (hi - lo) / (pts - 1)
        lo = best_x - 2.0 * span
        hi = best_x + 2.0 * span
    return best_x, best_v, float(np.max((hi - lo) / (pts - 1)))


def dense_design(knots, observations):
    """Dense exposure matrices ``(U, V)`` of the censored likelihood, run by run.

    Row ``i`` of ``U`` is the exposure of every coefficient slot (row-major
    ``(d+1, intervals)``, row 0 the intercept) on observation ``i``'s head
    window ``[0, e_i]``, with ``e_i`` the bracket's left end or the
    censoring time.  ``V`` has one row per interval observation, in input
    order: the exposure on ``[l_i, r_i]``.  Built with one Python loop over
    each feature's constant runs, adding each run's overlap with every knot
    interval into a zeroed row in run order.
    """
    observations = list(observations)
    d = observations[0].path.d
    shape = (d + 1, knots.n_intervals)
    B = knots.boundaries()

    def runs(path, j):
        # (start_times, values) of feature j; the leading run starts at 0
        # with value 0, and the last run extends to infinity
        starts = [0.0]
        vals = [0.0]
        for t, v in path.entries.get(j, ()):
            if t == 0.0:
                vals[0] = v
            else:
                starts.append(t)
                vals.append(v)
        return np.asarray(starts), np.asarray(vals)

    def exposure(path, a, b):
        out = np.zeros(shape)
        lo = np.maximum(B[:-1], a)
        hi = np.minimum(B[1:], b)
        out[0] += np.clip(hi - lo, 0.0, None)
        for j in path.entries:
            starts, vals = runs(path, j)
            ends = np.append(starts[1:], np.inf)
            for s, e, v in zip(starts, ends, vals):
                if v == 0.0:
                    continue
                aa = max(a, s)
                bb = min(b, e)
                if bb <= aa:
                    continue
                lo = np.maximum(B[:-1], aa)
                hi = np.minimum(B[1:], bb)
                out[j + 1] += v * np.clip(hi - lo, 0.0, None)
        return out.ravel()

    U = np.array(
        [exposure(o.path, 0.0, o.left if o.kind == "interval" else o.right) for o in observations]
    )
    rows = [exposure(o.path, o.left, o.right) for o in observations if o.kind == "interval"]
    V = np.array(rows) if rows else np.zeros((0, U.shape[1]))
    return U, V


def _check_bounds(knots, a, b):
    for t in (a, b):
        if not math.isfinite(t) or not 0.0 <= t <= knots.horizon:
            raise ValueError(f"time {t!r} outside [0, {knots.horizon}]")
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")


def _segment_points(interior, a, b):
    """``[a, interior strictly inside (a, b), b]``."""
    return [a] + [t for t in interior if a < t < b] + [b]


def integrate_step(f, a, b):
    """Integral of a step function over ``[a, b]``: value x length per interval."""
    knots = f.knots
    _check_bounds(knots, a, b)
    pts = _segment_points(knots.times, a, b)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += (hi - lo) * f.values[bisect.bisect_right(knots.times, lo)]
    return total


def integrate_step_product(f, path, j, a, b):
    """Integral of ``f(t) * x_j(t)`` over ``[a, b]``, piece by piece on the
    common refinement of the knots and feature ``j``'s change times."""
    knots = f.knots
    _check_bounds(knots, a, b)
    changes = path.entries.get(int(j), ())
    interior = merge_times(list(knots.times) + [t for t, _ in changes], tol=0.0)
    pts = _segment_points(interior, a, b)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        x = eval_feature(path, j, lo)
        if x != 0.0:
            total += (hi - lo) * f.values[bisect.bisect_right(knots.times, lo)] * x
    return total


def cumulative_hazard(m, p, a, b):
    """Integral of the hazard of model ``m`` along path ``p`` over ``[a, b]``."""
    total = integrate_step(m.intercept, a, b)
    for j in sorted(m.coefficients.keys() & p.entries.keys()):
        total += integrate_step_product(m.coefficients[j], p, j, a, b)
    return total


def survival(m, p, t):
    """Probability of no event up to ``t``: exp(-Lambda(0, t))."""
    return math.exp(-cumulative_hazard(m, p, 0.0, t))


def log1mexp(x):
    """log(1 - exp(-x)) for x >= 0 (-inf otherwise), accurate on both sides of log 2."""
    if x <= 0.0:
        return -math.inf
    if x < math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def nll_observation(m, o):
    """NLL of one observation: ``Lambda(0, at)`` if right-censored, else
    ``Lambda(0, l) - log(1 - exp(-Lambda(l, r)))``; a zero-mass bracket gives
    ``+inf`` with a :class:`ZeroBracketWarning`."""
    if o.kind == "right":
        return cumulative_hazard(m, o.path, 0.0, o.right)
    head = cumulative_hazard(m, o.path, 0.0, o.left)
    bracket = cumulative_hazard(m, o.path, o.left, o.right)
    if bracket <= 0.0:
        warnings.warn(
            f"model assigns zero mass to event bracket ({o.left}, {o.right}]", ZeroBracketWarning
        )
        return math.inf
    return head - log1mexp(bracket)


def scalar_nll(m, observations):
    """Dataset NLL as the sum of :func:`nll_observation` in input order."""
    total = 0.0
    for o in observations:
        total += nll_observation(m, o)
    return total
