"""Brute-force and dual-route oracles shared by the unit and acceptance tests.

Everything here recomputes answers by a route independent of the library
implementation: exhaustive enumeration over block partitions, a
box-constrained dual least-squares solve, the optimality conditions of the
fused-lasso prox, plain vectorized grid search, a per-run loop over feature
paths, or the scalar likelihood route that
integrates one observation at a time on the common refinement of knots and
change times (with the pointwise ``hazard``, ``level_at``, ``step_at``,
``merge_times`` and ``tv`` it is written from).  Most are exponential or
polynomially slow and meant for tiny instances only.  The exceptions run
at any size: ``fused_prox_kkt_residual``, the optimality conditions of the
fused-lasso prox and of its monotone form, at any per-entry weights; and
earlier library code kept as references:
``fused_lasso_prox_array``, the message-passing DP the library ran before
its direct algorithm, a second fused-lasso algorithm;
``condat_row_unweighted``, the direct algorithm as the library ran it
before its pass took per-entry weights;
``write_observations_streamed``, which encodes each record's dict
(``observation_record``) with ``json.dump``, for the library's observation
writer, which formats each line itself and writes once;
``pooled_event_rate_loop``, one observation at a time, for the start's
rate computed from the run table's arrays; ``run_table_loop``, one run at
a time, for the run table assembled with NumPy or gathered from an earlier
walk; ``knot_set_per_path``, each path's sorted change times, for the knot
set built from one set of times;
``dyadic_decimal``, exact rational arithmetic on integers, for the model
writer's decimal deltas; and ``site_uniforms_loop``, one NumPy
``Generator`` per site, for the generator's streams computed in one array
pass.
``refine_and_compare`` is acceptance criterion 3's cross-check of the
knot set, a refit on an enriched one; ``event_time`` reaches the
generator's own inverse-CDF pass one site at a time, for acceptance
criterion 4 and the sampler tests; ``change_times`` collects a path's
change times, where the scalar routes cut their integrals.
``limit_nll_grad`` is the fit's limit problem rebuilt from the dense
exposures, for the fit's own limit design.
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

from tvhazard import FeaturePath, Observation, ZeroBracketWarning, fit
from tvhazard.datagen import _event_times, _target
from tvhazard.timeline import MERGE_TOL, _window_knots


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


def fused_prox_kkt_residual(y, weight, x, d=None, monotone=False):
    """Largest violation of the optimality conditions of the fused-lasso
    prox by ``x``, in units of ``sum(d) * max(1, max|y|)``, at per-entry
    weights ``d`` (all ones if None).

    ``x`` minimizes ``(1/2) sum_k d_k (y_k - x_k)^2 + weight * TV(x)``
    exactly when ``z = cumsum(d * (y - x))`` ends at zero, stays within
    ``[-weight, weight]`` and equals ``-weight * sign(x[k+1] - x[k])``
    wherever ``x`` jumps.  With ``monotone``, for the problem restricted to
    nondecreasing ``x``, ``z`` has no upper bound and ``x`` must not
    decrease (a decrease counts in units of ``max(1, max|y|)``).  A
    difference counts as a jump above ``1e-9 * max(1, max|y|)``.  A
    certificate for any algorithm, at any weight, with no second solver.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    d = np.ones_like(y) if d is None else np.asarray(d, dtype=float)
    scale = max(1.0, float(np.abs(y).max()))
    z = np.cumsum(d * (y - x))
    dx = np.diff(x)
    jump = np.abs(dx) > 1e-9 * scale
    worst = max(
        abs(float(z[-1])),
        float(np.max(-z[:-1] - weight, initial=0.0)),
        float(np.max(np.abs(z[:-1][jump] + weight * np.sign(dx[jump])), initial=0.0)),
    )
    if monotone:
        worst = max(worst, float(np.max(-dx, initial=0.0)) * float(d.sum()))
    else:
        worst = max(worst, float(np.max(z[:-1] - weight, initial=0.0)))
    return worst / (float(d.sum()) * scale)


def condat_row_unweighted(y, lam, out):
    """Condat's direct algorithm on a row ``y`` (a list of at least two
    floats) at weight ``lam > 0``, appending the solution to the list
    ``out``: the library's pass before it took per-entry weights, for the
    weighted pass at unit weights, which must match it bitwise."""
    n = len(y)
    k = k0 = kminus = kplus = 0
    mlam = -lam
    umin, umax = lam, mlam
    vmin, vmax = y[0] - lam, y[0] + lam
    twolam = lam + lam
    while True:
        while k == n - 1:
            if umin < 0.0:
                out += [vmin] * (kminus + 1 - k0)
                k = kminus = k0 = kminus + 1
                vmin, umin, umax = y[k], lam, y[k] + lam - vmax
            elif umax > 0.0:
                out += [vmax] * (kplus + 1 - k0)
                k = kplus = k0 = kplus + 1
                vmax, umin, umax = y[k], y[k] - lam - vmin, mlam
            else:
                out += [vmin + umin / (k - k0 + 1)] * (n - k0)
                return
        k += 1
        yk = y[k]
        umin += yk - vmin
        if umin < mlam:
            out += [vmin] * (kminus + 1 - k0)
            k = kminus = kplus = k0 = kminus + 1
            vmin, vmax = y[k], y[k] + twolam
            umin, umax = lam, mlam
            continue
        umax += yk - vmax
        if umax > lam:
            out += [vmax] * (kplus + 1 - k0)
            k = kminus = kplus = k0 = kplus + 1
            vmin, vmax = y[k] - twolam, y[k]
            umin, umax = lam, mlam
            continue
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= mlam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = mlam


def fused_lasso_prox_array(y, weight):
    """Reference fused-lasso prox: the message-passing DP on NumPy arrays.

    Dynamic programming over the piecewise-linear derivative of the backward
    value function: left-to-right, each step clips the derivative at
    ``+-weight`` and records the clip locations; the right-to-left sweep
    reads the solution off the recorded thresholds.  An algorithm unlike
    the library's (Condat's direct pass), so agreement between the two is
    evidence for both.  Its thresholds are ``y +- weight``, so its error
    grows like ``eps * weight``: compare at moderate weights only.
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


def observation_record(o):
    """JSON-ready dict for one observation, as the file format defines it."""
    if o.kind == "interval":
        censoring = {"kind": "interval", "l": o.left, "r": o.right}
    else:
        censoring = {"kind": "right", "t": o.right}
    features = [
        {"j": j, "changes": [{"t": t, "v": v} for t, v in o.path.entries[j]]}
        for j in sorted(o.path.entries)
    ]
    return {"id": o.id, "censoring": censoring, "features": features}


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


def run_table_loop(observations):
    """The records' run table built one run at a time, as
    ``timeline._run_table`` returns it: ``(d, table, left, right,
    is_interval)``, the table's rows ``(observation, coefficient row, start,
    end, value)`` with the intercept run first and then each feature's
    runs, zero-valued ones included, by ascending ``j``."""
    d = observations[0].path.d
    flat, left, right, is_interval = [], [], [], []
    for i, o in enumerate(observations):
        if o.path.d != d:
            raise ValueError(f"dimension mismatch: paths with d={d} and d={o.path.d}")
        left.append(o.left)
        right.append(o.right)
        is_interval.append(o.kind == "interval")
        flat += (i, 0, 0.0, math.inf, 1.0)
        for j, changes in sorted(o.path.entries.items()):
            for c, (start, v) in enumerate(changes):
                end = changes[c + 1][0] if c + 1 < len(changes) else math.inf
                flat += (i, j + 1, start, end, v)
    table = np.array(flat, dtype=float).reshape(-1, 5)
    return d, table, np.array(left), np.array(right), np.array(is_interval)


def change_times(path):
    """Sorted unique change times across all features of ``path``."""
    return tuple(sorted({t for changes in path.entries.values() for t, _ in changes}))


def knot_set_per_path(observations, horizon=None):
    """``build_knot_set`` as the library ran it before it gathered every time
    into one set: each record's boundaries and its path's sorted
    ``change_times``, repeats kept, under the same window rule."""
    if horizon is None:
        horizon = max(o.right for o in observations)
    raw = [t for o in observations for t in (o.left, o.right, *change_times(o.path))]
    return _window_knots(raw, horizon)


def site_uniforms_loop(seed, sites, count):
    """(len(sites), count) array: row ``i`` holds the first ``count`` doubles
    of ``default_rng(SeedSequence((seed, sites[i])))``, one site at a time."""
    rows = []
    for site in sites:
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(site))))
        rows.append(rng.random(count))
    return np.array(rows, dtype=float).reshape(len(rows), count)


def isotonic_bruteforce(y, d=None):
    """Projection onto nondecreasing sequences by partition enumeration, in
    the metric of per-entry weights ``d`` (all ones if None).

    The projection is blockwise constant at block weighted means with
    strictly increasing means across blocks; ties belong to the merged
    partition.  Means and squared errors are exact fractions: in floats,
    partitions whose objectives differ by less than the rounding of a large
    total (e.g. 1e-14 next to 18.75) would tie and the first one would win.
    """
    exact = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    n = len(exact)
    w = [Fraction(1)] * n if d is None else [Fraction(float(v)) for v in np.asarray(d, dtype=float)]
    best, best_obj = None, None
    for cuts in itertools.product((0, 1), repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        blocks = list(zip(bounds, bounds[1:]))
        means = [sum(v * c for v, c in zip(exact[a:b], w[a:b])) / sum(w[a:b]) for a, b in blocks]
        if any(a >= b for a, b in zip(means, means[1:])):
            continue
        obj = sum(c * (v - m) ** 2 for (a, b), m in zip(blocks, means)
                  for v, c in zip(exact[a:b], w[a:b]))
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best = np.repeat([float(m) for m in means], [b - a for a, b in blocks])
    return best


def refine_and_compare(fit_result, observations, extra_knots):
    """Refit on the fit's knots enriched with ``extra_knots`` evenly spaced
    times, kept strictly inside ``(0, horizon)`` as ``build_knot_set`` keeps
    them, and return ``refined optimum - original optimum`` (penalized
    objectives); 0.0 when the grid adds no knot.  If paths jumping only at
    censoring boundaries and change times suffice, the difference stays
    above a small negative tolerance.  The refit is ``fit(observations,
    fit_result.config, knots=refined)``, from the start every fit shares."""
    knots = fit_result.model.knots
    grid = np.linspace(0.0, knots.horizon, extra_knots + 2)[1:-1]
    refined = _window_knots(list(knots.times) + list(grid), knots.horizon)
    if refined.times == knots.times:
        return 0.0
    refit = fit(observations, fit_result.config, knots=refined)
    return refit.objective_trace[-1][1] - fit_result.objective_trace[-1][1]


def event_time(path, truth, u):
    """The event time ``generate`` draws from the uniform ``u`` for a site
    with ``path``: the generator's own ``_event_times`` pass on the path's
    levels.  Like every generated path, ``path`` must be constant on the
    window, each feature set once at t=0."""
    assert path.d == truth.d
    levels = np.zeros((1, truth.d))
    for j, changes in path.entries.items():
        assert len(changes) == 1 and changes[0][0] == 0.0, changes
        levels[0, j] = changes[0][1]
    return float(_event_times(truth, levels, np.array([_target(u)]))[0])


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


def limit_nll_grad(knots, observations, gamma, monotone):
    """The floored NLL of a fit's limit problem and its gradient, as a
    function of a flat ``w``, from :func:`dense_design`: the column sums of
    ``U``, and ``V`` without every row with an entry in a cell along which
    the objective falls forever.  Such a cell has no head exposure and some
    bracket exposure, and nothing else with head exposure holds it: at
    ``gamma > 0`` no cell of its row, in monotone mode no later cell of its
    row.  Masses are floored at 1e-12, the design's positivity floor."""
    U, V = dense_design(knots, observations)
    shape = (observations[0].path.d + 1, knots.n_intervals)
    u = U.sum(axis=0)
    head, bracket = u.reshape(shape), V.sum(axis=0).reshape(shape)
    falls = np.zeros(shape, dtype=bool)
    for r, k in np.ndindex(shape):
        holds = head[r] if gamma > 0.0 else head[r, k:] if monotone else head[r, k:k + 1]
        falls[r, k] = bracket[r, k] > 0.0 and not holds.any()
    V = V[~V[:, falls.ravel()].any(axis=1)]

    def nll_grad(w):
        mass = np.maximum(V @ w, 1e-12)
        return float(u @ w - np.log(-np.expm1(-mass)).sum()), u - V.T @ (1.0 / np.expm1(mass))

    return nll_grad


def merge_times(times, tol=MERGE_TOL):
    """Sorted ``times``, dropping each that lies within ``tol`` of the last
    one kept."""
    out = []
    for t in sorted(float(t) for t in times):
        if not out or t - out[-1] > tol:
            out.append(t)
    return tuple(out)


def level_at(path, j, t):
    """Value of feature ``j`` of ``path`` at ``t`` by a linear scan: the
    level of its last change at or before ``t``, 0 before the first."""
    level = 0.0
    for ct, v in path.entries.get(int(j), ()):
        if ct <= t:
            level = v
    return level


def step_at(knots, values, t):
    """Value at ``t`` of the step function on ``knots`` that takes
    ``values[k]`` on interval ``k`` (right-continuous)."""
    return values[bisect.bisect_right(knots.times, t)]


def hazard(m, p, t):
    """Pointwise hazard ``w_0(t) + sum_j x_j(t) w_j(t)``, from the rows of
    ``m.W``, features in ascending ``j``."""
    W = m.W.tolist()
    total = step_at(m.knots, W[0], t)
    for j in sorted(p.entries):
        total += level_at(p, j, t) * step_at(m.knots, W[j + 1], t)
    return total


def tv(values):
    """Total variation of a sequence: the sum of its absolute successive differences."""
    return float(np.abs(np.diff(np.asarray(values, dtype=float))).sum())


def _check_bounds(knots, a, b):
    for t in (a, b):
        if not math.isfinite(t) or not 0.0 <= t <= knots.horizon:
            raise ValueError(f"time {t!r} outside [0, {knots.horizon}]")
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")


def _segment_points(interior, a, b):
    """``[a, interior strictly inside (a, b), b]``."""
    return [a] + [t for t in interior if a < t < b] + [b]


def integrate_step(knots, values, a, b):
    """Integral over ``[a, b]`` of the step function on ``knots`` with
    ``values``: value x length per interval."""
    _check_bounds(knots, a, b)
    pts = _segment_points(knots.times, a, b)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += (hi - lo) * values[bisect.bisect_right(knots.times, lo)]
    return total


def integrate_step_product(knots, values, path, j, a, b):
    """Integral of ``f(t) * x_j(t)`` over ``[a, b]``, ``f`` the step function
    on ``knots`` with ``values``, piece by piece on the common refinement of
    the knots and feature ``j``'s change times."""
    _check_bounds(knots, a, b)
    changes = path.entries.get(int(j), ())
    interior = merge_times(list(knots.times) + [t for t, _ in changes], tol=0.0)
    pts = _segment_points(interior, a, b)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        x = level_at(path, j, lo)
        if x != 0.0:
            total += (hi - lo) * values[bisect.bisect_right(knots.times, lo)] * x
    return total


def cumulative_hazard(m, p, a, b):
    """Integral of the hazard of model ``m`` along path ``p`` over ``[a, b]``,
    from the rows of ``m.W``, features in ascending ``j``."""
    W = m.W.tolist()
    total = integrate_step(m.knots, W[0], a, b)
    for j in sorted(p.entries):
        total += integrate_step_product(m.knots, W[j + 1], p, j, a, b)
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
