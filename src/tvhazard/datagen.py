"""Synthetic campaign generator: planted truth models plus censored observations.

Each "site" draws a sparse binary feature path, constant from t=0, and an
exact event time from the planted hazard: every planted coefficient is a step
function on the truth's knots, so a site's hazard is one rate per truth
interval and the event time inverts the running sum of those rates.  It is
then censored the way a periodic blacklist would observe it: the event is
bracketed by the surrounding scan times, or right-censored at the horizon if
it happens after the last scan (or not at all).  Everything is deterministic
given the spec seed; each site gets its own derived RNG stream,
``default_rng(SeedSequence((seed, site)))``, and every site's stream is
computed in one array pass: SeedSequence's hash and PCG64's 128-bit LCG run
on uint32/uint64 arrays over all sites and give bitwise the same doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import HazardModel
from .timeline import (MERGE_TOL, Observation, _dimension, _horizon, _integer, _real, _step_paths,
                       _switch, _window_knots)


@dataclass(frozen=True)
class CampaignSpec:
    """Ground-truth scenario description.

    ``active`` lists the planted features as ``(j, ((t, level), ...))``:
    feature ``j``'s true coefficient steps to ``level`` at time ``t`` (zero
    before its first change).  Sites carry each feature independently with
    probability ``feature_density`` (present from t=0).  ``scan_times`` are
    the shared blacklist sweeps that create interval censoring.
    ``d``, ``n`` and ``seed`` are integers (a ``bool`` is not) and are
    stored as Python ints; ``horizon``, ``baseline_level``,
    ``feature_density`` and scan times are real numbers, as
    :func:`~tvhazard.timeline._real` defines them (a string or a ``bool``
    is not), stored as Python floats.  ``d`` and ``horizon`` follow the
    package's one rule for each (:func:`~tvhazard.timeline._dimension`,
    :func:`~tvhazard.timeline._horizon`), and the planted paths that for a
    step path (:func:`~tvhazard.timeline._step_paths`), with times at most
    the horizon and no index twice.  ``monotone_truth`` is a ``bool``.
    """

    d: int
    active: tuple
    baseline_level: float
    horizon: float
    n: int
    feature_density: float
    scan_times: tuple
    monotone_truth: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", _dimension(self.d))
        object.__setattr__(self, "horizon", _horizon(self.horizon))
        for name in ("n", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("baseline_level", "feature_density"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "active", tuple(
            _step_paths(self.active, self.d, "planted feature index", "planted level")))
        object.__setattr__(self, "scan_times", tuple(_real(s, "scan time") for s in self.scan_times))
        _switch(self.monotone_truth, "monotone_truth")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.feature_density <= 1.0:
            raise ValueError("feature_density must be in [0, 1]")
        if not (math.isfinite(self.baseline_level) and self.baseline_level >= 0):
            raise ValueError(f"baseline_level must be finite and >= 0, got {self.baseline_level}")
        seen = set()
        for j, changes in self.active:
            if j in seen:
                raise ValueError(f"feature {j} planted twice")
            seen.add(j)
            if changes and changes[-1][0] > self.horizon:
                raise ValueError(f"change time {changes[-1][0]} beyond horizon {self.horizon}")
            if self.monotone_truth and any(b < a for (_, a), (_, b) in zip(changes, changes[1:])):
                raise ValueError(f"monotone_truth violated by feature {j}")
        planted = any(v != 0.0 for _, changes in self.active for _, v in changes)
        if self.active and not planted and self.baseline_level == 0.0:
            raise ValueError("degenerate truth: all planted levels and the baseline are zero")
        prev = 0.0
        for s in self.scan_times:
            if not prev < s < self.horizon:
                raise ValueError(f"scan times must be strictly increasing within (0, {self.horizon})")
            prev = s


def truth_model(spec):
    """Planted :class:`HazardModel`: constant baseline + stepped active features.

    Its knots are the planted change times strictly inside ``(0, horizon)``;
    a level planted at time 0 is the row's first value.
    """
    knots = _window_knots((t for _, changes in spec.active for t, _ in changes), spec.horizon)
    # levels are read just after each interval's start, so that a change
    # merged into the start (within MERGE_TOL after it) sets the level
    starts = knots.boundaries()[:-1] + MERGE_TOL
    W = np.zeros((spec.d + 1, knots.n_intervals))
    W[0] = spec.baseline_level
    for j, changes in spec.active:
        times = [t for t, _ in changes]
        W[j + 1] = np.array([0.0] + [v for _, v in changes])[np.searchsorted(times, starts, "right")]
    return HazardModel(knots, W)


# SeedSequence's hash constants (NumPy's bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier as (high, low) 64-bit words; NEP 19 keeps both
# streams fixed across NumPy versions
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MASK32 = 0xFFFFFFFF
_U32, _U64 = np.uint32, np.uint64


def _hasher(const, mult):
    """SeedSequence's multiplicative hash as a function of uint32 arrays; its
    multiplier steps by ``mult`` on each call, the same for every site, so
    it stays a Python int."""

    def hash_(value):
        nonlocal const
        value = value ^ _U32(const)
        const = const * mult & _MASK32
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    return hash_


def _pcg64_seeds(seed, sites):
    """``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 arrays: the PCG64 of
    ``default_rng(SeedSequence((seed, site)))`` for each site (< 2**32).

    The entropy is the seed's little-endian 32-bit words (``[0]`` for 0)
    followed by the site's word, mixed into SeedSequence's 4-word pool and
    expanded by ``generate_state(4, uint64)``, all sites at once in uint32
    arrays.  PCG64 is then seeded as ``pcg64_set_seed`` does.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(len(sites), w, dtype=_U32) for w in words]
    entropy.append(np.asarray(sites, dtype=_U32))

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _U32(16))

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(len(sites), dtype=_U32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    expand = _hasher(_INIT_B, _MULT_B)
    state = [expand(pool[i % _POOL_SIZE]).astype(_U64) for i in range(2 * _POOL_SIZE)]
    # each 64-bit word is two 32-bit words, low first
    s_hi, s_lo, q_hi, q_lo = (state[2 * k] | (state[2 * k + 1] << _U64(32)) for k in range(4))
    inc_hi = (q_hi << _U64(1)) | (q_lo >> _U64(63))
    inc_lo = (q_lo << _U64(1)) | _U64(1)
    # state = (initstate + inc) * M + inc
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """``state * M + inc`` mod 2**128 on (hi, lo) uint64 arrays; the high
    word of ``lo * M_lo`` is summed from 32-bit-limb products."""
    a0, a1 = lo & _U64(_MASK32), lo >> _U64(32)
    b0, b1 = _PCG_MULT_LO & _U64(_MASK32), _PCG_MULT_LO >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_MASK32)) + (p10 & _U64(_MASK32))
    carry = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _site_uniforms(seed, sites, count):
    """Yield ``count`` float64 arrays: draw ``t`` holds, for every site, the
    ``t``-th double of ``default_rng(SeedSequence((seed, site))).random()``,
    bitwise.

    Every site's PCG64 steps at once; each draw is the XSL-RR output of the
    stepped 128-bit state, ``(x >> 11) * 2**-53``.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_seeds(seed, sites)
    for _ in range(count):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> _U64(58)
        x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        yield (x >> _U64(11)) * 2.0**-53


def _target(u):
    """A uniform draw ``u`` as the cumulative hazard ``-log u`` at the
    event; ``inf`` for ``u = 0``."""
    return -math.log(u) if u > 0.0 else math.inf


def _event_times(truth, levels, targets):
    """Exact inverse-CDF event times of sites whose features are constant.

    ``levels`` is an (n, d) array of each site's feature values on the whole
    window and ``targets`` holds each site's ``-log u``.  With
    ``W = truth.W``, site ``i``'s hazard on truth interval ``k``
    is ``W[0, k] + sum_j levels[i, j] W[j+1, k]``, added in ascending ``j``,
    and its cumulative hazard at the interval's end is the running sum of
    rate times width.  The event falls in the first interval ``k`` whose
    running sum reaches the target, at ``B[k] + (target - cum[k-1]) /
    rate[k]`` capped at the horizon; with no such interval it is ``inf``.
    """
    W = truth.W
    B = truth.knots.boundaries()
    rate = np.repeat(W[:1], len(targets), axis=0)
    for j in np.flatnonzero(W[1:].any(axis=1)):
        rate += levels[:, j, None] * W[j + 1]
    # cum[:, k] is the cumulative hazard at B[k]
    cum = np.cumsum(np.hstack([np.zeros((len(targets), 1)), rate * np.diff(B)]), axis=1)
    k = (cum[:, 1:] < targets[:, None]).sum(axis=1)
    taus = np.full(len(targets), math.inf)
    hit = np.flatnonzero(k < len(B) - 1)
    kh = k[hit]
    # rate > 0 here: cum[k] < target <= cum[k+1]
    taus[hit] = np.minimum(B[kh] + (targets[hit] - cum[hit, kh]) / rate[hit, kh], B[-1])
    return taus


def generate(spec):
    """Simulate the scenario: returns ``(truth_model, observations)``.

    Per site, from its own stream ``default_rng(SeedSequence((seed, site)))``:
    features present independently with probability ``feature_density``
    (value 1 from t=0), then one uniform ``u``.  Every site's stream is
    computed in one array pass over all sites, bitwise the doubles that
    ``default_rng`` would draw.  Every site's event time solves
    ``Lambda(0, t) = -log u`` exactly over the truth's per-interval rates,
    all sites at once, and is censored by the shared scans:
    ``Interval(last scan < tau, first scan >= tau)`` when a scan catches the
    event, else ``Right(horizon)``.
    """
    truth = truth_model(spec)
    present = np.empty((spec.n, spec.d), dtype=bool)
    for t, u in enumerate(_site_uniforms(spec.seed, np.arange(spec.n), spec.d + 1)):
        if t < spec.d:
            present[:, t] = u < spec.feature_density
        else:
            targets = np.array([_target(x) for x in u.tolist()])
    taus = _event_times(truth, present.astype(float), targets)
    scans = spec.scan_times
    brackets = np.searchsorted(scans, taus, "left").tolist()
    counts = present.sum(axis=1).tolist()
    features = np.nonzero(present)[1].tolist()
    # the records' Python objects set the peak memory: free the matrix first
    del present
    # the records are built unchecked (Observation._trusted): each present
    # feature is the one change (0.0, 1.0), each bracket a pair of scans
    observations = []
    start = 0
    present_from_0 = ((0.0, 1.0),)
    horizon = float(spec.horizon)
    for site, (k, count) in enumerate(zip(brackets, counts)):
        entries = dict.fromkeys(features[start : start + count], present_from_0)
        start += count
        # taus are capped at the horizon, beyond the last scan, or inf
        if k < len(scans):
            kind, left, right = "interval", scans[k - 1] if k > 0 else 0.0, scans[k]
        else:
            kind, left, right = "right", horizon, horizon
        observations.append(
            Observation._trusted(spec.d, entries, kind, left, right, f"site-{site:06d}"))
    return truth, observations


def default_scenario(seed=0):
    """Desk-scale benchmark scenario: 40 features, 4 active campaigns, n=1000.

    Change points sit off the scan grid on purpose, so localization is only
    resolvable up to the surrounding scans.  Campaign 19 ends outright (level
    drops to zero at t=4.2 while many carrier sites are still alive), which
    makes the monotone model class misspecified on this data.  The baseline
    is zero: sites that carry no campaign never see an event, so the data
    retain a clean population of negative controls and the inactive
    coefficient paths are pushed to zero rather than absorbing background
    risk.
    """
    return CampaignSpec(
        d=40,
        active=(
            (3, ((2.3, 2.0),)),
            (11, ((1.4, 1.2), (5.2, 3.2))),
            (19, ((1.2, 0.8), (4.2, 0.0))),
            (27, ((4.1, 1.6),)),
        ),
        baseline_level=0.0,
        horizon=9.0,
        n=1000,
        feature_density=0.08,
        scan_times=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        monotone_truth=False,
        seed=seed,
    )
