"""Synthetic campaign generator: planted truth models plus censored observations.

Each "site" draws a sparse binary feature path, an exact event time from the
planted hazard by inverting the piecewise-linear cumulative hazard, and is
then censored the way a periodic blacklist would observe it: the event is
bracketed by the surrounding scan times, or right-censored at the horizon if
it happens after the last scan (or not at all).  Everything is deterministic
given the spec seed; each site gets its own derived RNG stream.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .likelihood import HazardModel, hazard
from .timeline import FeaturePath, KnotSet, Observation, StepFunction, level_at, merge_times


@dataclass(frozen=True)
class CampaignSpec:
    """Ground-truth scenario description.

    ``active`` lists the planted features as ``(j, ((t, level), ...))``:
    feature ``j``'s true coefficient steps to ``level`` at time ``t`` (zero
    before its first change).  Sites carry each feature independently with
    probability ``feature_density`` (present from t=0).  ``scan_times`` are
    the shared blacklist sweeps that create interval censoring.
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
        for name in ("d", "n"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        object.__setattr__(
            self,
            "active",
            tuple(
                (int(j), tuple((float(t), float(v)) for t, v in changes))
                for j, changes in self.active
            ),
        )
        object.__setattr__(self, "scan_times", tuple(float(s) for s in self.scan_times))
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= self.feature_density <= 1.0:
            raise ValueError("feature_density must be in [0, 1]")
        if self.baseline_level < 0:
            raise ValueError("baseline_level must be >= 0")
        seen = set()
        any_level = False
        for j, changes in self.active:
            if not 0 <= j < self.d:
                raise ValueError(f"active feature index {j} outside [0, {self.d})")
            if j in seen:
                raise ValueError(f"feature {j} planted twice")
            seen.add(j)
            prev_t, prev_v = -math.inf, 0.0
            for t, v in changes:
                if not 0.0 <= t <= self.horizon:
                    raise ValueError(f"change time {t} outside [0, {self.horizon}]")
                if t <= prev_t:
                    raise ValueError(f"change times for feature {j} not increasing")
                if v < 0:
                    raise ValueError(f"planted level {v} is negative")
                if self.monotone_truth and v < prev_v:
                    raise ValueError(f"monotone_truth violated by feature {j}")
                if v != 0.0:
                    any_level = True
                prev_t, prev_v = t, v
        if self.active and not any_level and self.baseline_level == 0.0:
            raise ValueError("degenerate truth: all planted levels and the baseline are zero")
        prev = 0.0
        for s in self.scan_times:
            if not prev < s < self.horizon:
                raise ValueError(f"scan times must be strictly increasing within (0, {self.horizon})")
            prev = s


def truth_model(spec):
    """Planted :class:`HazardModel`: constant baseline + stepped active features."""
    raw = [t for _, changes in spec.active for t, _ in changes if t > 0.0]
    times = tuple(merge_times(raw))
    knots = KnotSet(times, horizon=spec.horizon)
    starts = knots.boundaries()[:-1]
    coefficients = {}
    for j, changes in spec.active:
        values = tuple(level_at(changes, s) for s in starts)
        if any(v != 0.0 for v in values):
            coefficients[j] = StepFunction(knots, values)
    return HazardModel(
        knots=knots,
        d=spec.d,
        intercept=StepFunction(knots, (spec.baseline_level,) * knots.n_intervals),
        coefficients=coefficients,
    )


def sample_event_time(path, truth, rng):
    """Exact inverse-CDF draw of an event time under ``truth`` for ``path``.

    Draws u ~ Uniform(0,1) and solves ``Lambda(0, t) = -log u`` by walking
    the piecewise-linear cumulative hazard segment by segment; returns
    ``math.inf`` when the total mass at the horizon falls short (survived).
    """
    u = rng.random()
    if u <= 0.0:
        return math.inf
    target = -math.log(u)
    H = truth.knots.horizon
    interior = [
        p
        for p in merge_times(list(truth.knots.times) + list(path.change_times()), tol=0.0)
        if 0.0 < p < H
    ]
    starts = [0.0] + interior
    ends = interior + [H]
    cum = 0.0
    for s, e in zip(starts, ends):
        rate = hazard(truth, path, s)
        seg = rate * (e - s)
        if cum + seg >= target:
            # rate > 0 here: the invariant cum < target forces seg > 0
            return min(s + (target - cum) / rate, H)
        cum += seg
    return math.inf


def generate(spec):
    """Simulate the scenario: returns ``(truth_model, observations)``.

    Per site: features present independently with probability
    ``feature_density`` (value 1 from t=0), event time sampled exactly, then
    censored by the shared scans — ``Interval(last scan < tau, first scan >=
    tau)`` when a scan catches the event, else ``Right(horizon)``.
    """
    truth = truth_model(spec)
    scans = spec.scan_times
    observations = []
    for site in range(spec.n):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, site)))
        present = rng.random(spec.d) < spec.feature_density
        entries = {int(j): ((0.0, 1.0),) for j in np.flatnonzero(present)}
        path = FeaturePath(spec.d, entries)
        tau = sample_event_time(path, truth, rng)
        uid = f"site-{site:06d}"
        if tau <= spec.horizon:
            k = bisect.bisect_left(scans, tau)
            if k < len(scans):
                left = scans[k - 1] if k > 0 else 0.0
                observations.append(Observation.interval(path, left, scans[k], id=uid))
            else:
                observations.append(Observation.right_censored(path, spec.horizon, id=uid))
        else:
            observations.append(Observation.right_censored(path, spec.horizon, id=uid))
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
