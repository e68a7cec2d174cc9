"""Shared time axis: knot sets, step functions, and piecewise-constant feature paths.

Every coefficient path in a fitted model is a right-continuous step function
whose jumps live on a single shared :class:`KnotSet`.  Feature paths carry
their own change times and are evaluated right-continuously as well.  Integrals of
hazards along feature paths are taken exactly, by
:class:`tvhazard.likelihood.CensoredDesign`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

# Knots closer than this are considered coincident and merged.
MERGE_TOL = 1e-9


def _check_time(t, horizon, origin=0.0):
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t < origin or t > horizon:
        raise ValueError(f"time {t!r} outside observation window [{origin}, {horizon}]")


@dataclass(frozen=True)
class KnotSet:
    """Sorted candidate jump times over a finite observation window.

    ``times`` are the interior breakpoints; together with the window they
    induce ``len(times) + 1`` half-open intervals

        [origin, t_1), [t_1, t_2), ..., [t_m, horizon]

    on which step functions are constant.  Times within ``MERGE_TOL`` of each
    other must already be merged (the constructor rejects near-duplicates).

    Parameters
    ----------
    times : tuple of float
        Strictly increasing breakpoints in ``[origin, horizon]``.
    horizon : float
        Right end of the observation window.
    origin : float, optional
        Left end of the observation window (default 0).
    """

    times: tuple
    horizon: float
    origin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "origin", float(self.origin))
        if not math.isfinite(self.origin) or not math.isfinite(self.horizon):
            raise ValueError("window endpoints must be finite")
        if self.horizon <= self.origin:
            raise ValueError(f"horizon {self.horizon} must exceed origin {self.origin}")
        prev = None
        for t in self.times:
            if not math.isfinite(t):
                raise ValueError(f"knot {t!r} is not finite")
            if t < self.origin or t > self.horizon:
                raise ValueError(f"knot {t!r} outside [{self.origin}, {self.horizon}]")
            if prev is not None and t - prev <= MERGE_TOL:
                raise ValueError(f"knots {prev!r} and {t!r} are not increasing / closer than {MERGE_TOL}")
            prev = t

    @property
    def n_intervals(self):
        return len(self.times) + 1

    def boundaries(self):
        """All interval boundaries, ``origin`` and ``horizon`` included."""
        return np.concatenate(([self.origin], self.times, [self.horizon]))

    def interval_index(self, t):
        """Index of the interval containing ``t`` (right-continuous)."""
        _check_time(t, self.horizon, self.origin)
        return bisect.bisect_right(self.times, t)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function on a :class:`KnotSet`.

    ``values[k]`` is the value on the ``k``-th interval of ``knots``; at a
    breakpoint the function takes the value of the interval to its right.
    """

    knots: KnotSet
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.knots.n_intervals:
            raise ValueError(
                f"expected {self.knots.n_intervals} values for {len(self.knots.times)} knots, "
                f"got {len(self.values)}"
            )
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"step value {v!r} is not finite")

    def __call__(self, t):
        return eval_step(self, t)

    def to_jumps(self):
        """Sparse (base value, jump list) form.

        Returns ``(base, jumps)`` where ``jumps`` is a tuple of
        ``(time, delta)`` pairs.  Each delta is the exact difference of the
        adjacent interval values as a dyadic rational
        (:class:`fractions.Fraction`): floats are dyadic, so the difference
        is exact and replaying ``value += delta`` in exact arithmetic
        recovers every stored value bitwise.  Equal consecutive values
        produce no jump.
        """
        base = self.values[0]
        jumps = []
        prev = base
        for t, v in zip(self.knots.times, self.values[1:]):
            if v != prev:
                jumps.append((t, Fraction(v) - Fraction(prev)))
                prev = v
        return base, tuple(jumps)

    @classmethod
    def from_jumps(cls, knots, base, jumps):
        """Inverse of :meth:`to_jumps`; jump times must be knot times.

        Deltas may be floats, ints, strings, Decimals, or Fractions.  The
        running value is accumulated in exact rational arithmetic and each
        interval value is the correctly rounded float of the exact sum, so
        a ``to_jumps`` round trip is bitwise for every finite step function.
        """
        values = []
        r = Fraction(float(base))
        k = 0
        jumps = list(jumps)
        values.append(float(r))
        for t in knots.times:
            if k < len(jumps) and float(jumps[k][0]) == t:
                r = r + Fraction(jumps[k][1])
                k += 1
            values.append(float(r))
        if k != len(jumps):
            raise ValueError(f"jump time {jumps[k][0]!r} is not a knot")
        return cls(knots, tuple(values))


@dataclass(frozen=True)
class FeaturePath:
    """Piecewise-constant covariate trajectories for one observation unit.

    ``entries`` maps feature index ``j`` (0-based, ``j < d``) to a tuple of
    ``(change_time, new_value)`` pairs with strictly increasing times; the
    feature is 0 before its first change time and right-continuous at each
    change.  Features absent from ``entries`` are identically 0.
    """

    d: int
    entries: dict

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        clean = {}
        for j, changes in self.entries.items():
            j = int(j)
            if not 0 <= j < self.d:
                raise ValueError(f"feature index {j} outside [0, {self.d})")
            changes = tuple((float(t), float(v)) for t, v in changes)
            prev = -math.inf
            for t, v in changes:
                if not math.isfinite(t) or not math.isfinite(v):
                    raise ValueError(f"non-finite change ({t!r}, {v!r}) for feature {j}")
                if t < 0:
                    raise ValueError(f"change time {t!r} for feature {j} is negative")
                if t <= prev:
                    raise ValueError(f"change times for feature {j} not strictly increasing")
                prev = t
            if changes:
                clean[j] = changes
        object.__setattr__(self, "entries", clean)

    def value(self, j, t):
        return eval_feature(self, j, t)

    def change_times(self):
        """Sorted unique change times across all features."""
        out = set()
        for changes in self.entries.values():
            out.update(t for t, _ in changes)
        return tuple(sorted(out))


@dataclass(frozen=True)
class Observation:
    """One censored observation: a feature path plus censoring information.

    ``kind`` is ``"interval"`` (event happened in ``(left, right]``) or
    ``"right"`` (no event up to ``right``; ``left`` is ignored and stored as
    ``right``).  Intervals require ``0 <= left < right``.  ``id`` is an
    opaque label carried through serialization.
    """

    path: FeaturePath
    kind: str
    left: float
    right: float
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "right", float(self.right))
        if self.kind not in ("interval", "right"):
            raise ValueError(f"unknown censoring kind {self.kind!r}")
        if not math.isfinite(self.left) or not math.isfinite(self.right):
            raise ValueError("censoring times must be finite")
        if self.kind == "interval":
            if not 0 <= self.left < self.right:
                raise ValueError(
                    f"interval censoring needs 0 <= left < right, got ({self.left}, {self.right})"
                )
        else:
            if self.right <= 0:
                raise ValueError(f"right-censoring time {self.right} must be positive")
            object.__setattr__(self, "left", self.right)

    @classmethod
    def interval(cls, path, left, right, id=""):
        return cls(path, "interval", left, right, id)

    @classmethod
    def right_censored(cls, path, at, id=""):
        return cls(path, "right", at, at, id)


def merge_times(times, tol=MERGE_TOL):
    """Sort and deduplicate, keeping the first representative of any cluster
    of times within ``tol`` of its predecessor."""
    out = []
    for t in sorted(float(t) for t in times):
        if not out or t - out[-1] > tol:
            out.append(t)
    return tuple(out)


def build_knot_set(observations, horizon=None):
    """Candidate jump times induced by a dataset.

    The knot set is the union of every censoring boundary and every feature
    change time, merged at tolerance ``MERGE_TOL``.  Restricting coefficient
    paths to jump only at these times loses nothing: for any step-function
    model there is one with jumps on this set attaining an equal or better
    penalized likelihood.

    Parameters
    ----------
    observations : sequence of Observation
    horizon : float, optional
        Right end of the window; defaults to the largest censoring boundary.
        Change times beyond the horizon are dropped (they cannot affect any
        integral on the window).

    Returns
    -------
    KnotSet
    """
    observations = list(observations)
    if not observations:
        raise ValueError("cannot build a knot set from an empty dataset")
    raw = []
    max_boundary = 0.0
    for obs in observations:
        if obs.kind == "interval":
            raw.extend((obs.left, obs.right))
            max_boundary = max(max_boundary, obs.right)
        else:
            raw.append(obs.right)
            max_boundary = max(max_boundary, obs.right)
    if horizon is None:
        horizon = max_boundary
    if max_boundary > horizon:
        raise ValueError(f"censoring boundary {max_boundary} beyond horizon {horizon}")
    for obs in observations:
        raw.extend(t for t in obs.path.change_times() if t <= horizon)
    merged = [t for t in merge_times(raw) if t <= horizon]
    return KnotSet(tuple(merged), horizon=float(horizon))


def eval_step(f, t):
    """Value of a step function at ``t`` (right-continuous)."""
    return f.values[f.knots.interval_index(t)]


def eval_feature(path, j, t):
    """Value of feature ``j`` of a path at time ``t`` (right-continuous)."""
    j = int(j)
    if not 0 <= j < path.d:
        raise IndexError(f"feature index {j} outside [0, {path.d})")
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"invalid evaluation time {t!r}")
    return level_at(path.entries.get(j, ()), t)


def level_at(changes, t):
    """Level at ``t`` of a right-continuous step path given as
    ``(change_time, level)`` pairs with increasing times: the level of the
    last change at or before ``t``, 0.0 before the first change."""
    k = bisect.bisect_right(changes, t, key=itemgetter(0))
    return changes[k - 1][1] if k else 0.0
