"""Shared time axis: knot sets, piecewise-constant feature paths and observations.

Every coefficient path in a fitted model is a right-continuous step function
whose jumps live on a single shared :class:`KnotSet`; a model holds one
value per (coefficient row, knot interval), the matrix ``W`` of
:class:`tvhazard.likelihood.HazardModel`, and its file form, a base level
plus jumps, belongs to :mod:`tvhazard.formats`.  Feature paths carry
their own change times and are right-continuous as well.  Integrals of
hazards along feature paths are taken exactly, by
:class:`tvhazard.likelihood.CensoredDesign`.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Knots closer than this are considered coincident and merged.
MERGE_TOL = 1e-9


def _integer(value, what):
    """Every integer the package takes in, as an ``int``: what ``operator.index``
    takes (NumPy integers too) but a ``bool``; a float, even integral, is
    refused rather than truncated."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what):
    """A time or value the package takes in, as a Python ``float``: a
    ``numbers.Real`` (NumPy floats and integers too) but a ``bool``; a
    string is refused rather than parsed."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} {value!r} is too large for a float") from None
    raise ValueError(f"{what} must be a number, got {value!r}")


@dataclass(frozen=True)
class KnotSet:
    """Sorted candidate jump times over the observation window ``[0, horizon]``.

    ``times`` are the breakpoints; together with the window they induce
    ``len(times) + 1`` half-open intervals

        [0, t_1), [t_1, t_2), ..., [t_m, horizon]

    on which step functions are constant.  Times within ``MERGE_TOL`` of each
    other must already be merged (the constructor rejects near-duplicates).
    Knot sets built from data hold only times strictly inside
    ``(0, horizon)`` (see :func:`build_knot_set`); times at 0 or at the
    horizon are still accepted, so model files that carry them load.

    Parameters
    ----------
    times : tuple of float
        Strictly increasing breakpoints in ``[0, horizon]``.
    horizon : float
        Right end of the observation window.

    Both are real numbers, as :func:`_real` defines them.
    """

    times: tuple
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(_real(t, "knot") for t in self.times))
        object.__setattr__(self, "horizon", _real(self.horizon, "horizon"))
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon {self.horizon} must be finite and positive")
        prev = None
        for t in self.times:
            if not 0 <= t <= self.horizon:  # NaN fails the comparison too
                raise ValueError(f"knot {t!r} outside [0, {self.horizon}]")
            if prev is not None and t - prev <= MERGE_TOL:
                raise ValueError(f"knots {prev!r} and {t!r} are not increasing / closer than {MERGE_TOL}")
            prev = t

    @property
    def n_intervals(self):
        return len(self.times) + 1

    def boundaries(self):
        """All interval boundaries, 0 and ``horizon`` included."""
        return np.concatenate(([0.0], self.times, [self.horizon]))

    def interval_index(self, t):
        """Index of the interval containing ``t`` (right-continuous)."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t!r} outside observation window [0, {self.horizon}]")
        return bisect.bisect_right(self.times, t)


@dataclass(frozen=True)
class FeaturePath:
    """Piecewise-constant covariate trajectories for one observation unit.

    ``entries`` maps feature index ``j`` (0-based, ``j < d``) to a tuple of
    ``(change_time, new_value)`` pairs with strictly increasing times; the
    feature is 0 before its first change time and right-continuous at each
    change.  Features absent from ``entries`` are identically 0.  ``d`` and
    every index are integers, as :func:`_integer` defines them, and every
    change time and value a real number, as :func:`_real` defines them.
    """

    d: int
    entries: dict

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        clean = {}
        for j, changes in self.entries.items():
            j = _integer(j, "feature index")
            if not 0 <= j < self.d:
                raise ValueError(f"feature index {j} outside [0, {self.d})")
            changes = tuple((_real(t, "change time"), _real(v, "change value"))
                            for t, v in changes)
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

    @classmethod
    def _trusted(cls, d, entries):
        """A path set from values that already pass ``__post_init__``'s
        checks, which it skips.  The caller guarantees that ``d`` is a
        nonnegative ``int``, that every key of ``entries`` is an ``int`` in
        ``[0, d)``, and that every change tuple is non-empty and holds pairs
        of finite Python ``float``s whose times increase strictly from 0 or
        later."""
        self = object.__new__(cls)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", entries)
        return self

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
    ``right``).  Both are real numbers, as :func:`_real` defines them.
    Intervals require ``0 <= left < right``.  ``id`` is an opaque label
    carried through serialization.
    """

    path: FeaturePath
    kind: str
    left: float
    right: float
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "right", _real(self.right, "right"))
        object.__setattr__(self, "left", _real(self.left, "left"))
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
    def _trusted(cls, path, kind, left, right, id):
        """An observation set from values that already pass
        ``__post_init__``'s checks, which it skips.  The caller guarantees
        that ``left`` and ``right`` are finite Python ``float``s and that
        ``kind`` is ``"interval"`` with ``0 <= left < right`` or ``"right"``
        with ``left == right > 0``."""
        self = object.__new__(cls)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "id", id)
        return self

    @classmethod
    def interval(cls, path, left, right, id=""):
        return cls(path, "interval", left, right, id)

    @classmethod
    def right_censored(cls, path, at, id=""):
        return cls(path, "right", at, at, id)


def _window_knots(times, horizon):
    """Where a coefficient may jump: ``times`` merged at ``MERGE_TOL`` together
    with both window ends, keeping what lies strictly between the ends.  A
    time within ``MERGE_TOL`` of 0 or of the horizon merges into that end;
    of any other cluster of times within ``MERGE_TOL`` of their predecessor,
    the first is kept."""
    out = []
    for t in sorted(float(t) for t in times if t > MERGE_TOL and horizon - t > MERGE_TOL):
        if not out or t - out[-1] > MERGE_TOL:
            out.append(t)
    return KnotSet(tuple(out), horizon)


def build_knot_set(observations, horizon=None):
    """Candidate jump times induced by a dataset.

    The knot set holds every censoring boundary and every feature change
    time strictly inside ``(0, horizon)``, merged at tolerance ``MERGE_TOL``.
    Restricting coefficient paths to jump only at these times loses nothing:
    for any step-function model there is one with jumps on this set
    attaining an equal or better penalized likelihood.

    Parameters
    ----------
    observations : sequence of Observation
    horizon : float, optional
        Right end of the window; defaults to the largest censoring boundary.
        Change times at or beyond the horizon are dropped (they cannot
        affect any integral on the window).

    Returns
    -------
    KnotSet
    """
    observations = list(observations)
    if not observations:
        raise ValueError("cannot build a knot set from an empty dataset")
    max_boundary = max(obs.right for obs in observations)
    if horizon is None:
        horizon = max_boundary
    if max_boundary > horizon:
        raise ValueError(f"censoring boundary {max_boundary} beyond horizon {horizon}")
    raw = [t for obs in observations for t in (obs.left, obs.right, *obs.path.change_times())]
    return _window_knots(raw, horizon)

