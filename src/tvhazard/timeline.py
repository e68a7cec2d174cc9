"""Shared time axis: knot sets, piecewise-constant feature paths and observations.

Every coefficient path in a fitted model is a right-continuous step function
whose jumps live on a single shared :class:`KnotSet`; a model holds one
value per (coefficient row, knot interval), the matrix ``W`` of
:class:`tvhazard.likelihood.HazardModel`, and its file form, a base level
plus jumps, belongs to :mod:`tvhazard.formats`.  Feature paths carry
their own change times and are right-continuous as well.  A set of records
is read as one run table (:func:`_run_table`), from which the knot set and
:class:`tvhazard.likelihood.CensoredDesign`'s exact integrals are taken.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain
from types import MappingProxyType

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
    ``numbers.Real`` (NumPy floats and integers too) or a ``Decimal`` (a
    model file's number token) but a ``bool``; a string is refused rather
    than parsed."""
    if type(value) is float:
        return value
    if isinstance(value, (numbers.Real, Decimal)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} {value!r} is too large for a float") from None
    raise ValueError(f"{what} must be a number, got {value!r}")


def _switch(value, what):
    """Refuse a switch the package takes in unless it is a ``bool``: a truthy
    stand-in such as ``"no"`` or ``1`` is not read as one."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a bool, got {value!r}")


def _horizon(value):
    """The right end of an observation window: a finite, positive
    :func:`_real`."""
    horizon = _real(value, "horizon")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    return horizon


def _dimension(value):
    """A number of features ``d``: an :func:`_integer` >= 0."""
    d = _integer(value, "d")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return d


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
        Strictly increasing breakpoints in ``[0, horizon]``, each a real
        number as :func:`_real` defines it.
    horizon : float
        Right end of the observation window, as :func:`_horizon` defines it.
    """

    times: tuple
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(_real(t, "knot") for t in self.times))
        object.__setattr__(self, "horizon", _horizon(self.horizon))
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
    change.  Features absent from ``entries`` are identically 0.  ``d`` is
    a dimension, as :func:`_dimension` defines it, every index an integer,
    as :func:`_integer` defines it, and every change time and value a
    finite, nonnegative real number, as :func:`_real` defines it: a negative
    value would make a head exposure negative, and the NLL fall without
    bound as that feature's weight rises.  This constructor is the one check
    of a path, the file reader's included.  ``entries`` is stored
    read-only, so the runs a design once read from it stay the path's.
    """

    d: int
    entries: dict

    def __post_init__(self):
        object.__setattr__(self, "d", _dimension(self.d))
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
                if v < 0:
                    raise ValueError(f"change value {v!r} for feature {j} is negative")
                if t <= prev:
                    raise ValueError(f"change times for feature {j} not strictly increasing")
                prev = t
            if changes:
                clean[j] = changes
        object.__setattr__(self, "entries", MappingProxyType(clean))

    def __reduce__(self):
        """Rebuilt through the constructor: a read-only mapping does not pickle."""
        return type(self), (self.d, dict(self.entries))

    @classmethod
    def _trusted(cls, d, entries):
        """A path set from values that already pass ``__post_init__``'s
        checks, which it skips.  The caller guarantees that ``d`` is a
        nonnegative ``int``, that every key of ``entries`` is an ``int`` in
        ``[0, d)``, and that every change tuple is non-empty and holds pairs
        of finite Python ``float``s whose times increase strictly from 0 or
        later and whose values are nonnegative."""
        self = object.__new__(cls)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", MappingProxyType(entries))
        return self


@dataclass(frozen=True)
class Observation:
    """One censored observation: a feature path plus censoring information.

    ``kind`` is ``"interval"`` (event happened in ``(left, right]``) or
    ``"right"`` (no event up to ``right``; ``left`` is ignored and stored as
    ``right``).  Both are real numbers, as :func:`_real` defines them.
    Intervals require ``0 <= left < right``.  ``id`` is an opaque ``str``
    label carried through serialization.
    """

    path: FeaturePath
    kind: str
    left: float
    right: float
    id: str = ""
    # not a field: ``(block, position)`` once :func:`_run_table` has walked
    # the record's path.  One attribute keeps the instance dict at
    # its size, and one tuple is stored in one step.
    _runs = None

    def __getstate__(self):
        """The fields only: a pickle or a copy never carries a walked block."""
        return {k: v for k, v in self.__dict__.items() if k != "_runs"}

    def __post_init__(self):
        object.__setattr__(self, "right", _real(self.right, "right"))
        object.__setattr__(self, "left", _real(self.left, "left"))
        if self.kind not in ("interval", "right"):
            raise ValueError(f"unknown censoring kind {self.kind!r}")
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a str, got {self.id!r}")
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


def _run_table(observations):
    """The paths' constant runs as one table, and the records' brackets and
    kinds: the one form in which the package reads a set of records.

    Returns the paths' common dimension ``d``; a (runs, 5) float array of
    ``(observation, coefficient row, start, end, value)`` rows, sorted by
    observation, then row, then start; and the ``left`` and ``right`` ends
    and ``is_interval`` flags, in input order.  Row 0 is the intercept, one
    run of value 1 from time 0; feature ``j`` is row ``j + 1``, one run per
    change, zero-valued ones included, until the next change (or forever).

    The first call over a list walks its paths (:func:`_walk`) and keeps
    the result as one private block, stamping each record with
    ``Observation._runs = (block, position)``.  A later call whose records
    all carry one block (a permutation, a sublist, repeats) does not walk;
    records never walked, or from two blocks, are walked and stamped again.
    Every call, the first too, gathers its records' rows from the block
    with NumPy (:func:`_gather`): fresh arrays, bitwise what a walk would
    give.  A block holds 40 B per run and about 110 B per record, its
    ``(block, position)`` pair included, and is freed with the records.
    Raises ``ValueError`` for no observations or paths of different
    dimensions.
    """
    if not observations:
        raise ValueError("no observations")
    stamps = [o._runs for o in observations]
    block = stamps[0][0] if stamps[0] else None
    if all(s is not None and s[0] is block for s in stamps):
        positions = np.fromiter((s[1] for s in stamps), np.intp, len(stamps))
    else:
        d, table, left, right, is_interval = _walk(observations)
        # each record's rows start at the first row of its observation number
        offsets = np.searchsorted(table[:, 0], np.arange(len(observations) + 1))
        # a tuple of an int and arrays, so the cyclic collector stops tracking
        # it, and then the stamps that hold it
        block = (d, table, offsets, left, right, is_interval)
        stamp = object.__setattr__
        for i, o in enumerate(observations):
            stamp(o, "_runs", (block, i))
        positions = np.arange(len(observations))
    return _gather(block, positions)


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
    changes = list(chain.from_iterable(e.values() for e in entries))
    size = np.fromiter(map(len, changes), np.intp, len(changes))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(changes)), float)
    start, value = flat.reshape(-1, 2).T
    # each change lasts until its feature's next change, the last one forever
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[np.cumsum(size) - 1] = math.inf
    row = np.repeat(np.fromiter(chain.from_iterable(entries), np.intp, len(changes)) + 1, size)
    obs = np.repeat(np.repeat(np.arange(n), list(map(len, entries))), size)
    table = np.empty((n + len(start), 5))
    table[:n] = (0.0, 0.0, 0.0, math.inf, 1.0)
    table[:n, 0] = np.arange(n)
    for c, column in enumerate((obs, row, start, end, value)):
        table[n:, c] = column
    # intercept runs first; the stable sort by (observation, row) keeps each
    # feature's runs in time order
    key = np.concatenate((np.arange(n) * (d + 1), obs * (d + 1) + row))
    return d, table[np.argsort(key, kind="stable")], left, right, is_interval


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
    time strictly inside ``(0, horizon)``, merged at tolerance ``MERGE_TOL``,
    read from the records' run table (:func:`_run_table`).
    Restricting coefficient paths to jump only at these times loses nothing:
    for any step-function model there is one with jumps on this set
    attaining an equal or better penalized likelihood.

    Parameters
    ----------
    observations : sequence of Observation
        Records whose paths share one dimension (``ValueError`` otherwise).
    horizon : float, optional
        Right end of the window, as :func:`_horizon` defines it; defaults to
        the largest censoring boundary.
        Change times at or beyond the horizon are dropped (they cannot
        affect any integral on the window).

    Returns
    -------
    KnotSet
    """
    observations = list(observations)
    if not observations:
        raise ValueError("cannot build a knot set from an empty dataset")
    _, table, left, right, _ = _run_table(observations)
    max_boundary = float(right.max())
    horizon = max_boundary if horizon is None else _horizon(horizon)
    if max_boundary > horizon:
        raise ValueError(f"censoring boundary {max_boundary} beyond horizon {horizon}")
    # every change time is some run's start
    return _window_knots(np.unique(np.concatenate((table[:, 2], left, right))).tolist(), horizon)
