"""File formats: line-delimited observation files and JSON model files.

Observation files hold one JSON record per line — a header carrying
``{d, horizon, time_unit}`` followed by one record per site — so large
datasets stream without loading everything to parse.  The writer stores
``"time_unit": "abstract"``; the reader keeps the string a file gives.

Model files store the coefficient matrix ``W`` of a
:class:`~tvhazard.likelihood.HazardModel` row by row: the intercept, then
each feature row that is not all zero under its index ``j``, each as its
base value plus one jump per knot where the level changes; a feature row the
file omits is zero.  Only this module knows that encoding.  Floats are
written with Python's ``repr``, which reparses bitwise.  A jump's delta is the exact difference of
two floats; it is a dyadic rational, so its decimal expansion terminates and
is written in full as a JSON number token.  Both directions compute in exact
decimal arithmetic: the reader parses numbers as Decimals, rounds the base
to a float, adds each delta exactly and rounds each level to the nearest
float, so a write/read round trip reproduces every coefficient bitwise.  A
delta that no difference of two finite floats can have is rejected before
any arithmetic.
"""

from __future__ import annotations

import decimal
import json
import sys
from decimal import Decimal

import numpy as np

from .likelihood import HazardModel
from .timeline import KnotSet, Observation, _dimension, _horizon, _integer, _real


# Exact decimal arithmetic: every sum and difference of the model codec is
# exact, and anything that would round raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation],
)
_MAX_DELTA = _EXACT.multiply(2, Decimal(sys.float_info.max))


class FormatError(ValueError):
    """Malformed observation or model file (includes path/line context)."""


# the one rule of every reader's refusal: JSON nested past the recursion limit too
_MALFORMED = (KeyError, TypeError, ValueError, RecursionError)


# one observation line, as json.dumps writes its record: floats by repr,
# which for a finite float is json's own number token, and features in
# index order
_INTERVAL_LINE = '{"id": %s, "censoring": {"kind": "interval", "l": %r, "r": %r}, "features": [%s]}\n'
_RIGHT_LINE = '{"id": %s, "censoring": {"kind": "right", "t": %r}, "features": [%s]}\n'
_FEATURE = '{"j": %d, "changes": [%s]}'
_CHANGE = '{"t": %r, "v": %r}'


def write_observations(path, observations, d, horizon):
    """Write the header plus one observation per line, in one write.

    Raises ``ValueError``, before the file is opened, for a header the reader
    would refuse (``d`` not a :func:`~tvhazard.timeline._dimension`,
    ``horizon`` not a :func:`~tvhazard.timeline._horizon`), a path whose
    dimension is not ``d`` or a censoring boundary beyond ``horizon``: the
    reader or the fit would refuse the file.
    """
    d, horizon = _dimension(d), _horizon(horizon)
    lines = [json.dumps({"d": d, "horizon": horizon, "time_unit": "abstract"}) + "\n"]
    for o in observations:
        if o.d != d:
            raise ValueError(f"observation {o.id!r}: path d={o.d}, file d={d}")
        if o.right > horizon:
            raise ValueError(
                f"observation {o.id!r}: censoring boundary {o.right} beyond horizon {horizon}"
            )
        entries = o.entries
        features = ", ".join(
            _FEATURE % (j, ", ".join([_CHANGE % change for change in entries[j]]))
            for j in sorted(entries)
        )
        # json.dumps keeps the id's escaping (ensure_ascii)
        if o.kind == "interval":
            lines.append(_INTERVAL_LINE % (json.dumps(o.id), o.left, o.right, features))
        else:
            lines.append(_RIGHT_LINE % (json.dumps(o.id), o.right, features))
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))


def _parse_observation(rec, d):
    """The :class:`Observation` one JSON record holds.  Its ``j``, ``t``,
    ``v``, ``l`` and ``r`` tokens go to the :class:`Observation`
    constructors as parsed, so they are the one check of a record; only a
    ``j`` listed twice is caught here, on the token itself.  A JSON number
    ``id`` goes as its ``str()``."""
    censoring = rec["censoring"]
    entries = {}
    for feat in rec.get("features", []):
        j = feat["j"]
        if j in entries:
            raise ValueError(f"feature index {j!r} listed twice")
        entries[j] = [(ch["t"], ch["v"]) for ch in feat["changes"]]
    uid = rec.get("id", "")  # a bool, null, object or array is no str
    uid = str(uid) if type(uid) in (int, float) else uid
    kind = censoring["kind"]
    if kind == "interval":
        return Observation.interval(d, entries, censoring["l"], censoring["r"], id=uid)
    if kind == "right":
        return Observation.right_censored(d, entries, censoring["t"], id=uid)
    raise ValueError(f"unknown censoring kind {kind!r}")


def read_observations(path):
    """Parse an observation file; returns ``(observations, header_dict)``.

    Every refusal is a :class:`FormatError` naming the file and line: a
    line that is not UTF-8 or not JSON, a malformed header or record (a
    ``time_unit`` not a string, a time or value not a number, too) or a
    record whose
    censoring boundary lies beyond the header's horizon.
    """
    observations = []
    header = None
    # bytes, so that a line that is not UTF-8 is refused with its number
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                if header is None:
                    d, horizon = _dimension(rec["d"]), _horizon(rec["horizon"])
                    unit = rec.get("time_unit", "abstract")
                    if not isinstance(unit, str):
                        raise ValueError(f"time_unit must be a string, got {unit!r}")
                    header = {"d": d, "horizon": horizon, "time_unit": unit}
                    continue
                o = _parse_observation(rec, header["d"])
                if o.right > header["horizon"]:
                    raise ValueError(
                        f"censoring boundary {o.right} beyond horizon {header['horizon']}"
                    )
                observations.append(o)
            except _MALFORMED as e:
                what = "bad header: " if header is None else ""
                raise FormatError(f"{path}:{lineno}: {what}{e}") from e
    if header is None:
        raise FormatError(f"{path}: empty file (missing header record)")
    return observations, header


def _row_json(times, values, j=None):
    """One model-file row of interval levels ``values``: the base level, then at
    each knot where the level changes the exact difference as a decimal token."""
    jumps = []
    prev = values[0]
    for t, v in zip(times, values[1:]):
        if v != prev:
            delta = _EXACT.subtract(Decimal(v), Decimal(prev)).normalize(_EXACT)
            jumps.append('{"t": %r, "delta": %s}' % (t, format(delta, "f")))
            prev = v
    head = f'"j": {j}, ' if j is not None else ""
    return '{%s"base": %r, "jumps": [%s]}' % (head, values[0], ", ".join(jumps))


def write_model(path, model):
    """Write the intercept and every feature row that is not all zero, in
    index order; an all-zero row reads back as zero."""
    # repr of a finite float is a valid JSON number and reparses bitwise
    times, W = model.knots.times, model.W.tolist()
    lines = [
        "{",
        ' "d": %d,' % model.d,
        ' "horizon": %r,' % model.knots.horizon,
        ' "knots": [%s],' % ", ".join(map(repr, times)),
        ' "intercept": %s,' % _row_json(times, W[0]),
        ' "rows": [',
    ]
    rows = [f"  {_row_json(times, row, j)}" for j, row in enumerate(W[1:]) if any(row)]
    if rows:
        lines.append(",\n".join(rows))
    lines += [" ]", "}"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _delta(token):
    """A stored jump delta as an exact Decimal, from a number or (as older
    files hold it) a string, refused before any arithmetic if no difference
    of two finite floats can have it: such a difference is at most twice the
    largest float and a multiple of 2**-1074, so it has no decimal digit
    past the 1074th place."""
    if isinstance(token, bool):
        raise ValueError(f"jump delta {token!r} is not a number")
    delta = Decimal(token)
    if not (
        delta.is_finite()
        and delta.copy_abs() <= _MAX_DELTA
        and delta.normalize(_EXACT).as_tuple().exponent >= -1074
    ):
        raise ValueError(f"jump delta {token!r} is not a difference of two finite floats")
    return delta


def _row_from_json(knots, row):
    """Replay a row's jumps exactly: each interval's level is the float nearest it."""
    level = Decimal(_real(row["base"], "base"))
    values = [float(level)]
    jumps = row["jumps"]
    k = 0
    for t in knots.times:
        if k < len(jumps) and _real(jumps[k]["t"], "jump time") == t:
            level = _EXACT.add(level, _delta(jumps[k]["delta"]))
            k += 1
        values.append(float(level))
    if k != len(jumps):
        raise ValueError(f"jump time {jumps[k]['t']!r} is not a knot")
    return values


def read_model(path):
    """The :class:`~tvhazard.likelihood.HazardModel` a model file holds.

    Numbers are parsed as Decimals, so that jump deltas stay exact.  Every
    number but a delta (:func:`_delta`) passes the package's rules: knots
    and horizon by :class:`KnotSet`, ``d`` by ``_dimension``, bases and
    jump times by ``_real``.  Every refusal is a :class:`FormatError`
    naming the file, and the line of a JSON syntax error.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_float=Decimal)
            knots = KnotSet(doc["knots"], horizon=doc["horizon"])
            d = _dimension(doc["d"])
            W = np.zeros((d + 1, knots.n_intervals))
            W[0] = _row_from_json(knots, doc["intercept"])
            seen = set()
            for row in doc["rows"]:
                j = _integer(row["j"], "row index j")
                if not 0 <= j < d:
                    raise ValueError(f"row index {j} outside [0, {d})")
                if j in seen:
                    raise ValueError(f"row index {j} listed twice")
                seen.add(j)
                W[j + 1] = _row_from_json(knots, row)
            return HazardModel(knots, W)
        except _MALFORMED + (OverflowError, decimal.InvalidOperation) as e:
            where = f"{path}:{e.lineno}" if isinstance(e, json.JSONDecodeError) else path
            raise FormatError(f"{where}: {e}") from e
