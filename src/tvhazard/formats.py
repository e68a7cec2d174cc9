"""File formats: line-delimited observation files and JSON model files.

Observation files hold one JSON record per line — a header carrying
``{d, horizon, time_unit}`` followed by one record per site — so large
datasets stream without loading everything to parse.  The writer stores
``"time_unit": "abstract"``; the reader keeps what the file says.

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
import math
import sys
from decimal import Decimal

import numpy as np

from .likelihood import HazardModel
from .timeline import FeaturePath, KnotSet, Observation, _integer, _real


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


def _load_json(path, parse_float=None):
    """The JSON document in ``path``; malformed JSON raises :class:`FormatError`."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f, parse_float=parse_float)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{e.lineno}: {e}") from e
        except ValueError as e:  # an integer past int()'s digit limit
            raise FormatError(f"{path}: {e}") from e


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
    would refuse (``d`` not an integer or negative, non-finite ``horizon``),
    a path whose dimension is not ``d`` or a censoring boundary beyond
    ``horizon``: the reader or the fit would refuse the file.
    """
    d, horizon = _integer(d, "d"), float(horizon)
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    lines = [json.dumps({"d": d, "horizon": horizon, "time_unit": "abstract"}) + "\n"]
    for o in observations:
        if o.path.d != d:
            raise ValueError(f"observation {o.id!r}: path d={o.path.d}, file d={d}")
        if o.right > horizon:
            raise ValueError(
                f"observation {o.id!r}: censoring boundary {o.right} beyond horizon {horizon}"
            )
        entries = o.path.entries
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


def _parse_observation(rec, d, lineno, path):
    try:
        censoring = rec["censoring"]
        entries = {}
        for feat in rec.get("features", []):
            j = _integer(feat["j"], "feature index j")
            if j in entries:
                raise ValueError(f"feature index {j} listed twice")
            entries[j] = tuple((_real(ch["t"], "t"), _real(ch["v"], "v")) for ch in feat["changes"])
        fpath = FeaturePath(d, entries)
        uid = str(rec.get("id", ""))
        kind = censoring["kind"]
        if kind == "interval":
            left, right = _real(censoring["l"], "l"), _real(censoring["r"], "r")
            return Observation.interval(fpath, left, right, id=uid)
        if kind == "right":
            return Observation.right_censored(fpath, _real(censoring["t"], "t"), id=uid)
        raise ValueError(f"unknown censoring kind {kind!r}")
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}:{lineno}: {e}") from e


def read_observations(path):
    """Parse an observation file; returns ``(observations, header_dict)``.

    Raises :class:`FormatError`, naming the file and line, for a malformed
    record (a time or value that is not a JSON number, too) or one whose
    censoring boundary lies beyond the header's horizon.
    """
    observations = []
    header = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:  # malformed JSON, or an integer past int()'s digit limit
                raise FormatError(f"{path}:{lineno}: {e}") from e
            if header is None:
                try:
                    header = {
                        "d": _integer(rec["d"], "d"),
                        "horizon": _real(rec["horizon"], "horizon"),
                        "time_unit": str(rec.get("time_unit", "abstract")),
                    }
                except (KeyError, TypeError, ValueError) as e:
                    raise FormatError(f"{path}:{lineno}: bad header: {e}") from e
                if header["d"] < 0 or not math.isfinite(header["horizon"]):
                    raise FormatError(f"{path}:{lineno}: bad header values")
                continue
            o = _parse_observation(rec, header["d"], lineno, path)
            if o.right > header["horizon"]:
                raise FormatError(
                    f"{path}:{lineno}: censoring boundary {o.right} beyond horizon {header['horizon']}"
                )
            observations.append(o)
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
    """A stored jump delta as an exact Decimal, refused before any arithmetic
    if no difference of two finite floats can have it: such a difference is
    at most twice the largest float and a multiple of 2**-1074, so it has no
    decimal digit past the 1074th place."""
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
    level = Decimal(float(row["base"]))
    values = [float(level)]
    jumps = row["jumps"]
    k = 0
    for t in knots.times:
        if k < len(jumps) and float(jumps[k]["t"]) == t:
            level = _EXACT.add(level, _delta(jumps[k]["delta"]))
            k += 1
        values.append(float(level))
    if k != len(jumps):
        raise ValueError(f"jump time {jumps[k]['t']!r} is not a knot")
    return values


def read_model(path):
    # number tokens are parsed as Decimals so that jump deltas stay exact
    doc = _load_json(path, parse_float=Decimal)
    try:
        knots = KnotSet(tuple(float(t) for t in doc["knots"]), horizon=float(doc["horizon"]))
        d = _integer(doc["d"], "d")
        if d < 0:
            raise ValueError(f"d must be nonnegative, got {d}")
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
    except (KeyError, TypeError, ValueError, OverflowError, decimal.InvalidOperation) as e:
        raise FormatError(f"{path}: {e}") from e
