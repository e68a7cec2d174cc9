"""File formats: line-delimited observation files and JSON model files.

Observation files hold one JSON record per line — a header carrying
``{d, horizon, time_unit}`` followed by one record per site — so large
datasets stream without loading everything to parse.  The writer stores
``"time_unit": "abstract"``; the reader keeps what the file says.

Model files store each coefficient row of a
:class:`~tvhazard.likelihood.HazardModel` as its base value plus one jump
per knot where the level changes.  Floats are written with Python's
``repr``, which reparses bitwise.  A jump's delta is the exact difference of
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

from .likelihood import HazardModel
from .timeline import FeaturePath, KnotSet, Observation, StepFunction


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


def _integer(value, what):
    """An integer field as stored: a JSON integer, not a number ``int()``
    would truncate (2.5, 1.7) or a huge Decimal (1e400) it would expand."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def observation_record(o):
    """JSON-ready dict for one observation."""
    if o.kind == "interval":
        censoring = {"kind": "interval", "l": o.left, "r": o.right}
    else:
        censoring = {"kind": "right", "t": o.right}
    features = [
        {"j": j, "changes": [{"t": t, "v": v} for t, v in o.path.entries[j]]}
        for j in sorted(o.path.entries)
    ]
    return {"id": o.id, "censoring": censoring, "features": features}


def write_observations(path, observations, d, horizon):
    """Write the header plus one observation per line, in one write."""
    # json.dumps runs the C encoder; json.dump to a file, the Python one
    header = {"d": int(d), "horizon": float(horizon), "time_unit": "abstract"}
    lines = [json.dumps(header)] + [json.dumps(observation_record(o)) for o in observations]
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def _parse_observation(rec, d, lineno, path):
    try:
        censoring = rec["censoring"]
        entries = {
            _integer(feat["j"], "feature index j"): tuple(
                (ch["t"], ch["v"]) for ch in feat["changes"]
            )
            for feat in rec.get("features", [])
        }
        fpath = FeaturePath(d, entries)
        uid = str(rec.get("id", ""))
        kind = censoring["kind"]
        if kind == "interval":
            return Observation.interval(fpath, censoring["l"], censoring["r"], id=uid)
        if kind == "right":
            return Observation.right_censored(fpath, censoring["t"], id=uid)
        raise ValueError(f"unknown censoring kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}:{lineno}: {e}") from e


def read_observations(path):
    """Parse an observation file; returns ``(observations, header_dict)``."""
    observations = []
    header = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
            if header is None:
                try:
                    header = {
                        "d": _integer(rec["d"], "d"),
                        "horizon": float(rec["horizon"]),
                        "time_unit": str(rec.get("time_unit", "abstract")),
                    }
                except (KeyError, TypeError, ValueError, OverflowError) as e:
                    raise FormatError(f"{path}:{lineno}: bad header: {e}") from e
                if header["d"] < 0 or not math.isfinite(header["horizon"]):
                    raise FormatError(f"{path}:{lineno}: bad header values")
                continue
            observations.append(_parse_observation(rec, header["d"], lineno, path))
    if header is None:
        raise FormatError(f"{path}: empty file (missing header record)")
    return observations, header


def _row_json(sf, j=None):
    """One model-file row: the base level, then at each knot where the level
    changes the exact difference of the two floats as a decimal number token."""
    jumps = []
    prev = sf.values[0]
    for t, v in zip(sf.knots.times, sf.values[1:]):
        if v != prev:
            delta = _EXACT.subtract(Decimal(v), Decimal(prev)).normalize(_EXACT)
            jumps.append('{"t": %r, "delta": %s}' % (t, format(delta, "f")))
            prev = v
    head = f'"j": {j}, ' if j is not None else ""
    return '{%s"base": %r, "jumps": [%s]}' % (head, sf.values[0], ", ".join(jumps))


def write_model(path, model):
    # repr of a finite float is a valid JSON number and reparses bitwise
    lines = [
        "{",
        ' "d": %d,' % model.d,
        ' "horizon": %r,' % model.knots.horizon,
        ' "knots": [%s],' % ", ".join(map(repr, model.knots.times)),
        ' "intercept": %s,' % _row_json(model.intercept),
        ' "rows": [',
    ]
    if model.coefficients:
        lines.append(
            ",\n".join("  " + _row_json(model.coefficients[j], j) for j in sorted(model.coefficients))
        )
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
    """Replay a row's jumps exactly; each level is the float nearest it."""
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
    return StepFunction(knots, values)


def read_model(path):
    # number tokens are parsed as Decimals so that jump deltas stay exact
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_float=Decimal)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{e.lineno}: {e}") from e
    try:
        knots = KnotSet(tuple(float(t) for t in doc["knots"]), horizon=float(doc["horizon"]))
        intercept = _row_from_json(knots, doc["intercept"])
        coefficients = {
            _integer(row["j"], "row index j"): _row_from_json(knots, row) for row in doc["rows"]
        }
        return HazardModel(
            knots=knots, d=_integer(doc["d"], "d"), intercept=intercept, coefficients=coefficients
        )
    except (KeyError, TypeError, ValueError, OverflowError, decimal.InvalidOperation) as e:
        raise FormatError(f"{path}: {e}") from e
