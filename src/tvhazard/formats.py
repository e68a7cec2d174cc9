"""File formats: line-delimited observation files and JSON model files.

Observation files hold one JSON record per line — a header carrying
``{d, horizon, time_unit}`` followed by one record per site — so large
datasets stream without loading everything to parse.  Model files serialize
a :class:`~tvhazard.likelihood.HazardModel` as sparse jump lists (base value
plus one delta per jump).  Plain floats go through Python's ``repr`` (lossless
to reparse); jump deltas are exact differences of adjacent interval values,
which are dyadic rationals, and are written as exact finite-decimal number
tokens.  Reading parses numbers as Decimals and replays the jumps in exact
arithmetic, so a write/read round trip reproduces every coefficient bitwise.
"""

from __future__ import annotations

import decimal
import json
import math
from fractions import Fraction

from .likelihood import HazardModel
from .timeline import FeaturePath, KnotSet, Observation, StepFunction


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


def write_observations(path, observations, d, horizon, time_unit="abstract"):
    """Write the header plus one observation per line, in one write."""
    # json.dumps runs the C encoder; json.dump to a file, the Python one
    header = {"d": int(d), "horizon": float(horizon), "time_unit": time_unit}
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


def _dyadic_decimal(q):
    """Exact finite-decimal string of a dyadic rational.

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


def _row_entry(sf):
    base, jumps = sf.to_jumps()
    return {
        "base": base,
        "jumps": [{"t": t, "delta": _dyadic_decimal(dv)} for t, dv in jumps],
    }


def model_document(model):
    """JSON-ready dict for a model; verifies the jump lists rebuild bitwise.

    Jump deltas are exact decimal strings (see :func:`_dyadic_decimal`); the
    writer emits them as raw JSON number tokens so the file stays plain JSON
    while the read path can reconstruct each value bitwise.
    """
    doc = {
        "d": model.d,
        "horizon": model.knots.horizon,
        "knots": list(model.knots.times),
        "intercept": _row_entry(model.intercept),
        "rows": [
            {"j": j, **_row_entry(model.coefficients[j])}
            for j in sorted(model.coefficients)
        ],
    }
    rebuilt = _model_from_document(doc, where="<memory>")
    for got, want in [(rebuilt.intercept, model.intercept)] + [
        (rebuilt.coefficients[j], model.coefficients[j]) for j in model.coefficients
    ]:
        if got.values != want.values:
            raise FormatError("model is not exactly representable as a jump list")
    return doc


def _float_token(x):
    # repr of a finite float is a valid JSON number and reparses bitwise
    return repr(float(x))


def _entry_json(entry, j=None):
    jumps = ", ".join(
        '{"t": %s, "delta": %s}' % (_float_token(jm["t"]), jm["delta"])
        for jm in entry["jumps"]
    )
    head = f'"j": {j}, ' if j is not None else ""
    return '{%s"base": %s, "jumps": [%s]}' % (head, _float_token(entry["base"]), jumps)


def write_model(path, model):
    doc = model_document(model)
    lines = [
        "{",
        ' "d": %d,' % doc["d"],
        ' "horizon": %s,' % _float_token(doc["horizon"]),
        ' "knots": [%s],' % ", ".join(_float_token(t) for t in doc["knots"]),
        ' "intercept": %s,' % _entry_json(doc["intercept"]),
        ' "rows": [',
    ]
    if doc["rows"]:
        lines.append(",\n".join("  " + _entry_json(r, j=r["j"]) for r in doc["rows"]))
    lines += [" ]", "}"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _model_from_document(doc, where):
    try:
        knots = KnotSet(
            tuple(float(t) for t in doc["knots"]), horizon=float(doc["horizon"])
        )
        intercept = StepFunction.from_jumps(
            knots,
            doc["intercept"]["base"],
            [(j["t"], j["delta"]) for j in doc["intercept"]["jumps"]],
        )
        coefficients = {}
        for row in doc["rows"]:
            coefficients[_integer(row["j"], "row index j")] = StepFunction.from_jumps(
                knots, row["base"], [(j["t"], j["delta"]) for j in row["jumps"]]
            )
        return HazardModel(
            knots=knots, d=_integer(doc["d"], "d"), intercept=intercept, coefficients=coefficients
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{where}: {e}") from e


def read_model(path):
    # jump deltas must reach from_jumps exactly, so number tokens are parsed
    # as Decimals (exact) rather than rounded to float up front
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_float=decimal.Decimal)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{e.lineno}: {e}") from e
    return _model_from_document(doc, where=path)
