"""Observation and model files: round trips, exactness, error context."""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tvhazard import (
    ConstantAdditiveModel,
    FormatError,
    HazardModel,
    KnotSet,
    Observation,
    default_scenario,
    generate,
    model_matrix,
    nll_dataset,
    read_model,
    read_observations,
    write_model,
    write_observations,
)

from tvhazard import timeline
from tvhazard.cli import _load_campaign_spec

from oracles import dyadic_decimal, observation_record, write_observations_streamed


def random_observations(rng, d=3, n=12, horizon=5.0):
    obs = []
    for i in range(n):
        entries = {}
        for j in range(d):
            if rng.random() < 0.5:
                k = int(rng.integers(1, 3))
                ts = np.sort(rng.uniform(0.0, horizon, size=k))
                entries[j] = tuple((float(t), float(rng.uniform(0.0, 2.0))) for t in ts)
        if rng.random() < 0.5:
            l = float(rng.uniform(0.1, horizon - 0.2))
            r = float(l + rng.uniform(0.05, horizon - l))
            obs.append(Observation.interval(d, entries, l, min(r, horizon), id=f"s{i}"))
        else:
            at = float(rng.uniform(0.2, horizon))
            obs.append(Observation.right_censored(d, entries, at, id=f"s{i}"))
    return obs


# the largest finite float, so that any drawn censoring time fits the window
WIDEST_HORIZON = 1.7976931348623157e308
EDGE_FLOATS = (-0.0, 5e-324, WIDEST_HORIZON, 1e16, 0.1)
# a quote, a backslash, a slash, control characters, non-ASCII, a line
# separator, a lone surrogate and an astral character
EDGE_CHARS = '"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'


@st.composite
def drawn_observations(draw):
    """One record on d=4 through the public constructors: an id with
    escapes, non-ASCII, astral characters and lone surrogates; change
    values and censoring times from the edge floats or any finite float
    >= 0 (-0.0 included); features inserted out of index order."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    times = finite.filter(lambda t: t >= 0)
    uid = draw(st.text(st.sampled_from(EDGE_CHARS) | st.characters(exclude_categories=())))
    entries = {}
    for j in draw(st.permutations(range(4)))[: draw(st.integers(0, 4))]:
        ts = sorted(draw(st.lists(times, min_size=1, max_size=3, unique=True)))
        entries[j] = tuple((t, draw(times)) for t in ts)
    if draw(st.booleans()):
        left, right = sorted(draw(st.lists(times, min_size=2, max_size=2, unique=True)))
        return Observation.interval(4, entries, left, right, id=uid)
    return Observation.right_censored(4, entries, draw(times.filter(lambda t: t > 0)), id=uid)


def random_model(rng, d=3, n_knots=4, horizon=6.0):
    times = np.sort(rng.uniform(0.4, horizon - 0.4, size=n_knots))
    ks = KnotSet(tuple(times), horizon)
    vals = lambda: np.abs(rng.standard_normal(ks.n_intervals))
    W = np.zeros((d + 1, ks.n_intervals))
    for j in rng.choice(d, size=rng.integers(0, d + 1), replace=False):
        W[j + 1] = vals()
    W[0] = vals()
    return HazardModel(ks, W)


EXTREME_LEVELS = (5e-324, 1.7976931348623157e308, 0.0, -0.0)


@st.composite
def extreme_models(draw):
    """Models on random knot sets whose levels are any finite nonnegative
    floats, the extremes and both zeros included; each row draws from a few
    levels, so flat stretches and returns to a level are common."""
    ticks = draw(st.lists(st.integers(1, 99), unique=True, max_size=8))
    ks = KnotSet(tuple(t / 10 for t in sorted(ticks)), horizon=10.0)
    levels = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(EXTREME_LEVELS)

    def row():
        pool = draw(st.lists(levels, min_size=1, max_size=4))
        return [draw(st.sampled_from(pool)) for _ in range(ks.n_intervals)]

    d = draw(st.integers(0, 3))
    rows = draw(st.sets(st.integers(0, d - 1))) if d else set()
    W = np.zeros((d + 1, ks.n_intervals))
    W[0] = row()
    for j in rows:
        W[j + 1] = row()
    return HazardModel(ks, W)


def reference_deltas(values):
    """The delta tokens a row's file entry must hold, by exact rationals."""
    out, prev = [], values[0]
    for v in values[1:]:
        if v != prev:
            out.append(dyadic_decimal(Fraction(v) - Fraction(prev)))
            prev = v
    return out


class TestObservationFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        for case in range(5):
            obs = random_observations(rng)
            p = tmp_path / f"obs{case}.jsonl"
            write_observations(p, obs, d=3, horizon=5.0)
            got, header = read_observations(p)
            assert got == obs
            assert header == {"d": 3, "horizon": 5.0, "time_unit": "abstract"}

    def test_writer_refuses_files_the_reader_or_the_fit_would_refuse(self, tmp_path):
        # paths of d=40 under a d=3 header; brackets up to 9.0 under horizon 5.0
        spec = default_scenario(0)
        _, obs = generate(spec)
        f = tmp_path / "obs.jsonl"
        with pytest.raises(ValueError, match="path d=40, file d=3"):
            write_observations(f, obs, d=3, horizon=spec.horizon)
        with pytest.raises(ValueError, match="beyond horizon 5.0"):
            write_observations(f, obs, d=spec.d, horizon=5.0)
        assert not f.exists()

    def test_adversarial_floats_round_trip(self, tmp_path):
        entries = {0: ((0.1000000001, 1e-300), (3.9, 7e15))}
        obs = [
            Observation.interval(2, entries, 1e-12, 4.999999999999999),
            Observation.right_censored(2, entries, 2.5000000000000004),
        ]
        f = tmp_path / "obs.jsonl"
        write_observations(f, obs, d=2, horizon=5.0)
        got, _ = read_observations(f)
        assert got == obs  # dataclass equality is exact float equality

    def test_ids_round_trip(self, tmp_path):
        obs = [Observation.right_censored(0, {}, 1.0, id=uid)
               for uid in ("", "5", "None", "é\n\"")]
        f = tmp_path / "obs.jsonl"
        write_observations(f, obs, d=0, horizon=1.0)
        assert read_observations(f)[0] == obs

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(drawn_observations(), max_size=5))
    @example([])
    def test_bytes_match_the_streamed_writer(self, tmp_path, records):
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        write_observations(got, records, d=4, horizon=WIDEST_HORIZON)
        write_observations_streamed(want, records, d=4, horizon=WIDEST_HORIZON)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "d, horizon",
        [(1, float("nan")), (1, float("inf")), (1, 0), (1, -3.0), (-1, 5.0), (2.5, 5.0),
         (True, 5.0), (1, "4"), (1, True)],
        ids=["nan", "inf", "horizon 0", "horizon<0", "d<0", "d=2.5", "d=True", "horizon str",
             "horizon=True"],
    )
    def test_writer_refuses_a_header_its_reader_refuses(self, tmp_path, d, horizon):
        # int(d) wrote d=2.5 as "d": 2 and True as "d": 1; float(horizon)
        # wrote "4" as "horizon": 4.0 and True as 1.0; 0 and -3.0 were written
        f = tmp_path / "obs.jsonl"
        with pytest.raises(ValueError, match="horizon must be|d must be nonnegative|d must be an"):
            write_observations(f, [], d=d, horizon=horizon)
        assert not f.exists()

    def test_writer_takes_a_numpy_integer_d(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        o = Observation.right_censored(2, {1: ((0.0, 1.0),)}, 1.0)
        write_observations(f, [o], d=np.int64(2), horizon=2.0)
        assert f.read_text().startswith('{"d": 2, "horizon": 2.0,')
        assert read_observations(f)[0] == [o]

    def test_time_unit_survives(self, tmp_path):
        # the writer always stores "abstract"; the reader keeps what a file says
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": 2.0, "time_unit": "days"}\n')
        got, header = read_observations(f)
        assert got == [] and header["time_unit"] == "days"

    @pytest.mark.parametrize("unit", ['[1, {"a": null}]', "3", "null", "true"])
    def test_time_unit_that_is_not_a_string_rejected(self, tmp_path, unit):
        # the reader kept str() of any JSON value: a list read as its repr
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": 2.0, "time_unit": %s}\n' % unit)
        with pytest.raises(FormatError, match=r"obs\.jsonl:1: bad header: time_unit must be a string"):
            read_observations(f)

    @pytest.mark.parametrize("token, uid", [('"7"', "7"), ('""', ""), ("5", "5"), ("2.5", "2.5"),
                                            ("-0.0", "-0.0")])
    def test_string_ids_read_as_written_and_number_ids_as_their_str(self, tmp_path, token, uid):
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 0, "horizon": 2.0}\n'
                     '{"id": %s, "censoring": {"kind": "right", "t": 1.0}}\n' % token)
        assert [o.id for o in read_observations(f)[0]] == [uid]

    @pytest.mark.parametrize("token", ["null", "true", "false", '{"a": 1}', '["x"]'])
    def test_id_that_is_neither_a_string_nor_a_number_rejected(self, tmp_path, token):
        # the reader kept str() of any JSON value: null read as "None",
        # true as "True", an object as its repr, and the writer kept them
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 0, "horizon": 2.0}\n'
                     '{"id": %s, "censoring": {"kind": "right", "t": 1.0}}\n' % token)
        with pytest.raises(FormatError, match=r"obs\.jsonl:2: id must be a str, got "):
            read_observations(f)

    def test_blank_lines_tolerated(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        rec = observation_record(Observation.right_censored(1, {}, 1.5))
        f.write_text('{"d": 1, "horizon": 2.0}\n\n%s\n\n' % json.dumps(rec))
        got, _ = read_observations(f)
        assert len(got) == 1 and got[0].right == 1.5

    def test_error_reports_line_number(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": 2.0}\n{"censoring": {"kind": "interval"}}\n')
        with pytest.raises(FormatError, match=r"obs\.jsonl:2"):
            read_observations(f)
        f.write_text('{"d": 1, "horizon": 2.0}\n{"id": 1\n')
        with pytest.raises(FormatError, match=r"obs\.jsonl:2"):
            read_observations(f)
        f.write_bytes(b'{"d": 1, "horizon": 2.0}\n\n{"id": "\xff"}\n')
        with pytest.raises(FormatError, match=r"obs\.jsonl:3: 'utf-8' codec can't decode byte 0xff"):
            read_observations(f)
        # a feature index that overflows to inf
        f.write_text(
            '{"d": 1, "horizon": 2.0}\n'
            '{"censoring": {"kind": "right", "t": 1.0}, "features": [{"j": 1e400, "changes": []}]}\n'
        )
        with pytest.raises(FormatError, match=r"obs\.jsonl:2"):
            read_observations(f)

    @pytest.mark.parametrize("j", ["1.7", "1.0", "true"])
    def test_non_integral_feature_index_rejected(self, tmp_path, j):
        # int() would read 1.7 as feature 1
        f = tmp_path / "obs.jsonl"
        f.write_text(
            '{"d": 2, "horizon": 2.0}\n'
            '{"censoring": {"kind": "right", "t": 1.0}, "features": [{"j": %s, "changes": []}]}\n'
            % j
        )
        with pytest.raises(FormatError, match=r"obs\.jsonl:2: feature index must be an integer"):
            read_observations(f)

    @pytest.mark.parametrize(
        "record, field",
        [
            ('"censoring": {"kind": "interval", "l": true, "r": 1.5}', "left"),
            ('"censoring": {"kind": "interval", "l": 0.5, "r": "2.5"}', "right"),
            ('"censoring": {"kind": "right", "t": "1.5"}', "right"),
            ('"censoring": {"kind": "right", "t": false}', "right"),
            (
                '"censoring": {"kind": "right", "t": 1.5}, '
                '"features": [{"j": 0, "changes": [{"t": "0", "v": 1.0}]}]',
                "change time",
            ),
            (
                '"censoring": {"kind": "right", "t": 1.5}, '
                '"features": [{"j": 0, "changes": [{"t": 0.0, "v": "3"}]}]',
                "change value",
            ),
            (
                '"censoring": {"kind": "right", "t": 1.5}, '
                '"features": [{"j": 0, "changes": [{"t": 0.0, "v": true}]}]',
                "change value",
            ),
        ],
        ids=["l-bool", "r-string", "t-string", "t-bool", "change-t-string", "v-string", "v-bool"],
    )
    def test_non_number_times_and_values_rejected(self, tmp_path, record, field):
        # float() read true as 1.0 and "2.5" as 2.5
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": 2.0}\n{%s}\n' % record)
        with pytest.raises(FormatError, match=rf"obs\.jsonl:2: {field} must be a number, got "):
            read_observations(f)

    def test_negative_change_value_rejected(self, tmp_path):
        # a negative feature value gives a negative head exposure, and the
        # NLL falls without bound as that feature's weight rises
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": 2.0}\n'
                     '{"censoring": {"kind": "right", "t": 1.5}, '
                     '"features": [{"j": 0, "changes": [{"t": 0.0, "v": 1.0}, {"t": 1.0, "v": -1.0}]}]}\n')
        with pytest.raises(FormatError,
                           match=r"obs\.jsonl:2: change value -1\.0 for feature 0 is negative"):
            read_observations(f)

    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_reader_refuses_exactly_what_the_constructors_refuse(self, tmp_path, data):
        # the constructors are the one check of a record; the reader adds
        # only its horizon, and a j listed twice.  Each token of a record
        # that would mostly pass is swapped, never or one time in 4 or 16,
        # for a numeric string, a bool, null, a list or a number that may
        # lie outside its field's range.
        odd = (st.one_of(st.integers(-2, 6), st.floats(-1.0, 6.0)).map(str) | st.booleans()
               | st.none() | st.lists(st.integers(0, 3), max_size=2) | st.integers(-1, 4)
               | st.sampled_from([math.nan, math.inf, -1.0, 2.5, 10**400]))
        swap = data.draw(st.sampled_from([0, 0, 4, 16]))

        def token(value):
            return data.draw(odd) if swap and data.draw(st.integers(1, swap)) == 1 else value

        d = data.draw(st.integers(0, 3))
        horizon = data.draw(st.sampled_from([2.0, 5.0]))
        times = st.floats(0.0, 1.2 * horizon)
        features = [
            (token(j), [(token(t), token(data.draw(st.floats(-1.0, 3.0))))
                        for t in sorted(set(data.draw(st.lists(times, max_size=3))))])
            for j in data.draw(st.permutations(range(d)))[: data.draw(st.integers(0, d))]
        ]
        uid = data.draw(st.text(max_size=2))
        if data.draw(st.booleans()):
            left, right = map(token, sorted((data.draw(times), data.draw(times))))
            censoring = {"kind": "interval", "l": left, "r": right}
            build = lambda entries: Observation.interval(d, entries, left, right, id=uid)
        else:
            right = token(data.draw(times))
            censoring = {"kind": "right", "t": right}
            build = lambda entries: Observation.right_censored(d, entries, right, id=uid)
        record = {
            "id": uid,
            "censoring": censoring,
            "features": [{"j": j, "changes": [{"t": t, "v": v} for t, v in changes]}
                         for j, changes in features],
        }
        try:
            entries = dict(features)
            want = None if len(entries) < len(features) else build(entries)
        except (TypeError, ValueError):  # an unhashable j fails dict() with a TypeError
            want = None
        if want is not None and want.right > horizon:
            want = None
        f = tmp_path / "obs.jsonl"
        f.write_text(json.dumps({"d": d, "horizon": horizon}) + "\n" + json.dumps(record) + "\n")
        if want is None:
            with pytest.raises(FormatError) as e:
                read_observations(f)
            assert str(e.value).startswith(f"{f}:2: ")
        else:
            assert read_observations(f)[0] == [want]

    def test_a_read_converts_each_token_once(self, tmp_path, monkeypatch):
        # the reader hands tokens to the constructors unconverted, so each
        # token passes _integer or _real once, in whichever module calls it
        counts = {"_integer": 0, "_real": 0}
        for name, rule in (("_integer", timeline._integer), ("_real", timeline._real)):
            def counted(*args, _name=name, _rule=rule):
                counts[_name] += 1
                return _rule(*args)
            for key, module in list(sys.modules.items()):
                if key.partition(".")[0] == "tvhazard" and getattr(module, name, None) is rule:
                    monkeypatch.setattr(module, name, counted)
        obs = random_observations(np.random.default_rng(3), n=40)
        f = tmp_path / "obs.jsonl"
        write_observations(f, obs, d=3, horizon=5.0)
        counts.update(_integer=0, _real=0)
        got, _ = read_observations(f)
        assert got == obs
        R = len(obs)
        F = sum(len(o.entries) for o in obs)
        C = sum(len(changes) for o in obs for changes in o.entries.values())
        assert C > F > 0
        assert counts == {"_integer": 1 + R + F, "_real": 1 + 2 * C + 2 * R}

    def test_integer_times_and_values_read_as_floats(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        f.write_text(
            '{"d": 1, "horizon": 2}\n'
            '{"censoring": {"kind": "interval", "l": 0, "r": 2}, '
            '"features": [{"j": 0, "changes": [{"t": 0, "v": 3}]}]}\n'
        )
        (o,), _ = read_observations(f)
        assert (o.left, o.right, o.entries) == (0.0, 2.0, {0: ((0.0, 3.0),)})
        assert all(type(x) is float for x in (o.left, o.right, *o.entries[0][0]))

    @pytest.mark.parametrize("horizon", ['"4"', "true"])
    def test_non_number_header_horizon_rejected(self, tmp_path, horizon):
        # float() read "4" as 4.0 and true as 1.0
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": %s}\n' % horizon)
        with pytest.raises(FormatError, match=r"obs\.jsonl:1: bad header: horizon must be a number"):
            read_observations(f)

    @pytest.mark.parametrize("d", ["2.5", "2.0"])
    def test_non_integral_header_dimension_rejected(self, tmp_path, d):
        # int() would read 2.5 as d=2
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": %s, "horizon": 2.0}\n' % d)
        with pytest.raises(FormatError, match=r"obs\.jsonl:1: bad header: d must be an integer"):
            read_observations(f)

    def test_unknown_kind_rejected(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        f.write_text(
            '{"d": 1, "horizon": 2.0}\n'
            '{"censoring": {"kind": "left", "t": 1.0}, "features": []}\n'
        )
        with pytest.raises(FormatError, match="unknown censoring kind"):
            read_observations(f)

    def test_duplicate_feature_index_rejected(self, tmp_path):
        # a second entry for one feature would silently replace the first
        f = tmp_path / "obs.jsonl"
        f.write_text(
            '{"d": 2, "horizon": 2.0}\n'
            '{"censoring": {"kind": "right", "t": 1.0}, "features": []}\n'
            '{"censoring": {"kind": "right", "t": 1.0}, "features": ['
            '{"j": 0, "changes": [{"t": 0.0, "v": 1.0}]}, '
            '{"j": 0, "changes": [{"t": 0.0, "v": 5.0}]}]}\n'
        )
        with pytest.raises(FormatError, match=r"obs\.jsonl:3: feature index 0 listed twice"):
            read_observations(f)

    def test_header_required_and_validated(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        f.write_text("")
        with pytest.raises(FormatError, match="empty file"):
            read_observations(f)
        f.write_text('{"horizon": 2.0}\n')
        with pytest.raises(FormatError, match="bad header"):
            read_observations(f)
        f.write_text('{"d": -1, "horizon": 2.0}\n')
        with pytest.raises(FormatError, match="bad header"):
            read_observations(f)
        for horizon in ("Infinity", "0", "-3.0"):
            f.write_text('{"d": 1, "horizon": %s}\n' % horizon)
            with pytest.raises(FormatError, match=r"obs\.jsonl:1: bad header"):
                read_observations(f)
        f.write_text('{"d": 1e400, "horizon": 2.0}\n')
        with pytest.raises(FormatError, match="bad header"):
            read_observations(f)


class TestModelFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(71)
        for case in range(20):
            m = random_model(rng)
            f = tmp_path / f"m{case}.json"
            write_model(f, m)
            got = read_model(f)
            assert got.d == m.d
            assert tuple(got.knots.times) == tuple(m.knots.times)
            assert got.knots.horizon == m.knots.horizon
            assert got.W.tobytes() == m.W.tobytes()
            assert got == m

    def test_adversarial_values_round_trip(self, tmp_path):
        ks = KnotSet((1.0, 2.0, 3.0, 4.0), horizon=5.0)
        vals = (0.0, 1e-300, 3.9, 0.1000000001, 7e250)
        m = HazardModel(ks, [vals, vals[::-1]])
        f = tmp_path / "m.json"
        write_model(f, m)
        got = read_model(f)
        assert tuple(got.W[0]) == vals
        assert tuple(got.W[1]) == vals[::-1]

    def test_writes_are_byte_stable(self, tmp_path):
        m = random_model(np.random.default_rng(72))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        write_model(f1, m)
        write_model(f2, m)
        assert f1.read_bytes() == f2.read_bytes()

    def test_file_is_plain_json(self, tmp_path):
        # any JSON parser can read the file; exactness only needs Decimal parsing
        m = random_model(np.random.default_rng(73))
        f = tmp_path / "m.json"
        write_model(f, m)
        doc = json.loads(f.read_text())
        assert set(doc) == {"d", "horizon", "knots", "intercept", "rows"}
        assert [r["j"] for r in doc["rows"]] == sorted(r["j"] for r in doc["rows"])

    def test_document_deltas_are_decimal_strings(self, tmp_path):
        ks = KnotSet((1.0, 2.0, 3.0), horizon=4.0)
        m = HazardModel(ks, [(0.7, 0.7, 1.1, 1.1), (0.3,) * 4])
        f = tmp_path / "m.json"
        write_model(f, m)
        doc = json.loads(f.read_text(), parse_float=str)
        # one jump where the level changes, none on a flat stretch
        assert doc["intercept"] == {
            "base": "0.7",
            "jumps": [{"t": "2.0", "delta": dyadic_decimal(Fraction(1.1) - Fraction(0.7))}],
        }
        assert float(doc["intercept"]["jumps"][0]["delta"]) == pytest.approx(0.4)
        assert doc["rows"][0]["jumps"] == []  # flat row stores no jumps

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(extreme_models())
    def test_jump_round_trip_is_bitwise(self, tmp_path, m):
        f = tmp_path / "m.json"
        write_model(f, m)
        assert model_matrix(read_model(f)).tobytes() == model_matrix(m).tobytes()
        doc = json.loads(f.read_text(), parse_float=str, parse_int=str)
        # the intercept, then every feature row that is not all zero
        rows = [m.W[0]] + [w for w in m.W[1:] if w.any()]
        assert [[jm["delta"] for jm in row["jumps"]] for row in [doc["intercept"], *doc["rows"]]] == [
            reference_deltas(w.tolist()) for w in rows
        ]

    def test_negative_zero_is_stored_as_positive_zero(self, tmp_path):
        ks = KnotSet((1.0, 2.0), horizon=3.0)
        m = HazardModel(ks, [(-0.0, 0.5, -0.0), (0.25, -0.0, 0.0)])
        constant = ConstantAdditiveModel(intercept=-0.0, weights=(0.5,)).to_hazard_model(3.0)
        for model in (m, constant):
            f = tmp_path / "m.json"
            write_model(f, model)
            got = model_matrix(read_model(f))
            assert got.tobytes() == model_matrix(model).tobytes()
            assert not np.signbit(got).any()

    def test_malformed_model_rejected_with_context(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("{ not json\n")
        with pytest.raises(FormatError, match=r"m\.json:1"):
            read_model(f)
        f.write_text('{"d": 1, "horizon": 2.0, "knots": []}\n')
        with pytest.raises(FormatError, match=r"m\.json"):
            read_model(f)
        f.write_text('{"d": 0, "horizon": 0, "knots": [], "intercept": {"base": 0.5, "jumps": []},'
                     ' "rows": []}\n')
        with pytest.raises(FormatError, match=r"m\.json: horizon must be finite and positive"):
            read_model(f)
        # integers that overflow to inf: the dimension and a row index
        intercept = '"intercept": {"base": 0.5, "jumps": []}'
        f.write_text('{"d": Infinity, "horizon": 2.0, "knots": [], %s, "rows": []}\n' % intercept)
        with pytest.raises(FormatError, match=r"m\.json"):
            read_model(f)
        row = '{"j": Infinity, "base": 0.5, "jumps": []}'
        f.write_text('{"d": 1, "horizon": 2.0, "knots": [], %s, "rows": [%s]}\n' % (intercept, row))
        with pytest.raises(FormatError, match=r"m\.json"):
            read_model(f)

    @pytest.mark.parametrize(
        "d, j", [("1e400", "0"), ("2.5", "0"), ("2", "1.5")], ids=["d 1e400", "d 2.5", "j 1.5"]
    )
    def test_non_integral_model_integers_rejected(self, tmp_path, d, j):
        # numbers are read as Decimals: int() would turn 1e400 into a
        # 401-digit dimension and 2.5 into 2
        f = tmp_path / "m.json"
        intercept = '"intercept": {"base": 0.5, "jumps": []}'
        row = '{"j": %s, "base": 0.5, "jumps": []}' % j
        f.write_text(
            '{"d": %s, "horizon": 2.0, "knots": [], %s, "rows": [%s]}\n' % (d, intercept, row)
        )
        with pytest.raises(FormatError, match=r"m\.json: (d|row index j) must be an integer"):
            read_model(f)

    @pytest.mark.parametrize("token", ['"1.0"', "true"], ids=["str", "bool"])
    @pytest.mark.parametrize("field", ["knots", "horizon", "base", "jump_t"])
    def test_non_number_model_tokens_rejected(self, tmp_path, field, token):
        # float() read the string "1.0" and true as 1.0
        tokens = {"knots": "1.0", "horizon": "2.0", "base": "0.5", "jump_t": "1.0", field: token}
        f = tmp_path / "m.json"
        f.write_text(
            '{"d": 0, "horizon": %(horizon)s, "knots": [%(knots)s],\n'
            ' "intercept": {"base": %(base)s, "jumps": [{"t": %(jump_t)s, "delta": 0.25}]},\n'
            ' "rows": []}\n' % tokens
        )
        with pytest.raises(FormatError, match=r"m\.json: (knot|horizon|base|jump time) must be a num"):
            read_model(f)

    def test_duplicate_row_index_rejected(self, tmp_path):
        # a second row for one feature would silently replace the first
        f = tmp_path / "m.json"
        intercept = '"intercept": {"base": 0.5, "jumps": []}'
        rows = '{"j": 0, "base": 0.1, "jumps": []}, {"j": 0, "base": 0.9, "jumps": []}'
        f.write_text('{"d": 1, "horizon": 2.0, "knots": [], %s, "rows": [%s]}\n' % (intercept, rows))
        with pytest.raises(FormatError, match=r"m\.json: row index 0 listed twice"):
            read_model(f)

    @pytest.mark.parametrize("d, j", [("2", "2"), ("2", "-1"), ("-1", None)])
    def test_row_index_outside_d_rejected(self, tmp_path, d, j):
        f = tmp_path / "m.json"
        intercept = '"intercept": {"base": 0.5, "jumps": []}'
        rows = '{"j": %s, "base": 0.5, "jumps": []}' % j if j is not None else ""
        f.write_text(
            '{"d": %s, "horizon": 2.0, "knots": [], %s, "rows": [%s]}\n' % (d, intercept, rows)
        )
        with pytest.raises(FormatError, match=r"m\.json: (row index -?\d+ outside|d must be)"):
            read_model(f)

    def test_an_explicit_all_zero_row_reads_and_is_written_back_without_it(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(
            '{"d": 3, "horizon": 2.0, "knots": [1.0],\n'
            ' "intercept": {"base": 0.5, "jumps": []},\n'
            ' "rows": [{"j": 0, "base": 0.0, "jumps": []},'
            ' {"j": 2, "base": 0.0, "jumps": [{"t": 1.0, "delta": 0.25}]}]}\n'
        )
        m = read_model(f)
        assert m.W.tolist() == [[0.5, 0.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.25]]
        out = tmp_path / "back.json"
        write_model(out, m)
        assert [row["j"] for row in json.loads(out.read_text())["rows"]] == [2]
        assert read_model(out) == m

    def test_knots_at_the_window_ends_still_load(self, tmp_path):
        # files written when knot sets kept 0 and the horizon: the two
        # zero-width intervals read back and change no likelihood
        f = tmp_path / "m.json"
        f.write_text(
            '{"d": 1, "horizon": 2.0, "knots": [0.0, 1.0, 2.0],\n'
            ' "intercept": {"base": 0.5, "jumps": [{"t": 0.0, "delta": "-0.25"},'
            ' {"t": 1.0, "delta": "0.5"}, {"t": 2.0, "delta": "-0.5"}]},\n'
            ' "rows": [{"j": 0, "base": 0.0, "jumps": [{"t": 1.0, "delta": "2"}]}]}\n'
        )
        m = read_model(f)
        assert m.knots.times == (0.0, 1.0, 2.0)
        at = m.knots.interval_index
        assert [m.W[0, at(t)] for t in (0.0, 0.5, 1.0, 2.0)] == [0.25, 0.25, 0.75, 0.25]
        assert m.W[1, at(1.5)] == 2.0
        interior = HazardModel(KnotSet((1.0,), horizon=2.0), [(0.25, 0.75), (0.0, 2.0)])
        entries = {0: ((0.5, 1.0),)}
        obs = [
            Observation.interval(1, entries, 0.0, 1.5),
            Observation.interval(1, entries, 1.0, 2.0),
            Observation.right_censored(1, entries, 2.0),
        ]
        assert nll_dataset(m, obs) == pytest.approx(nll_dataset(interior, obs), rel=1e-12)

    def test_jump_off_the_knot_grid_rejected(self, tmp_path):
        f = tmp_path / "m.json"
        for t in ("1.5", "0.5"):
            f.write_text(
                '{"d": 0, "horizon": 2.0, "knots": [1.0],\n'
                ' "intercept": {"base": 0.5, "jumps": [{"t": %s, "delta": 0.1}]},\n'
                ' "rows": []}\n' % t
            )
            with pytest.raises(FormatError, match=r"m\.json: jump time .* is not a knot"):
                read_model(f)

    @pytest.mark.parametrize(
        "delta",
        ["1e100000000", "-1e100000000", "1e-100000000", "1e-1075", "Infinity", "NaN", '"x"', "true"],
    )
    def test_delta_no_float_difference_can_have_rejected(self, tmp_path, delta):
        # refused before any exact arithmetic, which on 1e100000000 runs for minutes
        f = tmp_path / "m.json"
        f.write_text(
            '{"d": 0, "horizon": 2.0, "knots": [1.0],\n'
            ' "intercept": {"base": 0.5, "jumps": [{"t": 1.0, "delta": %s}]},\n'
            ' "rows": []}\n' % delta
        )
        start = time.perf_counter()
        with pytest.raises(FormatError, match=r"m\.json: "):
            read_model(f)
        assert time.perf_counter() - start < 1.0

    def test_negative_reconstructed_value_rejected(self, tmp_path):
        # jumps replay exactly, so a negative level surfaces as a model error
        f = tmp_path / "m.json"
        f.write_text(
            '{"d": 0, "horizon": 2.0, "knots": [1.0],\n'
            ' "intercept": {"base": 0.5, "jumps": [{"t": 1.0, "delta": -0.9}]},\n'
            ' "rows": []}\n'
        )
        with pytest.raises(FormatError):
            read_model(f)


# the names the three readers look up, so that drawn objects reach past
# the first lookup; any other string is as likely as one of them
READER_KEYS = st.sampled_from([
    "d", "horizon", "time_unit", "id", "censoring", "kind", "interval", "right", "l", "r",
    "t", "v", "j", "features", "changes", "knots", "intercept", "base", "jumps", "delta",
    "rows", "n", "active", "baseline_level", "feature_density", "scan_times",
    "monotone_truth", "seed",
]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 1000) | st.floats(-5, 1000)
    | st.sampled_from([math.inf, -math.inf, math.nan]) | READER_KEYS,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(READER_KEYS, children, max_size=6),
    max_leaves=8,
)


def shaped(template):
    """Values shaped like ``template`` (a dict's keys, a one-item list's
    items, a tuple's fields, a leaf strategy) at each level, or any JSON
    value instead, with even odds."""
    if isinstance(template, dict):
        shape = st.fixed_dictionaries({k: shaped(v) for k, v in template.items()})
    elif isinstance(template, list):
        shape = st.lists(shaped(template[0]), max_size=3)
    elif isinstance(template, tuple):
        shape = st.tuples(*map(shaped, template))
    else:
        shape = template
    return shape | JSON_VALUES


INDEX = st.integers(-1, 3)
TIME = st.integers(0, 5) | st.floats(0, 5)
HEADER = {"d": INDEX, "horizon": TIME}
RECORD = {
    "id": READER_KEYS,
    "censoring": {"kind": st.sampled_from(["right", "interval"]), "t": TIME, "l": TIME, "r": TIME},
    "features": [{"j": INDEX, "changes": [{"t": TIME, "v": TIME}]}],
}
ROW = {"base": TIME, "jumps": [{"t": TIME, "delta": TIME}]}
MODEL = {"d": INDEX, "horizon": TIME, "knots": [TIME], "intercept": ROW, "rows": [{"j": INDEX, **ROW}]}
SPEC = {
    "d": INDEX, "active": [(INDEX, [(TIME, TIME)])], "baseline_level": TIME, "horizon": TIME,
    "n": st.integers(-5, 1000), "feature_density": st.floats(-1, 2), "scan_times": [TIME],
    "monotone_truth": st.booleans(),
}


class TestReadersRefuseOnlyWithFormatError:
    """Whatever a file holds, each reader returns or raises ``FormatError``."""

    @staticmethod
    def read_each(tmp_path, observations, model, spec):
        for path, data, read in (
            (tmp_path / "obs.jsonl", observations, read_observations),
            (tmp_path / "model.json", model, read_model),
            (tmp_path / "spec.json", spec, lambda p: _load_campaign_spec(p, 0)),
        ):
            path.write_bytes(data)
            try:
                read(path)
            except FormatError:
                pass

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        header=st.just({"d": 3, "horizon": 4.0}) | shaped(HEADER),
        records=st.lists(shaped(RECORD), max_size=4),
        model=shaped(MODEL),
        spec=shaped(SPEC),
    )
    def test_json_values(self, tmp_path, header, records, model, spec):
        lines = "".join(json.dumps(value) + "\n" for value in [header, *records])
        self.read_each(tmp_path, lines.encode(), json.dumps(model).encode(), json.dumps(spec).encode())

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.binary(max_size=300), after_header=st.booleans())
    def test_raw_bytes(self, tmp_path, data, after_header):
        header = b'{"d": 1, "horizon": 4.0}\n' if after_header else b""
        self.read_each(tmp_path, header + data, data, data)
