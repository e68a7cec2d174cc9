"""Observation and model files: round trips, exactness, error context."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvhazard import (
    ConstantAdditiveModel,
    FeaturePath,
    FormatError,
    HazardModel,
    KnotSet,
    Observation,
    StepFunction,
    eval_step,
    model_matrix,
    nll_dataset,
    read_model,
    read_observations,
    write_model,
    write_observations,
)
from tvhazard.formats import observation_record

from oracles import dyadic_decimal, write_observations_streamed


def random_observations(rng, d=3, n=12, horizon=5.0):
    obs = []
    for i in range(n):
        entries = {}
        for j in range(d):
            if rng.random() < 0.5:
                k = int(rng.integers(1, 3))
                ts = np.sort(rng.uniform(0.0, horizon, size=k))
                entries[j] = tuple((float(t), float(rng.uniform(0.0, 2.0))) for t in ts)
        p = FeaturePath(d, entries)
        if rng.random() < 0.5:
            l = float(rng.uniform(0.1, horizon - 0.2))
            r = float(l + rng.uniform(0.05, horizon - l))
            obs.append(Observation.interval(p, l, min(r, horizon), id=f"s{i}"))
        else:
            obs.append(Observation.right_censored(p, float(rng.uniform(0.2, horizon)), id=f"s{i}"))
    return obs


def random_model(rng, d=3, n_knots=4, horizon=6.0):
    times = np.sort(rng.uniform(0.4, horizon - 0.4, size=n_knots))
    ks = KnotSet(tuple(times), horizon)
    vals = lambda: tuple(np.abs(rng.standard_normal(ks.n_intervals)))
    coefficients = {
        int(j): StepFunction(ks, vals())
        for j in rng.choice(d, size=rng.integers(0, d + 1), replace=False)
    }
    return HazardModel(knots=ks, d=d, intercept=StepFunction(ks, vals()), coefficients=coefficients)


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
        return StepFunction(ks, [draw(st.sampled_from(pool)) for _ in range(ks.n_intervals)])

    d = draw(st.integers(0, 3))
    rows = draw(st.sets(st.integers(0, d - 1))) if d else set()
    return HazardModel(knots=ks, d=d, intercept=row(), coefficients={j: row() for j in rows})


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

    def test_adversarial_floats_round_trip(self, tmp_path):
        p = FeaturePath(2, {0: ((0.1000000001, 1e-300), (3.9, 7e15))})
        obs = [
            Observation.interval(p, 1e-12, 4.999999999999999),
            Observation.right_censored(p, 2.5000000000000004),
        ]
        f = tmp_path / "obs.jsonl"
        write_observations(f, obs, d=2, horizon=5.0)
        got, _ = read_observations(f)
        assert got == obs  # dataclass equality is exact float equality

    def test_bytes_match_the_streamed_writer(self, tmp_path):
        rng = np.random.default_rng(71)
        p = FeaturePath(2, {0: ((0.1000000001, 1e-300), (3.9, 7e15))})
        obs = random_observations(rng, n=40) + [
            Observation.interval(p, 1e-12, 4.999999999999999, id="edge \u00e9\"q"),
            Observation.right_censored(p, 2.5000000000000004),
        ]
        assert {o.kind for o in obs} == {"interval", "right"}
        for records in (obs, []):
            got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
            write_observations(got, records, d=3, horizon=5.0)
            write_observations_streamed(want, records, d=3, horizon=5.0)
            assert got.read_bytes() == want.read_bytes()

    def test_time_unit_survives(self, tmp_path):
        # the writer always stores "abstract"; the reader keeps what a file says
        f = tmp_path / "obs.jsonl"
        f.write_text('{"d": 1, "horizon": 2.0, "time_unit": "days"}\n')
        got, header = read_observations(f)
        assert got == [] and header["time_unit"] == "days"

    def test_blank_lines_tolerated(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        rec = observation_record(Observation.right_censored(FeaturePath(1, {}), 1.5))
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
        with pytest.raises(FormatError, match=r"obs\.jsonl:2: feature index j must be an integer"):
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
        f.write_text('{"d": 1, "horizon": Infinity}\n')
        with pytest.raises(FormatError, match="bad header"):
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
            assert got.intercept.values == m.intercept.values
            assert set(got.coefficients) == set(m.coefficients)
            for j, sf in m.coefficients.items():
                assert got.coefficients[j].values == sf.values

    def test_adversarial_values_round_trip(self, tmp_path):
        ks = KnotSet((1.0, 2.0, 3.0, 4.0), horizon=5.0)
        vals = (0.0, 1e-300, 3.9, 0.1000000001, 7e250)
        m = HazardModel(
            knots=ks,
            d=1,
            intercept=StepFunction(ks, vals),
            coefficients={0: StepFunction(ks, tuple(reversed(vals)))},
        )
        f = tmp_path / "m.json"
        write_model(f, m)
        got = read_model(f)
        assert got.intercept.values == vals
        assert got.coefficients[0].values == tuple(reversed(vals))

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
        m = HazardModel(
            knots=ks,
            d=1,
            intercept=StepFunction(ks, (0.7, 0.7, 1.1, 1.1)),
            coefficients={0: StepFunction(ks, (0.3,) * 4)},
        )
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
        rows = [m.intercept] + [m.coefficients[j] for j in sorted(m.coefficients)]
        assert [[jm["delta"] for jm in row["jumps"]] for row in [doc["intercept"], *doc["rows"]]] == [
            reference_deltas(sf.values) for sf in rows
        ]

    def test_negative_zero_is_stored_as_positive_zero(self, tmp_path):
        ks = KnotSet((1.0, 2.0), horizon=3.0)
        m = HazardModel(
            knots=ks,
            d=1,
            intercept=StepFunction(ks, (-0.0, 0.5, -0.0)),
            coefficients={0: StepFunction(ks, (0.25, -0.0, 0.0))},
        )
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
        assert [eval_step(m.intercept, t) for t in (0.0, 0.5, 1.0, 2.0)] == [0.25, 0.25, 0.75, 0.25]
        assert eval_step(m.coefficients[0], 1.5) == 2.0
        ks = KnotSet((1.0,), horizon=2.0)
        interior = HazardModel(
            knots=ks,
            d=1,
            intercept=StepFunction(ks, (0.25, 0.75)),
            coefficients={0: StepFunction(ks, (0.0, 2.0))},
        )
        p = FeaturePath(1, {0: ((0.5, 1.0),)})
        obs = [
            Observation.interval(p, 0.0, 1.5),
            Observation.interval(p, 1.0, 2.0),
            Observation.right_censored(p, 2.0),
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
        "delta", ["1e100000000", "-1e100000000", "1e-100000000", "1e-1075", "Infinity", "NaN", '"x"']
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
