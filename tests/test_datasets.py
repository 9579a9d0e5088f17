import codecs
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscore import datasets
from triscore import (
    Dataset,
    ForecastRecord,
    ObsCategory,
    UNIFORM,
    empirical_quantiles,
    ensemble_to_ternary,
    make_ternary,
    pairs_from_dataset,
    parse_csv,
    parse_json,
    resolve_observation,
    resolve_ternary,
    write_json,
)
from triscore.errors import (
    MissingClimatologySeries,
    MixedRepresentation,
    SchemaError,
    TriscoreError,
)


def csv_bytes(*lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_json_reference(data: bytes) -> Dataset:
    """Record-by-record JSON parsing through the per-field helpers and
    ``_build_record``: the reference for parse_json's column checks."""
    doc = datasets.load_json(datasets._decode(data), "invalid JSON")
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise SchemaError("top level must be an object with a 'records' array")
    if "q" in doc:
        qv = doc["q"]
        if not (isinstance(qv, list) and len(qv) == 3):
            raise SchemaError("q must be a 3-element array", "q")
        q_values = datasets.json_floats(qv, "q", "q")
        try:
            q = make_ternary(*q_values)
        except TriscoreError as e:
            raise SchemaError(f"invalid climatology q: {e}", "q") from None
    else:
        q = UNIFORM
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise SchemaError("metadata must map strings to strings", "metadata")

    number, numbers = datasets._json_number, datasets._json_numbers
    records = []
    for i, rec in enumerate(doc["records"]):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError("record must be an object", where)
        records.append(datasets._build_record(
            where,
            number(rec, "lat", where),
            number(rec, "lon", where),
            [number(rec, k, where) for k in ("pB", "pN", "pA")],
            [number(rec, k, where) for k in ("mu", "sigma", "mu_c", "sigma_c")],
            members=numbers(rec, "members", where),
            obs=datasets._parse_obs_label(rec.get("obs"), f"{where}.obs"),
            obs_value=number(rec, "obs_value", where),
            series=numbers(rec, "series", where),
        ))
    return Dataset(records=tuple(records), q=q, metadata=dict(metadata))


def parse_csv_reference(data: bytes) -> Dataset:
    """Row-by-row CSV parsing through the per-field helpers and
    ``_build_record``: the reference for parse_csv's column checks."""
    rows = datasets._csv_rows(datasets._decode(data))
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError("empty CSV input") from None
    header = datasets._csv_header(header)
    number = datasets._csv_float
    records = []
    for rownum, row in rows:
        where = f"row {rownum}"
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise SchemaError(f"expected {len(header)} fields, got {len(row)}", where)
        cells = dict(zip(header, map(str.strip, row)))
        records.append(datasets._build_record(
            where,
            number(cells, "lat", where),
            number(cells, "lon", where),
            [number(cells, c, where) for c in ("pB", "pN", "pA")],
            [number(cells, c, where) for c in ("mu", "sigma", "mu_c", "sigma_c")],
            obs=datasets._parse_obs_label(cells.get("obs") or None, where),
            obs_value=number(cells, "obs_value", where),
        ))
    return Dataset(records=tuple(records))


def outcome(parse, data: bytes):
    """The parsed dataset's repr, which spells every float to its last
    bit and the sign of zero, or the package error's class and message."""
    try:
        return repr(parse(data))
    except TriscoreError as e:
        return type(e), str(e)


class TestParseCsv:
    def test_ternary_row(self):
        ds = parse_csv(csv_bytes(
            "lat,lon,pB,pN,pA,obs",
            "0,0,0.333333333,0.333333333,0.333333334,B",
        ))
        assert len(ds.records) == 1
        rec = ds.records[0]
        assert rec.obs is ObsCategory.B
        assert rec.ternary.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-8)
        assert ds.q == UNIFORM

    def test_unnormalised_row_is_schema_error_with_row_number(self):
        with pytest.raises(SchemaError) as err:
            parse_csv(csv_bytes("lat,lon,pB,pN,pA", "0,0,0.5,0.3,0.1"))
        assert "row 2" in str(err.value)

    def test_gaussian_row(self):
        ds = parse_csv(csv_bytes("lat,lon,mu,sigma,mu_c,sigma_c", "0,0,7,2,5,2"))
        assert ds.records[0].gaussian == (7.0, 2.0, 5.0, 2.0)

    def test_mixed_row_rejected(self):
        with pytest.raises(MixedRepresentation):
            parse_csv(csv_bytes(
                "lat,lon,pB,pN,pA,mu,sigma,mu_c,sigma_c",
                "0,0,0.2,0.5,0.3,7,2,5,2",
            ))

    def test_mixed_header_split_rows_ok(self):
        ds = parse_csv(csv_bytes(
            "lat,lon,pB,pN,pA,mu,sigma,mu_c,sigma_c",
            "0,0,0.2,0.5,0.3,,,,",
            "1,1,,,,7,2,5,2",
        ))
        assert ds.records[0].ternary is not None
        assert ds.records[1].gaussian is not None

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            parse_csv(csv_bytes("lat,lon,pB,pN,pA,bogus", "0,0,1,0,0,x"))

    def test_missing_forecast_columns(self):
        with pytest.raises(SchemaError):
            parse_csv(csv_bytes("lat,lon,obs", "0,0,B"))

    def test_obs_case_insensitive(self):
        ds = parse_csv(csv_bytes("lat,lon,pB,pN,pA,obs", "0,0,1,0,0,b"))
        assert ds.records[0].obs is ObsCategory.B

    def test_bad_obs_label(self):
        with pytest.raises(SchemaError) as err:
            parse_csv(csv_bytes("lat,lon,pB,pN,pA,obs", "0,0,1,0,0,Q"))
        assert "row 2" in str(err.value)

    def test_obs_and_obs_value_conflict(self):
        with pytest.raises(SchemaError):
            parse_csv(csv_bytes(
                "lat,lon,pB,pN,pA,obs,obs_value", "0,0,1,0,0,B,3.2"
            ))

    def test_lat_out_of_range(self):
        with pytest.raises(SchemaError) as err:
            parse_csv(csv_bytes("lat,lon,pB,pN,pA", "95,0,1,0,0"))
        assert "row 2" in str(err.value)

    def test_non_numeric_field_named(self):
        with pytest.raises(SchemaError) as err:
            parse_csv(csv_bytes("lat,lon,pB,pN,pA", "0,0,abc,0,1"))
        assert "pB" in str(err.value)

    @pytest.mark.parametrize("lines, where", [
        (("lat,lon,pB,pN,pA", '0,0,"' + "1" * 200_000 + '",0,0'), "row 2: malformed CSV"),
        (('lat,lon,"' + "x" * 200_000 + '"', "0,0"), "row 1: malformed CSV"),
        (("lat,lon,pB,pN,pA", "0,0,1,0,0", '0,1,"' + "1" * 200_000 + '",0,0'),
         "row 3: malformed CSV"),
    ], ids=["field-too-large", "header-too-large", "third-row"])
    def test_csv_error_is_schema_error(self, lines, where):
        with pytest.raises(SchemaError) as err:
            parse_csv(csv_bytes(*lines))
        assert str(err.value).startswith(where)

    def test_blank_lines_skipped(self):
        ds = parse_csv(csv_bytes("lat,lon,pB,pN,pA", "0,0,1,0,0", "", "1,0,0,1,0"))
        assert len(ds.records) == 2

    def test_duplicate_column_rejected(self):
        # the last cell used to win: this row parsed as (0.2, 0.3, 0.5)
        with pytest.raises(SchemaError) as err:
            parse_csv(csv_bytes("lat,lon,pB,pN,pA,pA", "0,0,0.2,0.3,0.9,0.5"))
        assert str(err.value) == "row 1: duplicate column 'pA'"

    def test_leading_byte_order_mark_is_skipped(self):
        data = csv_bytes("lat,lon,pB,pN,pA,obs", "0,0,0.2,0.3,0.5,B")
        assert parse_csv(codecs.BOM_UTF8 + data) == parse_csv(data)

    def test_second_byte_order_mark_is_an_error(self):
        with pytest.raises(SchemaError) as err:
            parse_csv(codecs.BOM_UTF8 * 2 + csv_bytes("lat,lon,pB,pN,pA", "0,0,1,0,0"))
        assert str(err.value) == r"row 1: unknown column '\ufefflat'"

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(SchemaError):
            parse_csv(csv_bytes("lat,lon,mu,sigma,mu_c,sigma_c", "0,0,7,0,5,2"))


class TestParseJson:
    def test_full_document(self):
        doc = {
            "q": [0.25, 0.5, 0.25],
            "metadata": {"season": "JFM"},
            "records": [
                {"lat": 0.0, "lon": 0.0, "pB": 0.2, "pN": 0.5, "pA": 0.3, "obs": "N"},
                {"lat": 1.0, "lon": 2.0, "mu": 7, "sigma": 2, "mu_c": 5, "sigma_c": 2},
                {"lat": -1.0, "lon": 3.0, "members": [1, 2, 3], "series": list(range(11)),
                 "obs_value": 4.5},
            ],
        }
        ds = parse_json(json.dumps(doc).encode())
        assert ds.q.as_tuple() == (0.25, 0.5, 0.25)
        assert ds.metadata == {"season": "JFM"}
        assert ds.records[1].gaussian == (7.0, 2.0, 5.0, 2.0)
        assert ds.records[2].members == (1.0, 2.0, 3.0)

    def test_default_q_is_uniform(self):
        ds = parse_json(b'{"records": []}')
        assert ds.q == UNIFORM

    def test_mixed_representation_named(self):
        doc = {"records": [{"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0, "mu": 1,
                            "sigma": 1, "mu_c": 0, "sigma_c": 1}]}
        with pytest.raises(MixedRepresentation) as err:
            parse_json(json.dumps(doc).encode())
        assert "records[0]" in str(err.value)

    def test_error_paths_carry_location(self):
        doc = {"records": [{"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": "x"}]}
        with pytest.raises(SchemaError) as err:
            parse_json(json.dumps(doc).encode())
        assert "records[0].pA" in str(err.value)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_json(b"not json")

    def test_not_utf8(self):
        with pytest.raises(SchemaError):
            parse_json(b"\xff\xfe{}")

    def test_leading_byte_order_mark_is_skipped(self):
        data = write_json(Dataset(records=(ForecastRecord(lat=0.0, lon=0.0, ternary=UNIFORM),)))
        assert parse_json(codecs.BOM_UTF8 + data) == parse_json(data)

    @pytest.mark.parametrize("data", [codecs.BOM_UTF8 * 2 + b'{"records": []}',
                                      b' ' + codecs.BOM_UTF8 + b'{"records": []}'],
                             ids=["second", "after-space"])
    def test_other_byte_order_marks_are_errors(self, data):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_json(data)


class TestRoundtrip:
    def test_write_then_parse_is_identity(self):
        ds = Dataset(
            records=(
                ForecastRecord(lat=0.5, lon=-1.25, ternary=make_ternary(0.2, 0.5, 0.3),
                               obs=ObsCategory.N),
                ForecastRecord(lat=10.0, lon=20.0, gaussian=(7.0, 2.0, 5.0, 2.0),
                               obs_value=6.125),
                ForecastRecord(lat=-5.0, lon=30.0, members=(1.0, 2.5, 3.75),
                               series=tuple(float(x) for x in range(12))),
            ),
            q=make_ternary(0.25, 0.5, 0.25),
            metadata={"source": "unit-test"},
        )
        assert parse_json(write_json(ds)) == ds

    def test_double_roundtrip_bytes_stable(self):
        ds = Dataset(records=(
            ForecastRecord(lat=0.0, lon=0.0, ternary=make_ternary(1 / 3, 1 / 3, 1 / 3)),
        ))
        once = write_json(ds)
        assert write_json(parse_json(once)) == once


class TestResolve:
    def test_ternary_passthrough(self):
        rec = ForecastRecord(lat=0, lon=0, ternary=make_ternary(0.2, 0.5, 0.3))
        assert resolve_ternary(rec, UNIFORM) == rec.ternary

    def test_gaussian_identity_maps_to_climatology(self):
        rec = ForecastRecord(lat=0, lon=0, gaussian=(5.0, 2.0, 5.0, 2.0))
        p = resolve_ternary(rec, UNIFORM)
        assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_ensemble_uses_series_thresholds(self):
        # oracle: compose the quantile and counting operations directly
        series = [float(x) for x in range(11)]
        members = (1.0, 2.0, 3.0)
        rec = ForecastRecord(lat=0, lon=0, members=members, series=tuple(series))
        want = ensemble_to_ternary(list(members), empirical_quantiles(series, UNIFORM))
        assert resolve_ternary(rec, UNIFORM) == want

    def test_ensemble_without_series_fails(self):
        rec = ForecastRecord(lat=0, lon=0, members=(1.0, 2.0))
        with pytest.raises(MissingClimatologySeries):
            resolve_ternary(rec, UNIFORM)

    def test_observation_label_passthrough(self):
        rec = ForecastRecord(lat=0, lon=0, ternary=UNIFORM, obs=ObsCategory.A)
        assert resolve_observation(rec, UNIFORM) is ObsCategory.A

    def test_observation_value_against_series(self):
        series = tuple(float(x) for x in range(11))  # terciles at 10/3, 20/3
        rec = ForecastRecord(lat=0, lon=0, ternary=UNIFORM, series=series, obs_value=5.0)
        assert resolve_observation(rec, UNIFORM) is ObsCategory.N

    def test_observation_value_against_gaussian_climatology(self):
        rec = ForecastRecord(lat=0, lon=0, gaussian=(7.0, 2.0, 5.0, 2.0), obs_value=5.0)
        # value at the climatological mean is in the middle category
        assert resolve_observation(rec, UNIFORM) is ObsCategory.N
        rec_low = ForecastRecord(lat=0, lon=0, gaussian=(7.0, 2.0, 5.0, 2.0), obs_value=0.0)
        assert resolve_observation(rec_low, UNIFORM) is ObsCategory.B
        # a series does not displace the climatology the forecast is reduced
        # against: 0 is the median of N(0, 1), though below every series value
        series = tuple(float(x) for x in range(10, 41))
        rec_series = ForecastRecord(lat=0, lon=0, gaussian=(0.0, 1.0, 0.0, 1.0),
                                    series=series, obs_value=0.0)
        assert resolve_observation(rec_series, UNIFORM) is ObsCategory.N

    def test_observation_value_needs_climatology(self):
        rec = ForecastRecord(lat=0, lon=0, ternary=UNIFORM, obs_value=1.0)
        with pytest.raises(MissingClimatologySeries):
            resolve_observation(rec, UNIFORM)

    def test_unobserved_returns_none(self):
        rec = ForecastRecord(lat=0, lon=0, ternary=UNIFORM)
        assert resolve_observation(rec, UNIFORM) is None


class TestPairsFromDataset:
    def test_keeps_order_and_skips_unobserved(self):
        ds = Dataset(records=(
            ForecastRecord(lat=0, lon=0, ternary=make_ternary(1, 0, 0), obs=ObsCategory.B),
            ForecastRecord(lat=0, lon=1, ternary=make_ternary(0, 1, 0)),
            ForecastRecord(lat=0, lon=2, ternary=make_ternary(0, 0, 1), obs=ObsCategory.A),
        ))
        pairs = pairs_from_dataset(ds)
        assert len(pairs) == 2
        assert pairs[0].obs is ObsCategory.B
        assert pairs[1].obs is ObsCategory.A

    def test_errors_name_the_record(self):
        # the second record's Gaussian forecast cannot be resolved under
        # a climatology with no interior upper threshold
        ds = Dataset(
            records=(
                ForecastRecord(lat=0, lon=0, ternary=make_ternary(1, 0, 0),
                               obs=ObsCategory.B),
                ForecastRecord(lat=0, lon=1, ternary=make_ternary(1 / 3, 0, 2 / 3),
                               obs_value=1.0),
            ),
        )
        with pytest.raises(MissingClimatologySeries) as err:
            pairs_from_dataset(ds)
        assert "records[1]" in str(err.value)


class TestRecordValidation:
    def test_no_forecast_rejected(self):
        with pytest.raises(SchemaError):
            ForecastRecord(lat=0, lon=0)

    def test_two_forecasts_rejected(self):
        with pytest.raises(MixedRepresentation):
            ForecastRecord(lat=0, lon=0, ternary=UNIFORM, members=(1.0,))

    def test_parsed_records_equal_constructed_ones(self):
        data = _as_json({"lat": 1.0, "lon": 2.0, "pB": 0.2, "pN": 0.3, "pA": 0.5, "obs": "B"},
                        {"lat": 3.0, "lon": 4.0, "mu": 1.0, "sigma": 2.0, "mu_c": 0.0,
                         "sigma_c": 1.0, "obs_value": 0.5})
        for rec in parse_json(data).records:
            built = ForecastRecord(**{f.name: getattr(rec, f.name)
                                      for f in dataclasses.fields(ForecastRecord)})
            assert rec == built and hash(rec) == hash(built) and repr(rec) == repr(built)
            assert vars(rec) == vars(built) and list(vars(rec)) == list(vars(built))
            # a record changed through the constructor is checked again
            with pytest.raises(SchemaError):
                dataclasses.replace(rec, lat=91.0)


_ALL_COLUMNS = ("lat", "lon", "pB", "pN", "pA", "mu", "sigma", "mu_c", "sigma_c",
                "obs", "obs_value")


def _as_csv(*rows: dict) -> bytes:
    """One CSV document with every column; absent fields are empty cells."""
    lines = [",".join(_ALL_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            "" if row.get(c) is None else str(row[c]) if c == "obs" else repr(row[c])
            for c in _ALL_COLUMNS
        ))
    return csv_bytes(*lines)


def _as_json(*rows: dict) -> bytes:
    return json.dumps({"records": list(rows)}).encode()


_coord = st.floats(-90.0, 90.0, allow_nan=False)
_weight = st.floats(1e-3, 1.0, allow_nan=False)
_mean = st.floats(-1e3, 1e3, allow_nan=False)
_spread = st.floats(1e-3, 1e3, allow_nan=False)


@st.composite
def _rows(draw) -> dict:
    row = {"lat": draw(_coord), "lon": draw(_coord)}
    if draw(st.booleans()):
        w = [draw(_weight) for _ in range(3)]
        row.update(zip(("pB", "pN", "pA"), (x / sum(w) for x in w)))
    else:
        row.update(mu=draw(_mean), sigma=draw(_spread), mu_c=draw(_mean),
                   sigma_c=draw(_spread))
    observed = draw(st.sampled_from(("none", "obs", "obs_value")))
    if observed == "obs":
        row["obs"] = draw(st.sampled_from("BNAbna"))
    elif observed == "obs_value":
        row["obs_value"] = draw(_mean)
    return row


class TestParserParity:
    """parse_csv and parse_json share one record validator."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_rows(), min_size=1, max_size=5))
    def test_same_records(self, rows):
        assert parse_csv(_as_csv(*rows)).records == parse_json(_as_json(*rows)).records

    @pytest.mark.parametrize("row, error", [
        ({"lat": 0, "lon": 0, "pB": 0.5, "pN": 0.5}, SchemaError),
        ({"lat": 0, "lon": 0, "mu": 7, "sigma": 0, "mu_c": 5, "sigma_c": 2}, SchemaError),
        ({"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0, "obs": "B", "obs_value": 3.2},
         SchemaError),
        ({"lat": 95, "lon": 0, "pB": 1, "pN": 0, "pA": 0}, SchemaError),
        ({"lat": 0, "lon": 0, "pB": 0.2, "pN": 0.5, "pA": 0.3,
          "mu": 7, "sigma": 2, "mu_c": 5, "sigma_c": 2}, MixedRepresentation),
    ], ids=["partial-triple", "sigma-zero", "obs-and-obs-value", "lat-range", "mixed"])
    def test_same_error(self, row, error):
        good = {"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0}
        with pytest.raises(SchemaError) as from_csv:
            parse_csv(_as_csv(good, row))
        with pytest.raises(SchemaError) as from_json:
            parse_json(_as_json(good, row))
        assert type(from_csv.value) is type(from_json.value) is error
        csv_msg, json_msg = str(from_csv.value), str(from_json.value)
        assert csv_msg.startswith("row 3: ")
        assert json_msg.startswith("records[1]: ")
        assert csv_msg.removeprefix("row 3: ") == json_msg.removeprefix("records[1]: ")


class TestJsonInputRejected:
    @pytest.mark.parametrize("data, where", [
        (b'{"records": 5}', "records"),
        (b'{"records": [{"lat": 1' + b"0" * 400 + b', "lon": 0, "pB": 1, "pN": 0, "pA": 0}]}',
         "records[0].lat"),
        (b'{"records": [{"lat": 1' + b"0" * 5000 + b', "lon": 0, "pB": 1, "pN": 0, "pA": 0}]}',
         "invalid JSON"),
        (b'{"records": [{"lat": 0, "lon": 0, "members": [1, NaN]}]}', "members[1]"),
        (b'{"q": [true, 0, 0], "records": []}', "q[0]"),
        (b'{"q": [0.5, "0.5", 0], "records": []}', "q[1]"),
        (b'{"records": ' + b"[" * 5000 + b"]" * 5000 + b"}", "invalid JSON"),
    ], ids=["records-not-array", "huge-integer", "integer-too-long", "nan-member",
            "boolean-q", "string-q", "deep-nesting"])
    def test_schema_error(self, data, where):
        with pytest.raises(SchemaError) as err:
            parse_json(data)
        assert where in str(err.value)


# Generated datasets for the column checks.  Triples sit on, near and
# just past make_ternary's tolerances; each document is valid or has one
# field corrupted, and the parsers must agree with their references.
_NEAR_ONE = (1e-9, -1e-9, 9.99e-10, -9.99e-10, 1.01e-9, -1.01e-9, 1e-15, -1e-15, 3e-15, 0.0)
_BELOW_ZERO = (-1e-12, -9.99e-13, -1.01e-12, -5e-324, -0.0)


@st.composite
def _triples(draw, valid: bool = False) -> list:
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    total = sum(weights) or 1.0
    p = [w / total for w in weights] if sum(weights) else [1.0, 0.0, 0.0]
    edit = draw(st.sampled_from(("none", "scale", "zero", "below-zero", "integers")))
    k = draw(st.integers(0, 2))
    if edit == "scale":
        inside = [x for x in _NEAR_ONE if abs(x) < 1e-9]
        near = st.sampled_from(inside) if valid else st.one_of(
            st.sampled_from(_NEAR_ONE), st.floats(-2e-9, 2e-9))
        factor = 1.0 + draw(near)
        p = [x * factor for x in p]
    elif edit == "zero":
        p[k], p[(k + 1) % 3] = p[k] + p[(k + 1) % 3], draw(st.sampled_from((0.0, -0.0)))
    elif edit == "below-zero":
        below = _BELOW_ZERO[:2] if valid else _BELOW_ZERO
        p[k], p[(k + 1) % 3] = p[k] + p[(k + 1) % 3], draw(st.sampled_from(below))
    elif edit == "integers":
        p = [0, 0, 0]
        p[k] = 1
    return p


_coord = st.floats(-90.0, 90.0) | st.integers(-90, 90)
_value = st.floats(-1e3, 1e3) | st.integers(-5, 5)
_positive = st.floats(1e-3, 1e3) | st.integers(1, 5)


@st.composite
def _records(draw, kinds=("ternary", "gaussian", "ensemble"), valid: bool = False) -> dict:
    rec = {"lat": draw(_coord), "lon": draw(_coord)}
    kind = draw(st.sampled_from(kinds))
    if kind == "ternary":
        rec.update(zip(("pB", "pN", "pA"), draw(_triples(valid))))
    elif kind == "gaussian":
        rec.update(mu=draw(_value), sigma=draw(_positive), mu_c=draw(_value),
                   sigma_c=draw(_positive))
    else:
        rec["members"] = draw(st.lists(_value, min_size=1, max_size=4))
        if draw(st.booleans()):
            rec["series"] = draw(st.lists(_value, min_size=2, max_size=5))
    observed = draw(st.sampled_from(("none", "obs", "obs_value")))
    if observed == "obs":
        rec["obs"] = draw(st.sampled_from(("B", "N", "A", "b", " a ", "n\t")))
    elif observed == "obs_value":
        rec["obs_value"] = draw(_value)
    return rec


_FIELDS = ("lat", "lon", "pB", "pN", "pA", "mu", "sigma", "mu_c", "sigma_c", "obs",
           "obs_value", "members", "series")
_bad_json = st.one_of(
    st.sampled_from([True, False, "5", "0.2", "", "B", "x", 10**400, -(10**400), 7, -0.0,
                     math.nan, math.inf, -math.inf, [], [0.5], [0.5, True], [math.nan],
                     {"a": 1}, 90.00000000000001, -180.00000000000003, *_BELOW_ZERO, 1e308]),
    st.floats(),
)


@st.composite
def _json_documents(draw) -> bytes:
    records = draw(st.lists(_records(), max_size=5))
    doc = {"q": [0.25, 0.5, 0.25], "metadata": {"source": "test"}, "records": records}
    corruption = draw(st.sampled_from(("none", "replace", "delete", "both-obs", "non-object")))
    if records and corruption != "none":
        i = draw(st.integers(0, len(records) - 1))
        if corruption == "replace":
            records[i][draw(st.sampled_from(_FIELDS))] = draw(_bad_json)
        elif corruption == "delete":
            records[i].pop(draw(st.sampled_from(_FIELDS)), None)
        elif corruption == "both-obs":
            records[i].update(obs="A", obs_value=1.5)
        else:
            records[i] = draw(_bad_json)
    return json.dumps(doc).encode()


_CSV_FIELDS = ("lat", "lon", "pB", "pN", "pA", "mu", "sigma", "mu_c", "sigma_c", "obs",
               "obs_value")
_bad_cell = st.one_of(
    st.sampled_from(["", "true", "abc", "nan", "-inf", "Infinity", "1e400", "-0.0", "-1e-12",
                     "-1.01e-12", "90.00000000000001", "-180.00000000000003", "Q", " b ", "1_0",
                     "0x1", "[1]"]),
    st.floats().map(repr),
)


@st.composite
def _csv_documents(draw) -> bytes:
    records = draw(st.lists(_records(kinds=("ternary", "gaussian")), max_size=5))
    rows = [["" if r.get(c) is None else str(r[c]) if c == "obs" else repr(r[c])
             for c in _CSV_FIELDS] for r in records]
    corruption = draw(st.sampled_from(("none", "replace", "short", "blank")))
    if rows and corruption != "none":
        i = draw(st.integers(0, len(rows) - 1))
        if corruption == "replace":
            rows[i][draw(st.integers(0, len(_CSV_FIELDS) - 1))] = draw(_bad_cell)
        elif corruption == "short":
            rows[i] = rows[i][:draw(st.integers(0, len(_CSV_FIELDS) - 1))]
        else:
            rows.insert(i, [" "] * draw(st.integers(0, len(_CSV_FIELDS))))
    return csv_bytes(",".join(_CSV_FIELDS), *(",".join(row) for row in rows))


class TestColumnChecks:
    """parse_json and parse_csv against their record-by-record references:
    the same records to the last bit, or the same error class and message."""

    @settings(max_examples=500, deadline=None)
    @given(_json_documents())
    def test_json_matches_reference(self, data):
        assert outcome(parse_json, data) == outcome(parse_json_reference, data)

    @settings(max_examples=500, deadline=None)
    @given(_csv_documents())
    def test_csv_matches_reference(self, data):
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)

    @pytest.mark.parametrize("record", [
        {"pB": True, "pN": 0.5, "pA": 0.5},
        {"pB": "0.5", "pN": 0.5, "pA": 0},
        {"pB": 10**400, "pN": 0, "pA": 0},
        {"pB": 1, "pN": 0, "pA": 0},
        {"pB": -0.0, "pN": 0.5, "pA": 0.5},
        {"pB": -1e-12, "pN": 0.5, "pA": 0.5},
        {"pB": -1.01e-12, "pN": 0.5, "pA": 0.5},
        {"pB": 0.2 * (1 + 1e-9), "pN": 0.3 * (1 + 1e-9), "pA": 0.5 * (1 + 1e-9)},
        {"pB": 0.2 * (1 - 1.01e-9), "pN": 0.3 * (1 - 1.01e-9), "pA": 0.5 * (1 - 1.01e-9)},
        {"pB": 0.1, "pN": 0.2, "pA": 0.7 + 4e-16},
        {"pB": 0.5, "pN": 0.5},
        {"mu": 1, "sigma": 0.0, "mu_c": 0, "sigma_c": 1},
        {"mu": 1, "sigma": 2, "mu_c": 0},
        {"members": [1, 2], "series": [0, 3], "obs_value": 1},
        {"members": [], "series": [0, 3]},
        {"pB": 1, "pN": 0, "pA": 0, "members": [1.0]},
        {"pB": 1, "pN": 0, "pA": 0, "obs": "b", "obs_value": 2.0},
        {"pB": 1, "pN": 0, "pA": 0, "obs": "X"},
        {"pB": 1, "pN": 0, "pA": 0, "obs": 1},
        {"pB": 1, "pN": 0, "pA": 0, "lat": 90.00000000000001},
        {"pB": 1, "pN": 0, "pA": 0, "lon": None},
        {"pB": 1, "pN": 0, "pA": 0, "obs_value": math.nan},
        {"pB": 1, "pN": 0, "pA": 0, "obs_value": -math.inf},
        {"mu": 10**400, "sigma": 2, "mu_c": 0, "sigma_c": 1},
        {"mu": 1, "sigma": 2, "mu_c": 0, "sigma_c": math.inf},
        {},
    ])
    def test_json_corruptions(self, record):
        records = [{"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0}, {"lat": 1, "lon": 2, **record}]
        data = json.dumps({"records": records}).encode()
        assert outcome(parse_json, data) == outcome(parse_json_reference, data)

    @pytest.mark.parametrize("data", [
        b'{"records": []}',
        b'{"records": [{"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0}, 5, []]}',
        b'{"records": [{"lat": 0, "lon": 0, "pB": NaN, "pN": 0, "pA": 1}]}',
        b'{"records": [{"lat": 0, "lon": 0, "pB": Infinity, "pN": 0, "pA": 1}]}',
        # the column pass skips the keys no record holds: a key held only as
        # null, or only by the last record, comes out as before
        json.dumps({"records": [{"lat": 0, "lon": k, "pB": 0.5, "pN": 0.25, "pA": 0.25,
                                 "obs": None} for k in range(3)]}).encode(),
        json.dumps({"records": [{"lat": 0, "lon": k % 180, "mu": 0.5, "sigma": 1, "mu_c": 0,
                                 "sigma_c": 2, **({"obs_value": 1.5} if k == 299 else {})}
                                for k in range(300)]}).encode(),
        b'{"records": [{"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0, "obs": "B"}, "B",'
        b' {"lat": 1, "lon": 2, "pB": 0.5, "pN": 0.5, "pA": 0}]}',
    ], ids=["empty", "non-object", "nan-literal", "infinity-literal", "obs-held-only-as-null",
            "obs-value-only-in-last-of-300", "non-object-among-objects"])
    def test_json_documents(self, data):
        assert outcome(parse_json, data) == outcome(parse_json_reference, data)

    @pytest.mark.parametrize("lines", [
        ("lat,lon,pB,pN,pA", "0,0,1,0,0", "0,0,1,0"),
        ("lat,lon,pB,pN,pA", "0,0,0.5,0.5,0.5", "0,0,1,0"),
        ("lat,lon,pB,pN,pA", " , , ", "0,0,-0.0,0.5,0.5"),
        ("lat,lon,pB,pN,pA", "0,0,0.5,0.5,abc", '0,0,"' + "1" * 200_000 + '",0,0'),
        ("lat,lon,pB,pN,pA", "0,0,1,0,0", '0,0,"' + "1" * 200_000 + '",0,0'),
        ("lat,lon,mu,sigma,mu_c,sigma_c,pB", "0,0,1,1,0,1,", "0,0,1,1,0,1,0.5"),
        ("lat,lon,mu,sigma,mu_c,sigma_c,obs_value", "0,0,1,1,0,1,", "0,0,1,1,0,1,1e400"),
    ], ids=["short-row", "bad-row-before-short", "blank-then-negative-zero",
            "bad-row-before-malformed", "malformed", "partial-family-column",
            "infinite-obs-value"])
    def test_csv_documents(self, lines):
        data = csv_bytes(*lines)
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)

    @pytest.mark.parametrize("text", [
        "[0.5, -1.25, -0.0, 5e-324, 1e308]", "[0.5, 2]", "[0.5, true]", "[0.5, NaN]",
        "[Infinity, 0.5]", "[0.5, 1e400]",
    ], ids=["floats", "one-int", "one-bool", "nan", "infinity", "overflow"])
    def test_json_array_matches_per_value_path(self, text):
        value = json.loads(text)
        out = tuple(map(datasets._json_float, value))
        want = datasets._INVALID if None in out else out
        assert repr(datasets._json_array(value)) == repr(want)

    @pytest.mark.parametrize("cell", ["2.5", "abc", "nan", "inf", "1_0"])
    @pytest.mark.parametrize("empty", [False, True], ids=["full", "with-empty"])
    @pytest.mark.parametrize("column", ["lat", "mu", "obs_value"])
    def test_csv_column(self, column, empty, cell):
        header = "lat,lon,mu,sigma,mu_c,sigma_c,obs_value"
        rows = [dict(zip(header.split(","), "1 2 3 1 0 1 0.5".split())) for _ in range(3)]
        rows[1][column] = cell
        if empty:
            rows[2][column] = ""
        data = csv_bytes(header, *(",".join(row.values()) for row in rows))
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)


# Triples that make_ternary clamps or renormalises, among plain rows.
_FIXUPS = {
    "negative-zero": {"pB": -0.0, "pN": 0.5, "pA": 0.5},
    "below-zero": {"pB": -1e-12, "pN": 0.5, "pA": 0.5},
    "sum-above-one": {"pB": 0.2, "pN": 0.3, "pA": 0.5 + 1e-12},
    "sum-below-one": {"pB": 0.2, "pN": 0.3, "pA": 0.5 - 1e-12},
    # off one by more than RESCALE_TOLERANCE only when added left to right
    "sum-order": {"pB": 0.02218246899080989, "pN": 0.05923306057736204,
                  "pA": 0.9185844704318291},
}
_POSITIONS = {"first": {0}, "middle": {2}, "last": {4}, "every": set(range(5))}


def _spy_plain_rows(parse, data: bytes) -> dict:
    """The decoded fields and the plain-row mask of one parse."""
    seen = {}
    plain_rows = datasets._plain_rows

    def spy(n, fields):
        seen.update(fields=fields, plain=plain_rows(n, fields))
        return seen["plain"]

    with mock.patch.object(datasets, "_plain_rows", spy):
        try:
            parse(data)
        except TriscoreError:
            pass
    return seen


def _row_from_columns(fields: dict, i: int) -> ForecastRecord:
    return datasets._build_records({k: v[i:i + 1] for k, v in fields.items()}, {})[0]


class TestPlainRows:
    """Rows that are not plain go through the per-row path, in row order."""

    @pytest.mark.parametrize("where", _POSITIONS)
    @pytest.mark.parametrize("fixup", _FIXUPS)
    def test_fixups_among_plain_rows(self, fixup, where):
        rows = [{"lat": float(i), "lon": -float(i), "pB": 0.2, "pN": 0.3, "pA": 0.5,
                 "obs": "BNA"[i % 3]} for i in range(5)]
        for i in _POSITIONS[where]:
            rows[i].update(_FIXUPS[fixup])
        for parse, reference, data in ((parse_json, parse_json_reference, _as_json(*rows)),
                                       (parse_csv, parse_csv_reference, _as_csv(*rows))):
            assert outcome(parse, data) == outcome(reference, data)
            assert [r.lat for r in parse(data).records] == [0.0, 1.0, 2.0, 3.0, 4.0]
            plain = _spy_plain_rows(parse, data)["plain"]
            assert set(np.flatnonzero(~plain).tolist()) == _POSITIONS[where]

    @pytest.mark.parametrize("fixup, where", [
        ("0,0,-0.0,0.5,0.5", "row 3: malformed CSV"),
        ("0,0,0.2,0.3,0.500000000001", "row 3: malformed CSV"),
        ("0,0,-1e-11,0.5,0.5", "row 2: pB = -1e-11 < 0"),
    ], ids=["fixup-then-malformed", "rescale-then-malformed", "invalid-then-malformed"])
    def test_csv_error_after_fixup(self, fixup, where):
        data = csv_bytes("lat,lon,pB,pN,pA", fixup, '0,0,"' + "1" * 200_000 + '",0,0')
        with pytest.raises(SchemaError) as err:
            parse_csv(data)
        assert str(err.value).startswith(where)
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)

    @settings(max_examples=300, deadline=None)
    @given(_json_documents())
    def test_json_plain_rows_accepted_unchanged(self, data):
        seen = _spy_plain_rows(parse_json, data)
        records = json.loads(data)["records"]
        for i, rec in enumerate(records):
            where = f"records[{i}]"
            if seen["plain"][i]:
                built = datasets._json_record(rec, where)
                assert repr(built) == repr(_row_from_columns(seen["fields"], i))
                continue
            try:
                built = datasets._json_record(rec, where)
            except SchemaError:
                continue
            # a row the per-row path accepts is one make_ternary changed
            raw = tuple(float(rec[k]) for k in ("pB", "pN", "pA"))
            assert repr(built.ternary.as_tuple()) != repr(raw)

    @settings(max_examples=300, deadline=None)
    @given(_csv_documents())
    def test_csv_plain_rows_accepted_unchanged(self, data):
        seen = _spy_plain_rows(parse_csv, data)
        rows = datasets._csv_rows(data.decode())
        header = datasets._csv_header(next(rows)[1])
        kept = [(num, row) for num, row in rows if "".join(row).strip()]
        for i, (num, row) in enumerate(kept):
            if seen["plain"][i]:
                built = datasets._csv_record(header, row, f"row {num}")
                assert repr(built) == repr(_row_from_columns(seen["fields"], i))


@st.composite
def _datasets(draw) -> Dataset:
    doc = {
        "q": draw(st.sampled_from(([1, 1, 1], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5]))),
        "metadata": draw(st.dictionaries(st.text(max_size=4), st.text(max_size=6), max_size=3)),
        "records": draw(st.lists(_records(valid=True), max_size=5)),
    }
    if doc["q"] == [1, 1, 1]:
        del doc["q"]
    return parse_json(json.dumps(doc).encode())


def _dumped_lines(ds: Dataset) -> list[str]:
    """The record lines write_json must write: json.dumps of each record's
    object, each but the last followed by a comma."""
    lines = [json.dumps(datasets._record_object(rec)) for rec in ds.records]
    return [line + "," for line in lines[:-1]] + lines[-1:]


class TestWriteJson:
    @settings(max_examples=200, deadline=None)
    @given(_datasets())
    def test_one_record_per_line(self, ds):
        lines = write_json(ds).decode("ascii").split("\n")
        assert lines.pop() == ""
        if ds.records:
            assert lines[0].endswith('"records": [') and lines.pop() == "]}"
            # byte for byte: a parsed comparison would accept 1 for 1.0
            assert lines[1:] == _dumped_lines(ds)
        else:
            assert len(lines) == 1 and lines[0].endswith('"records": []}')

    @pytest.mark.parametrize("lat, lon, p", [
        (1, -2, make_ternary(0.2, 0.3, 0.5)),
        (1.5, -2.5, datasets.TernaryProb(0, 1, 0)),
        (-0.0, 0.0, datasets.TernaryProb(-0.0, 1.0, 0.0)),
        (5e-324, -1e-300, datasets.TernaryProb(2.2250738585072014e-308, 1e-17, 1.0)),
        (90.0, -180.0, datasets.TernaryProb(1e16, 1.7976931348623157e308, 123456789.0)),
        (0.5, 0.5, datasets.TernaryProb(math.nan, math.inf, -math.inf)),
        (0.5, 0.5, datasets.TernaryProb(np.float64(0.1), True, 0.9)),
    ], ids=["int-lat-lon", "int-triple", "negative-zero", "tiny", "huge", "non-finite",
            "float-subclass-and-bool"])
    @pytest.mark.parametrize("obs", [None, ObsCategory.N])
    def test_records_built_directly(self, lat, lon, p, obs):
        ds = Dataset(records=(ForecastRecord(lat=lat, lon=lon, ternary=p, obs=obs),))
        assert write_json(ds).decode("ascii").split("\n")[1:-2] == _dumped_lines(ds)

    @settings(max_examples=200, deadline=None)
    @given(_datasets())
    def test_roundtrip_and_bytes_stable(self, ds):
        once = write_json(ds)
        assert parse_json(once) == ds
        assert write_json(parse_json(once)) == once

    def test_empty_dataset(self):
        ds = Dataset(records=(), metadata={"note": "été ≥ 0"})
        out = write_json(ds)
        assert out.count(b"\n") == 1
        assert parse_json(out) == ds
