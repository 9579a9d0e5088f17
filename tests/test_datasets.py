import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)


def csv_bytes(*lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


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

    def test_blank_lines_skipped(self):
        ds = parse_csv(csv_bytes("lat,lon,pB,pN,pA", "0,0,1,0,0", "", "1,0,0,1,0"))
        assert len(ds.records) == 2

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
