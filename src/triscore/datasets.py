"""Dataset schemas, CSV/JSON parsing and serialisation.

A dataset is a list of per-location records plus a declared ternary
climatology q (default uniform).  Each record carries exactly one
forecast representation:

* a ternary triple ``pB, pN, pA``;
* a Gaussian forecast ``mu, sigma`` with its climatology ``mu_c, sigma_c``;
* an ensemble ``members`` (JSON only), resolved against the record's
  climatology ``series``.

Observations are optional and are either a category label (``obs``,
one of B/N/A, case-insensitive) or a raw value (``obs_value``)
categorised against the record's thresholds.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import (
    MissingClimatologySeries,
    MixedRepresentation,
    SchemaError,
    TriscoreError,
)
from .gaussian import scale_params, gaussian_to_ternary, std_normal_quantile
from .simplex import (
    CategoryThresholds,
    ObsCategory,
    TernaryProb,
    UNIFORM,
    empirical_quantiles,
    ensemble_to_ternary,
    make_ternary,
)
from .verification import ForecastObsPair

_TERNARY_FIELDS = ("pB", "pN", "pA")
_GAUSSIAN_FIELDS = ("mu", "sigma", "mu_c", "sigma_c")


def _check_representation(ternary, gaussian, members) -> None:
    """Exactly one of the three forecast representations must be present."""
    if (ternary is not None) + (gaussian is not None) + (members is not None) == 1:
        return
    present = [
        name
        for name, val in (("ternary", ternary), ("gaussian", gaussian), ("members", members))
        if val is not None
    ]
    if present:
        raise MixedRepresentation(f"record mixes {' and '.join(present)} forecasts")
    raise SchemaError("record carries no forecast representation")


def check_lat_lon(lat: float, lon: float, where: str | None = None) -> None:
    """SchemaError at ``where`` unless lat is in [-90, 90] and lon in [-180, 180]."""
    if not (-90.0 <= lat <= 90.0):
        raise SchemaError(f"lat = {lat} outside [-90, 90]", where)
    if not (-180.0 <= lon <= 180.0):
        raise SchemaError(f"lon = {lon} outside [-180, 180]", where)


@dataclass(frozen=True)
class ForecastRecord:
    """One located forecast with optional observation and climatology."""

    lat: float
    lon: float
    ternary: TernaryProb | None = None
    gaussian: tuple[float, float, float, float] | None = None
    members: tuple[float, ...] | None = None
    obs: ObsCategory | None = None
    obs_value: float | None = None
    series: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_representation(self.ternary, self.gaussian, self.members)
        check_lat_lon(self.lat, self.lon)


@dataclass(frozen=True)
class Dataset:
    records: tuple[ForecastRecord, ...]
    q: TernaryProb = UNIFORM
    metadata: dict[str, str] = field(default_factory=dict)


def resolve_ternary(record: ForecastRecord, q: TernaryProb) -> TernaryProb:
    """The record's forecast as a ternary value under climatology q."""
    if record.ternary is not None:
        return record.ternary
    if record.gaussian is not None:
        g = scale_params(*record.gaussian)
        return gaussian_to_ternary(g, q)
    if record.series is None:
        raise MissingClimatologySeries(
            "ensemble record needs a climatology series to place thresholds"
        )
    thresholds = empirical_quantiles(list(record.series), q)
    return ensemble_to_ternary(list(record.members), thresholds)


def _record_thresholds(record: ForecastRecord, q: TernaryProb) -> CategoryThresholds:
    if record.series is not None:
        return empirical_quantiles(list(record.series), q)
    if record.gaussian is not None:
        _, _, mu_c, sigma_c = record.gaussian
        return CategoryThresholds(
            mu_c + sigma_c * std_normal_quantile(q.pB),
            mu_c + sigma_c * std_normal_quantile(q.pB + q.pN),
        )
    raise MissingClimatologySeries(
        "cannot categorise a raw observed value without a climatology series"
    )


def resolve_observation(record: ForecastRecord, q: TernaryProb) -> ObsCategory | None:
    """The record's observation as a category, or None if unobserved."""
    if record.obs is not None:
        return record.obs
    if record.obs_value is None:
        return None
    return _record_thresholds(record, q).categorise(record.obs_value)


def resolve_records(dataset: Dataset, resolve) -> list:
    """``resolve(record, dataset.q)`` for every record, in order.

    An error raised for a record is re-raised with the same type,
    prefixed with the record's location ``records[i]``.
    """
    out = []
    try:
        for i, rec in enumerate(dataset.records):
            out.append(resolve(rec, dataset.q))
    except TriscoreError as e:
        raise type(e)(f"records[{i}]: {e}") from None
    return out


def _observed_pair(record: ForecastRecord, q: TernaryProb) -> ForecastObsPair | None:
    # the forecast of an unobserved record is never resolved
    obs = resolve_observation(record, q)
    return None if obs is None else ForecastObsPair(resolve_ternary(record, q), obs)


def pairs_from_dataset(dataset: Dataset) -> list[ForecastObsPair]:
    """Forecast-observation pairs of all observed records, in order."""
    return [p for p in resolve_records(dataset, _observed_pair) if p is not None]


def _build_record(
    where: str,
    lat: float | None,
    lon: float | None,
    ternary: list[float | None],
    gaussian: list[float | None],
    members: tuple[float, ...] | None = None,
    obs: ObsCategory | None = None,
    obs_value: float | None = None,
    series: tuple[float, ...] | None = None,
) -> ForecastRecord:
    """Validate one parsed CSV row or JSON record and build it.

    Each field is a finite float, or None if absent; ``ternary`` and
    ``gaussian`` hold one per field of their family.  Errors are located
    at ``where``.
    """
    try:
        if lat is None or lon is None:
            raise SchemaError("record needs lat and lon")
        if ternary.count(None) == len(ternary):
            ternary = None
        if gaussian.count(None) == len(gaussian):
            gaussian = None
        _check_representation(ternary, gaussian, members)
        if ternary is not None:
            if None in ternary:
                raise SchemaError("pB, pN, pA must all be present")
            ternary = make_ternary(*ternary)
        elif gaussian is not None:
            if None in gaussian:
                raise SchemaError("mu, sigma, mu_c, sigma_c must all be present")
            if gaussian[1] <= 0.0 or gaussian[3] <= 0.0:
                raise SchemaError("sigma and sigma_c must be positive")
            gaussian = tuple(gaussian)
        if obs is not None and obs_value is not None:
            raise SchemaError("record supplies both obs and obs_value")
        return ForecastRecord(lat, lon, ternary, gaussian, members, obs, obs_value, series)
    except TriscoreError as e:
        cls = type(e) if isinstance(e, SchemaError) else SchemaError
        raise cls(str(e), where) from None


def _parse_obs_label(value, where: str) -> ObsCategory | None:
    """An observed category label (B/N/A, any case); None if absent."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise SchemaError("obs must be a string label", where)
    label = value.strip().upper()
    if label not in ("B", "N", "A"):
        raise SchemaError(f"obs must be one of B/N/A, got {value!r}", where)
    return ObsCategory(label)


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"input is not UTF-8: {e}") from None


def load_json(data: str | bytes, what: str):
    """Decode a JSON document; any failure is a SchemaError "<what>: <reason>".

    Bytes must be UTF-8.  Nesting too deep for the decoder's recursion
    is one such failure.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise SchemaError(f"{what}: {e}") from None


def _csv_float(cells: dict[str, str], name: str, where: str) -> float | None:
    """The named cell as a finite float; None if it is empty or absent."""
    text = cells.get(name)
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{name} is not a number: {text!r}", where) from None
    if not math.isfinite(value):
        raise SchemaError(f"{name} is not finite: {text!r}", where)
    return value


def _csv_rows(text: str):
    """(row number, cells) of every CSV row, numbered from 1; a
    ``csv.Error`` becomes a SchemaError at the row it stopped in."""
    rownum = 0
    try:
        for rownum, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            yield rownum, row
    except csv.Error as e:
        raise SchemaError(f"malformed CSV: {e}", f"row {rownum + 1}") from None


def parse_csv(data: bytes) -> Dataset:
    """Parse a CSV dataset; the climatology defaults to uniform.

    The header must name lat, lon and one forecast family (pB/pN/pA or
    mu/sigma/mu_c/sigma_c); obs and obs_value columns are optional.
    """
    rows = _csv_rows(_decode(data))
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError("empty CSV input") from None
    header = [h.strip() for h in header]
    known = {"lat", "lon", "obs", "obs_value", *_TERNARY_FIELDS, *_GAUSSIAN_FIELDS}
    for col in header:
        if col not in known:
            raise SchemaError(f"unknown column {col!r}", "row 1")
    for col in ("lat", "lon"):
        if col not in header:
            raise SchemaError(f"missing required column {col!r}", "row 1")
    families = (_TERNARY_FIELDS, _GAUSSIAN_FIELDS)
    if not any(all(c in header for c in family) for family in families):
        raise SchemaError(
            "header must include pB,pN,pA or mu,sigma,mu_c,sigma_c", "row 1"
        )

    records = []
    for rownum, row in rows:
        where = f"row {rownum}"
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise SchemaError(
                f"expected {len(header)} fields, got {len(row)}", where
            )
        cells = dict(zip(header, map(str.strip, row)))
        records.append(_build_record(
            where,
            _csv_float(cells, "lat", where),
            _csv_float(cells, "lon", where),
            [_csv_float(cells, c, where) for c in _TERNARY_FIELDS],
            [_csv_float(cells, c, where) for c in _GAUSSIAN_FIELDS],
            obs=_parse_obs_label(cells.get("obs") or None, where),
            obs_value=_csv_float(cells, "obs_value", where),
        ))
    return Dataset(records=tuple(records))


def _json_float(value) -> float | None:
    """A decoded JSON value as a float; None unless it is a finite number."""
    if type(value) is float:
        return value if math.isfinite(value) else None
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return None
    return None


def json_floats(values, what: str, where: str | None = None) -> tuple[float, ...]:
    """A decoded JSON array as floats; SchemaError names the first item
    ``what[j]`` that is not a finite number."""
    out = tuple(map(_json_float, values))
    if None in out:
        raise SchemaError(f"{what}[{out.index(None)}] must be a finite number", where)
    return out


def _json_number(rec: dict, key: str, where: str) -> float | None:
    value = rec.get(key)
    if value is None:
        return None
    number = _json_float(value)
    if number is None:
        raise SchemaError(f"{key} must be a finite number", f"{where}.{key}")
    return number


def _json_numbers(rec: dict, key: str, where: str) -> tuple[float, ...] | None:
    value = rec.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{key} must be a non-empty array", f"{where}.{key}")
    return json_floats(value, key, f"{where}.{key}")


def parse_json(data: bytes) -> Dataset:
    """Parse a JSON dataset: {"q": [...], "metadata": {...}, "records": [...]}."""
    doc = load_json(_decode(data), "invalid JSON")
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise SchemaError("top level must be an object with a 'records' array")

    if "q" in doc:
        qv = doc["q"]
        if not (isinstance(qv, list) and len(qv) == 3):
            raise SchemaError("q must be a 3-element array", "q")
        q_values = json_floats(qv, "q", "q")
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

    records = []
    for i, rec in enumerate(doc["records"]):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError("record must be an object", where)
        records.append(_build_record(
            where,
            _json_number(rec, "lat", where),
            _json_number(rec, "lon", where),
            [_json_number(rec, k, where) for k in _TERNARY_FIELDS],
            [_json_number(rec, k, where) for k in _GAUSSIAN_FIELDS],
            members=_json_numbers(rec, "members", where),
            obs=_parse_obs_label(rec.get("obs"), f"{where}.obs"),
            obs_value=_json_number(rec, "obs_value", where),
            series=_json_numbers(rec, "series", where),
        ))
    return Dataset(records=tuple(records), q=q, metadata=dict(metadata))


def write_json(dataset: Dataset) -> bytes:
    """Serialise a dataset; parse_json(write_json(d)) equals d."""
    doc = {
        "q": [dataset.q.pB, dataset.q.pN, dataset.q.pA],
        "metadata": dataset.metadata,
        "records": [],
    }
    for rec in dataset.records:
        obj: dict = {"lat": rec.lat, "lon": rec.lon}
        if rec.ternary is not None:
            obj["pB"], obj["pN"], obj["pA"] = rec.ternary.as_tuple()
        if rec.gaussian is not None:
            obj["mu"], obj["sigma"], obj["mu_c"], obj["sigma_c"] = rec.gaussian
        if rec.members is not None:
            obj["members"] = list(rec.members)
        if rec.series is not None:
            obj["series"] = list(rec.series)
        if rec.obs is not None:
            obj["obs"] = rec.obs.value
        if rec.obs_value is not None:
            obj["obs_value"] = rec.obs_value
        doc["records"].append(obj)
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
