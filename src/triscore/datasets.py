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

import codecs
import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from types import NoneType

import numpy as np

from .errors import (
    DomainError,
    MissingClimatologySeries,
    MixedRepresentation,
    SchemaError,
    TriscoreError,
)
from .gaussian import _climatology_z, gaussian_to_ternary, scale_params
from .simplex import (
    RESCALE_TOLERANCE,
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
_NUMBER_FIELDS = ("lat", "lon", *_TERNARY_FIELDS, *_GAUSSIAN_FIELDS, "obs_value")
_OBS_LABELS = {c.value: c for c in ObsCategory}
_INVALID = object()  # a decoded label or array that is not valid


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


def _float(value, what: str, where: str | None = None) -> float:
    """value as a Python float; SchemaError at ``where`` unless value is a
    finite number, not a bool."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value):
            return float(value)
    except (OverflowError, TypeError):
        pass
    raise SchemaError(f"{what} must be a finite number", where)


def json_floats(values, what: str, where: str | None = None) -> tuple[float, ...]:
    """A non-empty list or tuple of numbers as floats; SchemaError at
    ``where`` names the first item ``what[j]`` that is not a finite number."""
    if not isinstance(values, (list, tuple)) or not values:
        raise SchemaError(f"{what} must be a non-empty array", where)
    return tuple(_float(value, f"{what}[{j}]", where) for j, value in enumerate(values))


@dataclass(frozen=True)
class ForecastRecord:
    """One located forecast with optional observation and climatology.

    Construction checks the parsers' record rules, in their order and with
    their messages, and stores numbers as floats and the triple as
    ``make_ternary`` returns it, so write_json's output reads back equal.
    """

    lat: float
    lon: float
    ternary: TernaryProb | None = None
    gaussian: tuple[float, float, float, float] | None = None
    members: tuple[float, ...] | None = None
    obs: ObsCategory | None = None
    obs_value: float | None = None
    series: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.lat is None or self.lon is None:
            raise SchemaError("record needs lat and lon")
        _check_representation(self.ternary, self.gaussian, self.members)
        floats = {"lat": _float(self.lat, "lat"), "lon": _float(self.lon, "lon")}
        if self.ternary is not None:
            if not isinstance(self.ternary, TernaryProb):
                raise SchemaError(f"ternary must be a TernaryProb, got {self.ternary!r}")
            if None in self.ternary.as_tuple():
                raise SchemaError("pB, pN, pA must all be present")
            try:
                floats["ternary"] = make_ternary(*map(_float, self.ternary.as_tuple(),
                                                      _TERNARY_FIELDS))
            except DomainError as e:
                raise SchemaError(str(e)) from None
        if self.gaussian is not None:
            if len(self.gaussian) != len(_GAUSSIAN_FIELDS) or None in self.gaussian:
                raise SchemaError("mu, sigma, mu_c, sigma_c must all be present")
            floats["gaussian"] = g = tuple(map(_float, self.gaussian, _GAUSSIAN_FIELDS))
            if g[1] <= 0.0 or g[3] <= 0.0:
                raise SchemaError("sigma and sigma_c must be positive")
        if not isinstance(self.obs, (ObsCategory, NoneType)):
            raise SchemaError(f"obs must be an ObsCategory, got {self.obs!r}")
        if self.obs is not None and self.obs_value is not None:
            raise SchemaError("record supplies both obs and obs_value")
        check_lat_lon(floats["lat"], floats["lon"])
        for name, convert in (("obs_value", _float), ("members", json_floats),
                              ("series", json_floats)):
            if getattr(self, name) is not None:
                floats[name] = convert(getattr(self, name), name)
        for name, value in floats.items():
            object.__setattr__(self, name, value)


def _valid_record(lat, lon, ternary, gaussian, members, obs, obs_value, series) -> ForecastRecord:
    """A ForecastRecord of fields already known to pass its checks, built
    without running them again."""
    # one attribute at a time, in field order: a record then shares its
    # attribute names with every other, where a whole new __dict__ would
    # double its size
    rec = object.__new__(ForecastRecord)
    setattr_ = object.__setattr__
    setattr_(rec, "lat", lat)
    setattr_(rec, "lon", lon)
    setattr_(rec, "ternary", ternary)
    setattr_(rec, "gaussian", gaussian)
    setattr_(rec, "members", members)
    setattr_(rec, "obs", obs)
    setattr_(rec, "obs_value", obs_value)
    setattr_(rec, "series", series)
    return rec


@dataclass(frozen=True)
class Dataset:
    records: tuple[ForecastRecord, ...]
    q: TernaryProb = UNIFORM
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.q, TernaryProb):
            raise SchemaError(f"q must be a TernaryProb, got {self.q!r}", "q")
        object.__setattr__(self, "records", tuple(self.records))
        q = json_floats(self.q.as_tuple(), "q", "q")
        object.__setattr__(self, "q", make_climatology(q, "q"))
        if not isinstance(self.metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.metadata.items()
        ):
            raise SchemaError("metadata must map strings to strings", "metadata")


def _record_thresholds(record: ForecastRecord, q: TernaryProb) -> CategoryThresholds:
    """The category thresholds of the record's climatology under q: its
    Gaussian climatology if it has one, else the quantiles of its series."""
    if record.gaussian is not None:
        _, _, mu_c, sigma_c = record.gaussian
        zB, zA = _climatology_z(q)
        return CategoryThresholds(mu_c + sigma_c * zB, mu_c + sigma_c * zA)
    if record.series is not None:
        return empirical_quantiles(list(record.series), q)
    raise MissingClimatologySeries("record needs a climatology series to place thresholds")


def resolve_ternary(record: ForecastRecord, q: TernaryProb) -> TernaryProb:
    """The record's forecast as a ternary value under climatology q."""
    if record.ternary is not None:
        return record.ternary
    if record.gaussian is not None:
        g = scale_params(*record.gaussian)
        return gaussian_to_ternary(g, q)
    return ensemble_to_ternary(list(record.members), _record_thresholds(record, q))


def resolve_observation(record: ForecastRecord, q: TernaryProb) -> ObsCategory | None:
    """The record's observation as a category, or None if unobserved."""
    if record.obs is not None:
        return record.obs
    if record.obs_value is None:
        return None
    return _record_thresholds(record, q).categorise(record.obs_value)


def resolve_dataset(
    dataset: Dataset, *, observations: bool = True, observed_only: bool = False
) -> tuple[list[TernaryProb | None], list[ObsCategory | None]]:
    """Each record's forecast and observation under ``dataset.q``, in order.

    A record's observation is resolved first.  With ``observations=False``
    none is resolved, and every observation is None; with
    ``observed_only`` the forecast of an unobserved record is not
    resolved, and is None.  An error raised for a record is re-raised
    with the same type, prefixed with the record's location ``records[i]``.
    """
    q = dataset.q
    forecasts, obs = [], []
    try:
        for i, rec in enumerate(dataset.records):
            o = resolve_observation(rec, q) if observations else None
            obs.append(o)
            forecasts.append(None if observed_only and o is None else resolve_ternary(rec, q))
    except TriscoreError as e:
        raise type(e)(f"records[{i}]: {e}") from None
    return forecasts, obs


def pairs_from_dataset(dataset: Dataset) -> list[ForecastObsPair]:
    """Forecast-observation pairs of all observed records, in order."""
    return [ForecastObsPair(p, o)
            for p, o in zip(*resolve_dataset(dataset, observed_only=True)) if o is not None]


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
    """Build one parsed CSV row or JSON record, its errors located at ``where``.

    Each field is a finite float, or None if absent; ``ternary`` and
    ``gaussian`` hold one per field of their family, and a family of
    Nones is absent.
    """
    ternary = None if ternary.count(None) == len(ternary) else TernaryProb(*ternary)
    gaussian = None if gaussian.count(None) == len(gaussian) else tuple(gaussian)
    try:
        return ForecastRecord(lat, lon, ternary, gaussian, members, obs, obs_value, series)
    except SchemaError as e:
        raise type(e)(str(e), where) from None


def _obs_category(value):
    """A decoded label as a category; None if absent, _INVALID unless a
    B/N/A string in any case."""
    if value is None:
        return None
    if not isinstance(value, str):
        return _INVALID
    return _OBS_LABELS.get(value.strip().upper(), _INVALID)


def _parse_obs_label(value, where: str) -> ObsCategory | None:
    """An observed category label (B/N/A, any case); None if absent."""
    obs = _obs_category(value)
    if obs is not _INVALID:
        return obs
    if not isinstance(value, str):
        raise SchemaError("obs must be a string label", where)
    raise SchemaError(f"obs must be one of B/N/A, got {value!r}", where)


def _decode(data: bytes) -> str:
    """UTF-8 text without one leading byte-order mark."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise SchemaError(f"input is not UTF-8: {e}") from None


_MAX_SHALLOW_DEPTH = 64
# every byte but the quote and the four brackets, for bytes.translate to delete
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8


def _shallow(raw: bytes) -> bool:
    """Whether a UTF-8 document has no backslash, no bracket inside a
    string and no more than 64 nested levels: one that orjson decodes to
    the values ``json.loads`` gives (an integer beyond 64 bits as a
    float), and cannot overflow its stack on."""
    if b"\\" in raw:
        return False
    # with no escapes every quote delimits a string, so a string holds a
    # bracket exactly when its two quotes are not adjacent here
    marks = raw.translate(None, _NOT_MARKS).replace(b'""', b"")
    if b'"' in marks:
        return False
    depth = np.frombuffer(marks.translate(_DEPTH_STEPS), dtype=np.int8).cumsum()
    return depth.size == 0 or int(depth.max()) <= _MAX_SHALLOW_DEPTH


def load_json(data: str | bytes, what: str):
    """Decode a JSON document; any failure is a SchemaError "<what>: <reason>".

    Bytes must be UTF-8, after at most one leading byte-order mark.
    Nesting too deep for the decoder's recursion is one such failure.
    A shallow document (see ``_shallow``) is decoded by orjson; every
    other one, and every one orjson rejects, by ``json.loads``, so each
    message is the standard decoder's.
    """
    try:
        shallow = _shallow(data if isinstance(data, bytes) else data.encode("utf-8"))
    except UnicodeEncodeError:  # a str with a lone surrogate
        shallow = False
    if shallow:
        import orjson  # here, not at import: it loads zoneinfo

        body = data
        if isinstance(data, bytes) and data.startswith(codecs.BOM_UTF8):
            body = memoryview(data)[len(codecs.BOM_UTF8):]  # not a copy of the input
        try:
            return orjson.loads(body)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(data.decode("utf-8-sig") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise SchemaError(f"{what}: {e}") from None


def _csv_float(text: str | None, name: str, where: str) -> float | None:
    """A stripped cell as a finite float; None if it is empty or absent."""
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


def _csv_header(header: list[str]) -> list[str]:
    """The stripped column names; SchemaError at row 1 unless they are
    known and distinct and include lat, lon and one forecast family."""
    header = [h.strip() for h in header]
    known = {"lat", "lon", "obs", "obs_value", *_TERNARY_FIELDS, *_GAUSSIAN_FIELDS}
    for j, col in enumerate(header):
        if col not in known:
            raise SchemaError(f"unknown column {col!r}", "row 1")
        if col in header[:j]:
            raise SchemaError(f"duplicate column {col!r}", "row 1")
    for col in ("lat", "lon"):
        if col not in header:
            raise SchemaError(f"missing required column {col!r}", "row 1")
    families = (_TERNARY_FIELDS, _GAUSSIAN_FIELDS)
    if not any(all(c in header for c in family) for family in families):
        raise SchemaError(
            "header must include pB,pN,pA or mu,sigma,mu_c,sigma_c", "row 1"
        )
    return header


def _csv_record(header: list[str], row: list[str], where: str) -> ForecastRecord:
    """Validate and build one CSV row field by field: parse_csv's path for
    a row that is not plain, whose messages name the offending field."""
    if len(row) != len(header):
        raise SchemaError(f"expected {len(header)} fields, got {len(row)}", where)
    cells = dict(zip(header, map(str.strip, row)))
    return _build_record(
        where,
        _csv_float(cells.get("lat"), "lat", where),
        _csv_float(cells.get("lon"), "lon", where),
        [_csv_float(cells.get(c), c, where) for c in _TERNARY_FIELDS],
        [_csv_float(cells.get(c), c, where) for c in _GAUSSIAN_FIELDS],
        obs=_parse_obs_label(cells.get("obs") or None, where),
        obs_value=_csv_float(cells.get("obs_value"), "obs_value", where),
    )


def _csv_cell(text: str) -> float | None:
    """A stripped cell as a float; None if empty, NaN unless finite."""
    try:
        return _csv_float(text, "", "")
    except SchemaError:
        return math.nan


def parse_csv(data: bytes) -> Dataset:
    """Parse a CSV dataset; the climatology defaults to uniform.

    The header must name lat, lon and one forecast family (pB/pN/pA or
    mu/sigma/mu_c/sigma_c), each column once; obs and obs_value columns
    are optional.
    """
    rows = _csv_rows(_decode(data))
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError("empty CSV input") from None
    header = _csv_header(header)
    width = len(header)

    kept, rownums, error = [], [], None
    try:
        for rownum, row in rows:
            if "".join(row).strip():  # rows of blank cells are skipped
                kept.append(row)
                rownums.append(rownum)
    except SchemaError as e:  # rows before the malformed one are checked first
        error = e
    # a row of another width decodes as blank cells, so without lat
    padded = [row if len(row) == width else [""] * width for row in kept]

    fields = {}
    for name, cells in zip(header, zip(*padded)):
        texts = list(map(str.strip, cells))
        if name == "obs":
            fields[name] = _obs_column([text or None for text in texts])
            continue
        try:  # float("") raises, so a column with an empty cell goes cell by cell
            fields[name] = list(map(float, texts))
        except ValueError:
            fields[name] = list(map(_csv_cell, texts))
    plain = _plain_rows(len(kept), fields)
    rebuilt = {i: _csv_record(header, kept[i], f"row {rownums[i]}")
               for i in np.flatnonzero(~plain).tolist()}
    if error is not None:
        raise error
    del kept, padded  # the plain records are built from the columns
    return Dataset(records=_build_records(fields, rebuilt))


def _json_cell(value) -> float | None:
    """A decoded JSON field as a float; None if absent, NaN unless a
    finite number."""
    if value is None:
        return None
    try:
        return _float(value, "")
    except SchemaError:
        return math.nan


def _json_number(rec: dict, key: str, where: str) -> float | None:
    value = rec.get(key)
    return None if value is None else _float(value, key, f"{where}.{key}")


def _json_numbers(rec: dict, key: str, where: str) -> tuple[float, ...] | None:
    value = rec.get(key)
    return None if value is None else json_floats(value, key, f"{where}.{key}")


def _json_record(rec, where: str) -> ForecastRecord:
    """Validate and build one JSON record field by field: parse_json's
    path for a record that is not plain, whose messages name the
    offending field."""
    if not isinstance(rec, dict):
        raise SchemaError("record must be an object", where)
    return _build_record(
        where,
        _json_number(rec, "lat", where),
        _json_number(rec, "lon", where),
        [_json_number(rec, k, where) for k in _TERNARY_FIELDS],
        [_json_number(rec, k, where) for k in _GAUSSIAN_FIELDS],
        members=_json_numbers(rec, "members", where),
        obs=_parse_obs_label(rec.get("obs"), f"{where}.obs"),
        obs_value=_json_number(rec, "obs_value", where),
        series=_json_numbers(rec, "series", where),
    )


def _json_array(value):
    """A decoded JSON array as floats; None if absent, _INVALID unless a
    non-empty array of finite numbers."""
    if value is None:
        return None
    if type(value) is not list or not value:
        return _INVALID
    if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
        return tuple(value)
    try:
        return json_floats(value, "")
    except SchemaError:
        return _INVALID


def make_climatology(values, where: str | None = None) -> TernaryProb:
    """The climatology q of three numbers; SchemaError if they are not one."""
    try:
        return make_ternary(*values)
    except TriscoreError as e:
        raise SchemaError(f"invalid climatology q: {e}", where) from None


def parse_json(data: bytes) -> Dataset:
    """Parse a JSON dataset: {"q": [...], "metadata": {...}, "records": [...]}."""
    try:
        doc = load_json(data, "invalid JSON")
    except SchemaError:
        _decode(data)  # bytes that are not UTF-8 are named as such
        raise
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise SchemaError("top level must be an object with a 'records' array")

    qv = doc.get("q", list(UNIFORM.as_tuple()))
    if not (isinstance(qv, list) and len(qv) == 3):
        raise SchemaError("q must be a 3-element array", "q")
    # q, then the metadata, are checked before any record
    head = Dataset(records=(), q=TernaryProb(*qv), metadata=doc.get("metadata", {}))

    records = doc["records"]
    # a record that is not an object decodes as one without lat
    objects = [rec if type(rec) is dict else {} for rec in records]

    held = set().union(*objects)
    fields = {}  # the keys some record holds, not only as null
    for key in filter(held.__contains__, (*_NUMBER_FIELDS, "obs", "members", "series")):
        values = list(map(dict.get, objects, repeat(key)))
        if values.count(None) == len(values):
            continue
        if key == "obs":
            values = _obs_column(values)
        elif key in ("members", "series"):
            values = list(map(_json_array, values))
        elif not set(map(type, values)) <= {float, NoneType}:
            values = list(map(_json_cell, values))
        fields[key] = values
    plain = _plain_rows(len(records), fields)
    rebuilt = {i: _json_record(records[i], f"records[{i}]")
               for i in np.flatnonzero(~plain).tolist()}
    del doc, records, objects  # the plain records are built from the columns
    return Dataset(records=_build_records(fields, rebuilt), q=head.q, metadata=dict(head.metadata))


def _obs_column(values: list) -> list:
    """Observed labels as categories: None where absent, _INVALID where
    not a B/N/A string."""
    if set(map(type, values)) <= {str, NoneType}:
        # a column holds few distinct labels: convert each once
        table = {value: _obs_category(value) for value in set(values)}
        return list(map(table.__getitem__, values))
    return list(map(_obs_category, values))


def _given(values: list | None, n: int) -> np.ndarray:
    """Mask of the rows where a per-row value is not None."""
    if values is None:
        return np.zeros(n, dtype=bool)
    return np.array([v is not None for v in values], dtype=bool)


def _plain_rows(n: int, fields: dict) -> np.ndarray:
    """Mask of the ``n`` decoded rows that the ``ForecastRecord``
    constructor accepts unchanged.

    ``fields`` maps each number field to its per-row floats (None where
    absent, NaN where not a finite number), ``obs`` to categories and
    ``members`` and ``series`` to float tuples (None where absent,
    _INVALID where they did not decode); a missing key is absent from
    every row.  A plain row decoded, has lat and lon in range, does not
    give both obs and obs_value, and carries exactly one complete
    representation and no other: a triple that ``make_ternary`` returns
    as given, four Gaussian parameters with positive spreads, or members.
    The per-row path decides every other row.
    """
    plain = np.ones(n, dtype=bool)
    for name in ("obs", "members", "series"):
        if name in fields:
            plain &= np.array([v is not _INVALID for v in fields[name]], dtype=bool)
    cols = {}  # NaN where absent
    for name in _NUMBER_FIELDS:
        values = fields.get(name)
        cols[name] = np.full(n, np.nan) if values is None else np.array(values, dtype=float)
        if values is not None and not np.isfinite(cols[name]).all():
            plain &= np.isfinite(cols[name]) | ~_given(values, n)
    lat, lon = cols["lat"], cols["lon"]
    p = np.stack([cols[k] for k in _TERNARY_FIELDS], axis=1)
    g = np.stack([cols[k] for k in _GAUSSIAN_FIELDS], axis=1)
    # no component below +0.0 and a sum, added left to right as make_ternary
    # adds it, that needs no rescaling; a NaN, inf or inf - inf sum fails it
    with np.errstate(over="ignore", invalid="ignore"):
        ternary = ~np.signbit(p).any(axis=1) & (
            np.abs(p[:, 0] + p[:, 1] + p[:, 2] - 1.0) <= RESCALE_TOLERANCE)
    gaussian = ~np.isnan(g).any(axis=1) & (g[:, 1] > 0.0) & (g[:, 3] > 0.0)
    no_ternary, no_gaussian = np.isnan(p).all(axis=1), np.isnan(g).all(axis=1)
    members = _given(fields.get("members"), n)
    plain &= (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)
    plain &= ~(_given(fields.get("obs"), n) & ~np.isnan(cols["obs_value"]))
    plain &= (ternary & no_gaussian & ~members) | (gaussian & no_ternary & ~members) | (
        members & no_ternary & no_gaussian)
    return plain


def _build_records(fields: dict, rebuilt: dict) -> tuple[ForecastRecord, ...]:
    """The records of the decoded rows: ``rebuilt[i]`` at each row ``i``
    that is not plain, and every plain row's record built from its
    decoded floats themselves."""
    absent = repeat(None)
    ternary = gaussian = absent
    if all(k in fields for k in _TERNARY_FIELDS):
        ternary = [None if b is None else TernaryProb(b, nn, a)
                   for b, nn, a in zip(*(fields[k] for k in _TERNARY_FIELDS))]
    if all(k in fields for k in _GAUSSIAN_FIELDS):
        gaussian = [None if values[0] is None else values
                    for values in zip(*(fields[k] for k in _GAUSSIAN_FIELDS))]
    # _plain_rows has checked every row that is not rebuilt; a row without
    # lat fails the per-row path, so lat is missing only when there are no rows
    records = list(map(
        _valid_record, fields.get("lat", ()), fields.get("lon", absent), ternary, gaussian,
        fields.get("members", absent), fields.get("obs", absent),
        fields.get("obs_value", absent), fields.get("series", absent),
    ))
    for i, rec in rebuilt.items():
        records[i] = rec
    return tuple(records)


def _record_object(rec: ForecastRecord) -> dict:
    """The JSON object of one record, without its absent fields."""
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
    return obj


def _record_line(rec: ForecastRecord) -> str:
    """``json.dumps`` of the record's object, through one ``%r`` template for a
    triple with at most an obs label, what project writes; every number is a finite float."""
    lat, lon, p = rec.lat, rec.lon, rec.ternary
    if p is not None and rec.gaussian is rec.members is rec.series is rec.obs_value is None:
        obs = "" if rec.obs is None else f', "obs": "{rec.obs._value_}"'
        return '{"lat": %r, "lon": %r, "pB": %r, "pN": %r, "pA": %r%s}' % (
            lat, lon, p.pB, p.pN, p.pA, obs)
    return json.dumps(_record_object(rec))


def write_json(dataset: Dataset) -> bytes:
    """Serialise a dataset, one compact record per line, each line
    ``json.dumps`` of its object; parse_json(write_json(d)) equals d."""
    q = json.dumps([dataset.q.pB, dataset.q.pN, dataset.q.pA])
    records = ",\n".join(map(_record_line, dataset.records))
    if records:
        records = f"\n{records}\n"
    head = f'{{"q": {q}, "metadata": {json.dumps(dataset.metadata)}, "records": ['
    return f"{head}{records}]}}\n".encode("utf-8")
