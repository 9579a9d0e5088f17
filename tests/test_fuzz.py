"""Generated inputs for the parsers and for every subcommand.

Datasets start from valid records and rows; each field is kept, dropped
or replaced by a value a parser must reject (booleans, strings, huge
integers, NaN, lists, objects).  Only package errors may leave the
parsers, each the one the record-by-record reference raises, so a row
that is not plain is built or rejected exactly as the reference does.
Every command must end in exit 0, 2 or 3 without a traceback, and say
why it failed in one ``error:`` line or in click's usage block.
"""

import csv
import io
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triscore import parse_csv, parse_json
from triscore.cli import main

from test_datasets import outcome, parse_csv_reference, parse_json_reference

_VALID_RECORDS = (
    {"lat": 10.0, "lon": 20.0, "pB": 0.2, "pN": 0.3, "pA": 0.5, "obs": "B"},
    {"lat": -5, "lon": 0, "mu": 1.0, "sigma": 2.0, "mu_c": 0.0, "sigma_c": 1.0,
     "obs_value": 0.3},
    {"lat": 0, "lon": 1, "members": [0.1, 0.5, 0.9, 1.2],
     "series": [0.0, 0.4, 0.8, 1.1, 2.0], "obs_value": 0.6},
)
_KEYS = sorted({k for rec in _VALID_RECORDS for k in rec})

_number = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3))
_odd = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["B", "n", " a ", "X", "1", "nan"]),
    st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf, 1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.lists(st.one_of(_number, st.booleans(), st.just(math.nan)), max_size=4),
    st.dictionaries(st.text(max_size=2), _number, max_size=1),
)
_value = st.one_of(_number, _odd)


def _mutate(draw, objects: list[dict], fields, odd) -> None:
    """Drop or replace up to three fields, each in one of ``objects``;
    two documents in five keep every field."""
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        key = draw(st.sampled_from(fields))
        obj = draw(st.sampled_from(objects))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(odd)


@st.composite
def _json_documents(draw) -> bytes:
    n = draw(st.integers(0, 4))
    records = [dict(draw(st.sampled_from(_VALID_RECORDS))) for _ in range(n)]
    doc = {"q": [0.25, 0.5, 0.25], "metadata": {"source": "fuzz"}, "records": records}
    _mutate(draw, [doc, *records], [*_KEYS, "q", "metadata", "records"], _value)
    top = doc if draw(st.integers(0, 5)) else draw(_value)
    text = json.dumps(top)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text.encode()


_VALID_ROWS = (
    {"lat": "10", "lon": "20", "pB": "0.2", "pN": "0.3", "pA": "0.5", "obs": "B"},
    {"lat": "-5", "lon": "0", "mu": "1", "sigma": "2", "mu_c": "0", "sigma_c": "1",
     "obs_value": "0.3"},
)
_COLUMNS = ("lat", "lon", "pB", "pN", "pA", "mu", "sigma", "mu_c", "sigma_c", "obs",
            "obs_value")
_cell = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "0.5", "nan", "inf", "1e400", "abc", "B", "n",
                     "true", '"', "a,b"]),
    st.text(max_size=3),
)


@st.composite
def _csv_documents(draw) -> bytes:
    valid = draw(st.sampled_from(_VALID_ROWS))
    rows = [dict(valid) for _ in range(draw(st.integers(0, 4)))]
    if rows:
        _mutate(draw, rows, list(valid), _cell)
    header = list(valid)
    if draw(st.integers(0, 5)) == 0:
        header = draw(st.lists(st.sampled_from((*_COLUMNS, "extra")), min_size=1, unique=True))
    lines = [header]
    for row in rows:
        cells = [row.get(col, "") for col in header]
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:draw(st.integers(0, len(cells)))]
        lines.append(cells)
    buf = io.StringIO()
    csv.writer(buf).writerows(lines)
    return buf.getvalue().encode()


# two large components in one triple are rare among generated documents,
# and their sum overflows in the column pass: each parser gets one such
# document every run
@settings(max_examples=300, deadline=None)
@given(_json_documents())
@example(b'{"records": [{"lat": 0, "lon": 0, "pB": 1e308, "pN": 1e308, "pA": 0, "obs": "B"}]}')
def test_parse_json_raises_only_package_errors(data):
    assert outcome(parse_json, data) == outcome(parse_json_reference, data)


@settings(max_examples=300, deadline=None)
@given(_csv_documents())
@example(b"lat,lon,pB,pN,pA,obs\r\n0,0,1.7976931348623157e308,1.7976931348623157e308,0,B\r\n")
def test_parse_csv_raises_only_package_errors(data):
    assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)


_nbins = st.sampled_from(["-1", "0", "1", "3", "11"])
# hue anchor tables: any JSON, or one that keeps every other rule but may
# hold neighbouring hues (+-1e308) whose distance overflows
_anchors = st.one_of(
    st.just("[[0, 0.4], [0.5, 0.7], [1, 1.4]]"),
    st.builds(json.dumps, st.lists(st.lists(st.one_of(_number, _odd), min_size=1, max_size=3),
                                   max_size=4)),
    st.lists(st.sampled_from([0.5, 1e308, -1e308]), min_size=2, max_size=2).map(
        lambda hs: json.dumps([[0, 0], [0.4, hs[0]], [0.7, hs[1]], [1, 1]])),
)
_score = st.sampled_from(["brier", "rps"])
_small = st.sampled_from(["-1", "0", "1", "2.5", "nan", "inf", "x"])

# options of each subcommand, after its input and output; "{map}" is a
# generated coefficients file
_OPTIONS = {
    "project": st.lists(st.sampled_from([["--apply-map", "{map}"], ["--clip"]]), max_size=2),
    "score": st.lists(st.tuples(st.just("--score"), _score), max_size=1),
    "verify": st.lists(st.one_of(st.tuples(st.just("--score"), _score),
                                 st.tuples(st.just("--nbins"), _nbins)), max_size=2),
    "calibrate": st.lists(st.one_of(
        st.tuples(st.just("--nbins"), _nbins),
        st.tuples(st.just("--holdout"), st.sampled_from(["0", "0.5", "1", "-0.1", "nan"])),
    ), max_size=2),
    "render-map": st.lists(st.one_of(
        st.just(["--show-skill-circles"]),
        st.tuples(st.just("--nbins"), _nbins),
        st.tuples(st.just("--min-pairs"), st.sampled_from(["0", "1", "5"])),
        st.tuples(st.sampled_from(["--cell-size", "--m", "--theta0"]), _small),
        st.tuples(st.just("--anchors"), _anchors),
    ), max_size=3),
    "render-reliability": st.lists(st.one_of(
        st.tuples(st.just("--nbins"), _nbins),
        st.tuples(st.just("--threshold"), st.sampled_from(["-1", "0", "1", "10"])),
    ), max_size=2),
}
_OUTPUT = {"project": "out.json", "render-map": "out.svg", "render-reliability": "out.svg"}


def assert_clean_exit(result):
    """Exit 0 with nothing on stderr, or exit 2 or 3 with one ``error:``
    line, or exit 2 with click's usage block; never a traceback."""
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    if result.exit_code == 0:
        assert lines == [], result.stderr
    elif len(lines) == 1:
        assert lines[0].startswith("error: "), result.stderr
    else:
        assert result.exit_code == 2, result.stderr
        assert len(lines) == 4, result.stderr
        usage, try_help, blank, error = lines
        assert usage.startswith("Usage: ") and try_help.startswith("Try "), result.stderr
        assert blank == "" and error.startswith("Error: "), result.stderr


# render-map on hue anchors whose neighbouring hues are an infinite
# distance apart must end in one error line, with no numpy warning
@pytest.mark.parametrize("command", sorted(_OPTIONS))
@settings(max_examples=25, deadline=None)
@given(document=st.one_of(_json_documents().map(lambda doc: (doc, ".json")),
                          _csv_documents().map(lambda doc: (doc, ".csv"))),
       coeffs=st.one_of(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
                        st.lists(_value, min_size=11, max_size=13)),
       stdin=st.booleans(),
       options=st.fixed_dictionaries(_OPTIONS))
@example(document=(b"lat,lon,pB,pN,pA\n0,0,0.2,0.3,0.5\n", ".csv"), coeffs=[0.0] * 12,
         stdin=False, options={**dict.fromkeys(_OPTIONS, []), "render-map": [
             ["--anchors", "[[0,0],[0.4,-1e308],[0.7,1e308],[1,1]]"]]})
def test_dataset_commands_exit_cleanly(tmp_path_factory, command, document, coeffs, stdin,
                                       options):
    work = tmp_path_factory.mktemp(command)
    doc, suffix = document
    (work / "map.json").write_text(json.dumps({"coefficients": coeffs}))
    argv = [command]
    if stdin:
        argv += ["-i", "-"]
    else:
        (work / f"in{suffix}").write_bytes(doc)
        argv += ["-i", str(work / f"in{suffix}")]
    if command in _OUTPUT:
        argv += ["-o", str(work / _OUTPUT[command])]
    for option in options[command]:
        argv += [arg.replace("{map}", str(work / "map.json")) for arg in option]
    assert_clean_exit(CliRunner().invoke(main, argv, input=doc))


@settings(max_examples=40, deadline=None)
@given(
    q=st.one_of(st.sampled_from(["1/3,1/3,1/3", "0.25,0.5,0.25", "0.2, 0.3, 0.5"]),
                st.sampled_from(["0,0.5,0.5", "1/0,0,1", "a,b,c", "0.5,0.5", "nan,0,1"]),
                st.text(max_size=6)),
    anchors=st.one_of(st.none(), _anchors),
    size=st.sampled_from(["-1", "0", "1", "3"]),
    m=_small,
)
def test_palette_exits_cleanly(tmp_path_factory, q, anchors, size, m):
    argv = ["palette", "-o", str(tmp_path_factory.mktemp("palette") / "p.svg"),
            "--q", q, "--size", size, "--m", m]
    if anchors is not None:
        argv += ["--anchors", anchors]
    assert_clean_exit(CliRunner().invoke(main, argv))
