"""Tests for the log-record raw-line codec."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.resilience import HardenedIngestor, IngestConfig
from repro.simlog.record import EPOCH, LogRecord, parse_line, render_line
from repro.topology import CrayNodeId


def test_render_contains_all_fields():
    rec = LogRecord(1.5, CrayNodeId(1, 0, 1, 1, 0), "kernel", "hello world")
    line = render_line(rec)
    assert "c1-0c1s1n0" in line
    assert "kernel:" in line
    assert line.endswith("hello world")


def test_round_trip_node_record():
    rec = LogRecord(3600.123456, CrayNodeId(0, 0, 1, 2, 3), "slurmd", "msg text 42")
    assert parse_line(render_line(rec)) == rec


def test_round_trip_system_record():
    rec = LogRecord(10.0, None, "erd", "system message", source="smw1")
    parsed = parse_line(render_line(rec))
    assert parsed.node is None
    assert parsed.source == "smw1"
    assert parsed.message == "system message"


@given(
    st.floats(min_value=0, max_value=10**7).map(lambda t: round(t, 6)),
    st.text(
        alphabet=st.characters(whitelist_categories=["Lu", "Ll", "Nd"], whitelist_characters=" ._-"),
        min_size=1,
        max_size=60,
    ).filter(lambda s: s.strip() == s and s.strip() != ""),
)
def test_property_round_trip(timestamp, message):
    rec = LogRecord(timestamp, CrayNodeId(1, 0, 0, 0, 0), "kernel", message)
    parsed = parse_line(render_line(rec))
    assert parsed.timestamp == pytest.approx(rec.timestamp, abs=1e-6)
    assert parsed.message == message


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "not a log line",
        "2015-01-01T00:00:00 c0-0c0s0n0 kernel: missing microseconds",
        "2015-01-01T00:00:00.000000 c0-0c0s0n0 nofacility",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_line(bad)


#: Lines whose timestamp fits the layout regex (``\d`` is Unicode) but
#: is no ISO instant.
_OUT_OF_RANGE = [
    "2015-13-01T00:00:00.000000 c0-0c0s0n0 kernel: month 13",
    "2015-02-30T00:00:00.000000 c0-0c0s0n0 kernel: february 30",
    "2015-06-01T24:00:00.000000 c0-0c0s0n0 kernel: hour 24",
    "2015-06-01T23:59:60.000000 c0-0c0s0n0 kernel: leap second",
    "\uff12015-06-01T00:00:00.000000 c0-0c0s0n0 kernel: full-width digit",
]


@pytest.mark.parametrize("line", _OUT_OF_RANGE)
def test_parse_rejects_out_of_range_timestamp(line):
    with pytest.raises(ParseError, match="bad timestamp"):
        parse_line(line)


def test_ingest_quarantines_out_of_range_timestamps():
    ingestor = HardenedIngestor(IngestConfig(max_bad_ratio=1.0))
    good = "2015-06-01T12:00:00.500000 c0-0c0s0n0 kernel: fine"
    assert ingestor.accept_line(good).timestamp == pytest.approx(151 * 86400 + 43200.5)
    for line in _OUT_OF_RANGE:
        assert ingestor.accept_line(line) is None
    assert ingestor.stats.quarantined == len(_OUT_OF_RANGE)
    assert ingestor.stats.records_out == 1
    assert [d.line for d in ingestor.dead_letters] == _OUT_OF_RANGE


def test_parse_rejects_pre_epoch():
    with pytest.raises(ParseError):
        parse_line("2014-12-31T23:59:59.000000 c0-0c0s0n0 kernel: too early")


def test_record_rejects_negative_timestamp():
    with pytest.raises(ParseError):
        LogRecord(-1.0, None, "kernel", "x")


def test_record_rejects_multiline_message():
    with pytest.raises(ParseError):
        LogRecord(0.0, None, "kernel", "a\nb")


def test_record_rejects_empty_facility():
    with pytest.raises(ParseError):
        LogRecord(0.0, None, "", "x")


def test_shifted():
    rec = LogRecord(10.0, None, "kernel", "x")
    assert rec.shifted(5.0).timestamp == 15.0
    assert rec.timestamp == 10.0  # original untouched


def test_wallclock_matches_epoch():
    rec = LogRecord(0.0, None, "kernel", "x")
    assert rec.wallclock() == EPOCH


def test_source_text_prefers_node():
    rec = LogRecord(0.0, CrayNodeId(0, 0, 0, 0, 0), "kernel", "x", source="ignored")
    assert rec.source_text == "c0-0c0s0n0"
