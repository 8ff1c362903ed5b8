"""Tests for the hardened ingest front-end (quarantine/dedup/re-sort)."""

import pytest

from repro.errors import ConfigError, IngestError
from repro.resilience import HardenedIngestor, IngestConfig
from repro.simlog.record import render_line


@pytest.fixture
def lines(small_log):
    return [render_line(r) for r in small_log.records[:1000]]


def _conserved(stats):
    return stats.lines_seen == (
        stats.records_out
        + stats.quarantined
        + stats.duplicates_dropped
        + stats.blank_skipped
    )


class TestIngestConfig:
    def test_defaults_valid(self):
        cfg = IngestConfig()
        assert 0.0 < cfg.max_bad_ratio < 1.0

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            IngestConfig(max_bad_ratio=1.5)

    def test_rejects_negative_windows(self):
        with pytest.raises(ConfigError):
            IngestConfig(dedup_window=-1)
        with pytest.raises(ConfigError):
            IngestConfig(min_lines_for_budget=0)


class TestCleanStream:
    def test_clean_lines_pass_through(self, lines, small_log):
        ingestor = HardenedIngestor()
        records = list(ingestor.ingest_lines(lines))
        assert records == list(small_log.records[:1000])
        assert ingestor.stats.records_out == 1000
        assert ingestor.stats.quarantined == 0
        assert _conserved(ingestor.stats)

    def test_blank_lines_counted_not_quarantined(self, lines):
        ingestor = HardenedIngestor()
        noisy = lines[:10] + ["", "   ", "\t"] + lines[10:20]
        records = list(ingestor.ingest_lines(noisy))
        assert len(records) == 20
        assert ingestor.stats.blank_skipped == 3
        assert ingestor.stats.quarantined == 0
        assert _conserved(ingestor.stats)


class TestQuarantine:
    def test_bad_lines_quarantined_with_reason(self, lines):
        ingestor = HardenedIngestor()
        noisy = lines[:50] + ["total garbage $$$"] + lines[50:100]
        records = list(ingestor.ingest_lines(noisy))
        assert len(records) == 100
        assert ingestor.stats.quarantined == 1
        (letter,) = ingestor.dead_letters
        assert letter.line == "total garbage $$$"
        assert letter.reason
        assert _conserved(ingestor.stats)

    def test_dead_letter_cap_bounds_memory(self, lines):
        cfg = IngestConfig(dead_letter_cap=5, max_bad_ratio=1.0)
        ingestor = HardenedIngestor(cfg)
        noisy = [f"garbage {i}" for i in range(50)] + lines[:50]
        list(ingestor.ingest_lines(noisy))
        assert ingestor.stats.quarantined == 50  # all counted...
        assert len(ingestor.dead_letters) == 5  # ...but only 5 kept

    def test_long_bad_line_clipped(self):
        cfg = IngestConfig(max_bad_ratio=1.0)
        ingestor = HardenedIngestor(cfg)
        ingestor.accept_line("x" * 100_000)
        assert len(ingestor.dead_letters[0].line) <= 240

    def test_error_budget_raises_past_ratio(self, lines):
        cfg = IngestConfig(max_bad_ratio=0.10, min_lines_for_budget=100)
        ingestor = HardenedIngestor(cfg)
        # 80 good lines, then garbage until the budget trips.
        noisy = lines[:80] + [f"junk {i}" for i in range(40)]
        with pytest.raises(IngestError, match="error budget"):
            list(ingestor.ingest_lines(noisy))
        assert ingestor.stats.bad_ratio > 0.10

    def test_budget_not_enforced_during_grace_period(self, lines):
        cfg = IngestConfig(max_bad_ratio=0.10, min_lines_for_budget=100)
        ingestor = HardenedIngestor(cfg)
        # One bad line among ten: 10% > budget would trip, but the
        # stream is shorter than the grace period.
        noisy = ["bad line!"] + lines[:9]
        records = list(ingestor.ingest_lines(noisy))
        assert len(records) == 9


class TestDedup:
    def test_exact_duplicates_dropped_within_window(self, lines):
        ingestor = HardenedIngestor()
        doubled = [line for line in lines[:100] for _ in range(2)]
        records = list(ingestor.ingest_lines(doubled))
        assert len(records) == 100
        assert ingestor.stats.duplicates_dropped == 100
        assert _conserved(ingestor.stats)

    def test_duplicate_outside_window_passes(self, lines):
        cfg = IngestConfig(dedup_window=4)
        ingestor = HardenedIngestor(cfg)
        stream = [lines[0]] + lines[1:10] + [lines[0]]  # repeat far apart
        records = list(ingestor.ingest_lines(stream))
        assert len(records) == 11
        assert ingestor.stats.duplicates_dropped == 0

    def test_dedup_disabled_with_zero_window(self, lines):
        cfg = IngestConfig(dedup_window=0)
        ingestor = HardenedIngestor(cfg)
        records = list(ingestor.ingest_lines([lines[0], lines[0]]))
        assert len(records) == 2


class TestReordering:
    def test_mild_reordering_repaired(self, lines):
        # Swap adjacent pairs: displacement 1, well inside the window.
        swapped = list(lines)
        for i in range(0, len(swapped) - 1, 2):
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        ingestor = HardenedIngestor()
        records = list(ingestor.ingest_lines(swapped))
        times = [r.timestamp for r in records]
        assert times == sorted(times)
        assert ingestor.stats.resorted > 0

    def test_resort_disabled_with_zero_window(self, lines):
        swapped = [lines[1], lines[0]] + lines[2:10]
        cfg = IngestConfig(reorder_window=0)
        ingestor = HardenedIngestor(cfg)
        records = list(ingestor.ingest_lines(swapped))
        times = [r.timestamp for r in records]
        assert times != sorted(times)

    def test_conservation_holds_with_heap_drained(self, lines):
        ingestor = HardenedIngestor()
        noisy = lines[:300] + ["junk"] + lines[300:305] + ["", lines[300]]
        list(ingestor.ingest_lines(noisy))
        assert _conserved(ingestor.stats)


class TestIngestPath:
    def test_reset_clears_everything(self, lines):
        ingestor = HardenedIngestor()
        list(ingestor.ingest_lines(lines[:50] + ["junk"]))
        ingestor.reset()
        assert ingestor.stats.lines_seen == 0
        assert ingestor.dead_letters == []
        # dedup memory cleared: a line from the first feed passes again
        records = list(ingestor.ingest_lines(lines[:50]))
        assert len(records) == 50

    def test_stats_as_dict_has_bad_ratio(self, lines):
        ingestor = HardenedIngestor()
        list(ingestor.ingest_lines(lines[:10]))
        d = ingestor.stats.as_dict()
        assert d["lines_seen"] == 10
        assert d["bad_ratio"] == 0.0
