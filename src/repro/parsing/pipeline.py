"""End-to-end log parsing: raw records -> labeled, encoded event streams.

:class:`LogParser` wires the tokenizer, template miner, vocabulary and
labeler together.  ``fit`` mines the phrase inventory from training
records; ``transform`` maps any records (training or disjoint test data)
to :class:`~repro.events.ParsedEvent` streams with phrase ids, labels and
terminal flags — the exact input representation of LSTM phases 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..errors import NotFittedError
from ..events import EventSequence, ParsedEvent, group_by_node
from ..obs import current_tracer, metrics_registry
from ..simlog.record import LogRecord
from ..topology.cray import CrayNodeId
from .encoder import PhraseVocabulary
from .labeling import PhraseLabeler, default_labeler
from .miner import TemplateMiner

__all__ = ["LogParser", "ParseResult"]


@dataclass
class ParseResult:
    """Parsed event streams plus per-node segmentation helpers.

    ``ingest_stats`` is populated when the records came through the
    hardened ingest front-end (:meth:`LogParser.transform_lines`), so
    callers can account for quarantined/deduplicated raw lines in
    addition to the ``skipped`` out-of-vocabulary records.
    """

    events: list[ParsedEvent]
    skipped: int = 0
    ingest_stats: "object | None" = field(default=None, compare=False)

    def by_node(self) -> dict[Optional[CrayNodeId], EventSequence]:
        """Per-node event sequences (phase-3 batching unit)."""
        return group_by_node(self.events)

    def __len__(self) -> int:
        return len(self.events)


class LogParser:
    """Mines phrase templates from raw records and encodes event streams."""

    def __init__(
        self,
        *,
        miner: TemplateMiner | None = None,
        labeler: PhraseLabeler | None = None,
    ) -> None:
        self.miner = miner if miner is not None else TemplateMiner()
        self.labeler = labeler if labeler is not None else default_labeler()
        self.vocab = PhraseVocabulary()
        self._labels: list[str] = []
        self._terminal: list[bool] = []
        self._fitted = False

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def from_vocabulary(
        cls,
        vocab: PhraseVocabulary,
        *,
        labeler: PhraseLabeler | None = None,
    ) -> "LogParser":
        """Reconstruct a fitted parser from a persisted vocabulary.

        The vocabulary's phrase texts *are* the mined templates (masking
        is idempotent), so replaying them through a fresh miner in id
        order rebuilds the exact template tree — phrase ids, labels,
        terminal flags and occurrence counts all match the original
        parser.  This is how a model saved by the CLI scores logs it has
        never seen, and how a cached parse stage feeds skip-gram negative
        sampling the same counts as a cold fit.
        """
        parser = cls(labeler=labeler)
        for pid in range(len(vocab)):
            text = vocab.text_of(pid)
            template = parser.miner.add_message(text)
            if template.template_id != pid:
                raise NotFittedError(
                    f"vocabulary phrase {pid} ({text!r}) did not rebuild "
                    f"to a unique template (got id {template.template_id})"
                )
            parser._intern(text, vocab.count_of(pid))
        parser._fitted = True
        return parser

    def fit(self, records: Iterable[LogRecord]) -> "LogParser":
        """Mine templates and build the phrase vocabulary from *records*."""
        with current_tracer().span("parse.fit") as span:
            count = 0
            for record in records:
                template = self.miner.add_message(record.message)
                self._intern(template.text)
                count += 1
            self._fitted = True
            span.set(records=count, phrases=len(self.vocab))
        return self

    def _intern(self, text: str, count: int = 1) -> int:
        pid = self.vocab.add(text, count)
        while len(self._labels) < len(self.vocab):
            phrase = self.vocab.text_of(len(self._labels))
            self._labels.append(self.labeler.label(phrase))
            self._terminal.append(self.labeler.is_terminal(phrase))
        return pid

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, record: LogRecord) -> Optional[ParsedEvent]:
        """Encode one record; returns ``None`` for out-of-vocabulary messages.

        Test data may contain unseen message families ("new patterns or
        unknown failures are rare" — Observation 1); those are skipped
        rather than force-fitted, matching the paper's protocol of
        validating against *trained* chains.
        """
        if not self._fitted:
            raise NotFittedError("LogParser.fit must run before encode")
        template = self.miner.match(record.message)
        if template is None:
            return None
        pid = self.vocab.get_id(template.text)
        if pid < 0:
            return None
        return ParsedEvent(
            timestamp=record.timestamp,
            phrase_id=pid,
            node=record.node,
            label=self._labels[pid],
            terminal=self._terminal[pid],
        )

    def transform(self, records: Iterable[LogRecord]) -> ParseResult:
        """Encode a record stream, skipping out-of-vocabulary messages."""
        with current_tracer().span("parse.transform") as span:
            events: list[ParsedEvent] = []
            skipped = 0
            for record in records:
                event = self.encode(record)
                if event is None:
                    skipped += 1
                else:
                    events.append(event)
            events.sort()
            span.set(events=len(events), skipped=skipped)
        if skipped:
            metrics_registry().counter("parse.oov_skipped").inc(skipped)
        return ParseResult(events=events, skipped=skipped)

    def transform_lines(
        self, lines: Iterable[str], *, ingestor=None
    ) -> ParseResult:
        """Encode a *raw line* stream through the hardened ingest path.

        Lines are parsed by a :class:`~repro.resilience.HardenedIngestor`
        (a default-configured one is created when *ingestor* is omitted):
        unparseable lines are quarantined against the ingestor's error
        budget, duplicates dropped, and mild reordering repaired, before
        the surviving records are encoded exactly as :meth:`transform`
        does.  The result carries the ingest stats.
        """
        if ingestor is None:
            from ..resilience.ingest import HardenedIngestor

            ingestor = HardenedIngestor()
        with current_tracer().span("ingest.transform_lines") as span:
            result = self.transform(ingestor.ingest_lines(lines))
            span.set(
                lines=ingestor.stats.lines_seen,
                quarantined=ingestor.stats.quarantined,
            )
        result.ingest_stats = ingestor.stats
        return result

    def fit_transform(self, records: Sequence[LogRecord]) -> ParseResult:
        """Fit on *records* then encode the same records."""
        return self.fit(records).transform(records)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_phrases(self) -> int:
        """Size of the mined phrase vocabulary."""
        return len(self.vocab)

    def phrase_label(self, phrase_id: int) -> str:
        """The Safe/Unknown/Error label of one phrase id."""
        if not 0 <= phrase_id < len(self._labels):
            raise NotFittedError(f"no label for phrase id {phrase_id}")
        return self._labels[phrase_id]

    def labels_by_id(self) -> list[str]:
        """All phrase labels, indexed by phrase id."""
        return list(self._labels)
