"""BlueGene-style structured RAS log rendering (the §4.6 genericity test).

The paper asks "How generic is Desh?" and contrasts Cray's unstructured
console logs with BlueGene/L RAS logs, whose lines carry an explicit
location code and a severity column (Table 12) — and whose severities
famously mislead: INFO lines can be abnormal and FATAL lines normal.

This module renders any generated log in a BlueGene-style format::

    1117838570.363779 R02-M1-N3-J08-U2 RAS KERNEL INFO instruction ...
    ^timestamp        ^location        ^   ^facility ^severity ^message

and parses it back, mapping the location code onto the Cray topology
(rack->cabinet column, midplane->row, nodecard->chassis, jumper->slot,
unit->node) and **dropping the severity column** — Desh "does not
consider the log severity levels even if present" (Section 3.1).  The
round trip demonstrates that the pipeline is agnostic to the logging
paradigm: only (timestamp, component, message) matter.

Severities are assigned with deliberate Table-12-style mismatches
(correctable-error messages get INFO, some benign boot chatter gets
FATAL) so any consumer trusting the severity column is provably misled.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

from ..errors import ParseError
from ..topology.cray import CrayNodeId
from .record import LogRecord

__all__ = [
    "severity_for",
    "render_bluegene_line",
    "parse_bluegene_line",
    "to_bluegene",
    "from_bluegene",
]

_BG_RE = re.compile(
    r"^(?P<ts>\d+\.\d{6})\s+"
    r"(?P<loc>R\d+-M\d+-N\d+-J\d+-U\d+|SYS)\s+RAS\s+"
    r"(?P<facility>[\w.\-]+)\s+"
    r"(?P<severity>INFO|WARNING|ERROR|FATAL)\s+"
    r"(?P<message>.*)$"
)


def severity_for(record: LogRecord) -> str:
    """Assign a BlueGene-style severity, with Table-12 mismatches.

    The rules are deliberately *surface-level* (keyword driven), the way
    real RAS severities are assigned by emitting code rather than by
    failure relevance:

    * anything "corrected"/"correctable" logs as INFO even when it is
      part of a failure chain (the paper's "ddr error(s) detected and
      corrected ... Abnormal" row);
    * boot-time chatter logs as FATAL (the "MailboxMonitor ... Normal"
      row) because historically those subsystems over-report;
    * panics and NMIs log as FATAL, generic errors as ERROR, warnings as
      WARNING, everything else INFO.
    """
    msg = record.message
    lower = msg.lower()
    if "corrected" in lower or "correctable" in lower:
        return "INFO"
    if "wait4boot" in lower or "boot code" in lower:
        return "FATAL"  # deliberate mismatch: benign boot chatter
    if "panic" in lower or "nmi" in lower or "halted" in lower:
        return "FATAL"
    if "error" in lower or "fault" in lower or "unavailable" in lower:
        return "ERROR"
    if "warning" in lower or "killed" in lower:
        return "WARNING"
    return "INFO"


def _location_code(node: Optional[CrayNodeId]) -> str:
    if node is None:
        return "SYS"
    return (
        f"R{node.col:02d}-M{node.row}-N{node.chassis}"
        f"-J{node.slot:02d}-U{node.node}"
    )


_LOC_RE = re.compile(r"^R(\d+)-M(\d+)-N(\d+)-J(\d+)-U(\d+)$")


def _parse_location(code: str) -> Optional[CrayNodeId]:
    if code == "SYS":
        return None
    m = _LOC_RE.match(code)
    if m is None:
        raise ParseError(f"bad BlueGene location code: {code!r}")
    col, row, chassis, slot, node = (int(g) for g in m.groups())
    return CrayNodeId(col, row, chassis, slot, node)


def render_bluegene_line(record: LogRecord) -> str:
    """Render one record as a BlueGene-style RAS line."""
    return (
        f"{record.timestamp:.6f} {_location_code(record.node)} RAS "
        f"{record.facility} {severity_for(record)} {record.message}"
    )


def parse_bluegene_line(line: str) -> tuple[LogRecord, str]:
    """Parse a RAS line back to ``(record, severity)``.

    The severity is returned separately — the Desh pipeline discards it,
    but Table-12-style analyses need it.
    """
    m = _BG_RE.match(line.rstrip("\n"))
    if m is None:
        raise ParseError(f"unparseable BlueGene line: {line!r}")
    node = _parse_location(m.group("loc"))
    record = LogRecord(
        timestamp=float(m.group("ts")),
        node=node,
        facility=m.group("facility"),
        message=m.group("message"),
        source="smw" if node is not None else "bgsn",
    )
    return record, m.group("severity")


def to_bluegene(records: Iterable[LogRecord]) -> Iterator[str]:
    """Render a record stream in BlueGene format."""
    for record in records:
        yield render_bluegene_line(record)


def from_bluegene(lines: Iterable[str]) -> Iterator[LogRecord]:
    """Parse a BlueGene-format stream, discarding severities (Section 3.1)."""
    for line in lines:
        record, _severity = parse_bluegene_line(line)
        yield record
