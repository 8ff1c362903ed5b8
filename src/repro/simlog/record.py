"""Log record model and raw-line codec.

A raw line looks like real Cray/Linux console output::

    2015-12-16T16:25:48.301744 c1-0c1s1n0 kernel: LNet: hardware quiesce 20141216t162520, All threads awake

i.e. an ISO timestamp with microseconds, the node id (or a service host
name for system-level messages), the logging facility, and the free-form
message.  :func:`parse_line` inverts :func:`render_line` exactly.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ParseError
from ..topology.cray import NODE_ID_RE, CrayNodeId

__all__ = ["LogRecord", "render_line", "parse_line", "EPOCH"]

# All synthetic timestamps are offsets in seconds from this epoch, chosen
# arbitrarily inside the paper's data-collection era.
EPOCH = _dt.datetime(2015, 1, 1, 0, 0, 0)

_LINE_RE = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6})\s+"
    r"(?P<source>\S+)\s+"
    r"(?P<facility>[\w.\-]+):\s"
    r"(?P<message>.*)$"
)


@dataclass(frozen=True)
class LogRecord:
    """One log event.

    Attributes
    ----------
    timestamp:
        Seconds since :data:`EPOCH` (float, microsecond resolution).
    node:
        Originating compute node, or ``None`` for system-level sources
        (e.g. the SMW or a boot node); then ``source`` carries the host.
    facility:
        Logging facility/program (``kernel``, ``slurmd``, ``hwerrlogd`` ...).
    message:
        The unstructured message text (static template + dynamic fields).
    source:
        Host name used when ``node`` is ``None``.
    """

    timestamp: float
    node: Optional[CrayNodeId]
    facility: str
    message: str
    source: str = "smw"

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ParseError(f"timestamp must be >= 0, got {self.timestamp!r}")
        # Microsecond resolution is an invariant: the raw-line codec
        # carries exactly six fractional digits, so rounding here makes
        # render/parse round-trips lossless.
        object.__setattr__(self, "timestamp", round(self.timestamp, 6))
        if not self.facility:
            raise ParseError("facility must be non-empty")
        if "\n" in self.message:
            raise ParseError("message must be a single line")

    @property
    def source_text(self) -> str:
        """The node id string, or the service host for system messages."""
        return str(self.node) if self.node is not None else self.source

    def shifted(self, dt_seconds: float) -> "LogRecord":
        """Return a copy with the timestamp shifted by *dt_seconds*."""
        return replace(self, timestamp=self.timestamp + dt_seconds)

    def wallclock(self) -> _dt.datetime:
        """Absolute wall-clock time of this record."""
        return EPOCH + _dt.timedelta(seconds=self.timestamp)


def render_line(record: LogRecord) -> str:
    """Serialize a :class:`LogRecord` to its raw syslog line."""
    stamp = record.wallclock().strftime("%Y-%m-%dT%H:%M:%S.%f")
    return f"{stamp} {record.source_text} {record.facility}: {record.message}"


def parse_line(line: str) -> LogRecord:
    """Parse a raw syslog line back into a :class:`LogRecord`.

    Raises
    ------
    ParseError
        If the line does not match the expected layout.
    """
    m = _LINE_RE.match(line.rstrip("\n"))
    if m is None:
        raise ParseError(f"unparseable log line: {line!r}")
    try:
        # _LINE_RE fixes the layout but not the ranges: "2015-13-01T..."
        # and "2015-02-30T..." match it and fail here.
        when = _dt.datetime.fromisoformat(m.group("ts"))
    except ValueError as exc:
        raise ParseError(f"bad timestamp in line: {line!r}") from exc
    timestamp = (when - EPOCH).total_seconds()
    if timestamp < 0:
        raise ParseError(f"timestamp predates epoch: {line!r}")
    source = m.group("source")
    node: Optional[CrayNodeId] = None
    host = source
    if NODE_ID_RE.match(source):
        node = CrayNodeId.parse(source)
        host = "smw"
    return LogRecord(
        timestamp=timestamp,
        node=node,
        facility=m.group("facility"),
        message=m.group("message"),
        source=host,
    )
