"""Golden-trace test: a fixed mini run pins its normalized span tree.

A deterministic workload — hardened ingest of handwritten lines, parser
fit/transform, and a two-stage pipeline run — is traced end to end; with
durations masked, :meth:`Tracer.describe` must reproduce the pinned
rendering byte for byte.  Every attribute in the tree is an integer,
boolean or fixed string, so the expectation is platform-independent.

If an intentional instrumentation change breaks this test, re-pin
``EXPECTED`` with the printed actual value after reviewing the diff.
"""

from pathlib import Path

from repro.config import DeshConfig
from repro.obs import Tracer, activate_tracer
from repro.parsing import LogParser
from repro.pipeline import PipelineRunner
from repro.pipeline.stage import Stage, StageContext

LINES = [
    "2015-01-01T00:00:01.000000 c0-0c0s0n0 kernel: machine check events logged\n",
    "2015-01-01T00:00:02.000000 c0-0c0s0n0 kernel: machine check events logged\n",
    "2015-01-01T00:00:03.000000 c0-0c0s0n1 nscd: nss_ldap reconnected to LDAP server\n",
    "this line is hopeless garbage\n",
    "2015-01-01T00:00:04.000000 c0-0c0s0n1 rca: ec_node_info heartbeat ok seq 1\n",
    "2015-01-01T00:00:05.000000 c0-0c0s0n1 rca: ec_node_info heartbeat ok seq 2\n",
]

EXPECTED = """\
golden.run lines=6
  pipeline.run stages=2
    stage:parse cache_hit=False
      parse.fit phrases=3 records=5
      ingest.transform_lines lines=6 quarantined=1
        parse.transform events=5 skipped=0
    stage:count cache_hit=False
      count.events n=5
  checkpoint.save arrays=0 step=0"""


class ParseStage(Stage):
    """Fits the parser on the mini lines and encodes them."""

    name = "parse"
    deps = ()

    def config_payload(self) -> object:
        """Static payload (the stage has no knobs)."""
        return {}

    def run(self, ctx: StageContext) -> object:
        """Fit + transform the handwritten lines through hardened ingest."""
        parser = LogParser()
        from repro.resilience.ingest import HardenedIngestor

        ingestor = HardenedIngestor()
        parser.fit(ingestor.ingest_lines(LINES))
        ingestor.reset()
        return parser.transform_lines(LINES, ingestor=ingestor)

    def save(self, value: object, directory: Path) -> None:
        """Unused (the golden run has no artifact store)."""

    def load(self, directory: Path, ctx: StageContext) -> object:
        """Unused (the golden run has no artifact store)."""
        raise NotImplementedError


class CountStage(Stage):
    """Counts the parsed events, inside a stage-context child span."""

    name = "count"
    deps = ("parse",)

    def config_payload(self) -> object:
        """Static payload (the stage has no knobs)."""
        return {}

    def run(self, ctx: StageContext) -> object:
        """Count upstream events under a ``count.events`` span."""
        parsed = ctx.value("parse")
        with ctx.span("count.events", n=len(parsed.events)):
            return len(parsed.events)

    def save(self, value: object, directory: Path) -> None:
        """Unused (the golden run has no artifact store)."""

    def load(self, directory: Path, ctx: StageContext) -> object:
        """Unused (the golden run has no artifact store)."""
        raise NotImplementedError


def _traced_mini_run(tmp_path) -> Tracer:
    tracer = Tracer()
    with activate_tracer(tracer):
        with tracer.span("golden.run", lines=len(LINES)):
            runner = PipelineRunner([ParseStage(), CountStage()])
            runner.run(StageContext(config=DeshConfig()))
            from repro.resilience.checkpoint import CheckpointManager

            CheckpointManager(tmp_path / "ckpt").save(0, {}, {"note": "golden"})
    return tracer


def test_golden_span_tree_is_byte_stable(tmp_path):
    tracer = _traced_mini_run(tmp_path)
    assert tracer.describe(mask_durations=True) == EXPECTED


def test_two_runs_render_identically(tmp_path):
    first = _traced_mini_run(tmp_path / "a").describe()
    second = _traced_mini_run(tmp_path / "b").describe()
    assert first == second


def test_unmasked_rendering_adds_only_durations(tmp_path):
    tracer = _traced_mini_run(tmp_path)
    unmasked = tracer.describe(mask_durations=False)
    stripped = "\n".join(
        line.rsplit(" (", 1)[0] for line in unmasked.splitlines()
    )
    assert stripped == EXPECTED
