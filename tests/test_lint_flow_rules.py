"""Behavioural tests for the dataflow rule F4 (async atomicity).

Bad snippets prove the analysis fires; good snippets pin the
lock-protected and write-before-await counterparts it must leave silent.
"""

import textwrap

from repro.lint import lint_source
from repro.lint.rules import get_rules


def _lint(src: str, *rules: str):
    return lint_source(textwrap.dedent(src), rules=get_rules(list(rules)))


# ----------------------------------------------------------------------
# F4 — async atomicity
# ----------------------------------------------------------------------
def test_f4_fires_on_minimal_rmw_across_await():
    findings = _lint(
        """
        import asyncio

        class Counter:
            def __init__(self):
                self.value = 0

            async def bump(self):
                current = self.value
                await asyncio.sleep(0)
                self.value = current + 1
        """,
        "F4",
    )
    assert [f.rule for f in findings] == ["F4"]
    message = findings[0].message
    assert "Counter.bump" in message
    assert "self.value" in message
    # the full interleaving window is reported ...
    assert "read at line 9" in message
    assert "await at line 10" in message
    # ... and doubles as related locations for SARIF
    assert len(findings[0].related) == 2
    assert findings[0].related[0].line == 9


def test_f4_fires_on_check_then_act_mutator_call():
    findings = _lint(
        """
        import asyncio

        class Registry:
            def __init__(self):
                self.items = []

            async def add_once(self, item):
                if item not in self.items:
                    await asyncio.sleep(0)
                    self.items.append(item)
        """,
        "F4",
    )
    assert len(findings) == 1
    assert "self.items" in findings[0].message


def test_f4_fires_when_lock_released_at_the_await():
    # Two critical sections with the await between them do NOT make the
    # window atomic — the lock must span the await.
    findings = _lint(
        """
        import asyncio

        class Counter:
            def __init__(self):
                self.value = 0
                self._lock = asyncio.Lock()

            async def bump(self):
                async with self._lock:
                    current = self.value
                await asyncio.sleep(0)
                async with self._lock:
                    self.value = current + 1
        """,
        "F4",
    )
    assert len(findings) == 1
    assert "no single lock spans the window" in findings[0].message


def test_f4_silent_when_lock_held_across_the_window():
    findings = _lint(
        """
        import asyncio

        class Counter:
            def __init__(self):
                self.value = 0
                self._lock = asyncio.Lock()

            async def bump(self):
                async with self._lock:
                    current = self.value
                    await asyncio.sleep(0)
                    self.value = current + 1
        """,
        "F4",
    )
    assert findings == []


def test_f4_silent_when_write_precedes_the_await():
    # No await inside the read->write window: the sequence is atomic on
    # a single event loop by construction.
    findings = _lint(
        """
        import asyncio

        class Counter:
            def __init__(self):
                self.value = 0

            async def bump(self):
                self.value += 1
                await asyncio.sleep(0)
        """,
        "F4",
    )
    assert findings == []


def test_f4_single_writer_justification_suppresses():
    findings = _lint(
        """
        import asyncio

        class Gate:
            def __init__(self):
                self._event = asyncio.Event()

            async def wait_turn(self):
                while not self._event.is_set():
                    # deshlint: allow[F4] single consumer re-checks after every wait
                    self._event.clear()
                    await self._event.wait()
        """,
        "F4",
    )
    assert findings == []
