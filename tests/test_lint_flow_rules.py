"""Behavioural tests for the dataflow rules F1 (shape flow), F2 (stage
artifact flow) and F4 (async atomicity).

Every analysis gets at least one bad snippet proving it fires and one
good snippet proving it stays silent; F1's good snippets double as
no-false-positive regression cases for the provable-only policy
(symbolic dims are never reported), and F4's good snippets pin the
lock-protected counterparts.
"""

import textwrap

from repro.lint import lint_source
from repro.lint.rules import get_rules


def _lint(src: str, *rules: str):
    return lint_source(textwrap.dedent(src), rules=get_rules(list(rules)))


# ----------------------------------------------------------------------
# F1 — shape flow
# ----------------------------------------------------------------------
def test_f1_fires_on_wrong_trailing_dim():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        def go(rng):
            layer = Dense(4, 8, rng)
            x = np.zeros((3, 5))
            return layer.forward(x)
        """,
        "F1",
    )
    assert [f.rule for f in findings] == ["F1"]
    message = findings[0].message
    assert "Dense.forward" in message
    assert "in_dim = 4" in message
    assert "(3, 5)" in message
    assert "np.zeros" in message  # the inferred shape chain is included


def test_f1_fires_on_rank_mismatch_through_reshape():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.lstm import StackedLSTM

        def go(rng):
            net = StackedLSTM(16, 32, 2, rng)
            x = np.zeros((8, 4, 16))
            flat = x.reshape(8, 64)
            return net.forward(flat)
        """,
        "F1",
    )
    assert len(findings) == 1
    assert "rank-3" in findings[0].message
    assert "rank-2" in findings[0].message


def test_f1_fires_on_dtype_mismatch():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        def go(rng):
            layer = Dense(4, 8, rng)
            x = np.zeros((3, 4), dtype=np.int64)
            return layer.forward(x)
        """,
        "F1",
    )
    assert len(findings) == 1
    assert "dtype float" in findings[0].message


def test_f1_silent_on_correct_shapes_and_layer_chaining():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        def go(rng):
            first = Dense(4, 8, rng)
            second = Dense(8, 2, rng)
            x = np.zeros((3, 4))
            hidden = first.forward(x)
            return second.forward(hidden)
        """,
        "F1",
    )
    assert findings == []


def test_f1_silent_on_symbolic_dims():
    # Distinct symbols are incomparable: never a finding.
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        def go(rng, in_dim, batch):
            layer = Dense(in_dim, 8, rng)
            x = np.zeros((batch, in_dim))
            return layer.forward(x)
        """,
        "F1",
    )
    assert findings == []


def test_f1_joins_branches_instead_of_guessing():
    # The two branches disagree on the trailing dim; the join widens it
    # to unknown, so no provable violation exists.
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        def go(rng, flag):
            layer = Dense(4, 8, rng)
            if flag:
                x = np.zeros((3, 4))
            else:
                x = np.zeros((3, 7))
            return layer.forward(x)
        """,
        "F1",
    )
    assert findings == []


def test_f1_catches_wrong_dim_from_self_attribute_layer():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        class Head:
            def __init__(self, rng):
                self.proj = Dense(32, 4, rng)

            def apply(self):
                x = np.ones((2, 16))
                return self.proj.forward(x)
        """,
        "F1",
    )
    assert len(findings) == 1
    assert "in_dim = 32" in findings[0].message


def test_f1_silent_on_batched_step_and_scorer():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.batched import BatchedScorer

        def go(rng, regressor, scaler):
            scorer = BatchedScorer(regressor, scaler, history=5)
            windows = np.zeros((64, 5, 2))
            return scorer.predict_batch(windows)
        """,
        "F1",
    )
    assert findings == []


def test_f1_suppressible_inline():
    findings = _lint(
        """
        import numpy as np
        from repro.nn.layers import Dense

        def go(rng):
            layer = Dense(4, 8, rng)
            x = np.zeros((3, 5))
            return layer.forward(x)  # deshlint: allow[F1] intentional for the test
        """,
        "F1",
    )
    assert findings == []


# ----------------------------------------------------------------------
# F2 — stage artifact flow
# ----------------------------------------------------------------------
_STAGE_PRELUDE = """
from repro.pipeline.stage import Stage
"""

_STAGE_TEMPLATE = """
class {cls}(Stage):
    name = "{name}"
    deps = {deps}
    terminal = {terminal}

    def config_payload(self):
        return {{}}

    def run(self, ctx){returns}:
        {body}

    def save(self, value, directory):
        pass

    def load(self, directory, ctx):
        return None
"""


def _stage(cls, name, deps=(), terminal=False, body="return 1", returns=""):
    return _STAGE_TEMPLATE.format(
        cls=cls,
        name=name,
        deps=repr(tuple(deps)),
        terminal=terminal,
        body=body,
        returns=returns,
    )


def test_f2_fires_on_undeclared_read():
    src = _STAGE_PRELUDE + _stage("AStage", "a", terminal=False) + _stage(
        "BStage", "b", deps=(), terminal=True, body='return ctx.value("a")'
    )
    findings = _lint(src, "F2")
    assert [f.rule for f in findings] == ["F2"]
    assert "without declaring it in deps" in findings[0].message


def test_f2_fires_on_consumed_but_never_produced():
    src = _STAGE_PRELUDE + _stage(
        "AStage", "a", terminal=True, body='return ctx.value("ghost")'
    ) + _stage("BStage", "b", deps=("a",), terminal=True)
    findings = _lint(src, "F2")
    messages = [f.message for f in findings]
    assert any("no stage produces" in m for m in messages)
    assert any("'ghost'" in m for m in messages)


def test_f2_fires_on_produced_but_never_consumed():
    src = _STAGE_PRELUDE + _stage("AStage", "a") + _stage(
        "BStage", "b", terminal=True
    )
    findings = _lint(src, "F2")
    assert len(findings) == 1
    assert "no other stage consumes" in findings[0].message
    assert "'a'" in findings[0].message


def test_f2_fires_on_producer_consumer_type_mismatch():
    src = _STAGE_PRELUDE + _stage(
        "AStage", "a", returns=" -> int", body="return 1"
    ) + _stage(
        "BStage",
        "b",
        deps=("a",),
        terminal=True,
        body='x: str = ctx.value("a")\n        return x',
    )
    findings = _lint(src, "F2")
    assert len(findings) == 1
    assert "reads 'a' as str" in findings[0].message
    assert "returns int" in findings[0].message


def test_f2_fires_on_duplicate_stage_names():
    src = _STAGE_PRELUDE + _stage("AStage", "a", terminal=True) + _stage(
        "A2Stage", "a", terminal=True
    )
    findings = _lint(src, "F2")
    assert any("duplicate stage name 'a'" in f.message for f in findings)


def test_f2_silent_on_consistent_dag_with_fingerprint_only_dep():
    # "b" declares dep "a" without reading it (fingerprint chaining, the
    # Phase3Stage pattern) — deliberately not a finding; Optional and
    # dotted spellings of the same artifact type are not mismatches.
    src = _STAGE_PRELUDE + "from typing import Optional\n" + _stage(
        "AStage", "a", returns=" -> Optional[int]", body="return 1"
    ) + _stage(
        "BStage",
        "b",
        deps=("a",),
        terminal=True,
        body='x: int = ctx.value("a")\n        return x',
    ) + _stage("CStage", "c", deps=("a",), terminal=True)
    findings = _lint(src, "F2")
    assert findings == []


def test_f2_accepts_ctx_inputs_subscript_reads():
    src = _STAGE_PRELUDE + _stage("AStage", "a") + _stage(
        "BStage",
        "b",
        deps=("a",),
        terminal=True,
        body='return ctx.inputs["a"]',
    )
    findings = _lint(src, "F2")
    assert findings == []


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
