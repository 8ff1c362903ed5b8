"""Cross-cutting property-based tests (hypothesis).

These target invariants that hold for *any* valid input, complementing
the per-module example-based tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chains import segment_episodes
from repro.core.deltas import LeadTimeScaler, chain_to_deltas
from repro.events import EventSequence, Label, ParsedEvent
from repro.nn.activations import softmax
from repro.nn.data import sliding_windows_continuous
from repro.parsing.tokenizer import mask_message
from repro.topology import ClusterTopology, CrayNodeId

NODE = CrayNodeId(0, 0, 0, 0, 0)


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------
printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=80
)


@given(printable)
def test_masking_is_idempotent(message):
    once = mask_message(message)
    assert mask_message(once) == once


@given(printable)
def test_masking_never_raises_and_shrinks_or_holds_tokens(message):
    masked = mask_message(message)
    # Masking never invents additional whitespace-separated tokens beyond
    # splitting existing ones; token count can only stay or shrink.
    assert len(masked.split(" ")) <= max(len(message.split()), 1)


# ----------------------------------------------------------------------
# deltas / scaler
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=30),
)
def test_deltas_antitone_and_anchored(times):
    ts = np.sort(np.asarray(times))
    deltas = chain_to_deltas(ts)
    assert deltas[-1] == 0.0
    assert np.all(np.diff(deltas) <= 1e-9)


@given(
    st.integers(2, 200),
    st.floats(1.0, 10_000.0),
    st.floats(0.1, 16.0),
)
def test_scaler_round_trip_any_config(vocab, horizon, id_scale):
    scaler = LeadTimeScaler(horizon, vocab, id_scale=id_scale)
    ids = np.arange(vocab)
    enc = scaler.encode(np.zeros(vocab), ids)
    assert np.array_equal(scaler.decode_phrase_id(enc[:, 1]), ids)


@given(st.integers(2, 100))
def test_paper_mse_zero_iff_equal(vocab):
    scaler = LeadTimeScaler(600.0, vocab)
    v = scaler.encode(np.array([10.0, 0.0]), np.array([0, vocab - 1]))
    assert np.allclose(scaler.mse_paper_units(v, v), 0.0)


# ----------------------------------------------------------------------
# episode segmentation
# ----------------------------------------------------------------------
@st.composite
def anomalous_sequences(draw):
    n = draw(st.integers(0, 25))
    times = sorted(draw(st.lists(st.floats(0, 1e5), min_size=n, max_size=n)))
    events = []
    for i, t in enumerate(times):
        terminal = draw(st.booleans()) and draw(st.booleans())  # ~25%
        events.append(
            ParsedEvent(
                timestamp=t,
                phrase_id=draw(st.integers(0, 10)),
                node=NODE,
                label=Label.ERROR if terminal else Label.UNKNOWN,
                terminal=terminal,
            )
        )
    return EventSequence(NODE, events)


@given(anomalous_sequences(), st.floats(1.0, 1e4))
@settings(max_examples=60)
def test_episode_partition_properties(seq, gap):
    episodes = segment_episodes(seq, gap=gap, min_events=1)
    # Episodes partition the anomalous events (min_events=1 keeps all).
    total = sum(len(e) for e in episodes)
    assert total == len(seq)
    for ep in episodes:
        times = ep.timestamps()
        # intra-episode gaps bounded...
        assert np.all(np.diff(times) <= gap + 1e-6)
        # ...and terminals only ever in final position.
        for event in ep.events[:-1]:
            assert not event.terminal


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 3))
def test_continuous_window_count(t, history, steps):
    seq = np.arange(t * 2, dtype=float).reshape(t, 2)
    x, y = sliding_windows_continuous(seq, history, steps)
    assert len(x) == max(0, t - history - steps + 1)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@given(
    st.integers(1, 4),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_topology_enumeration_bijective(cols, rows, chassis, slots, blades):
    topo = ClusterTopology(cols, rows, chassis, slots, blades)
    seen = set()
    for i in range(topo.num_nodes):
        node = topo.node_at(i)
        assert topo.index_of(node) == i
        seen.add(node)
    assert len(seen) == topo.num_nodes


# ----------------------------------------------------------------------
# nn numerics
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=30
    )
)
def test_softmax_is_distribution(xs):
    p = softmax(np.array(xs))
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
