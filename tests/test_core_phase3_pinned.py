"""Pinned phase-3 behaviour on the session's mini model.

Two guards for refactors of the offline scoring path:

* the exact ``evaluate_model`` confusion counts and true-positive lead
  times on the small fixture log (fixed seeds), so any shift in the
  Table-6 numbers shows up as a deliberate re-baseline;
* ``score_episode`` verdicts against a test-local reference loop that
  scores every suffix with the training forward
  (``SequenceRegressor.forward``) over the ``encode_chain`` ->
  ``pad_vectors`` -> ``sliding_windows_continuous`` encoding.
"""

import numpy as np
import pytest

from repro.analysis import evaluate_model
from repro.core.chains import segment_episodes
from repro.core.phase2 import pad_vectors
from repro.nn.data import sliding_windows_continuous

PINNED_COUNTS = {"tp": 37, "fp": 2, "fn": 18, "tn": 45}
PINNED_LEADS = [
    102.99323, 127.453003, 112.173782, 89.746401, 127.978253, 32.155798,
    97.578841, 113.002857, 112.15132, 108.964621, 98.506805, 94.345663,
    30.145911, 135.409622, 133.178656, 132.436372, 118.99641, 102.641033,
    62.658888, 18.412138, 81.533646, 35.618891, 26.167832, 129.408013,
    116.162794, 36.722374, 121.184585, 115.116987, 37.999447, 122.198393,
    103.067311, 81.030642, 119.277547, 116.90718, 121.3096, 132.201107,
    110.891137,
]


@pytest.fixture(scope="module")
def pinned_result(trained_model, test_split):
    return evaluate_model(
        trained_model, list(test_split.records), test_split.ground_truth
    )


class TestPinnedEvaluation:
    def test_confusion_counts(self, pinned_result):
        c = pinned_result.counts
        assert {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn} == PINNED_COUNTS

    def test_true_positive_lead_times(self, pinned_result):
        leads = pinned_result.lead_times()
        assert leads.tolist() == pytest.approx(PINNED_LEADS, abs=1e-6)


def _reference_verdict(predictor, episode):
    """``(flagged, decision_index, mse)`` via one training forward per suffix."""
    cfg = predictor.config
    history = cfg.history_size
    all_ts = episode.timestamps()
    all_ids = episode.phrase_ids()
    best_mse = float("inf")
    best = None
    max_skip = min(cfg.max_suffix_skip, len(episode) - cfg.min_chain_events)
    for skip in range(max_skip + 1):
        ts = all_ts[skip:]
        vectors = predictor.scaler.encode_chain(ts, all_ids[skip:])
        padded = pad_vectors(vectors, len(vectors) + history)
        pad_len = len(padded) - len(vectors)
        x, y = sliding_windows_continuous(padded, history, 1)
        mses = predictor.scaler.mse_paper_units(
            predictor.regressor.forward(x), y[:, 0, :]
        )
        best_mse = min(best_mse, float(np.min(mses)))
        real_idx = np.arange(len(mses)) + history - pad_len
        hits = np.nonzero(
            (real_idx >= cfg.flag_position)
            & (real_idx < len(ts))
            & (mses <= cfg.mse_threshold)
        )[0]
        if len(hits) >= cfg.confirmation_windows:
            first = int(hits[0])
            decision_index = skip + first + history - pad_len
            if best is None or decision_index < best[1]:
                best = (True, decision_index, float(mses[first]))
    return best if best is not None else (False, -1, best_mse)


class TestScoreEpisodeReference:
    def test_verdicts_match_training_forward_loop(
        self, trained_model, test_split
    ):
        predictor = trained_model.predictor
        parsed = trained_model.parse(test_split.records)
        episodes = [
            episode
            for seq in parsed.by_node().values()
            if seq.node is not None
            for episode in segment_episodes(
                seq,
                gap=predictor.episode_gap,
                min_events=predictor.config.min_chain_events,
            )
        ]
        assert episodes
        flagged = 0
        for episode in episodes:
            verdict = predictor.score_episode(episode)
            flag, decision_index, mse = _reference_verdict(predictor, episode)
            assert verdict.flagged == flag
            assert verdict.decision_index == decision_index
            assert verdict.mse == pytest.approx(mse, rel=0, abs=1e-9)
            flagged += flag
        assert flagged
