"""Cumulative delta-time computation and (dT, phrase) vector encoding.

Section 3.2, Table 4: "we sort the data in descending order of
timestamps and calculate dTs, which is the cumulative time difference
between the current phrase and the last phrase (highest order) in the
sequence.  The highest timestamped phrase in the sequence is assigned
dT = 0."

For LSTM consumption the 2-state vectors are normalized into [0, 1]:
dT by a fixed lead-time horizon, the phrase id by the vocabulary size.
Using a *fixed* horizon (rather than per-chain max) keeps the encoding
invertible, so a predicted dT decodes back into seconds — that decoded
value is the predicted lead time of phase 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

__all__ = ["chain_to_deltas", "LeadTimeScaler"]


def chain_to_deltas(timestamps: np.ndarray) -> np.ndarray:
    """Cumulative dT of each event to the last event of the sequence.

    >>> chain_to_deltas(np.array([10.0, 12.0, 15.0]))
    array([5., 3., 0.])
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.ndim != 1 or len(timestamps) == 0:
        raise ShapeError(f"timestamps must be non-empty 1-D, got {timestamps.shape}")
    if np.any(np.diff(timestamps) < 0):
        raise ShapeError("timestamps must be non-decreasing")
    return timestamps[-1] - timestamps


@dataclass(frozen=True)
class LeadTimeScaler:
    """Invertible normalization between event sequences and LSTM vectors.

    Attributes
    ----------
    max_lead_seconds:
        dT normalization horizon; dTs are clipped to it (a chain longer
        than the horizon saturates, it does not wrap).
    vocab_size:
        Phrase ids are scaled by this into [0, 1).
    """

    max_lead_seconds: float
    vocab_size: int
    id_scale: float = 4.0

    def __post_init__(self) -> None:
        if self.max_lead_seconds <= 0:
            raise ShapeError("max_lead_seconds must be > 0")
        if self.vocab_size < 2:
            raise ShapeError("vocab_size must be >= 2")
        if self.id_scale <= 0:
            raise ShapeError("id_scale must be > 0")

    # ------------------------------------------------------------------
    def encode(self, deltas: np.ndarray, phrase_ids: np.ndarray) -> np.ndarray:
        """Build the ``(T, 2)`` normalized vector sequence.

        Column 0 is the normalized dT, column 1 the normalized phrase id
        — the 2-state input vector of Table 5, phases 2-3.
        """
        deltas = np.asarray(deltas, dtype=np.float64)
        phrase_ids = np.asarray(phrase_ids)
        if deltas.shape != phrase_ids.shape or deltas.ndim != 1:
            raise ShapeError(
                f"deltas {deltas.shape} and phrase_ids {phrase_ids.shape} "
                "must be matching 1-D arrays"
            )
        if np.any(deltas < 0):
            raise ShapeError("deltas must be >= 0")
        if phrase_ids.size and (
            phrase_ids.min() < 0 or phrase_ids.max() >= self.vocab_size
        ):
            raise ShapeError("phrase id out of vocabulary range")
        out = np.empty((len(deltas), 2), dtype=np.float64)
        out[:, 0] = np.clip(deltas / self.max_lead_seconds, 0.0, 1.0)
        # id_scale spreads the phrase dimension to [0, id_scale) so the
        # training MSE weights exact phrase identity appropriately — with
        # a unit range, adjacent phrase ids sit only 1/vocab apart and the
        # optimizer under-prioritizes them relative to dT.
        out[:, 1] = phrase_ids / self.vocab_size * self.id_scale
        return out

    def encode_chain(
        self, timestamps: np.ndarray, phrase_ids: np.ndarray
    ) -> np.ndarray:
        """Encode a time-ordered (timestamps, phrases) sequence directly."""
        return self.encode(chain_to_deltas(timestamps), phrase_ids)

    # ------------------------------------------------------------------
    def decode_lead_seconds(self, normalized_dt: float | np.ndarray) -> np.ndarray:
        """Invert the dT normalization back into seconds."""
        return np.clip(np.asarray(normalized_dt, dtype=np.float64), 0.0, 1.0) * (
            self.max_lead_seconds
        )

    # ------------------------------------------------------------------
    def mse_paper_units(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-sample MSE in the paper's vector units.

        The paper's MSE <= 0.5 threshold (Section 3.3) operates on raw
        2-state vectors: dT in *minutes* and the *integer* phrase id.  In
        those units a single-id phrase mismatch alone contributes 1/2 to
        the two-dimensional MSE, so 0.5 effectively demands an exact
        phrase match with dT error below about a minute.  Training uses
        normalized vectors for conditioning; this method converts both
        *pred* and *target* (normalized ``(N, 2)`` arrays) back to paper
        units before computing the per-sample MSE.
        """
        pred = np.asarray(pred, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if pred.shape != target.shape or pred.ndim != 2 or pred.shape[1] != 2:
            raise ShapeError(
                f"pred/target must be matching (N, 2) arrays, got "
                f"{pred.shape} and {target.shape}"
            )
        dt_err = (pred[:, 0] - target[:, 0]) * (self.max_lead_seconds / 60.0)
        id_err = (pred[:, 1] - target[:, 1]) * self.vocab_size / self.id_scale
        return 0.5 * (dt_err * dt_err + id_err * id_err)
