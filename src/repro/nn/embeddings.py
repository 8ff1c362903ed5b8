"""Skip-gram word embeddings with negative sampling (Section 3.1).

"These encoded phrases are then vectorized using word embeddings ... We
use the traditional skip-gram model [34] ... Window sizes of 8 and 3 are
used, respectively, to consider the number of phrases left and right of
a specific target phrase."

The trainer follows Mikolov et al.'s SGNS formulation: for a (center,
context) pair maximize ``log sigma(v_c . u_o)`` plus ``k`` negative
samples drawn from the unigram distribution raised to 3/4.  The whole
update is vectorized over a batch of pairs with fancy indexing and
flat ``np.add.at`` scatter-accumulation; no Python loop touches
individual pairs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import EmbeddingConfig
from ..errors import NotFittedError, ShapeError, TrainingError
from .activations import sigmoid
from .layers import scatter_add_rows

__all__ = ["SkipGramEmbedder"]


class SkipGramEmbedder:
    """Skip-gram with negative sampling over phrase-id sequences."""

    def __init__(
        self,
        vocab_size: int,
        config: EmbeddingConfig | None = None,
    ) -> None:
        if vocab_size < 2:
            raise ShapeError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size
        self.config = config if config is not None else EmbeddingConfig()
        self._in: np.ndarray | None = None  # center ("input") vectors
        self._out: np.ndarray | None = None  # context ("output") vectors

    # ------------------------------------------------------------------
    # pair extraction
    # ------------------------------------------------------------------
    def build_pairs(
        self, sequences: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(center, context) id pairs with the asymmetric 8-left/3-right window."""
        left, right = self.config.window_left, self.config.window_right
        centers, contexts = [], []
        for seq in sequences:
            seq = np.asarray(seq)
            if seq.ndim != 1:
                raise ShapeError(f"sequences must be 1-D, got shape {seq.shape}")
            if seq.size and (seq.min() < 0 or seq.max() >= self.vocab_size):
                raise ShapeError("phrase id out of vocabulary range")
            n = len(seq)
            if n < 2:
                continue
            for offset in range(1, left + 1):
                # context `offset` positions to the LEFT of the center
                centers.append(seq[offset:])
                contexts.append(seq[:-offset])
            for offset in range(1, right + 1):
                # context `offset` positions to the RIGHT of the center
                if offset < n:
                    centers.append(seq[:-offset])
                    contexts.append(seq[offset:])
        if not centers:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return (
            np.concatenate(centers).astype(np.int64),
            np.concatenate(contexts).astype(np.int64),
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        sequences: Sequence[np.ndarray],
        rng: np.random.Generator,
        counts: np.ndarray | None = None,
    ) -> "SkipGramEmbedder":
        """Train embeddings on per-node phrase-id sequences.

        Parameters
        ----------
        sequences:
            1-D int arrays of phrase ids (one per node).
        rng:
            Random generator (initialization, shuffling, negatives).
        counts:
            Optional phrase occurrence counts for the negative-sampling
            table; derived from the sequences when omitted.
        """
        cfg = self.config
        dim = cfg.dim
        centers, contexts = self.build_pairs(sequences)
        if len(centers) == 0:
            raise TrainingError("no skip-gram pairs; sequences too short")

        if counts is None:
            counts = np.bincount(
                np.concatenate([np.asarray(s) for s in sequences]),
                minlength=self.vocab_size,
            )
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (self.vocab_size,):
            raise ShapeError(
                f"counts must be ({self.vocab_size},), got {counts.shape}"
            )
        # Unigram^(3/4) negative-sampling distribution (Mikolov et al.).
        neg_probs = np.power(np.maximum(counts, 1.0), 0.75)
        neg_probs /= neg_probs.sum()

        w_in = (rng.random((self.vocab_size, dim)) - 0.5) / dim
        w_out = np.zeros((self.vocab_size, dim))

        n_pairs = len(centers)
        total_batches = max(1, cfg.epochs * -(-n_pairs // cfg.batch_size))
        batch_no = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(n_pairs)
            for start in range(0, n_pairs, cfg.batch_size):
                lr = max(
                    cfg.min_learning_rate,
                    cfg.learning_rate * (1.0 - batch_no / total_batches),
                )
                batch_no += 1
                idx = order[start : start + cfg.batch_size]
                self._sgns_step(
                    w_in, w_out, centers[idx], contexts[idx], neg_probs, rng, lr
                )

        self._in = w_in
        self._out = w_out
        return self

    def _sgns_step(
        self,
        w_in: np.ndarray,
        w_out: np.ndarray,
        c_ids: np.ndarray,
        o_ids: np.ndarray,
        neg_probs: np.ndarray,
        rng: np.random.Generator,
        lr: float,
    ) -> None:
        """One vectorized SGNS update over a batch of pairs."""
        k = self.config.negatives
        b = len(c_ids)
        v_c = w_in[c_ids]  # (B, D)
        u_o = w_out[o_ids]  # (B, D)

        # Positive samples: label 1.
        score_pos = sigmoid(np.einsum("bd,bd->b", v_c, u_o))
        g_pos = score_pos - 1.0  # dL/dscore
        d_vc = g_pos[:, None] * u_o
        d_uo = g_pos[:, None] * v_c

        # Negative samples: label 0, k per pair.
        n_ids = rng.choice(self.vocab_size, size=(b, k), p=neg_probs)
        u_n = w_out[n_ids]  # (B, K, D)
        score_neg = sigmoid(np.einsum("bd,bkd->bk", v_c, u_n))
        d_vc += np.einsum("bk,bkd->bd", score_neg, u_n)
        d_un = score_neg[:, :, None] * v_c[:, None, :]  # (B, K, D)

        # Scatter-accumulate: duplicate ids within a batch must sum.
        scatter_add_rows(w_in, c_ids, -lr * d_vc)
        scatter_add_rows(w_out, o_ids, -lr * d_uo)
        scatter_add_rows(w_out, n_ids, -lr * d_un)

    # ------------------------------------------------------------------
    # state round-tripping (pipeline artifacts, full-model persistence)
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The trained parameter arrays (inverse of :meth:`from_state`)."""
        if self._in is None or self._out is None:
            raise NotFittedError("SkipGramEmbedder.fit has not run")
        return {"w_in": self._in, "w_out": self._out}

    @classmethod
    def from_state(
        cls,
        w_in: np.ndarray,
        w_out: np.ndarray,
        config: EmbeddingConfig | None = None,
    ) -> "SkipGramEmbedder":
        """Rebuild a fitted embedder from its parameter arrays."""
        w_in = np.asarray(w_in, dtype=np.float64)
        w_out = np.asarray(w_out, dtype=np.float64)
        if w_in.ndim != 2 or w_in.shape != w_out.shape:
            raise ShapeError(
                f"w_in/w_out must be matching 2-D arrays, got "
                f"{w_in.shape} and {w_out.shape}"
            )
        embedder = cls(w_in.shape[0], config)
        embedder._in = w_in
        embedder._out = w_out
        return embedder

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def vectors(self) -> np.ndarray:
        """The trained center vectors, shape ``(vocab_size, dim)``."""
        if self._in is None:
            raise NotFittedError("SkipGramEmbedder.fit has not run")
        return self._in

    def _centered(self) -> np.ndarray:
        """Vectors with the vocabulary-mean direction removed.

        SGNS vectors share a large common component (all words co-occur
        with everything in small vocabularies); centering removes it so
        cosine similarity reflects the *relative* co-occurrence structure.
        """
        v = self.vectors
        return v - v.mean(axis=0, keepdims=True)

    def similarity(self, a: int, b: int) -> float:
        """Centered cosine similarity between two phrase vectors."""
        v = self._centered()
        va, vb = v[a], v[b]
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        if denom == 0.0:
            return 0.0
        return float(va @ vb / denom)
