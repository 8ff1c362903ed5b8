"""Failure-class attribution for predicted failures.

Table 7 groups node failures into six classes by "their predominant
context of failures ... investigating various chains leading to failed
nodes and determining the prominent phrases causing anomalous node
shutdowns".  This module operationalizes that grouping: a
:class:`FailureClassifier` learns, from the phase-1 failure chains and
(during evaluation) their ground-truth classes, which phrases are
prominent in which class, and attributes a class to any new episode by
nearest phrase-profile match.

This powers richer operator warnings — *"node X fails in 2 minutes,
likely a machine-check exception"* — and the per-class lead-time benches.
The classifier is deliberately simple (per-class phrase frequency
profiles with cosine matching): the paper's classes are defined by
phrase membership, not by sequence dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..errors import NotFittedError, TrainingError
from ..simlog.faults import FailureClass
from .chains import Episode, FailureChain

__all__ = ["FailureClassifier", "keyword_class_rules", "classify_by_keywords"]


#: Phrase-fragment rules mirroring Table 7's class descriptions.  Used to
#: bootstrap class labels for training chains when no ground truth is
#: available (the realistic deployment path).
_KEYWORD_RULES: tuple[tuple[FailureClass, tuple[str, ...]], ...] = (
    (FailureClass.MCE, ("Machine Check", "MCE", "Memory Errors", "DIMM", "mce")),
    (
        FailureClass.FILESYSTEM,
        ("Lustre", "LNet", "Lnet", "DVS", "gnilnd", "OST"),
    ),
    (
        FailureClass.JOB,
        ("slurm", "Slurm", "oom", "Killed process", "CANCELLED"),
    ),
    (FailureClass.TRAPS, ("segfault", "Trap", "invalid", "Oops")),
    (
        FailureClass.HARDWARE,
        ("NMI", "heartbeat", "hwerr", "AER", "critical h/w", "ASIC"),
    ),
    (FailureClass.PANIC, ("panic", "Call Trace", "Stack")),
)


def keyword_class_rules() -> Mapping[FailureClass, tuple[str, ...]]:
    """The Table-7 keyword rules, class -> phrase fragments."""
    return {cls: frags for cls, frags in _KEYWORD_RULES}


def classify_by_keywords(
    phrases: Sequence[str],
) -> Optional[FailureClass]:
    """Attribute a class to a phrase list by keyword votes.

    Every rule fragment found in any phrase scores one vote for its
    class; Panic keywords are down-weighted because panics terminate
    *many* classes' chains (a trap chain also ends in a stack trace).
    Returns ``None`` when nothing matches.
    """
    votes: dict[FailureClass, float] = {cls: 0.0 for cls in FailureClass}
    for phrase in phrases:
        for cls, fragments in _KEYWORD_RULES:
            weight = 0.5 if cls is FailureClass.PANIC else 1.0
            for fragment in fragments:
                if fragment in phrase:
                    votes[cls] += weight
    best = max(votes, key=lambda c: votes[c])
    return best if votes[best] > 0 else None


class FailureClassifier:
    """Per-class phrase-frequency profiles with cosine matching."""

    def __init__(self, vocab_size: int) -> None:
        if vocab_size < 2:
            raise TrainingError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size
        self._profiles: Optional[dict[FailureClass, np.ndarray]] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        chains: Sequence[FailureChain],
        labels: Sequence[FailureClass],
    ) -> "FailureClassifier":
        """Build class profiles from labeled failure chains."""
        if len(chains) != len(labels):
            raise TrainingError(
                f"chains/labels length mismatch: {len(chains)} vs {len(labels)}"
            )
        if not chains:
            raise TrainingError("FailureClassifier received no chains")
        profiles = {
            cls: np.zeros(self.vocab_size, dtype=np.float64) for cls in FailureClass
        }
        for chain, label in zip(chains, labels):
            ids = chain.phrase_ids()
            profiles[label] += np.bincount(ids, minlength=self.vocab_size)
        for cls, vec in profiles.items():
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec /= norm
        self._profiles = profiles
        return self

    def fit_with_keywords(
        self,
        chains: Sequence[FailureChain],
        vocab_texts: Sequence[str],
    ) -> "FailureClassifier":
        """Fit from chains alone, bootstrapping labels via keyword rules.

        Chains no rule matches are dropped (rare: every Table-7 class has
        distinctive phrases).
        """
        labeled_chains: list[FailureChain] = []
        labels: list[FailureClass] = []
        for chain in chains:
            phrases = [vocab_texts[int(i)] for i in chain.phrase_ids()]
            cls = classify_by_keywords(phrases)
            if cls is not None:
                labeled_chains.append(chain)
                labels.append(cls)
        return self.fit(labeled_chains, labels)

    # ------------------------------------------------------------------
    def classify(self, episode: Episode | FailureChain) -> FailureClass:
        """The nearest class profile for an episode's phrase histogram."""
        if self._profiles is None:
            raise NotFittedError("FailureClassifier.fit has not run")
        ids = episode.phrase_ids()
        vec = np.bincount(ids, minlength=self.vocab_size).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        scores = {
            cls: float(vec @ profile) for cls, profile in self._profiles.items()
        }
        return max(scores, key=lambda c: scores[c])
