"""Configuration dataclasses for every stage of the Desh pipeline.

Defaults follow Table 5 of the paper:

========  =====================  ====================  ===  =====  ===  =========================
Phase     Input vector           Output vector         #HL  Steps  #HS  Loss, Optimizer
========  =====================  ====================  ===  =====  ===  =========================
Phase 1   (P1, P2, .. PN)        (P11, P15, .. PN)      2     3     8   SGD, categorical CE
Phase 2   (dT1, P1), (dT2, P2)   (dT11, P11), ...       2     1     5   MSE, RMSprop
Phase 3   (dT4, P4), (dT5, P5)   (dT15, P15), ...       2     1     5   MSE, RMSprop
========  =====================  ====================  ===  =====  ===  =========================

Skip-gram window sizes 8 (left) and 3 (right), and the phase-3 failure
threshold MSE <= 0.5, are also from the paper (Sections 3.1 and 3.3).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = [
    "EmbeddingConfig",
    "Phase1Config",
    "Phase2Config",
    "Phase3Config",
    "DeshConfig",
    "validate_positive",
]


def validate_positive(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Raise :class:`ConfigError` unless *value* is positive (or >= 0)."""
    ok = value >= 0 if allow_zero else value > 0
    if not ok:
        bound = ">= 0" if allow_zero else "> 0"
        raise ConfigError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Skip-gram word-embedding hyperparameters (Section 3.1).

    ``window_left``/``window_right`` are the number of phrases considered to
    the left and right of a target phrase — 8 and 3 in the paper.
    """

    dim: int = 32
    window_left: int = 8
    window_right: int = 3
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.05
    min_learning_rate: float = 1e-4
    batch_size: int = 512

    def __post_init__(self) -> None:
        for name in ("dim", "window_left", "window_right", "negatives", "epochs", "batch_size"):
            validate_positive(name, getattr(self, name))
        validate_positive("learning_rate", self.learning_rate)
        validate_positive("min_learning_rate", self.min_learning_rate)
        if self.min_learning_rate > self.learning_rate:
            raise ConfigError("min_learning_rate must not exceed learning_rate")


@dataclass(frozen=True)
class Phase1Config:
    """Phase-1 LSTM: phrase-id sequence model (Table 5 row 1).

    2 hidden layers, history size 8, 3-step prediction, SGD + categorical
    cross-entropy.
    """

    hidden_size: int = 64
    hidden_layers: int = 2
    history_size: int = 8
    prediction_steps: int = 3
    epochs: int = 80
    batch_size: int = 128
    learning_rate: float = 1.0
    momentum: float = 0.9
    grad_clip: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "hidden_size",
            "hidden_layers",
            "history_size",
            "prediction_steps",
            "epochs",
            "batch_size",
        ):
            validate_positive(name, getattr(self, name))
        validate_positive("learning_rate", self.learning_rate)
        validate_positive("momentum", self.momentum, allow_zero=True)
        validate_positive("grad_clip", self.grad_clip)


@dataclass(frozen=True)
class Phase2Config:
    """Phase-2 LSTM: (dT, phrase) regressor on failure chains (Table 5 row 2).

    2 hidden layers, history size 5, 1-step prediction, MSE + RMSprop.
    """

    hidden_size: int = 64
    hidden_layers: int = 2
    history_size: int = 5
    prediction_steps: int = 1
    epochs: int = 400
    batch_size: int = 32
    learning_rate: float = 0.01
    rho: float = 0.9
    grad_clip: float = 5.0
    # Normalization cap for dT values (seconds); dT is scaled into [0, 1]
    # by this horizon before entering the network.
    max_lead_seconds: float = 600.0
    # Noise augmentation: each chain contributes `augment_copies` extra
    # window sets in which every input row is replaced, with probability
    # `corrupt_prob`, by a random (dT, phrase) vector.  Real chains are
    # interspersed with unrelated anomalous events; training on corrupted
    # copies teaches the LSTM to ignore them ("training is more robust
    # with noise" — Section 3.1).
    augment_copies: int = 2
    corrupt_prob: float = 0.15

    def __post_init__(self) -> None:
        for name in (
            "hidden_size",
            "hidden_layers",
            "history_size",
            "prediction_steps",
            "epochs",
            "batch_size",
        ):
            validate_positive(name, getattr(self, name))
        validate_positive("learning_rate", self.learning_rate)
        validate_positive("grad_clip", self.grad_clip)
        validate_positive("max_lead_seconds", self.max_lead_seconds)
        validate_positive("augment_copies", self.augment_copies, allow_zero=True)
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {self.rho!r}")
        if not 0.0 <= self.corrupt_prob < 1.0:
            raise ConfigError(
                f"corrupt_prob must be in [0, 1), got {self.corrupt_prob!r}"
            )


@dataclass(frozen=True)
class Phase3Config:
    """Phase-3 inference parameters (Section 3.3).

    ``mse_threshold`` — flag a failure when the match MSE against trained
    failure chains is at or below this value.  The paper uses 0.5 on its
    Cray data; the same empirical calibration procedure (pick the value
    separating trained-chain matches from "quite dissimilar" sequences)
    lands at 2.0 on the synthetic substrate, whose chain timing is
    noisier relative to its lead times.
    ``flag_position`` — the minimum number of anomalous events that must
    precede a flag; smaller values flag earlier, trading longer lead
    times for more false positives (the Figure 8 sensitivity knob).
    ``max_suffix_skip`` — how many leading episode events scoring may
    skip, so unrelated ambient anomalies swept into an episode's head do
    not mask a chain behind them.
    ``confirmation_windows`` — how many of an episode's windows must
    match trained chains (MSE at or below threshold) before the episode
    is flagged.  The flag's decision point — and hence the reported lead
    time — is the *first* matching window; requiring a second match
    suppresses single-event coincidences without shortening lead times.
    This is the sequence-level anomaly rule that distinguishes Desh from
    DeepLog's per-entry detection (Section 4.5).
    ``scoring_batch`` — ceiling on windows per LSTM call in the batched
    scoring path; larger flushes are chunked to bound the working set
    (chunking never changes scores — chunk boundaries avoid single-row
    GEMMs, so rows round identically regardless of chunk layout).
    """

    mse_threshold: float = 2.0
    history_size: int = 5
    flag_position: int = 0
    min_chain_events: int = 2
    max_suffix_skip: int = 3
    confirmation_windows: int = 2
    scoring_batch: int = 256

    def __post_init__(self) -> None:
        validate_positive("mse_threshold", self.mse_threshold)
        validate_positive("history_size", self.history_size)
        validate_positive("flag_position", self.flag_position, allow_zero=True)
        validate_positive("min_chain_events", self.min_chain_events)
        validate_positive("max_suffix_skip", self.max_suffix_skip, allow_zero=True)
        validate_positive("confirmation_windows", self.confirmation_windows)
        if self.scoring_batch < 2:
            raise ConfigError(
                f"scoring_batch must be >= 2, got {self.scoring_batch}"
            )


@dataclass(frozen=True)
class DeshConfig:
    """Top-level configuration bundling all pipeline stages.

    ``train_fraction`` follows the paper's 30/70 chronological split
    (Section 4: "30% of the data is used for training").

    ``model`` selects the model-zoo backbone family used by the phase-1
    classifier and the phase-2/3 regressor (``lstm`` — the paper's
    architecture — or ``tcn``); ``model_params`` carries
    family-specific hyperparameter overrides, validated against the
    family's registered schema.
    """

    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    phase1: Phase1Config = field(default_factory=Phase1Config)
    phase2: Phase2Config = field(default_factory=Phase2Config)
    phase3: Phase3Config = field(default_factory=Phase3Config)
    train_fraction: float = 0.30
    seed: int = 2018
    model: str = "lstm"
    model_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction!r}"
            )
        # Normalize to a plain dict so to_dict()/fingerprints serialize.
        object.__setattr__(self, "model_params", dict(self.model_params))
        # Imported lazily: repro.nn pulls in the full NumPy substrate,
        # which configuration-only callers should not pay for at import.
        from .nn.registry import get_model

        get_model(self.model).resolve_params(self.model_params)

    def replace(self, **kwargs: object) -> "DeshConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # serialization (pipeline fingerprints + full-model persistence)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable payload (inverse of :meth:`from_dict`).

        The nested phase configs serialize to plain dicts, so the result
        is stable input for both config files and cache fingerprints.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DeshConfig":
        """Rebuild a :class:`DeshConfig` from a :meth:`to_dict` payload."""
        try:
            return cls(
                embedding=EmbeddingConfig(**data["embedding"]),
                phase1=Phase1Config(**data["phase1"]),
                phase2=Phase2Config(**data["phase2"]),
                phase3=Phase3Config(**data["phase3"]),
                train_fraction=data["train_fraction"],
                seed=data["seed"],
                model=data.get("model", "lstm"),
                model_params=data.get("model_params", {}),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed DeshConfig payload: {exc}") from exc
