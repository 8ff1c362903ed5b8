"""Full-model persistence: a saved Desh model that loses nothing.

The pre-pipeline ``cli.save_model`` kept only the phase-2 regressor,
the vocabulary and the scaler — a loaded "model" could score episodes
but had lost its phase-1 artifacts, its failure chains and its failure
classifier, so it could neither classify warnings nor learn online via
``DeshModel.update``.  :func:`save_model` persists every component and
:func:`load_model` restores a :class:`~repro.core.desh.DeshModel` whose
``warn()`` output is identical to the model that was saved.

Directory layout (format 3; a superset of the legacy format-1 layout).
Format 3 adds the model-zoo identity (``meta.json``'s ``model`` field +
per-network backbone metadata inside the npz payloads); format-2
directories — written before the zoo existed — load fine and are
treated as ``lstm``::

    meta.json                scaler params, counters, format marker
    config.json              the full DeshConfig
    vocab.json               phrase vocabulary (rebuilds the parser)
    phase2.npz               trained lead-time regressor
    phase2.json              phase-2 counters + loss history
    embedder.npz             skip-gram embedding matrices
    phase1.json              phase-1 accuracy/losses (+ classifier flag)
    phase1_classifier.npz    phrase-sequence LSTM (when trained)
    chains.npz               extracted failure chains
    failure_classifier.npz   Table-7 class profiles (or absence marker)

Not persisted: ``phase1.sequences`` (the raw training event streams) —
they are training-data residue no inference or update path reads;
loaded models carry an empty list there.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..config import DeshConfig
from ..core.deltas import LeadTimeScaler
from ..core.phase1 import Phase1Result
from ..core.phase3 import Phase3Predictor
from ..errors import SerializationError
from ..nn.model import SequenceClassifier, SequenceRegressor
from ..nn.registry import get_model
from ..parsing.encoder import PhraseVocabulary
from ..parsing.pipeline import LogParser
from . import serialize

__all__ = ["save_model", "load_model", "MODEL_FORMAT"]

MODEL_FORMAT = 3

#: Oldest directory format :func:`load_model` still accepts.  Format 2
#: predates the model zoo; its networks are implicitly ``lstm``.
_MIN_LOAD_FORMAT = 2


def save_model(model, directory: str | Path) -> None:
    """Persist a trained :class:`DeshModel` completely (format 3)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    model.phase2.regressor.save(directory / "phase2.npz")
    model.parser.vocab.save(directory / "vocab.json")
    serialize.write_json(
        directory / "meta.json",
        {
            "format": MODEL_FORMAT,
            "max_lead_seconds": model.phase2.scaler.max_lead_seconds,
            "vocab_size": model.phase2.scaler.vocab_size,
            "id_scale": model.phase2.scaler.id_scale,
            "num_chains": model.num_chains,
            "config_seed": model.config.seed,
            "model": model.config.model,
            "model_params": dict(model.config.model_params),
        },
    )
    serialize.write_json(directory / "config.json", model.config.to_dict())
    serialize.write_json(
        directory / "phase2.json",
        {
            "num_chains": model.phase2.num_chains,
            "num_windows": model.phase2.num_windows,
            "losses": [float(v) for v in model.phase2.losses],
        },
    )
    serialize.save_embedder(directory / "embedder.npz", model.phase1.embedder)
    if model.phase1.classifier is not None:
        model.phase1.classifier.save(directory / "phase1_classifier.npz")
    serialize.write_json(
        directory / "phase1.json",
        {
            "has_classifier": model.phase1.classifier is not None,
            "train_accuracy": model.phase1.train_accuracy,
            "losses": [float(v) for v in model.phase1.losses],
        },
    )
    serialize.save_chains(directory / "chains.npz", model.phase1.chains)
    serialize.save_failure_classifier(
        directory / "failure_classifier.npz", model.classifier
    )


def load_model(directory: str | Path):
    """Restore a complete :class:`DeshModel` saved by :func:`save_model`.

    Raises :class:`SerializationError` for legacy (format-1) model
    directories, which lack the phase-1/chain/classifier payloads and
    cannot be restored; retrain and save them again.
    """
    from ..core.desh import DeshModel
    from ..core.phase2 import Phase2Result

    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        raise SerializationError(f"unreadable model metadata {meta_path}") from exc
    if meta.get("format", 1) < _MIN_LOAD_FORMAT:
        raise SerializationError(
            f"{directory} holds a legacy (lossy) model directory; "
            "retrain it and save it with save_model"
        )
    # Validate the manifest's model family before touching any weights:
    # a garbled name must surface as ConfigError naming the registry,
    # not as a KeyError from deep inside deserialization.
    get_model(str(meta.get("model", "lstm")))
    config = DeshConfig.from_dict(
        serialize.read_json(directory / "config.json")
    )
    vocab = PhraseVocabulary.load(directory / "vocab.json")
    parser = LogParser.from_vocabulary(vocab)

    phase2_meta = serialize.read_json(directory / "phase2.json")
    phase2 = Phase2Result(
        regressor=SequenceRegressor.load(directory / "phase2.npz"),
        scaler=LeadTimeScaler(
            max_lead_seconds=float(meta["max_lead_seconds"]),
            vocab_size=int(meta["vocab_size"]),
            id_scale=float(meta["id_scale"]),
        ),
        num_chains=int(phase2_meta["num_chains"]),
        num_windows=int(phase2_meta["num_windows"]),
        losses=[float(v) for v in phase2_meta["losses"]],
    )

    phase1_meta = serialize.read_json(directory / "phase1.json")
    classifier = None
    if phase1_meta["has_classifier"]:
        classifier = SequenceClassifier.load(
            directory / "phase1_classifier.npz"
        )
    phase1 = Phase1Result(
        embedder=serialize.load_embedder(directory / "embedder.npz", config),
        classifier=classifier,
        chains=serialize.load_chains(directory / "chains.npz"),
        sequences=[],
        train_accuracy=float(phase1_meta["train_accuracy"]),
        losses=[float(v) for v in phase1_meta["losses"]],
    )

    predictor = Phase3Predictor(
        phase2.regressor,
        phase2.scaler,
        config=config.phase3,
        episode_gap=config.phase2.max_lead_seconds,
    )
    return DeshModel(
        config=config,
        parser=parser,
        phase1=phase1,
        phase2=phase2,
        predictor=predictor,
        classifier=serialize.load_failure_classifier(
            directory / "failure_classifier.npz"
        ),
    )
