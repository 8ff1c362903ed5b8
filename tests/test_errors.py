"""Tests for the exception hierarchy."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.ConfigError,
    errors.TopologyError,
    errors.NodeIdError,
    errors.LogGenerationError,
    errors.ParseError,
    errors.TemplateMinerError,
    errors.VocabularyError,
    errors.LabelingError,
    errors.ShapeError,
    errors.NotFittedError,
    errors.TrainingError,
    errors.ChainExtractionError,
    errors.PredictionError,
    errors.DatasetError,
    errors.SerializationError,
    errors.IngestError,
    errors.CheckpointError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_errors_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_errors_are_catchable_as_repro_error(exc):
    with pytest.raises(errors.ReproError):
        raise exc("boom")


def test_node_id_error_is_topology_error():
    assert issubclass(errors.NodeIdError, errors.TopologyError)


def test_config_error_is_value_error():
    """Callers using stdlib idioms still catch config problems."""
    assert issubclass(errors.ConfigError, ValueError)


def test_vocabulary_error_is_key_error():
    assert issubclass(errors.VocabularyError, KeyError)


def test_not_fitted_error_is_runtime_error():
    assert issubclass(errors.NotFittedError, RuntimeError)


@pytest.mark.parametrize("exc", [errors.IngestError, errors.CheckpointError])
def test_resilience_errors_are_runtime_errors(exc):
    """Callers using stdlib idioms still catch operational failures."""
    assert issubclass(exc, RuntimeError)


def test_repro_error_does_not_catch_unrelated():
    with pytest.raises(ValueError):
        try:
            raise ValueError("plain")
        except errors.ReproError:  # pragma: no cover - must not trigger
            pytest.fail("ReproError must not catch plain ValueError")
