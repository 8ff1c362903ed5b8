"""From-scratch NumPy neural-network substrate.

The paper's prototype uses Keras with a TensorFlow backend (Section 4);
this offline environment has neither, so this subpackage implements the
required pieces directly on NumPy with full backpropagation:

* :mod:`~repro.nn.lstm` — LSTM cell and stacked LSTM with BPTT,
* :mod:`~repro.nn.layers` — dense and embedding layers,
* :mod:`~repro.nn.losses` — categorical cross-entropy and MSE,
* :mod:`~repro.nn.optimizers` — SGD (momentum), RMSprop, Adam,
* :mod:`~repro.nn.embeddings` — skip-gram word2vec with negative sampling,
* :mod:`~repro.nn.model` — the sequence classifier / regressor models
  used by Desh phases 1 and 2-3 respectively,
* :mod:`~repro.nn.tcn` — causal dilated temporal-convolution backbone,
* :mod:`~repro.nn.registry` — the model zoo: named backbone families
  (``lstm``/``tcn``) behind one builder + schema registry,
* :mod:`~repro.nn.contracts` — runtime shape/dtype contracts on the
  layer forward/backward paths (compiled out under ``python -O``),
* :mod:`~repro.nn.batched` — the batch-major inference scoring core
  shared by phase 3, the streaming monitor, and the serving shards.

Everything is vectorized over the batch dimension (one fused gate matmul
per timestep), following the hpc-parallel guide's "vectorize the inner
loop" idiom.
"""

from .activations import sigmoid, sigmoid_infer, tanh, softmax, relu
from .batched import BatchedScorer
from .contracts import TensorSpec, parse_spec, tensor_contract
from .initializers import glorot_uniform, orthogonal
from .layers import Dense, Embedding
from .lstm import LSTMCell, StackedLSTM
from .losses import CategoricalCrossEntropy, MeanSquaredError
from .optimizers import SGD, RMSprop, Adam, clip_gradients
from .embeddings import SkipGramEmbedder
from .model import SequenceClassifier, SequenceRegressor
from .registry import (
    HyperParam,
    ModelFamily,
    build_backbone,
    get_model,
    registered_models,
)
from .tcn import CausalConv1d, TCNBackbone, TemporalBlock
from .data import sliding_windows, multi_step_targets, batch_iterator
from .metrics import perplexity, topk_accuracy

__all__ = [
    "TensorSpec",
    "parse_spec",
    "tensor_contract",
    "CausalConv1d",
    "TCNBackbone",
    "TemporalBlock",
    "HyperParam",
    "ModelFamily",
    "build_backbone",
    "get_model",
    "registered_models",
    "sigmoid",
    "sigmoid_infer",
    "BatchedScorer",
    "tanh",
    "softmax",
    "relu",
    "glorot_uniform",
    "orthogonal",
    "Dense",
    "Embedding",
    "LSTMCell",
    "StackedLSTM",
    "CategoricalCrossEntropy",
    "MeanSquaredError",
    "SGD",
    "RMSprop",
    "Adam",
    "clip_gradients",
    "SkipGramEmbedder",
    "SequenceClassifier",
    "SequenceRegressor",
    "sliding_windows",
    "multi_step_targets",
    "batch_iterator",
    "perplexity",
    "topk_accuracy",
]
