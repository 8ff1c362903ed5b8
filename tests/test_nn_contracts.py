"""Runtime tensor-contract tests: spec parsing, dim binding, layer wiring,
and the ``python -O`` compile-out guarantee."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ContractError, ShapeError
from repro.nn import Dense, Embedding, LSTMCell, StackedLSTM
from repro.nn.contracts import parse_spec, tensor_contract

RNG = np.random.default_rng


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestParseSpec:
    def test_parses_input_and_output(self):
        inp, out = parse_spec("(B, T, input_size):float -> (B, T, hidden_size):float")
        assert inp.dims == ("B", "T", "input_size")
        assert out.dims == ("B", "T", "hidden_size")
        assert inp.dtype is np.floating

    def test_parses_ellipsis_lead(self):
        inp, out = parse_spec("(..., in_dim):float -> (..., out_dim):float")
        assert inp.ellipsis_lead
        assert inp.dims == ("in_dim",)

    def test_none_output(self):
        inp, out = parse_spec("(..., dim):float -> None")
        assert out is None

    def test_rejects_garbage(self):
        for bad in ("no arrow", "(a:float", "(a) -> (b):complex", "-> (b):float"):
            with pytest.raises(ContractError):
                parse_spec(bad)


# ----------------------------------------------------------------------
# Decorator semantics on a toy class
# ----------------------------------------------------------------------
class Toy:
    def __init__(self):
        self.width = 3

    @tensor_contract("(B, width):float -> (B, width):float")
    def ok(self, x):
        return x

    @tensor_contract("(B, width):float -> (B, width):float")
    def shrinks(self, x):
        return x[:-1]

    @tensor_contract("(B, width):float -> (B, width):int")
    def wrong_dtype(self, x):
        return x


class TestDecorator:
    def test_passes_matching_tensor(self):
        x = np.zeros((4, 3))
        assert Toy().ok(x) is x

    def test_owner_attribute_pins_dim(self):
        with pytest.raises(ContractError, match="width"):
            Toy().ok(np.zeros((4, 5)))

    def test_free_dim_binds_on_first_use(self):
        # B is free: bound from the input, so a shrunken output fails.
        with pytest.raises(ContractError, match="B"):
            Toy().shrinks(np.zeros((4, 3)))

    def test_output_dtype_checked(self):
        with pytest.raises(ContractError, match="int"):
            Toy().wrong_dtype(np.zeros((4, 3)))

    def test_coercible_list_is_checked_like_an_array(self):
        # Lists are coerced (Embedding accepts id lists), then checked.
        with pytest.raises(ContractError, match="width"):
            Toy().ok([[1.0, 2.0]])

    def test_object_input_fails_dtype_check(self):
        with pytest.raises(ContractError, match="dtype"):
            Toy().ok([["a", "b", "c"]])

    def test_contract_error_is_shape_error(self):
        # Pre-contract callers catching ShapeError keep working.
        assert issubclass(ContractError, ShapeError)

    def test_spec_stored_on_wrapper(self):
        assert Toy.ok.__tensor_contract__ == "(B, width):float -> (B, width):float"


# ----------------------------------------------------------------------
# The real layers are wired with contracts
# ----------------------------------------------------------------------
class TestLayerContracts:
    def test_dense_rejects_wrong_trailing_dim(self):
        d = Dense(4, 2, RNG(0))
        with pytest.raises(ShapeError):
            d.forward(np.zeros((2, 5)))

    def test_dense_rejects_int_input(self):
        d = Dense(4, 2, RNG(0))
        with pytest.raises(ContractError, match="float"):
            d.forward(np.zeros((2, 4), dtype=np.int64))

    def test_embedding_rejects_float_ids(self):
        e = Embedding(10, 4, RNG(0))
        with pytest.raises(ContractError, match="int"):
            e.forward(np.zeros((2, 3)))

    def test_lstm_cell_contract_names_owner_dims(self):
        cell = LSTMCell(4, 8, RNG(0))
        with pytest.raises(ShapeError):
            cell.forward(np.zeros((2, 5, 3)))

    def test_stacked_lstm_roundtrip_respects_contracts(self):
        net = StackedLSTM(4, 8, 2, RNG(0))
        x = RNG(1).normal(size=(2, 5, 4))
        h = net.forward(x)
        assert h.shape == (2, 5, 8)
        dx = net.backward(np.ones_like(h))
        assert dx.shape == x.shape

    def test_batch_dim_consistency_across_call(self):
        # B binds from the input; a mismatched upstream gradient fails
        # inside backward's own contract (B/T consistency per call).
        cell = LSTMCell(4, 8, RNG(0))
        cell.forward(RNG(1).normal(size=(2, 5, 4)))
        with pytest.raises(ShapeError):
            cell.backward(np.ones((3, 5, 8)))


# ----------------------------------------------------------------------
# python -O compiles the contracts out
# ----------------------------------------------------------------------
def test_contracts_compiled_out_under_dash_O():
    src_dir = Path(repro.__file__).resolve().parents[1]
    probe = textwrap.dedent(
        """
        import numpy as np
        from repro.nn import Dense
        from repro.nn.contracts import tensor_contract

        d = Dense(4, 2, np.random.default_rng(0))
        assert not hasattr(d.forward, "__tensor_contract__")
        assert tensor_contract("(B, x):float -> (B, x):float")(len) is len
        # The layer's own hand-written check still guards shapes.
        try:
            d.forward(np.zeros((2, 5)))
        except Exception as exc:
            assert type(exc).__name__ == "ShapeError", exc
        else:
            raise AssertionError("expected ShapeError under -O")
        print("OK")
        """
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout


def test_wrapper_exposes_spec_string():
    from repro.nn.layers import Dense, Embedding
    from repro.nn.lstm import LSTMCell, StackedLSTM

    spec = Dense.forward.__tensor_contract__
    assert spec == "(..., in_dim):float -> (..., out_dim):float"
    for cls in (Embedding, LSTMCell, StackedLSTM):
        for method in ("forward", "backward"):
            assert isinstance(getattr(cls, method).__tensor_contract__, str)


# ----------------------------------------------------------------------
# Multi-group specs: a side is one group, never a list of groups
# ----------------------------------------------------------------------
class TestMultiGroupSpecs:
    def test_rejects_multi_group_sides(self):
        for bad in (
            "(B, I):float, (B, H):float -> (B, H):float",
            "(B, I):float -> (B, H):float, (B, H):float",
        ):
            with pytest.raises(ContractError):
                parse_spec(bad)

    def test_parses_integer_literal_dims(self):
        inp, _ = parse_spec("(num_layers, 2, B, H):float -> None")
        assert inp.dims == ("num_layers", 2, "B", "H")

    def test_rejects_unbalanced_groups(self):
        for bad in ("(a):float, (b:float -> (c):float", "(a, (b)):float -> None"):
            with pytest.raises(ContractError):
                parse_spec(bad)
