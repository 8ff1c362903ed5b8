"""F1 — shape flow: abstract interpretation of tensor shapes.

For every function in a module, the analysis builds a CFG, runs the
shape domain to a fixpoint with the worklist solver, and then replays
each block's statements against its entry state to *report*: at every
call of a contracted layer method (``Dense.forward`` and friends, per
the declared ``@tensor_contract`` specs) the inferred abstract shape of
the argument is checked against the input spec, and the call's result
takes the output spec's shape.  Contracted methods additionally seed
their own parameter from the input spec and check ``return`` values
against the output spec.

Shapes originate from NumPy constructors (``np.zeros((3, 5))``),
``reshape``, shape-tuple unpacking (``B, T, _ = x.shape``), slicing,
and contract outputs; layer constructors bind spec identifiers
(``Dense(4, 8, rng)`` pins ``in_dim=4``).  Everything else evaluates to
unknown.  A finding is emitted **only for provable violations** — two
concrete ints that differ, a rank that cannot match, a dtype family
conflict — so symbolic dims (``embed_dim`` vs ``hidden_size``) are
propagated for the provenance chain but never guessed about.  The
message carries the inferred shape chain so the mismatch is auditable
from the report alone.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from ..findings import Finding
from ..names import ImportMap, build_import_map, resolve_dotted
from ..rules import ModuleInfo, Rule, register
from .cfg import Block, build_cfg
from .domain import (
    TOP_DIM,
    UNKNOWN,
    Dim,
    DimVal,
    InstanceVal,
    ShapeVal,
    join_envs,
)
from .solver import Domain, solve
from .specs import LayerSpec, parse_contract, resolve_layer, specs_by_short_name

__all__ = ["ShapeFlowRule"]

#: numpy constructors whose shape argument we understand.
_NP_SHAPED = {"zeros", "ones", "empty", "full"}
#: numpy ``x``-copying constructors (shape/dtype follow the argument).
_NP_LIKE = {"zeros_like", "ones_like", "empty_like", "full_like"}
_NP_PASSTHROUGH = {"asarray", "ascontiguousarray", "array"}

#: dtype spellings -> coarse family used by the contracts.
_DTYPE_FAMILIES = {
    "float": "float", "float16": "float", "float32": "float",
    "float64": "float", "double": "float",
    "int": "int", "int8": "int", "int16": "int", "int32": "int",
    "int64": "int", "intp": "int", "uint8": "int", "uint16": "int",
    "uint32": "int", "uint64": "int",
    "bool": "bool", "bool_": "bool",
}

Env = Dict[str, object]


def _dtype_family(node: Optional[ast.AST]) -> Optional[str]:
    """Coarse dtype family of a ``dtype=`` argument, if recognizable."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_FAMILIES.get(node.value)
    if isinstance(node, ast.Name):
        return _DTYPE_FAMILIES.get(node.id)
    if isinstance(node, ast.Attribute):
        return _DTYPE_FAMILIES.get(node.attr)
    return None


def _spec_dtype(spec) -> Optional[str]:
    """Family name of a TensorSpec's dtype class (None for any)."""
    if spec is None or spec.dtype is None:
        return None
    name = spec.dtype.__name__  # np.floating / np.integer / np.bool_
    return {"floating": "float", "integer": "int", "bool_": "bool"}.get(name)


class _ClassContext:
    """What the analysis knows about the class a method lives in."""

    def __init__(self) -> None:
        #: attribute name -> InstanceVal for ``self.x = Dense(...)``.
        self.attrs: Dict[str, InstanceVal] = {}
        #: the class is itself a known layer (methods carry contracts).
        self.own_spec: Optional[LayerSpec] = None
        self.name: str = ""


class _Interp:
    """Statement/expression evaluator shared by transfer and reporting."""

    def __init__(
        self,
        module: ModuleInfo,
        imap: ImportMap,
        cls: Optional[_ClassContext],
        func: ast.AST,
        findings: Optional[List[Finding]] = None,
        rule_id: str = "F1",
    ) -> None:
        self.module = module
        self.imap = imap
        self.cls = cls
        self.func = func
        self.findings = findings
        self.rule_id = rule_id
        self.own_contract = _own_contract(func, imap, cls)

    # -- statements ----------------------------------------------------
    def exec_stmt(self, stmt: ast.stmt, env: Env) -> None:
        """Apply one statement (compound statements: head only)."""
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, stmt.value, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, env)
                self._bind_target(stmt.target, stmt.value, value, env)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                env.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            self._drop_target(stmt.target, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._drop_target(item.optional_vars, env)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test, env)
        elif isinstance(stmt, ast.Try):
            pass  # bodies live in their own blocks
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, env) if stmt.value else UNKNOWN
            self._check_return(stmt, value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env.pop(stmt.name, None)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                env.pop(alias.asname or alias.name.split(".")[0], None)

    def _bind_target(
        self, target: ast.AST, value_node: ast.AST, value: object, env: Env
    ) -> None:
        if isinstance(target, ast.Name):
            if value is UNKNOWN:
                env.pop(target.id, None)
            else:
                env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            dims = self._shape_tuple_dims(value_node, env)
            names = [
                elt.id if isinstance(elt, ast.Name) else None for elt in target.elts
            ]
            if dims is not None and len(dims) == len(names):
                for name, dim in zip(names, dims):
                    if name is not None:
                        env[name] = DimVal(dim)
                return
            for elt in target.elts:
                self._drop_target(elt, env)

    def _drop_target(self, target: ast.AST, env: Env) -> None:
        if isinstance(target, ast.Name):
            env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._drop_target(elt, env)

    def _shape_tuple_dims(
        self, node: ast.AST, env: Env
    ) -> Optional[Tuple[Dim, ...]]:
        """Dims of ``x.shape`` when x's full rank is known, else None."""
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "shape"
            and isinstance(node.value, ast.Name)
        ):
            shape = env.get(node.value.id)
            if isinstance(shape, ShapeVal) and not shape.lead_unknown:
                return shape.dims
        return None

    # -- expressions ---------------------------------------------------
    def eval(self, node: Optional[ast.AST], env: Env) -> object:
        """Abstract value of an expression (UNKNOWN when untracked)."""
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            then = self.eval(node.body, env)
            other = self.eval(node.orelse, env)
            from .domain import join_values

            return join_values(then, other)
        if isinstance(node, ast.Attribute):
            # self.<attr> holding a known layer instance.
            if (
                self.cls is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return self.cls.attrs.get(node.attr, UNKNOWN)
            return UNKNOWN
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare, ast.UnaryOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return UNKNOWN
        return UNKNOWN

    def _eval_subscript(self, node: ast.Subscript, env: Env) -> object:
        """Indexing/slicing a tracked array (``x[0]``, ``x[:, None]``)."""
        base = node.value
        # x.shape[i] -> the i-th dimension as a scalar.
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "shape"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)
        ):
            shape = self.eval(base.value, env)
            if isinstance(shape, ShapeVal) and not shape.lead_unknown:
                idx = node.slice.value
                if -len(shape.dims) <= idx < len(shape.dims):
                    return DimVal(shape.dims[idx])
            return UNKNOWN
        src = self.eval(base, env)
        if not isinstance(src, ShapeVal) or src.lead_unknown:
            return UNKNOWN
        indices = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        dims: List[Dim] = []
        pos = 0
        for idx in indices:
            if isinstance(idx, ast.Constant) and idx.value is None:
                dims.append(Dim.of_int(1))  # np.newaxis inserts a dim
                continue
            if pos >= len(src.dims):
                return UNKNOWN
            if isinstance(idx, ast.Slice):
                full = idx.lower is None and idx.upper is None and idx.step is None
                dims.append(src.dims[pos] if full else TOP_DIM)
                pos += 1
                continue
            if self._int_const(idx) is not None:
                pos += 1  # integer index drops the dim
                continue
            return UNKNOWN  # fancy/ellipsis/dynamic indexing: give up
        dims.extend(src.dims[pos:])
        shape = ShapeVal(tuple(dims), dtype=src.dtype, chain=src.chain)
        return shape.with_step(
            f"subscript at line {getattr(node, 'lineno', 0)} -> {shape.render()}"
        )

    @staticmethod
    def _int_const(node: ast.AST) -> Optional[int]:
        """The value of an (optionally negated) integer literal."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)
        ):
            return -node.operand.value
        return None

    def eval_dim(self, node: ast.AST, env: Env) -> Dim:
        """A tuple element used as a dimension."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Dim.of_int(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            if isinstance(node.operand, ast.Constant) and isinstance(
                node.operand.value, int
            ):
                return Dim.of_int(-node.operand.value)
        if isinstance(node, ast.Name):
            value = env.get(node.id, UNKNOWN)
            if isinstance(value, DimVal):
                return value.dim
            if value is UNKNOWN:
                return Dim.sym(node.id)
            return TOP_DIM
        if isinstance(node, ast.Attribute):
            dotted = ast.unparse(node)
            return Dim.sym(dotted)
        if isinstance(node, ast.Subscript):
            # x.shape[i] with known shape -> that dim.
            base = node.value
            if (
                isinstance(base, ast.Attribute)
                and base.attr == "shape"
                and isinstance(base.value, ast.Name)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, int)
            ):
                shape = env.get(base.value.id)
                if isinstance(shape, ShapeVal) and not shape.lead_unknown:
                    idx = node.slice.value
                    if -len(shape.dims) <= idx < len(shape.dims):
                        return shape.dims[idx]
        return TOP_DIM

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call, env: Env) -> object:
        for arg in node.args:
            if not isinstance(arg, (ast.Name, ast.Constant)):
                self.eval(arg, env)
        func = node.func
        dotted = resolve_dotted(func, self.imap)
        # numpy constructors -------------------------------------------
        if dotted and dotted.startswith("numpy."):
            return self._eval_numpy(node, dotted, env)
        # known layer constructors -------------------------------------
        layer = resolve_layer(dotted) if not isinstance(func, ast.Attribute) else None
        if layer is not None and not self._shadowed(dotted):
            return self._eval_ctor(node, layer, env)
        # method calls on tracked values -------------------------------
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, env)
            if isinstance(receiver, InstanceVal):
                spec = specs_by_short_name().get(
                    receiver.layer.rpartition(".")[2]
                )
                if spec is not None and func.attr in spec.methods:
                    return self._apply_contract(node, receiver, spec, func.attr, env)
            if isinstance(receiver, ShapeVal):
                if func.attr == "reshape":
                    return self._eval_reshape(node, receiver, env)
                if func.attr == "astype":
                    family = _dtype_family(node.args[0]) if node.args else None
                    return ShapeVal(
                        receiver.dims, receiver.lead_unknown, family, receiver.chain
                    )
            if receiver is UNKNOWN and func.attr == "reshape":
                return self._eval_reshape(node, None, env)
        return UNKNOWN

    def _shadowed(self, dotted: Optional[str]) -> bool:
        """Whether the module redefines the layer name itself.

        A module-level class with a known layer's bare name shadows the
        builtin table — unless the module *is* the layer's home module.
        """
        if not dotted:
            return True
        short = dotted.rpartition(".")[2]
        for stmt in self.module.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == short:
                home = specs_by_short_name().get(short)
                own = f"{self.module.module_path}.{short}"
                return home is None or own != home.qualname
        return False

    def _eval_numpy(self, node: ast.Call, dotted: str, env: Env) -> object:
        name = dotted[len("numpy."):]
        dtype_kw = next(
            (kw.value for kw in node.keywords if kw.arg == "dtype"), None
        )
        family = _dtype_family(dtype_kw)
        line = getattr(node, "lineno", 0)
        if name in _NP_SHAPED and node.args:
            dims = self._dims_of_arg(node.args[0], env)
            if dims is None:
                return UNKNOWN
            shape = ShapeVal(dims, dtype=family or "float")
            return shape.with_step(f"np.{name} at line {line} -> {shape.render()}")
        if name in _NP_LIKE and node.args:
            src = self.eval(node.args[0], env)
            if isinstance(src, ShapeVal):
                out = ShapeVal(src.dims, src.lead_unknown, family or src.dtype, src.chain)
                return out.with_step(f"np.{name} at line {line} -> {out.render()}")
            return UNKNOWN
        if name in _NP_PASSTHROUGH and node.args:
            src = self.eval(node.args[0], env)
            if isinstance(src, ShapeVal):
                return ShapeVal(src.dims, src.lead_unknown, family or src.dtype, src.chain)
            if family is not None:
                shape = ShapeVal((), lead_unknown=True, dtype=family)
                return shape.with_step(
                    f"np.{name}(dtype=...) at line {line} -> {shape.render()}"
                )
            return UNKNOWN
        return UNKNOWN

    def _dims_of_arg(self, arg: ast.AST, env: Env) -> Optional[Tuple[Dim, ...]]:
        if isinstance(arg, (ast.Tuple, ast.List)):
            return tuple(self.eval_dim(elt, env) for elt in arg.elts)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
            return (Dim.of_int(arg.value),)
        if isinstance(arg, ast.Name):
            value = env.get(arg.id, UNKNOWN)
            if isinstance(value, DimVal):
                return (value.dim,)
        return None

    def _eval_ctor(self, node: ast.Call, layer: LayerSpec, env: Env) -> object:
        binds: Dict[str, Dim] = {}
        for param, arg in zip(layer.init_params, node.args):
            binds[param] = self.eval_dim(arg, env)
        for kw in node.keywords:
            if kw.arg in layer.init_params:
                binds[kw.arg] = self.eval_dim(kw.value, env)
        return InstanceVal(
            layer=layer.qualname, binds=tuple(sorted(binds.items()))
        )

    def _eval_reshape(
        self, node: ast.Call, src: Optional[ShapeVal], env: Env
    ) -> object:
        args = node.args
        if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
            args = list(args[0].elts)
        if not args:
            return UNKNOWN
        dims = []
        for arg in args:
            dim = self.eval_dim(arg, env)
            if dim.kind == "int" and dim.value == -1:
                dim = TOP_DIM
            dims.append(dim)
        dtype = src.dtype if src is not None else None
        chain = src.chain if src is not None else ()
        shape = ShapeVal(tuple(dims), dtype=dtype, chain=chain)
        return shape.with_step(
            f"reshape at line {getattr(node, 'lineno', 0)} -> {shape.render()}"
        )

    # -- contracts -----------------------------------------------------
    def _apply_contract(
        self,
        node: ast.Call,
        receiver: InstanceVal,
        layer: LayerSpec,
        method: str,
        env: Env,
    ) -> object:
        inp, out = layer.methods[method]
        bindings: Dict[str, Dim] = {}
        label = f"{layer.name}.{method}"
        arg_val = self.eval(node.args[0], env) if node.args else UNKNOWN
        if inp is not None and isinstance(arg_val, ShapeVal):
            self._check_shape(node, label, receiver, inp, arg_val, bindings)
        if out is None:
            return UNKNOWN
        lead_unknown = True
        lead: Tuple[Dim, ...] = ()
        if out.ellipsis_lead:
            if (
                isinstance(arg_val, ShapeVal)
                and not arg_val.lead_unknown
                and inp is not None
                and inp.ellipsis_lead
                and len(arg_val.dims) >= len(inp.dims)
            ):
                lead = arg_val.dims[: len(arg_val.dims) - len(inp.dims)]
                lead_unknown = False
        else:
            lead_unknown = False
        dims = lead + tuple(
            self._resolve_spec_dim(d, receiver, bindings, node) for d in out.dims
        )
        chain = arg_val.chain if isinstance(arg_val, ShapeVal) else ()
        shape = ShapeVal(dims, lead_unknown, _spec_dtype(out), chain)
        return shape.with_step(
            f"{label} at line {getattr(node, 'lineno', 0)} -> {shape.render()}"
        )

    def _resolve_spec_dim(
        self,
        dim: object,
        receiver: Optional[InstanceVal],
        bindings: Dict[str, Dim],
        node: ast.AST,
    ) -> Dim:
        if isinstance(dim, int):
            return Dim.of_int(dim)
        name = str(dim)
        if receiver is not None:
            bound = receiver.bound(name)
            if bound is not None:
                return bound
        if receiver is None and self.cls is not None:
            # Analyzing the layer's own method: dims live on self.
            if name not in bindings:
                return Dim.sym(f"self.{name}")
        if name in bindings:
            return bindings[name]
        return Dim.sym(f"{name}@{getattr(node, 'lineno', 0)}")

    def _check_shape(
        self,
        node: ast.AST,
        label: str,
        receiver: Optional[InstanceVal],
        spec,
        actual: ShapeVal,
        bindings: Dict[str, Dim],
    ) -> None:
        """Compare an inferred shape against a TensorSpec; report provables."""
        chain = " ; ".join(actual.chain) or actual.render()
        # Rank.
        if not actual.lead_unknown:
            if spec.ellipsis_lead:
                if len(actual.dims) < len(spec.dims):
                    self._report(
                        node,
                        f"{label} expects {spec.describe()} but gets rank-"
                        f"{len(actual.dims)} {actual.render()} [{chain}]",
                    )
                    return
            elif len(actual.dims) != len(spec.dims):
                self._report(
                    node,
                    f"{label} expects rank-{len(spec.dims)} {spec.describe()} "
                    f"but gets rank-{len(actual.dims)} {actual.render()} "
                    f"[{chain}]",
                )
                return
        elif not spec.ellipsis_lead and len(actual.dims) > len(spec.dims):
            return  # cannot align reliably
        # Trailing dims.
        tail = actual.dims[len(actual.dims) - len(spec.dims):] if spec.dims else ()
        if len(tail) == len(spec.dims):
            for spec_dim, actual_dim in zip(spec.dims, tail):
                expected = self._expected_dim(spec_dim, receiver, bindings, actual_dim)
                if expected is not None and expected.provably_differs(actual_dim):
                    self._report(
                        node,
                        f"{label} expects {spec.describe()} (dim "
                        f"{spec_dim} = {expected.render()}) but gets "
                        f"{actual.render()} [{chain}]",
                    )
                    return
        # Dtype.
        want = _spec_dtype(spec)
        if want is not None and actual.dtype is not None and actual.dtype != want:
            self._report(
                node,
                f"{label} expects dtype {want} but gets "
                f"{actual.render()} [{chain}]",
            )

    def _expected_dim(
        self,
        spec_dim: object,
        receiver: Optional[InstanceVal],
        bindings: Dict[str, Dim],
        actual: Dim,
    ) -> Optional[Dim]:
        if isinstance(spec_dim, int):
            return Dim.of_int(spec_dim)
        name = str(spec_dim)
        if receiver is not None:
            bound = receiver.bound(name)
            if bound is not None:
                return bound
        if name in bindings:
            return bindings[name]
        bindings[name] = actual  # bind-on-first-use, like the runtime check
        return None

    def _check_return(self, stmt: ast.Return, value: object) -> None:
        if self.own_contract is None or not isinstance(value, ShapeVal):
            return
        _, out = self.own_contract
        if out is None:
            return
        bindings = dict(self._seed_bindings())
        self._check_shape(
            stmt, f"{self._func_label()} return", None, out, value, bindings
        )

    def _func_label(self) -> str:
        prefix = f"{self.cls.name}." if self.cls and self.cls.name else ""
        return f"{prefix}{getattr(self.func, 'name', '<lambda>')}"

    # -- own-contract seeding ------------------------------------------
    def _seed_bindings(self) -> Dict[str, Dim]:
        """Input-spec identifiers -> the symbolic dims seeded for them."""
        if self.own_contract is None:
            return {}
        inp, _ = self.own_contract
        if inp is None:
            return {}
        out: Dict[str, Dim] = {}
        for dim in inp.dims:
            if not isinstance(dim, int):
                out[str(dim)] = self._seeded_dim(str(dim))
        return out

    def _seeded_dim(self, name: str) -> Dim:
        """How an input-spec identifier was seeded for self-analysis."""
        if self.cls is not None and self.cls.own_spec is None:
            return Dim.sym(f"self.{name}")
        # Known layer / free function: attribute dims resolve on self.
        return Dim.sym(f"self.{name}") if self._is_attr_dim(name) else Dim.sym(name)

    def _is_attr_dim(self, name: str) -> bool:
        spec = self.cls.own_spec if self.cls is not None else None
        return spec is not None and name in spec.init_params

    def seed_env(self) -> Env:
        """Initial environment: the contracted first parameter, if any."""
        env: Env = {}
        if self.own_contract is None:
            return env
        inp, _ = self.own_contract
        if inp is None:
            return env
        args = getattr(self.func, "args", None)
        if args is None:
            return env
        names = [a.arg for a in args.args]
        if names and names[0] == "self":
            names = names[1:]
        if not names:
            return env
        dims = tuple(
            Dim.of_int(d) if isinstance(d, int) else self._seeded_dim(str(d))
            for d in inp.dims
        )
        shape = ShapeVal(
            dims, lead_unknown=inp.ellipsis_lead, dtype=_spec_dtype(inp)
        )
        env[names[0]] = shape.with_step(
            f"{self._func_label()} contract input {shape.render()}"
        )
        return env

    def _report(self, node: ast.AST, message: str) -> None:
        if self.findings is not None:
            self.findings.append(self.module.finding(node, self.rule_id, message))


def _own_contract(func: ast.AST, imap: ImportMap, cls: Optional[_ClassContext]):
    """The (input, output) TensorSpecs declared on *func* itself."""
    for deco in getattr(func, "decorator_list", []):
        if not isinstance(deco, ast.Call) or not deco.args:
            continue
        dotted = resolve_dotted(deco.func, imap) or ""
        if dotted.rpartition(".")[2] != "tensor_contract":
            continue
        arg = deco.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return parse_contract(arg.value)
    if cls is not None and cls.own_spec is not None:
        name = getattr(func, "name", "")
        if name in cls.own_spec.methods:
            return cls.own_spec.methods[name]
    return None


class _ShapeDomain(Domain):
    """Env-per-block shape domain feeding the generic solver."""

    def __init__(self, interp: _Interp) -> None:
        self.interp = interp

    def initial(self) -> Env:
        """Entry environment (the contracted parameter seeded)."""
        return self.interp.seed_env()

    def join(self, a: Env, b: Env) -> Env:
        """Pointwise environment join."""
        return join_envs(a, b)

    def transfer(self, block: Block, state: Env) -> Env:
        """Run the block's statements over a copy of *state*."""
        env = dict(state)
        for stmt in block.stmts:
            self.interp.exec_stmt(stmt, env)
        return env


def _class_context(
    module: ModuleInfo, imap: ImportMap, cls_node: Optional[ast.ClassDef]
) -> Optional[_ClassContext]:
    if cls_node is None:
        return None
    ctx = _ClassContext()
    ctx.name = cls_node.name
    own = specs_by_short_name().get(cls_node.name)
    if own is not None and f"{module.module_path}.{cls_node.name}" == own.qualname:
        ctx.own_spec = own
    init = next(
        (
            n
            for n in cls_node.body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ),
        None,
    )
    if init is None:
        return ctx
    interp = _Interp(module, imap, None, init)
    env: Env = {}
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        value = interp.eval(stmt.value, env)
        if isinstance(target, ast.Name) and value is not UNKNOWN:
            env[target.id] = value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, InstanceVal)
        ):
            ctx.attrs[target.attr] = value
    return ctx


def _functions(tree: ast.Module):
    """(class node or None, function node) pairs, module level only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, item


@register
class ShapeFlowRule(Rule):
    """Statically-provable tensor shape/dtype violations at layer call sites."""

    id = "F1"
    category = "dataflow"
    summary = (
        "dataflow shape checking: abstract-interpret numpy/repro.nn code "
        "against declared @tensor_contract specs; report provable "
        "shape/dtype mismatches with the inferred shape chain"
    )

    def check_module(self, module: ModuleInfo) -> Sequence[Finding]:
        """Analyze every function of *module* with the shape domain."""
        findings: List[Finding] = []
        imap = build_import_map(module.tree, module.module_path)
        contexts: Dict[Optional[ast.ClassDef], Optional[_ClassContext]] = {}
        for cls_node, func in _functions(module.tree):
            if cls_node not in contexts:
                contexts[cls_node] = _class_context(module, imap, cls_node)
            cls_ctx = contexts[cls_node]
            cfg = build_cfg(func)
            interp = _Interp(module, imap, cls_ctx, func)
            result = solve(cfg, _ShapeDomain(interp))
            reporter = _Interp(module, imap, cls_ctx, func, findings, self.id)
            for block_id, in_state in result.in_states.items():
                env = dict(in_state)
                for stmt in cfg.block(block_id).stmts:
                    reporter.exec_stmt(stmt, env)
        return findings
