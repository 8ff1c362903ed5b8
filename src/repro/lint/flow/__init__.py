"""deshflow — the deshlint dataflow engine.

The R rules are syntactic: they pattern-match single AST nodes.  This
package adds the *semantic* half — a from-scratch intraprocedural
dataflow framework and the analyses built on it, registered as deshlint
rules F1 and F4:

* :mod:`cfg` — per-function control-flow graph builder over the Python
  AST (if/while/for with else clauses, try/except/finally, with,
  break/continue/return/raise);
* :mod:`solver` — a generic worklist fixpoint solver over any CFG and
  any :class:`~repro.lint.flow.solver.Domain`;
* :mod:`domain` — the abstract-value lattice shared by the analyses
  (symbolic dims, tensor shapes, layer instances);
* :mod:`specs` — static view of the ``@tensor_contract`` specs the nn
  layers declare (harvested from :mod:`repro.nn.contracts`);
* :mod:`shapeflow` — **F1**: abstract interpretation of tensor shapes
  through layer call sites, reporting statically-provable mismatches;
* :mod:`atomicity` — **F4**: check-then-act / read-modify-write
  sequences on shared ``self.*`` state of the serving layer that span
  an await point without a common ``asyncio.Lock`` held across the
  window (the CFG marks every await point as a yield of control; see
  :func:`~repro.lint.flow.cfg.head_awaits`).

Both plug into the ordinary rule engine: suppressions
(``# deshlint: allow[F1] reason``), the baseline, ``--rules`` subsets
and the CI gate apply unchanged.
"""

from .cfg import CFG, Block, build_cfg, head_awaits, is_yield_point
from .domain import (
    TOP_DIM,
    UNKNOWN,
    Dim,
    DimVal,
    InstanceVal,
    ShapeVal,
    join_envs,
    join_values,
)
from .solver import Domain, SolveResult, solve

__all__ = [
    "CFG",
    "Block",
    "build_cfg",
    "Dim",
    "DimVal",
    "Domain",
    "InstanceVal",
    "ShapeVal",
    "SolveResult",
    "TOP_DIM",
    "UNKNOWN",
    "join_envs",
    "join_values",
    "solve",
]
