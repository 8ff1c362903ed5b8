"""deshflow — the deshlint dataflow engine.

The R rules are syntactic: they pattern-match single AST nodes.  This
package adds the *semantic* half — a from-scratch intraprocedural
dataflow framework and the analysis built on it, registered as deshlint
rule F4:

* :mod:`cfg` — per-function control-flow graph builder over the Python
  AST (if/while/for with else clauses, try/except/finally, with,
  break/continue/return/raise);
* :mod:`solver` — a generic worklist fixpoint solver over any CFG and
  any :class:`~repro.lint.flow.solver.Domain`;
* :mod:`atomicity` — **F4**: check-then-act / read-modify-write
  sequences on shared ``self.*`` state of the serving layer that span
  an await point without a common ``asyncio.Lock`` held across the
  window (the CFG marks every await point as a yield of control; see
  :func:`~repro.lint.flow.cfg.head_awaits`).

F4 plugs into the ordinary rule engine: suppressions
(``# deshlint: allow[F4] reason``), ``--rules`` subsets and the CI
gate apply unchanged.  Tensor shapes are not analysed here:
the nn layers' ``@tensor_contract`` specs are checked at run time.
"""

from .cfg import CFG, Block, build_cfg, head_awaits, is_yield_point
from .solver import Domain, SolveResult, solve

__all__ = [
    "CFG",
    "Block",
    "build_cfg",
    "Domain",
    "SolveResult",
    "solve",
]
