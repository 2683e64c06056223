"""The LPS evaluation engine.

* :mod:`repro.engine.database` — EDB facts and Python-value conversion;
* :mod:`repro.engine.builtins` — evaluable predicates (arithmetic, ``neq``,
  ``card``, plus the set builtins in :mod:`repro.engine.setops` that realise
  the languages ``L + union`` and ``L + scons`` of Section 6);
* :mod:`repro.engine.stratify` — stratification (Section 4.2, [ABW86]);
* :mod:`repro.engine.evaluation` — bottom-up naive/semi-naive evaluation
  under active-domain semantics, with LDL grouping;
* :mod:`repro.engine.ir` / :mod:`repro.engine.planner` /
  :mod:`repro.engine.executor` — the relational-algebra plan pipeline:
  rule bodies compile to Scan/Join/AntiJoin/… operator trees executed
  set-at-a-time over the interpretation's argument indexes, with the
  tuple-at-a-time solver as the equivalence-tested fallback;
* :mod:`repro.engine.columnar` — the columnar executor: capable plan
  operators run over dense interned-term-ID columns (``array('q')``),
  decoding to term objects only at plan boundaries;
* :mod:`repro.engine.maintenance` — incremental model maintenance
  (DRed + candidate re-derivation + per-stratum recompute) for batched
  insert/delete fact streams;
* :mod:`repro.engine.topdown` — the depth-bounded SLD prover with set
  unification (Section 3.2's procedural semantics).
"""

from .builtins import (
    DEFAULT_BUILTINS,
    Builtin,
    default_builtins,
    is_builtin,
)
from .database import Database, from_term, to_term
from .evaluation import (
    ActiveDomain,
    EvalOptions,
    EvalReport,
    Evaluator,
    Model,
    Solver,
    SolverStats,
    solve,
)
from .columnar import ColumnarExecutor, columnar_capable, make_executor
from .executor import Executor, PlanInapplicable
from .ir import MODE_SET, MODE_TUPLE, ExecStats
from .maintenance import (
    MaintenanceReport,
    MaterializedModel,
    ModelSnapshot,
    RetiredVersionError,
    VersionedModel,
)
from .planner import CompiledPlan, compile_grouping, compile_rule, head_plan
from .setops import set_builtins, with_set_builtins
from .stratify import Stratification, StratumRules, is_stratified, stratify
from .topdown import TopDownProver

__all__ = [
    "Builtin",
    "DEFAULT_BUILTINS",
    "default_builtins",
    "is_builtin",
    "Database",
    "to_term",
    "from_term",
    "ActiveDomain",
    "Solver",
    "SolverStats",
    "EvalOptions",
    "EvalReport",
    "Evaluator",
    "Model",
    "solve",
    "Executor",
    "ColumnarExecutor",
    "columnar_capable",
    "make_executor",
    "PlanInapplicable",
    "ExecStats",
    "MODE_SET",
    "MODE_TUPLE",
    "CompiledPlan",
    "compile_rule",
    "compile_grouping",
    "head_plan",
    "set_builtins",
    "with_set_builtins",
    "MaterializedModel",
    "ModelSnapshot",
    "RetiredVersionError",
    "VersionedModel",
    "MaintenanceReport",
    "Stratification",
    "StratumRules",
    "stratify",
    "is_stratified",
    "TopDownProver",
]
