"""Relational-algebra plan IR for rule bodies.

The paper's Example 4 bridge shows that LPS rule bodies *are* nested
relational algebra: a body conjunct ``R(x, Y)`` is a scan, a shared
variable is a join, ``y ∈ Y`` is an unnest, negation is an anti-join and
LDL grouping is a group-by.  This module makes that reading executable:
it defines a small operator tree — the **plan IR** — that
:mod:`repro.engine.planner` compiles rule bodies into and
:mod:`repro.engine.executor` evaluates set-at-a-time over binding
*columns* (batches of value tuples keyed by an ordered variable schema)
instead of one :class:`~repro.core.substitution.Subst` per intermediate
tuple.

Operator nodes (all immutable after construction):

=============  =============================================================
``Unit``       the single empty binding (start of scan-free pipelines)
``Scan``       match one body atom against a relation (or a semi-naive delta)
``Join``       hash join of two subplans on their shared variables
``Select``     per-row filter (ground equality / builtin check / membership)
``Compute``    per-row extension (equality or builtin binding new variables)
``Unnest``     ``x ∈ S`` with ``S`` bound: one output row per set element
``AntiJoin``   stratified negation: drop rows whose ground instance holds
``Project``    restrict the variable schema (no dedup — see ``Distinct``)
``Distinct``   set semantics over the current schema
``GroupBy``    LDL grouping: collect one column into a set per key
=============  =============================================================

The bottom half of the module holds the **row kernels** — plain functions
over (rows, column-index) data that implement the shared set-at-a-time
semantics of join/anti-join/project/distinct/nest/unnest.  They are
deliberately generic over the cell type: the executor runs them on
canonical ground :class:`~repro.core.terms.Term` cells, while
:mod:`repro.nested.algebra` runs the *same* kernels on plain Python
values, so the value-level algebra and the engine cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from ..core.atoms import Atom, Literal
from ..core.terms import Term, Var

#: How a compiled rule is executed (see ``repro.engine.planner``).
MODE_SET = "set"      # set-at-a-time plan execution
MODE_TUPLE = "tuple"  # fall back to the backtracking tuple-at-a-time solver


@dataclass
class ExecStats:
    """Executor counters: totals plus per-operator batches and row flow.

    The ``col_nodes``/``row_nodes``/``rows_encoded``/``rows_decoded``
    quartet observes the columnar executor (``repro.engine.columnar``):
    how many operator executions ran on ID columns vs fell back to the
    row kernels, and how many rows crossed an encode/decode boundary.
    All four stay 0 under the plain row executor.
    """

    batches: int = 0
    rows_in: int = 0
    rows_out: int = 0
    #: operator executions on dense-ID columns (columnar executor only).
    col_nodes: int = 0
    #: operator executions that fell back to the row kernels.
    row_nodes: int = 0
    #: rows converted term-cells -> ID columns (scans, fallback results).
    rows_encoded: int = 0
    #: rows converted ID columns -> term-cells (plan boundaries).
    rows_decoded: int = 0
    #: operator name -> [batches, rows in, rows out]
    per_op: dict[str, list[int]] = field(default_factory=dict)

    def note(self, op: str, rows_in: int, rows_out: int) -> None:
        self.batches += 1
        self.rows_in += rows_in
        self.rows_out += rows_out
        cell = self.per_op.get(op)
        if cell is None:
            self.per_op[op] = [1, rows_in, rows_out]
        else:
            cell[0] += 1
            cell[1] += rows_in
            cell[2] += rows_out

    def merge(self, other: "ExecStats") -> None:
        self.batches += other.batches
        self.rows_in += other.rows_in
        self.rows_out += other.rows_out
        self.col_nodes += other.col_nodes
        self.row_nodes += other.row_nodes
        self.rows_encoded += other.rows_encoded
        self.rows_decoded += other.rows_decoded
        for op, (b, ri, ro) in other.per_op.items():
            cell = self.per_op.get(op)
            if cell is None:
                self.per_op[op] = [b, ri, ro]
            else:
                cell[0] += b
                cell[1] += ri
                cell[2] += ro

    def columnar_summary(self) -> dict[str, int]:
        """The columnar counters as one dict (the ``:stats`` payload)."""
        return {
            "col_nodes": self.col_nodes,
            "row_nodes": self.row_nodes,
            "rows_encoded": self.rows_encoded,
            "rows_decoded": self.rows_decoded,
        }

    def pretty(self) -> str:
        lines = [
            f"executor: {self.batches} batches, "
            f"{self.rows_in} rows in, {self.rows_out} rows out"
        ]
        if self.col_nodes or self.row_nodes:
            lines.append(
                f"  columnar: {self.col_nodes} col nodes, "
                f"{self.row_nodes} row-fallback nodes, "
                f"{self.rows_encoded} rows encoded, "
                f"{self.rows_decoded} rows decoded"
            )
        for op in sorted(self.per_op):
            b, ri, ro = self.per_op[op]
            lines.append(f"  {op:<9} batches={b} rows_in={ri} rows_out={ro}")
        return "\n".join(lines)


class PlanNode:
    """Base class of plan operators.

    ``out_vars`` is the ordered variable schema of the node's output batch;
    every row produced by the node is a tuple of ground terms positionally
    aligned with it.
    """

    __slots__ = ("out_vars", "_cmeta", "_route")

    out_vars: tuple[Var, ...]

    #: Columnar-executor metadata (``repro.engine.columnar``) — the
    #: argument shapes (``_cmeta``) and the size gate's view of the node
    #: (``_route``) — memoized on first visit like ``_shape``/``_meta``;
    #: unset until then.

    #: Name used in pretty-printing and executor stats.
    op: str = "node"

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def label(self) -> str:
        return self.op

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        out = [f"{pad}{self.label()}"]
        for c in self.children():
            out.append(c.pretty(indent + 1))
        return "\n".join(out)


class Unit(PlanNode):
    """The relation with one empty row (identity of ``Join``)."""

    __slots__ = ()
    op = "Unit"

    def __init__(self) -> None:
        self.out_vars = ()


class Scan(PlanNode):
    """Match a body atom against its relation (or a delta of it).

    ``delta`` marks the one occurrence a semi-naive differentiation pinned:
    the executor reads that scan from the round's delta relation instead of
    the full interpretation (ISSUE: "the delta relation substituted into one
    Scan per occurrence").
    """

    __slots__ = ("atom", "delta", "_shape")
    op = "Scan"

    def __init__(self, atom: Atom, delta: bool = False) -> None:
        self.atom = atom
        self.delta = delta
        self._shape = None  # match fast-path, memoized by the executor
        seen: dict[Var, None] = {}
        for t in atom.args:
            for v in _term_vars(t):
                seen.setdefault(v, None)
        self.out_vars = tuple(seen)

    def label(self) -> str:
        tag = "Δ" if self.delta else ""
        return f"Scan[{tag}{self.atom}]"


class Join(PlanNode):
    """Hash join of two subplans on their shared variables."""

    __slots__ = ("left", "right", "shared", "_meta")
    op = "Join"

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right
        self._meta = None  # executor-memoized static metadata
        lset = set(left.out_vars)
        self.shared = tuple(v for v in right.out_vars if v in lset)
        self.out_vars = left.out_vars + tuple(
            v for v in right.out_vars if v not in lset
        )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        on = ", ".join(str(v) for v in self.shared) or "⊤ (cross)"
        return f"Join[{on}]"


class Select(PlanNode):
    """Per-row filter: a fully-bound equality, builtin or membership check."""

    __slots__ = ("input", "literal", "kind", "_meta")
    op = "Select"

    def __init__(self, input: PlanNode, literal: Literal, kind: str) -> None:
        self.input = input
        self.literal = literal
        self._meta = None  # executor-memoized static metadata
        self.kind = kind  # "equals" | "builtin" | "member"
        self.out_vars = input.out_vars

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Select[{self.kind}: {self.literal}]"


class Compute(PlanNode):
    """Per-row extension: equality/builtin conjunct binding new variables."""

    __slots__ = ("input", "atom", "kind", "new_vars", "_meta")
    op = "Compute"

    def __init__(
        self, input: PlanNode, atom: Atom, kind: str, new_vars: tuple[Var, ...]
    ) -> None:
        self.input = input
        self.atom = atom
        self.kind = kind  # "equals" | "builtin"
        self.new_vars = new_vars
        self._meta = None  # executor-memoized static metadata
        self.out_vars = input.out_vars + new_vars

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        binds = ", ".join(str(v) for v in self.new_vars)
        return f"Compute[{self.kind}: {self.atom} → {binds}]"


class Unnest(PlanNode):
    """``elem ∈ source`` with the source column bound.

    ``mode`` chooses the semantics the tuple path would apply:

    * ``expand`` — ``elem`` is an unbound variable: one row per element of
      the set, filtered by sort compatibility (Example 4's μ);
    * ``unify`` — ``elem`` is a non-ground structured term: enumerate
      unifiers against each element, binding ``new_vars``.

    (The fully-bound membership *check* is a ``Select`` with kind
    ``member``, not an ``Unnest``.)
    """

    __slots__ = ("input", "elem", "source", "mode", "new_vars", "_meta")
    op = "Unnest"

    def __init__(
        self,
        input: PlanNode,
        elem: Term,
        source: Term,
        mode: str,
        new_vars: tuple[Var, ...],
    ) -> None:
        self.input = input
        self.elem = elem
        self.source = source
        self.mode = mode  # "expand" | "unify"
        self._meta = None  # executor-memoized static metadata
        self.new_vars = new_vars
        self.out_vars = input.out_vars + new_vars

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Unnest[{self.mode}: {self.elem} in {self.source}]"


class AntiJoin(PlanNode):
    """Drop rows whose (ground) instance of ``atom`` holds.

    Stratified negation: the negated predicate lives in a strictly lower
    stratum, so the check runs against the full interpretation — never
    against a delta — exactly like the tuple path's closed-formula oracle.
    The fixpoint's head plans end in one over the head atom
    (:func:`~repro.engine.planner.head_plan`), which subtracts what the
    head relation held when the round began.
    """

    __slots__ = ("input", "atom", "_meta")
    op = "AntiJoin"

    def __init__(self, input: PlanNode, atom: Atom) -> None:
        self.input = input
        self.atom = atom
        self.out_vars = input.out_vars
        self._meta = None  # executor-memoized static metadata

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"AntiJoin[not {self.atom}]"


class Project(PlanNode):
    """Restrict the schema to ``vars`` (keeps duplicates; see ``Distinct``)."""

    __slots__ = ("input", "vars", "_meta")
    op = "Project"

    def __init__(self, input: PlanNode, vars: Sequence[Var]) -> None:
        self.input = input
        self.vars = tuple(vars)
        self._meta = None  # executor-memoized static metadata
        missing = [v for v in self.vars if v not in input.out_vars]
        if missing:
            raise ValueError(f"projection variables {missing} not in input")
        self.out_vars = self.vars

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Project[{', '.join(str(v) for v in self.vars)}]"


class Distinct(PlanNode):
    """Set semantics: deduplicate rows (SetValue columns hash canonically)."""

    __slots__ = ("input",)
    op = "Distinct"

    def __init__(self, input: PlanNode) -> None:
        self.input = input
        self.out_vars = input.out_vars

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)


class GroupBy(PlanNode):
    """LDL grouping (Definition 14): collect ``group_var`` into a set per key.

    The output schema is ``key_vars + (group_var,)`` with the group column
    holding a :class:`~repro.core.terms.SetValue` per key.
    """

    __slots__ = ("input", "key_vars", "group_var", "_meta")
    op = "GroupBy"

    def __init__(
        self, input: PlanNode, key_vars: Sequence[Var], group_var: Var
    ) -> None:
        self.input = input
        self.key_vars = tuple(key_vars)
        self._meta = None  # executor-memoized static metadata
        self.group_var = group_var
        self.out_vars = self.key_vars + (group_var,)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        keys = ", ".join(str(v) for v in self.key_vars)
        return f"GroupBy[⟨{self.group_var}⟩ per ({keys})]"


def _term_vars(t: Term) -> Iterable[Var]:
    from ..core.terms import free_vars

    return sorted(free_vars(t), key=lambda v: (v.var_sort, v.name))


def walk_plan(node: PlanNode) -> Iterable[PlanNode]:
    """Yield the node and all descendants, outermost first."""
    yield node
    for c in node.children():
        yield from walk_plan(c)


# ---------------------------------------------------------------------------
# Row kernels — the shared set-at-a-time semantics.
#
# Rows are tuples of hashable cells; ``*_idx`` arguments are tuples of
# column indices.  The kernels never look inside cells, so the executor
# (Term cells) and repro.nested.algebra (Python-value cells) share them.
# ---------------------------------------------------------------------------

Row = tuple


def join_rows(
    lrows: Sequence[Row],
    rrows: Sequence[Row],
    lkey_idx: tuple[int, ...],
    rkey_idx: tuple[int, ...],
    rtake_idx: tuple[int, ...],
) -> list[Row]:
    """Hash join: combined rows ``l + r[rtake_idx]`` where keys agree.

    Builds the hash table on the smaller side — the batch-level analogue of
    the tuple path's smallest-relation-first join planning.
    """
    if not lrows or not rrows:
        return []
    out: list[Row] = []
    if len(rrows) <= len(lrows):
        table: dict[tuple, list[Row]] = {}
        for r in rrows:
            table.setdefault(tuple(r[i] for i in rkey_idx), []).append(r)
        for l in lrows:
            bucket = table.get(tuple(l[i] for i in lkey_idx))
            if bucket:
                for r in bucket:
                    out.append(l + tuple(r[i] for i in rtake_idx))
    else:
        table = {}
        for l in lrows:
            table.setdefault(tuple(l[i] for i in lkey_idx), []).append(l)
        for r in rrows:
            bucket = table.get(tuple(r[i] for i in rkey_idx))
            if bucket:
                tail = tuple(r[i] for i in rtake_idx)
                for l in bucket:
                    out.append(l + tail)
    return out


def anti_join_rows(
    lrows: Sequence[Row],
    rrows: Sequence[Row],
    lkey_idx: tuple[int, ...],
    rkey_idx: tuple[int, ...],
) -> list[Row]:
    """Rows of the left side with no key-matching row on the right."""
    if not lrows:
        return []
    keys = {tuple(r[i] for i in rkey_idx) for r in rrows}
    return [l for l in lrows if tuple(l[i] for i in lkey_idx) not in keys]


def project_rows(rows: Iterable[Row], take_idx: tuple[int, ...]) -> list[Row]:
    """Projection with set semantics (dedup, first occurrence wins)."""
    return list(dict.fromkeys(tuple(r[i] for i in take_idx) for r in rows))


def distinct_rows(rows: Iterable[Row]) -> list[Row]:
    """Deduplicate rows preserving first-occurrence order."""
    return list(dict.fromkeys(tuple(r) for r in rows))


def select_rows(rows: Iterable[Row], keep: Callable[[Row], bool]) -> list[Row]:
    """Filter rows by a per-row predicate."""
    return [r for r in rows if keep(r)]


def unnest_rows(
    rows: Iterable[Row],
    pos: int,
    elems_of: Callable[[Any], Iterable[Any]],
) -> list[Row]:
    """μ: replace the set at column ``pos`` by its elements, one row each.

    Rows whose set is empty vanish — the operator's classical information
    loss, preserved identically by the algebra and the engine bridge.
    """
    out: list[Row] = []
    for r in rows:
        head, tail = r[:pos], r[pos + 1:]
        for e in elems_of(r[pos]):
            out.append(head + (e,) + tail)
    return out


def nest_rows(
    rows: Iterable[Row],
    pos: int,
    make_set: Callable[[set], Any],
) -> list[Row]:
    """ν: group on all other columns, collecting column ``pos`` into a set."""
    groups: dict[Row, set] = {}
    for r in rows:
        groups.setdefault(r[:pos] + r[pos + 1:], set()).add(r[pos])
    out: list[Row] = []
    for key, values in groups.items():
        out.append(key[:pos] + (make_set(values),) + key[pos:])
    return out


def group_rows(
    rows: Iterable[Row],
    key_idx: tuple[int, ...],
    group_pos: int,
) -> dict[Row, set]:
    """Group-by kernel: key tuple -> set of grouped-column values."""
    groups: dict[Row, set] = {}
    for r in rows:
        groups.setdefault(
            tuple(r[i] for i in key_idx), set()
        ).add(r[group_pos])
    return groups
