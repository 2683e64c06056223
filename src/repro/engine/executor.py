"""Set-at-a-time execution of compiled rule plans.

The executor evaluates a :mod:`repro.engine.ir` plan bottom-up, carrying
**binding columns**: each operator produces a batch of rows — tuples of
canonical ground terms positionally aligned with the node's ``out_vars``
schema — instead of one :class:`~repro.core.substitution.Subst` per
intermediate tuple.  Scans read the
:class:`~repro.semantics.interpretation.Interpretation`'s incremental
argument indexes (or, for delta-flagged scans, the round's semi-naive
delta relation); joins are hash joins whose build side is chosen by
actual batch size — the dynamic half of the selectivity heuristics the
planner lifted out of ``Solver._priority``.

Equivalence discipline.  Compilation predicts readiness statically; the
executor re-checks every type-sensitive prediction on real values
(builtin ``ready`` modes, membership in a non-set value bound to an ELPS
``u`` variable, equality with neither side ground) and raises
:class:`PlanInapplicable` when the prediction fails.  Callers catch it
and re-run that one rule application through the tuple-at-a-time solver,
so the computed model is the one the solver alone would compute — the
invariant ``tests/test_pipeline_vs_oracle.py`` checks against ``T_P``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..core.atoms import Atom
from ..core.formulas import evaluate_ground_atom
from ..core.sorts import sorts_compatible
from ..core.substitution import EMPTY_SUBST, Subst
from ..core.terms import SetExpr, SetValue, Term, Var, free_vars, setvalue
from ..core.unify import match_atom, unify
from ..semantics.interpretation import INDEX_MIN_FACTS, Interpretation
from .builtins import DEFAULT_BUILTINS, Builtin
from .ir import (
    AntiJoin,
    Compute,
    Distinct,
    ExecStats,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Row,
    Scan,
    Select,
    Unit,
    Unnest,
    distinct_rows,
    group_rows,
    join_rows,
)


class PlanInapplicable(Exception):
    """A static scheduling prediction failed on real values; the caller
    must re-run this rule application through the tuple-at-a-time solver."""


class Executor:
    """Evaluates plans against one interpretation (plus optional deltas).

    ``delta`` maps predicate names to the current semi-naive delta facts;
    only :class:`~repro.engine.ir.Scan` nodes flagged ``delta`` read it —
    other occurrences of the same predicate see the full interpretation,
    exactly like the tuple path's pinned differentiation.

    ``memo`` caches the extension rows of each builtin ``Compute`` input
    (see :meth:`_compute`).  A stratum fixpoint hands every round's
    executor the same dict and drops it on return; without one an input
    is solved once per batch.
    """

    def __init__(
        self,
        interp: Interpretation,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        delta: Optional[Mapping[str, Iterable[Atom]]] = None,
        stats: Optional[ExecStats] = None,
        memo: Optional[dict] = None,
    ) -> None:
        self.interp = interp
        self.builtins = builtins
        self.delta = delta
        self.stats = stats if stats is not None else ExecStats()
        self.memo = memo

    # -- entry points ------------------------------------------------------------

    def batch(self, node: PlanNode) -> list[Row]:
        """Execute a plan; rows align with ``node.out_vars``."""
        cls = node.__class__
        method = _DISPATCH.get(cls)
        if method is None:  # pragma: no cover - defensive
            raise PlanInapplicable(f"no executor for {cls.__name__}")
        return method(self, node)

    def distinct_batch(self, node: PlanNode) -> list[Row]:
        """``batch()`` without duplicate rows.

        Every engine consumer treats plan output as a *set* of rows (head
        derivation into an interpretation, maintenance keyed on the free
        variables, query answers deduplicated) — deduplicating inside the
        executor lets the columnar subclass collapse duplicates on ID
        columns before paying the per-cell decode.
        """
        return distinct_rows(self.batch(node))

    def shaped_batch(
        self, node: PlanNode, take: tuple[int, ...]
    ) -> tuple[list[Row], Optional[list]]:
        """Distinct rows projected to the ``take`` column indices, and
        their ID columns — ``None`` here; in the columnar subclass one
        int64 vector per row position, the rows decoded from them when
        first read.

        The head-materialization fast path for Datalog-shaped heads: the
        caller builds one atom per returned row, so projecting and
        deduplicating first — on ID columns in the columnar subclass —
        skips decoding and substituting rows that only differ in
        projected-away columns, and whoever stores the rows back
        (``Interpretation.extend``) takes the IDs instead of encoding
        each cell again.
        """
        rows = self.batch(node)
        return distinct_rows([tuple(r[i] for i in take) for r in rows]), None

    def heads(self, node: PlanNode, head: Atom) -> list[Atom]:
        """Execute a (projected, distinct) plan and substitute the head."""
        rows = self.batch(node)
        vars_ = node.out_vars
        if not vars_:
            return [head] if rows else []
        out = []
        for row in rows:
            out.append(head.substitute(Subst._make(dict(zip(vars_, row)))))
        return out

    # -- leaves ------------------------------------------------------------------

    def _unit(self, node: Unit) -> list[Row]:
        self.stats.note(node.op, 0, 1)
        return [()]

    def _scan(self, node: Scan) -> list[Row]:
        a = node.atom
        if node.delta:
            facts: Iterable[Atom] = (
                self.delta.get(a.pred, ()) if self.delta is not None else ()
            )
        else:
            facts = self.interp.candidates_for_pattern(a.pred, a.args)
        shape = node._shape
        if shape is None:
            shape = node._shape = _scan_shape(a, node.out_vars)
        rows: list[Row] = []
        n_in = 0
        arity = a.arity
        if shape is _GENERIC:
            out_vars = node.out_vars
            for f in facts:
                n_in += 1
                for sigma in match_atom(a, f):
                    rows.append(tuple(sigma._map[v] for v in out_vars))
        else:
            var_pos, const_checks, dup_checks, var_sorts = shape
            for f in facts:
                n_in += 1
                args = f.args
                if len(args) != arity:
                    continue
                ok = True
                for i, t in const_checks:
                    if args[i] is not t and args[i] != t:
                        ok = False
                        break
                if ok:
                    for i, j in dup_checks:
                        if args[i] is not args[j] and args[i] != args[j]:
                            ok = False
                            break
                if ok:
                    for p, s in var_sorts:
                        if not sorts_compatible(s, args[p].sort):
                            ok = False
                            break
                if ok:
                    rows.append(tuple(args[p] for p in var_pos))
        self.stats.note(node.op, n_in, len(rows))
        return rows

    # -- binary ------------------------------------------------------------------

    def _join_meta(self, node: Join):
        """Static join metadata, memoized on the node: hash-join key and
        take indices, plus the index-probe descriptor when the right child
        is a plain (non-delta) scan with a deterministic match shape."""
        lv, rv = node.left.out_vars, node.right.out_vars
        lpos = {v: i for i, v in enumerate(lv)}
        rpos = {v: i for i, v in enumerate(rv)}
        lkey = tuple(lpos[v] for v in node.shared)
        rkey = tuple(rpos[v] for v in node.shared)
        rtake = tuple(rpos[v] for v in node.out_vars[len(lv):])
        probe = None
        right = node.right
        if node.shared and right.__class__ is Scan and not right.delta:
            a = right.atom
            shape = right._shape
            if shape is None:
                shape = right._shape = _scan_shape(a, right.out_vars)
            if shape is not _GENERIC:
                var_pos, const_checks, dup_checks, var_sorts = shape
                out_index = {v: i for i, v in enumerate(right.out_vars)}
                # Index signature: the shared variables' (first) argument
                # positions plus the pattern's ground positions, ascending.
                sig = [
                    (var_pos[out_index[v]], None, k)
                    for k, v in enumerate(node.shared)
                ]
                sig += [(p, t, None) for p, t in const_checks]
                sig.sort(key=lambda x: x[0])
                probe = (
                    a.pred,
                    a.arity,
                    tuple(p for p, _, _ in sig),          # index positions
                    tuple((t, k) for _, t, k in sig),     # key template
                    tuple(var_pos[out_index[v]]
                          for v in node.out_vars[len(lv):]),
                    dup_checks,
                    var_sorts,
                )
        return (lkey, rkey, rtake, probe)

    def _join(self, node: Join) -> list[Row]:
        lrows = self.batch(node.left)
        meta = node._meta
        if meta is None:
            meta = node._meta = self._join_meta(node)
        lkey, rkey, rtake, probe = meta
        if not lrows:
            # Nothing to join with (typically a pinned delta scan that
            # matched no fact): do not evaluate the other side at all.
            self.stats.note(node.op, 0, 0)
            return []
        if probe is not None:
            probed = self._probe_join(node, lrows, lkey, probe)
            if probed is not None:
                return probed
        rrows = self.batch(node.right)
        out = join_rows(lrows, rrows, lkey, rkey, rtake)
        self.stats.note(node.op, len(lrows) + len(rrows), len(out))
        return out

    def _probe_join(
        self, node: Join, lrows: list[Row], lkey: tuple[int, ...], probe
    ) -> Optional[list[Row]]:
        """Index nested-loop: probe the scan's relation per distinct key.

        When the left batch has fewer distinct join keys than the right
        relation has facts, reading the relation's incremental argument
        index bucket per key touches exactly the joining facts instead of
        hash-building over a full scan — the batch-level descendant of the
        tuple path's index probes, and what keeps single-delta semi-naive
        rounds O(output).  Returns ``None`` when inapplicable (small
        relations, too many keys) and the caller hash joins instead; both
        strategies compute the same row set.
        """
        pred, arity, positions, template, rtake, dup_checks, var_sorts = probe
        facts = self.interp.facts_of(pred)
        if len(facts) < INDEX_MIN_FACTS:
            return None
        by_key: dict[tuple, list[Row]] = {}
        for l in lrows:
            by_key.setdefault(tuple(l[i] for i in lkey), []).append(l)
        if len(by_key) >= len(facts):
            return None
        out: list[Row] = []
        n_in = len(lrows)
        candidates = self.interp.candidates
        for lkey_vals, bucket_rows in by_key.items():
            probe_key = tuple(
                t if k is None else lkey_vals[k] for t, k in template
            )
            for f in candidates(pred, positions, probe_key):
                n_in += 1
                args = f.args
                if len(args) != arity:
                    continue
                ok = True
                for i, j in dup_checks:
                    if args[i] is not args[j] and args[i] != args[j]:
                        ok = False
                        break
                if ok:
                    for p, s in var_sorts:
                        if not sorts_compatible(s, args[p].sort):
                            ok = False
                            break
                if ok:
                    tail = tuple(args[p] for p in rtake)
                    for l in bucket_rows:
                        out.append(l + tail)
        self.stats.note(node.op, n_in, len(out))
        return out

    # -- per-row operators --------------------------------------------------------

    def _resolver(
        self, term: Term, vars_: Sequence[Var]
    ) -> Callable[[Row], Term]:
        """A per-row evaluator of one argument term under the schema."""
        pos = {v: i for i, v in enumerate(vars_)}
        if term.__class__ is Var:
            i = pos.get(term)
            if i is None:
                return lambda row: term
            return lambda row, i=i: row[i]
        if term.is_ground():
            value = EMPTY_SUBST.apply(term)  # canonicalize once
            return lambda row: value
        needed = [(v, pos[v]) for v in free_vars(term) if v in pos]
        if not needed:
            return lambda row: term

        def resolve(row: Row, term=term, needed=needed) -> Term:
            return Subst._make({v: row[i] for v, i in needed}).apply(term)

        return resolve

    def _select(self, node: Select) -> list[Row]:
        rows = self.batch(node.input)
        a = node.literal.atom
        res = node._meta
        if res is None:
            res = node._meta = tuple(
                self._resolver(t, node.input.out_vars) for t in a.args
            )
        out: list[Row]
        if node.kind == "equals":
            lres, rres = res
            out = [r for r in rows if lres(r) == rres(r)]
        elif node.kind == "member":
            eres, cres = res
            out = []
            for r in rows:
                container = cres(r)
                if not isinstance(container, SetValue):
                    raise PlanInapplicable(
                        f"membership container {container} is not a set"
                    )
                if eres(r) in container.elems:
                    out.append(r)
        else:  # builtin check
            b = self.builtins[a.pred]
            out = []
            for r in rows:
                args = tuple(f(r) for f in res)
                if not b.ready(args):
                    raise PlanInapplicable(
                        f"builtin {a.pred} not ready for {args}"
                    )
                if next(iter(b.solve(args, EMPTY_SUBST)), None) is not None:
                    out.append(r)
        self.stats.note(node.op, len(rows), len(out))
        return out

    def _compute(self, node: Compute) -> list[Row]:
        """Extend each row by the values an equality or builtin binds.

        The new variables are renamed to positional slots (``§0``, ``§1``,
        …, sorts kept), so a builtin input is keyed by its predicate and
        resolved arguments alone and two nodes that ask the same question
        — ``choose_min(X, Y, Z)`` and ``choose_min(P, Y, Z)`` on one ``Z``
        — share one solve.  ``Builtin.solve`` is a function of its
        arguments, so a cached answer is the answer."""
        rows = self.batch(node.input)
        meta = node._meta
        if meta is None:
            slots = tuple(
                Var(f"§{k}", v.var_sort) for k, v in enumerate(node.new_vars)
            )
            renamed = node.atom.substitute(
                Subst._make(dict(zip(node.new_vars, slots)))
            )
            meta = node._meta = (tuple(
                self._resolver(t, node.input.out_vars) for t in renamed.args
            ), slots)
        res, slots = meta
        out: list[Row] = []
        if node.kind == "equals":
            lres, rres = res
            for r in rows:
                l, rt = lres(r), rres(r)
                if not (l.is_ground() or rt.is_ground()):
                    raise PlanInapplicable(
                        f"equality {l} = {rt} with neither side ground"
                    )
                for sigma in unify(l, rt, EMPTY_SUBST):
                    out.append(r + _extension(sigma, slots))
        else:  # builtin binding new variables
            pred = node.atom.pred
            b = self.builtins[pred]
            memo = self.memo if self.memo is not None else {}
            for r in rows:
                args = tuple(f(r) for f in res)
                key = (pred, args)
                ext = memo.get(key)
                if ext is None:
                    if not b.ready(args):
                        raise PlanInapplicable(
                            f"builtin {pred} not ready for {args}"
                        )
                    ext = memo[key] = [
                        _extension(sigma, slots)
                        for sigma in b.solve(args, EMPTY_SUBST)
                    ]
                for e in ext:
                    out.append(r + e)
        self.stats.note(node.op, len(rows), len(out))
        return out

    def _unnest(self, node: Unnest) -> list[Row]:
        rows = self.batch(node.input)
        res = node._meta
        if res is None:
            vars_ = node.input.out_vars
            res = node._meta = (
                self._resolver(node.elem, vars_),
                self._resolver(node.source, vars_),
            )
        eres, sres = res
        out: list[Row] = []
        if node.mode == "expand":
            sort = node.elem.var_sort
            for r in rows:
                source = sres(r)
                if not isinstance(source, SetValue):
                    raise PlanInapplicable(
                        f"membership source {source} is not a set"
                    )
                for e in source.sorted_elems():
                    if sorts_compatible(sort, e.sort):
                        out.append(r + (e,))
        else:  # unify a structured element pattern against each member
            new_vars = node.new_vars
            for r in rows:
                source = sres(r)
                if not isinstance(source, SetValue):
                    raise PlanInapplicable(
                        f"membership source {source} is not a set"
                    )
                elem = eres(r)
                for e in source.sorted_elems():
                    for sigma in unify(elem, e, EMPTY_SUBST):
                        out.append(r + _extension(sigma, new_vars))
        self.stats.note(node.op, len(rows), len(out))
        return out

    def _anti_join(self, node: AntiJoin) -> list[Row]:
        rows = self.batch(node.input)
        a = node.atom
        res = node._meta
        if res is None:
            res = node._meta = tuple(
                self._resolver(t, node.input.out_vars) for t in a.args
            )
        pred = a.pred
        if a.is_special() or pred in self.builtins:
            def holds(ground: Atom) -> bool:
                return evaluate_ground_atom(ground, self._oracle)
        else:
            # A stored relation: cells are ground, membership decides.
            holds = self.interp.facts_of(pred).__contains__
        out = [
            r for r in rows
            if not holds(Atom(pred, tuple(f(r) for f in res)))
        ]
        self.stats.note(node.op, len(rows), len(out))
        return out

    def _oracle(self, a: Atom) -> bool:
        # Mirrors Solver._oracle: builtins are decided by evaluation, other
        # predicates by the (lower-stratum-complete) interpretation; the
        # delta is never consulted — stratified negation reads closed data.
        if a.pred in self.builtins:
            b = self.builtins[a.pred]
            return next(iter(b.solve(a.args, EMPTY_SUBST)), None) is not None
        return self.interp.holds(a)

    # -- schema operators ---------------------------------------------------------

    def _project(self, node: Project) -> list[Row]:
        rows = self.batch(node.input)
        take = node._meta
        if take is None:
            pos = {v: i for i, v in enumerate(node.input.out_vars)}
            take = node._meta = tuple(pos[v] for v in node.vars)
        out = [tuple(r[i] for i in take) for r in rows]
        self.stats.note(node.op, len(rows), len(out))
        return out

    def _distinct(self, node: Distinct) -> list[Row]:
        rows = self.batch(node.input)
        out = distinct_rows(rows)
        self.stats.note(node.op, len(rows), len(out))
        return out

    def _group_by(self, node: GroupBy) -> list[Row]:
        rows = self.batch(node.input)
        meta = node._meta
        if meta is None:
            pos = {v: i for i, v in enumerate(node.input.out_vars)}
            meta = node._meta = (
                tuple(pos[v] for v in node.key_vars), pos[node.group_var]
            )
        key_idx, group_idx = meta
        groups = group_rows(rows, key_idx, group_idx)
        out = [key + (setvalue(values),) for key, values in groups.items()]
        self.stats.note(node.op, len(rows), len(out))
        return out


def _extension(sigma: Subst, new_vars: tuple[Var, ...]) -> Row:
    """Ground values for the variables a unifier/builtin step just bound."""
    cells = []
    for v in new_vars:
        t = sigma.apply(v)
        if not t.is_ground():
            raise PlanInapplicable(f"{v} not grounded by {sigma}")
        cells.append(t)
    return tuple(cells)


#: Sentinel: the pattern needs the generic matcher (structured non-ground
#: args, or ground SetExpr args that must canonicalize before comparing).
_GENERIC = object()


def _scan_shape(a: Atom, out_vars: tuple[Var, ...]):
    """Precompute the deterministic column extraction for a scan pattern.

    Mirrors :func:`repro.core.unify.match_atom_fast`: patterns whose args
    are variables or ground non-``SetExpr`` terms match deterministically,
    so the scan can emit columns directly; anything else falls back to the
    generic enumerating matcher.  ``out_vars`` fixes the column order.
    """
    var_first: dict[Var, int] = {}
    const_checks: list[tuple[int, Term]] = []
    dup_checks: list[tuple[int, int]] = []
    for i, t in enumerate(a.args):
        if t.__class__ is Var:
            j = var_first.get(t)
            if j is None:
                var_first[t] = i
            else:
                dup_checks.append((i, j))
        elif t.__class__ is SetExpr:
            return _GENERIC
        elif t.is_ground():
            const_checks.append((i, t))
        else:
            return _GENERIC
    var_pos = tuple(var_first[v] for v in out_vars)
    var_sorts = tuple(
        (p, v.var_sort)
        for v, p in zip(out_vars, var_pos)
        if v.var_sort != "u"
    )
    return (var_pos, tuple(const_checks), tuple(dup_checks), var_sorts)


_DISPATCH = {
    Unit: Executor._unit,
    Scan: Executor._scan,
    Join: Executor._join,
    Select: Executor._select,
    Compute: Executor._compute,
    Unnest: Executor._unnest,
    AntiJoin: Executor._anti_join,
    Project: Executor._project,
    Distinct: Executor._distinct,
    GroupBy: Executor._group_by,
}
