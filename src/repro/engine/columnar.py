"""Columnar plan execution over dense interned-term IDs.

:class:`ColumnarExecutor` is a drop-in :class:`~repro.engine.executor.Executor`
whose capable operators run on **ID columns** — one int64 vector of dense
:data:`~repro.core.terms.TERM_DICT` IDs per schema variable — instead of
batches of term-object tuples.  Joining, deduplicating, filtering and
projecting integer vectors with numpy replaces the per-cell Python-level
``Term.__hash__``/``__eq__`` calls that dominate the row kernels, while
the append-only term dictionary guarantees *ID equality ⟺ term equality*
for the canonical ground cells every plan produces, so the computed row
sets are identical.

Encode/decode boundaries (see DESIGN.md, "Columnar execution"):

* **encode** — none for stored relations: the interpretation *is* ID
  columns, and ``Scan`` nodes read them
  (:meth:`~repro.semantics.interpretation.Interpretation.id_columns`)
  and filter them with vector masks; a delta that is the row range a
  bulk insert appended
  (:class:`~repro.semantics.interpretation.FactSlice`) is read from the
  ID columns the slice was stored with.  Deltas given as atom sets
  (seeds, maintenance and subscription deltas) and results of
  row-fallback operators are encoded on (re-)entry to a columnar parent.
* **decode** — ``batch()`` (the executor's public entry point) decodes the
  final columns back to term rows; ``shaped_batch()`` returns them as a
  :class:`~repro.engine.executor.RowBatch` of ID columns that decodes
  only when its rows are read, so a head stored with
  ``Interpretation.extend`` or a query answer kept in ID space
  (``engine.answers``) decodes none — and any operator that must see
  real values
  (builtin ``Compute``, ``Unnest``, builtin ``Select`` — plus
  generic-shape scans) runs the inherited row kernel over its decoded
  input.  The per-node
  fallback keeps the plan running columnar around type-sensitive islands.

Capability is static per node (:func:`columnar_capable`): ``Unit``,
``Join``, ``Project``, ``Distinct`` and ``GroupBy`` always qualify;
``Scan`` needs a deterministic match shape; equality/membership
``Select`` and relational ``AntiJoin`` need every argument to be a schema
variable or ground; an equality ``Compute`` must bind its one new
variable to a schema variable or a ground term (a column copy).  Everything else — and every *dynamic* type
misprediction, exactly as in the row executor — falls back, ultimately to
:class:`~repro.engine.executor.PlanInapplicable` and the tuple solver, so
the computed model is the same whichever kernel ran a node
(``tests/test_pipeline_vs_oracle.py`` runs the suite with numpy masked).

numpy is the only soft dependency: without it :func:`make_executor`
hands back the row executor.
"""

from __future__ import annotations

from itertools import repeat
from collections.abc import Sequence
from typing import Mapping, Optional

try:  # gate, don't require: the row executor is the degraded mode
    import numpy as _np
except ImportError:  # pragma: no cover - image always has numpy
    _np = None

from ..core.terms import (
    TERM_DICT,
    SetValue,
    Term,
    Var,
    bind_args,
    canonicalize,
    setvalue,
)
from ..core.sorts import sorts_compatible
from ..semantics.interpretation import (
    INDEX_MIN_FACTS,
    FactSlice,
    Interpretation,
    row_key,
)
from .builtins import Builtin
from .executor import (
    _DISPATCH,
    _GENERIC,
    Executor,
    PlanInapplicable,
    RowBatch,
    _scan_shape,
    bind_pairs,
    fact_rows,
    shaped_rows,
)
from .ir import (
    AntiJoin,
    Compute,
    Distinct,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Row,
    Scan,
    Select,
    Unit,
    distinct_rows,
)

_ID_OF = TERM_DICT.id_of
_TERMS = TERM_DICT.terms

#: Whether the vectorized kernels are available (benchmarks and tests
#: gate their columnar-vs-row comparisons on this).
HAS_NUMPY = _np is not None

#: Operators that are columnar-capable for every instance.
_ALWAYS_COL = (Unit, Join, Project, Distinct, GroupBy)


def _simple_args(
    args: Sequence[Term], out_vars: tuple[Var, ...]
) -> Optional[tuple]:
    """Per-argument access plan when every arg is a schema variable or
    ground: ``("col", index)`` or ``("term", canonical value)``; ``None``
    when any argument is structured-with-variables or an unbound variable
    (those need the row path's unification-aware resolvers)."""
    pos = {v: i for i, v in enumerate(out_vars)}
    metas = []
    for t in args:
        if t.__class__ is Var:
            i = pos.get(t)
            if i is None:
                return None
            metas.append(("col", i))
        elif t.is_ground():
            metas.append(("term", canonicalize(t)))
        else:
            return None
    return tuple(metas)


def _arg_meta(node: PlanNode, args, out_vars):
    """``_simple_args`` memoized on the node (``False`` = not capable)."""
    m = getattr(node, "_cmeta", None)
    if m is None:
        m = _simple_args(args, out_vars)
        if m is None:
            m = False
        node._cmeta = m
    return m


def _copy_meta(node: Compute):
    """``(access, sort)`` of an equality ``Compute`` that binds its one
    new variable, of sort ``sort``, to a schema variable or a ground term
    (``access`` as in :func:`_simple_args`), memoized on the node;
    ``False`` for any other ``Compute``."""
    m = getattr(node, "_cmeta", None)
    if m is None:
        m = False
        if node.kind == "equals" and len(node.new_vars) == 1:
            (v,) = node.new_vars
            l, r = node.atom.args
            other = r if l == v else l if r == v else None
            access = None if other is None else _simple_args(
                (other,), node.input.out_vars
            )
            if access is not None:
                m = (access[0], v.sort)
        node._cmeta = m
    return m


def columnar_capable(node: PlanNode, builtins: Mapping[str, Builtin]) -> bool:
    """Whether :class:`ColumnarExecutor` runs this node on ID columns.

    Static per node; the executor re-checks dynamic predictions (e.g.
    membership containers actually being sets) on real values at run
    time, exactly like the row executor.
    """
    cls = node.__class__
    if cls in _ALWAYS_COL:
        return True
    if cls is Scan:
        shape = node._shape
        if shape is None:
            shape = node._shape = _scan_shape(node.atom, node.out_vars)
        return shape is not _GENERIC
    if cls is Select:
        if node.kind == "builtin":
            return False
        return _arg_meta(
            node, node.literal.atom.args, node.input.out_vars
        ) is not False
    if cls is AntiJoin:
        a = node.atom
        if a.is_special() or a.pred in builtins:
            return False
        return _arg_meta(node, a.args, node.input.out_vars) is not False
    if cls is Compute:
        return _copy_meta(node) is not False
    return False  # Unnest: binds new values per row


def plan_mode_counts(
    root: PlanNode, builtins: Mapping[str, Builtin]
) -> tuple[int, int]:
    """(columnar nodes, row-fallback nodes) the executor would choose."""
    col = row = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if columnar_capable(node, builtins):
            col += 1
        else:
            row += 1
        stack.extend(node.children())
    return col, row


def annotated_pretty(
    node: PlanNode, builtins: Mapping[str, Builtin], indent: int = 0
) -> str:
    """``PlanNode.pretty`` with a per-node ``col``/``row`` mode tag, so
    ``:plan`` shows exactly which operators vectorize."""
    pad = "  " * indent
    tag = "col" if columnar_capable(node, builtins) else "row"
    out = [f"{pad}{node.label()}  ·{tag}"]
    for c in node.children():
        out.append(annotated_pretty(c, builtins, indent + 1))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Vector helpers (all operate on / return int64 ndarrays)
# ---------------------------------------------------------------------------

#: Per-sort compatibility masks over the term dictionary, grown lazily so
#: a scan's sort check becomes one fancy-index per column.  Entries are
#: replaced, never mutated, so concurrently-running executors only risk
#: duplicated work.
_SORT_MASKS: dict = {}


def _sort_mask(sort: str):
    n = len(_TERMS)
    cur = _SORT_MASKS.get(sort)
    if cur is not None and cur[0] >= n:
        return cur[1]
    start, old = (0, None) if cur is None else cur
    ext = _np.fromiter(
        (sorts_compatible(sort, t.sort) for t in _TERMS[start:n]),
        dtype=bool,
        count=n - start,
    )
    arr = ext if old is None else _np.concatenate([old, ext])
    _SORT_MASKS[sort] = (n, arr)
    return arr


def _radix(k: int) -> int:
    """The base that packs ``k`` ID columns into one int64 by mixed radix,
    or 0 when ``k`` columns are too wide for it.

    Every ID a column holds was assigned before the caller read the base,
    so every ID is below it and ``(c0 * base + c1) * base + …`` is a
    code whose order is the rows' lexicographic ID order."""
    base = len(_TERMS)
    return base if base ** k < 2 ** 63 else 0


def _pack(cols: list, base: int):
    """Collapse parallel ID columns into one non-negative int64 code
    column, equal codes for equal rows, ordered as the rows are
    lexicographically: mixed radix in ``base`` (see :func:`_radix`), or —
    base 0, keys too wide for it — successive factorization, which keeps
    codes far below 2**63."""
    codes = cols[0]
    if base:
        for c in cols[1:]:
            codes = codes * base + c
        return codes
    for c in cols[1:]:
        _, inv1 = _np.unique(codes, return_inverse=True)
        u2, inv2 = _np.unique(c, return_inverse=True)
        codes = inv1.astype(_np.int64) * u2.size + inv2.astype(_np.int64)
    return codes


def _key_col(cols: list, key_idx: tuple):
    key = [cols[i] for i in key_idx]
    return _pack(key, _radix(len(key)))


def _key_pair(lkeys: list, rkeys: list) -> tuple:
    """Two sides' key columns packed into comparable code columns: under
    radix each side on its own (the code space is shared by construction),
    wide keys through one factorization of both."""
    base = _radix(len(lkeys))
    if base:
        return _pack(lkeys, base), _pack(rkeys, base)
    n = lkeys[0].size
    packed = _pack([_np.concatenate(p) for p in zip(lkeys, rkeys)], 0)
    return packed[:n], packed[n:]


def _stable_order(key):
    """``argsort(key, kind="stable")`` of a non-negative key column: one
    plain sort of ``key * n + row``, which breaks ties by row, whenever
    that fits int64."""
    n = key.size
    if n and int(key.max()) * n + n < 2 ** 63:
        return _np.sort(key * n + _np.arange(n)) % n
    return _np.argsort(key, kind="stable")


def _equi_join_idx(lk, rk):
    """Matching (left, right) row-index vectors of an equi-join on packed
    int64 key columns: sort the right side once, then binary-search every
    left key and expand the hit ranges — no per-row Python at all."""
    order = _stable_order(rk)
    rs = rk[order]
    lo = _np.searchsorted(rs, lk, "left")
    hi = _np.searchsorted(rs, lk, "right")
    cnt = hi - lo
    total = int(cnt.sum())
    lidx = _np.repeat(_np.arange(lk.size), cnt)
    starts = _np.repeat(lo, cnt)
    offsets = _np.arange(total) - _np.repeat(_np.cumsum(cnt) - cnt, cnt)
    ridx = order[starts + offsets]
    return lidx, ridx


def _take(cols: list, idx) -> list:
    return [c[idx] for c in cols]


def _run_starts(sorted_key):
    """Where each run of equal entries of a sorted column starts, as a
    mask."""
    first = _np.empty(sorted_key.size, dtype=bool)
    first[:1] = True
    _np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    return first


def _distinct_cols_of(n: int, cols: list) -> tuple:
    """Deduplicate ID rows, returning ``(n, cols)`` of the distinct rows
    in ascending lexicographic ID order: sort the packed key, keep the
    entries that differ from their predecessor and ``divmod`` them back
    into columns — or, for keys too wide to pack by radix, take the first
    row of each run of a stable order."""
    if not cols:
        return (1 if n else 0), []
    if n == 0:
        return 0, cols
    base = _radix(len(cols))
    if base:
        key = _np.sort(_pack(cols, base))
        key = key[_run_starts(key)]
        out = []
        for _ in cols[1:]:
            key, low = _np.divmod(key, base)
            out.append(low)
        out.append(key)
        out.reverse()
        return int(key.size), out
    key = _pack(cols, 0)
    order = _stable_order(key)
    first = order[_run_starts(key[order])]
    return int(first.size), _take(cols, first)


def _empty_cols(n: int) -> list:
    return [_np.empty(0, dtype=_np.int64) for _ in range(n)]


#: Size gate: vectorizing pays a fixed per-node cost (ndarray setup,
#: sorts), while the row executor starts from its smallest
#: input and probes indexes — so a plan fed by a tiny scan leaf (a
#: single-fact maintenance delta, a near-empty relation) is cheaper
#: row-at-a-time no matter how large the other leaves are.  Chosen at
#: the maintenance-churn crossover; bulk loads and warm queries are
#: unaffected because every leaf is a full relation.
_MIN_VECTOR_ROWS = 64

#: Kernel choice inside a columnar node that meets a stored relation (the
#: probe join, the anti-join): sorting the relation costs C-speed work
#: linear-log in *its* size, probing it costs a Python step per *input*
#: row, and the two meet where the relation is about this many times the
#: input (measured: 12–20×).  Deep recursions live on the probe side —
#: hundreds of rounds of a few hundred rows each against a relation that
#: keeps growing — and must cost their deltas, not rounds × relation.
_PROBE_RATIO = 16


def _route(node: PlanNode, builtins: Mapping[str, Builtin]) -> tuple:
    """``(builtins, capable, delta predicates, full-relation scans)``:
    what the size gate reads of a node — whether it is
    :func:`columnar_capable` and the scan leaves under it — static per
    plan and registry, so kept on the node."""
    route = getattr(node, "_route", None)
    if route is None or route[0] is not builtins:
        if node.__class__ is Scan:
            preds, full = ((node.atom.pred,), ()) if node.delta \
                else ((), (node,))
        else:
            preds, full = (), ()
            for child in node.children():
                _, _, p, f = _route(child, builtins)
                preds += p
                full += f
        route = node._route = (
            builtins, columnar_capable(node, builtins), preds, full
        )
    return route


class ColumnarExecutor(Executor):
    """Executes plans columnar where capable, row-at-a-time elsewhere.

    Same constructor and public surface as :class:`Executor` —
    ``batch()`` still returns term-tuple rows aligned with ``out_vars``
    and ``heads()`` still materializes head atoms — so every consumer
    (fixpoint, maintenance, server queries, recovery) swaps it in
    without change.  Raises :class:`PlanInapplicable` under exactly the
    same dynamic conditions as the row executor.
    """

    # -- entry points ------------------------------------------------------------

    #: Per-instance copy of :data:`_MIN_VECTOR_ROWS`; equivalence tests
    #: drop it to 0 to force the vector kernels on tiny relations.
    min_vector_rows = _MIN_VECTOR_ROWS

    def _vector(self, node: PlanNode) -> bool:
        """Whether ``node`` runs on the vector kernels here: capable and
        worthwhile (the row kernels ask again for every child they run)."""
        route = _route(node, self.builtins)
        return route[1] and self._vector_worthwhile(node, route)

    def _vector_worthwhile(
        self, node: PlanNode, route: Optional[tuple] = None
    ) -> bool:
        """Whether every scan leaf feeds at least ``min_vector_rows``
        rows (see :data:`_MIN_VECTOR_ROWS`).

        The gate is a pure performance heuristic — both paths compute
        identical rows — so a leaf's answer staying cached while the
        interpretation grows costs at most a missed vectorization, never
        correctness."""
        floor = self.min_vector_rows
        if not floor:
            return True
        _, _, delta_preds, full = route or _route(node, self.builtins)
        # The delta scans this plan contains decide first — their sizes
        # are dict lookups, and semi-naive/maintenance deltas are usually
        # tiny; another predicate's delta says nothing about this plan —
        # then the other leaves, whose estimate may touch an index.
        if delta_preds:
            delta = self.delta
            if not delta:
                return False
            for pred in delta_preds:
                if len(delta.get(pred, ())) < floor:
                    return False
        if not full:
            return True
        # For constant-bound scans the row executor reads an index
        # bucket, so that bucket — not the relation — is the input to
        # beat (same policy + estimate the join planner uses).  Each
        # leaf is estimated once per executor and delta.
        try:
            cache = self._worth
        except AttributeError:
            cache = self._worth = {}
        estimate = self.interp.estimate_for_pattern
        params = self.params
        for scan in full:
            leaf = cache.get(scan)
            if leaf is None:
                a = scan.atom
                args = a.args if params is None \
                    else bind_args(a.args, params)
                leaf = cache[scan] = estimate(a.pred, args) >= floor
            if not leaf:
                return False
        return True

    def batch(self, node: PlanNode) -> list[Row]:
        if self._vector(node):
            n, cols = self.cols(node)
            return self._decode(n, cols)
        return self._row(node)

    def _row(self, node: PlanNode) -> list[Row]:
        """One node on its row kernel (its children are routed anew)."""
        method = _DISPATCH.get(node.__class__)
        if method is None:  # pragma: no cover - defensive
            raise PlanInapplicable(
                f"no executor for {node.__class__.__name__}"
            )
        self.stats.row_nodes += 1
        return method(self, node)

    def distinct_batch(self, node: PlanNode) -> list[Row]:
        if not self._vector(node):
            return distinct_rows(self._row(node))
        n, cols = self.cols(node)
        n, cols = _distinct_cols_of(n, cols)
        return self._decode(n, cols)

    def shaped_batch(
        self, node: PlanNode, take: tuple[int, ...]
    ) -> RowBatch:
        if not self._vector(node):
            return shaped_rows(self._row(node), take)
        n, cols = self.cols(node)
        n, cols = _distinct_cols_of(n, [cols[i] for i in take])
        return RowBatch(n, cols=cols, stats=self.stats)

    def cols(self, node: PlanNode) -> tuple:
        """Execute a plan as ID columns aligned with ``node.out_vars``."""
        cls = node.__class__
        if columnar_capable(node, self.builtins):
            self.stats.col_nodes += 1
            return _COL_DISPATCH[cls](self, node)
        method = _DISPATCH.get(cls)
        if method is None:  # pragma: no cover - defensive
            raise PlanInapplicable(f"no executor for {cls.__name__}")
        self.stats.row_nodes += 1
        return self._encode(method(self, node), len(node.out_vars))

    # -- encode / decode ---------------------------------------------------------

    def _encode(self, rows: list[Row], ncols: int) -> tuple:
        n = len(rows)
        self.stats.rows_encoded += n
        if not ncols:
            return n, []
        id_of = _ID_OF
        cols = [
            _np.fromiter((id_of(r[j]) for r in rows), _np.int64, count=n)
            for j in range(ncols)
        ]
        return n, cols

    def _decode(self, n: int, cols: list) -> list[Row]:
        self.stats.rows_decoded += n
        if not cols:
            return [()] * n
        term = _TERMS.__getitem__
        return list(zip(*[map(term, c.tolist()) for c in cols]))

    # -- leaves ------------------------------------------------------------------

    def _unit_cols(self, node: Unit) -> tuple:
        self.stats.note(node.op, 0, 1)
        return 1, []

    def _scan_cols(self, node: Scan) -> tuple:
        a = node.atom
        var_pos, const_checks, dup_checks, var_sorts = node._shape
        params = self.params
        if params is not None:
            const_checks = bind_pairs(const_checks, params)
        # Where the rows' IDs come from, as (arity, rows, columns): the
        # relation's for a full scan; for a delta that is the row range a
        # bulk insert appended (``FactSlice``), the slice's own.
        facts = source = None
        if not node.delta:
            source = self.interp.id_columns(a.pred)
        else:
            facts = self.delta.get(a.pred, ()) if self.delta is not None else ()
            if isinstance(facts, FactSlice):
                source = (len(facts.id_cols), len(facts), facts.id_cols)
        if source is not None:
            arity, n, bufs = source
            if arity != a.arity:
                self.stats.note(node.op, n, 0)
                return 0, _empty_cols(len(var_pos))
            cols = [
                _np.frombuffer(b, dtype=_np.int64, count=n) for b in bufs
            ]
            mask = None
            for i, t in const_checks:
                m = cols[i] == _ID_OF(t)
                mask = m if mask is None else (mask & m)
            for i, j in dup_checks:
                m = cols[i] == cols[j]
                mask = m if mask is None else (mask & m)
            for p, s in var_sorts:
                m = _sort_mask(s)[cols[p]]
                mask = m if mask is None else (mask & m)
            if mask is None:
                out = [cols[p] for p in var_pos]
                n_out = n
            else:
                out = [cols[p][mask] for p in var_pos]
                n_out = int(mask.sum())
            self.stats.note(node.op, n, n_out)
            return n_out, out
        if facts is None:                   # the relation is empty
            self.stats.note(node.op, 0, 0)
            return 0, _empty_cols(len(var_pos))
        # Atom-set deltas: encode while matching.  A predicate has one
        # arity, so the first row's is every row's.
        rows = fact_rows(facts)
        if rows and len(rows[0]) != a.arity:
            rows = ()
        matched: list = []
        append = matched.append
        n_in = 0
        for args in rows:
            n_in += 1
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
                append(args)
        id_of = _ID_OF
        n_out = len(matched)
        cols = [
            _np.fromiter(
                (id_of(args[p]) for args in matched), _np.int64, count=n_out
            )
            for p in var_pos
        ]
        self.stats.rows_encoded += n_out
        self.stats.note(node.op, n_in, n_out)
        return n_out, cols

    # -- binary ------------------------------------------------------------------

    def _join_cols(self, node: Join) -> tuple:
        ln, lcols = self.cols(node.left)
        meta = node._meta
        if meta is None:
            meta = node._meta = self._join_meta(node)
        lkey, rkey, rtake, probe = meta
        if ln and probe is not None:
            probed = self._probe_join_cols(node, ln, lcols, lkey, probe)
            if probed is not None:
                return probed
        rn, rcols = self.cols(node.right)
        if not ln or not rn:
            self.stats.note(node.op, ln + rn, 0)
            return 0, _empty_cols(len(node.out_vars))
        if not lkey:  # cross join
            lidx = _np.repeat(_np.arange(ln), rn)
            ridx = _np.tile(_np.arange(rn), ln)
        else:
            lk, rk = _key_pair(
                [lcols[i] for i in lkey], [rcols[j] for j in rkey]
            )
            lidx, ridx = _equi_join_idx(lk, rk)
        out = _take(lcols, lidx) + _take([rcols[i] for i in rtake], ridx)
        n_out = int(lidx.size)
        self.stats.note(node.op, ln + rn, n_out)
        return n_out, out

    def _probe_join_cols(
        self, node: Join, ln: int, lcols: list, lkey: tuple, probe
    ) -> Optional[tuple]:
        """Index nested-loop on ID columns: per distinct left key, read
        the slots of the relation's argument-index bucket — or, when the
        key binds every position, its one key-map probe — and take the
        joining rows' IDs straight from its columns — the columnar mirror
        of :meth:`Executor._probe_join`, same row set when it applies.

        The applicability gate is stricter than the row executor's:
        probing runs a Python loop per candidate fact, while the
        vectorized sort join costs C-speed work linear-log in the
        relation, so probing only pays off when the distinct left keys
        select a small fraction of the relation (the semi-naive
        small-delta rounds it exists for)."""
        pred, arity, positions, template, rtake, dup_checks, var_sorts = probe
        facts = self.interp.facts_of(pred)
        if len(facts) < INDEX_MIN_FACTS or facts.arity != arity:
            return None
        # Gate on the C-side distinct-key count before paying the Python
        # tolist/dict materialization it would take to actually probe
        # (sort+diff: cheaper than np.unique's hash table on int64).
        sk = _np.sort(_key_col(lcols, lkey))
        nkeys = 1 + int((sk[1:] != sk[:-1]).sum())
        if nkeys * _PROBE_RATIO >= len(facts):
            return None
        if self.params is not None:
            template = bind_pairs(template, self.params)
        lkeys = list(zip(*[lcols[i].tolist() for i in lkey]))
        by_key: dict = {}
        for i, k in enumerate(lkeys):
            b = by_key.get(k)
            if b is None:
                by_key[k] = [i]
            else:
                b.append(i)
        template = tuple(
            (k, None if k is not None else _ID_OF(t)) for k, t in template
        )
        lookup = self.interp.lookup
        rcols = facts.cols
        tail_cols = [rcols[p] for p in rtake]
        lidx: list = []
        tails: list = []
        n_in = ln
        for key_ids, bucket in by_key.items():
            key = row_key([i if k is None else key_ids[k] for k, i in template])
            for slot in lookup(pred, positions, key)[1]:
                n_in += 1
                ok = True
                for i, j in dup_checks:
                    if rcols[i][slot] != rcols[j][slot]:
                        ok = False
                        break
                if ok:
                    for p, s in var_sorts:
                        if not sorts_compatible(s, _TERMS[rcols[p][slot]].sort):
                            ok = False
                            break
                if ok:
                    tail = tuple([c[slot] for c in tail_cols])
                    for i in bucket:
                        lidx.append(i)
                        tails.append(tail)
        idx = _np.asarray(lidx, dtype=_np.int64)
        out = _take(lcols, idx)
        n_out = len(lidx)
        out += [
            _np.fromiter((t[j] for t in tails), _np.int64, count=n_out)
            for j in range(len(rtake))
        ]
        self.stats.note(node.op, n_in, n_out)
        return n_out, out

    # -- per-row operators --------------------------------------------------------

    def _select_cols(self, node: Select) -> tuple:
        n, cols = self.cols(node.input)
        metas = node._cmeta  # set by columnar_capable before dispatch
        if self.params is not None:
            metas = bind_pairs(metas, self.params)
        if node.kind == "equals":
            (lk, lv), (rk, rv) = metas
            if lk == "col" and rk == "col":
                mask = cols[lv] == cols[rv]
            elif lk == "col":
                mask = cols[lv] == _ID_OF(rv)
            elif rk == "col":
                mask = cols[rv] == _ID_OF(lv)
            else:
                n_out = n if _ID_OF(lv) == _ID_OF(rv) else 0
                self.stats.note(node.op, n, n_out)
                return (n, cols) if n_out else (0, _empty_cols(len(cols)))
            out = [c[mask] for c in cols]
            n_out = int(mask.sum())
            self.stats.note(node.op, n, n_out)
            return n_out, out
        # membership check: the container's real value decides
        (ek, ev), (ck, cv) = metas
        if ck == "col":
            containers = [_TERMS[i] for i in cols[cv].tolist()]
        else:
            if n and not isinstance(cv, SetValue):
                raise PlanInapplicable(
                    f"membership container {cv} is not a set"
                )
            containers = repeat(cv, n)
        if ek == "col":
            elems = [_TERMS[i] for i in cols[ev].tolist()]
        else:
            elems = repeat(ev, n)
        keep: list = []
        ka = keep.append
        for i, (e, container) in enumerate(zip(elems, containers)):
            if not isinstance(container, SetValue):
                raise PlanInapplicable(
                    f"membership container {container} is not a set"
                )
            if e in container.elems:
                ka(i)
        idx = _np.asarray(keep, dtype=_np.int64)
        out = _take(cols, idx)
        self.stats.note(node.op, n, len(keep))
        return len(keep), out

    def _compute_cols(self, node: Compute) -> tuple:
        """``X = Z`` binding ``Z``: the source column (or the ground
        term, repeated) becomes ``Z``'s, less the rows whose value the
        row path's unification refuses for ``Z``'s sort."""
        n, cols = self.cols(node.input)
        access, sort = node._cmeta
        if self.params is not None:
            (access,) = bind_pairs((access,), self.params)
        kind, v = access
        if kind == "col":
            col = cols[v]
            keep = _sort_mask(sort)[col]
            if keep.all():
                keep = None
        else:
            col = _np.full(n, _ID_OF(v), dtype=_np.int64)
            keep = None if sorts_compatible(sort, v.sort) \
                else _np.zeros(n, dtype=bool)
        out = [*cols, col]
        if keep is not None:
            out = [c[keep] for c in out]
        n_out = len(out[-1])
        self.stats.note(node.op, n, n_out)
        return n_out, out

    def _anti_join_cols(self, node: AntiJoin) -> tuple:
        n, cols = self.cols(node.input)
        metas = node._cmeta
        if self.params is not None:
            metas = bind_pairs(metas, self.params)
        pred = node.atom.pred
        facts = self.interp.facts_of(pred)
        keep = None                         # ``None`` keeps every row
        n_in = n                            # rows the kernel reads
        if not n or not facts or len(metas) != facts.arity:
            pass                            # no fact is an instance
        elif not metas:                     # zero-arity atom: one probe
            if facts.has_row(()):
                keep = _np.zeros(n, dtype=bool)
        elif n * _PROBE_RATIO >= len(facts):
            entry = self.interp.id_columns(pred)
            n_in += entry[1]
            keep = self._absent_mask(n, cols, metas, entry)
        else:
            # Few rows against a large relation (sorting it would cost
            # more than the rows — see ``_PROBE_RATIO``): probe the key
            # map once per row.
            seqs = [
                cols[v].tolist() if k == "col" else repeat(_ID_OF(v), n)
                for k, v in metas
            ]
            held = facts.keys
            keep = _np.fromiter(
                (row_key(ids) not in held for ids in zip(*seqs)),
                bool, count=n,
            )
        if keep is None:
            self.stats.note(node.op, n_in, n)
            return n, cols
        n_out = int(keep.sum())
        self.stats.note(node.op, n_in, n_out)
        return n_out, [c[keep] for c in cols]

    @staticmethod
    def _absent_mask(n: int, cols: list, metas: tuple, entry: tuple):
        """Which of the ``n`` input rows have no fact of the relation
        (``entry`` = its ``id_columns``) as their instance of the atom:
        the relation is cut down to the facts matching the atom's
        constants and repeated variables, then both sides meet on one
        packed key column."""
        rcols = [_np.frombuffer(b, dtype=_np.int64) for b in entry[2]]
        rmask = None
        first: dict = {}                    # input column -> relation position
        for j, (kind, v) in enumerate(metas):
            if kind == "term":
                m = rcols[j] == _ID_OF(v)
            elif v in first:
                m = rcols[j] == rcols[first[v]]
            else:
                first[v] = j
                continue
            rmask = m if rmask is None else (rmask & m)
        if not first:                       # ground atom: one answer for all
            return None if not rmask.any() else _np.zeros(n, dtype=bool)
        rkeys = [rcols[j] for j in first.values()]
        if rmask is not None:
            rkeys = [c[rmask] for c in rkeys]
        if not rkeys[0].size:
            return None
        lk, rk = _key_pair([cols[i] for i in first], rkeys)
        # Sort the relation's keys once and binary-search every row's.
        rs = _np.sort(rk)
        at = _np.searchsorted(rs, lk)
        at[at == rs.size] = 0               # beyond the last key: no match
        return rs[at] != lk

    # -- schema operators ---------------------------------------------------------

    def _project_cols(self, node: Project) -> tuple:
        n, cols = self.cols(node.input)
        take = node._meta
        if take is None:
            pos = {v: i for i, v in enumerate(node.input.out_vars)}
            take = node._meta = tuple(pos[v] for v in node.vars)
        # Columns are never mutated once built, so projection shares them.
        self.stats.note(node.op, n, n)
        return n, [cols[i] for i in take]

    def _distinct_cols(self, node: Distinct) -> tuple:
        n, cols = self.cols(node.input)
        n_out, out = _distinct_cols_of(n, cols)
        self.stats.note(node.op, n, n_out)
        return n_out, out

    def _group_by_cols(self, node: GroupBy) -> tuple:
        n, cols = self.cols(node.input)
        meta = node._meta
        if meta is None:
            pos = {v: i for i, v in enumerate(node.input.out_vars)}
            meta = node._meta = (
                tuple(pos[v] for v in node.key_vars), pos[node.group_var]
            )
        key_idx, group_idx = meta
        if n == 0:
            self.stats.note(node.op, 0, 0)
            return 0, _empty_cols(len(key_idx) + 1)
        term = _TERMS.__getitem__
        id_of = _ID_OF
        if not key_idx:  # one group holding every value
            members = set(cols[group_idx].tolist())
            gid = id_of(setvalue(map(term, members)))
            self.stats.note(node.op, n, 1)
            return 1, [_np.asarray([gid], dtype=_np.int64)]
        key = _key_col(cols, key_idx)
        order = _stable_order(key)
        starts = _np.flatnonzero(_run_starts(key[order]))
        groups = _np.split(cols[group_idx][order], starts[1:])
        reps = order[starts]
        out = _take([cols[i] for i in key_idx], reps)
        out.append(_np.fromiter(
            (id_of(setvalue(map(term, set(g.tolist())))) for g in groups),
            _np.int64,
            count=len(groups),
        ))
        self.stats.note(node.op, n, len(groups))
        return len(groups), out


_COL_DISPATCH = {
    Unit: ColumnarExecutor._unit_cols,
    Scan: ColumnarExecutor._scan_cols,
    Join: ColumnarExecutor._join_cols,
    Select: ColumnarExecutor._select_cols,
    Compute: ColumnarExecutor._compute_cols,
    AntiJoin: ColumnarExecutor._anti_join_cols,
    Project: ColumnarExecutor._project_cols,
    Distinct: ColumnarExecutor._distinct_cols,
    GroupBy: ColumnarExecutor._group_by_cols,
}


def make_executor(
    interp: Interpretation, builtins, delta=None, stats=None, memo=None
) -> Executor:
    """The columnar executor, or the row executor when numpy is absent."""
    cls = ColumnarExecutor if _np is not None else Executor
    return cls(interp, builtins, delta=delta, stats=stats, memo=memo)
