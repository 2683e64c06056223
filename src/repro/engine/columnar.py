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

* **encode** — ``Scan`` nodes read the interpretation's cached relation
  columns
  (:meth:`~repro.semantics.interpretation.Interpretation.id_columns`,
  built incrementally like its argument indexes) and filter them with
  vector masks; a delta that is the row range a bulk insert appended
  (:class:`~repro.semantics.interpretation.FactSlice`) is read from the
  ID columns the slice was stored with.  Deltas given as atom sets
  (seeds, maintenance and subscription deltas) and results of
  row-fallback operators are encoded on (re-)entry to a columnar parent.
* **decode** — ``batch()`` (the executor's public entry point) decodes the
  final columns back to term rows for head materialization —
  ``shaped_batch()`` returns the columns beside the rows, so storing them
  needs no encode, and decodes the rows only when they are read, so a
  query answer that keeps the columns (``engine.answers``) builds none —
  and any operator that must see real values
  (``Compute``, ``Unnest``, builtin ``Select`` — plus generic-shape scans)
  runs the inherited row kernel over its decoded input.  The per-node
  fallback keeps the plan running columnar around type-sensitive islands.

Capability is static per node (:func:`columnar_capable`): ``Unit``,
``Join``, ``Project``, ``Distinct`` and ``GroupBy`` always qualify;
``Scan`` needs a deterministic match shape; equality/membership
``Select`` and relational ``AntiJoin`` need every argument to be a schema
variable or ground.  Everything else — and every *dynamic* type
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
from typing import Iterable, Mapping, Optional

try:  # gate, don't require: the row executor is the degraded mode
    import numpy as _np
except ImportError:  # pragma: no cover - image always has numpy
    _np = None

from ..core.atoms import Atom
from ..core.terms import TERM_DICT, SetValue, Term, Var, canonicalize, setvalue
from ..core.sorts import sorts_compatible
from ..semantics.interpretation import (
    INDEX_MIN_FACTS,
    FactSlice,
    Interpretation,
)
from .builtins import Builtin
from .executor import _GENERIC, Executor, PlanInapplicable, _DISPATCH, _scan_shape
from .ir import (
    AntiJoin,
    Distinct,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Row,
    Scan,
    Select,
    Unit,
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
    return False  # Compute, Unnest: bind new values per row


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


def distinct_terms(id_cols: Sequence) -> Iterable[Term]:
    """Every term a batch of ID columns mentions, once each — told apart
    as integers, no ``Term.__hash__`` per cell."""
    return map(
        _TERMS.__getitem__, set().union(*(c.tolist() for c in id_cols))
    )


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


class _Undecoded(Sequence):
    """The term rows of ``n`` ID rows, decoded (and counted) when first
    read: a consumer that keeps the ID columns — a query answer on its
    way to the wire — never pays for them."""

    __slots__ = ("_executor", "_n", "_cols", "_rows")

    def __init__(self, executor: "ColumnarExecutor", n: int, cols: list) -> None:
        self._executor = executor
        self._n = n
        self._cols = cols
        self._rows: Optional[list[Row]] = None

    def _decoded(self) -> list[Row]:
        rows = self._rows
        if rows is None:
            rows = self._rows = self._executor._decode(self._n, self._cols)
        return rows

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        return self._decoded() == other


class ColumnarExecutor(Executor):
    """Executes plans columnar where capable, row-at-a-time elsewhere.

    Same constructor and public surface as :class:`Executor` —
    ``batch()`` still returns term-tuple rows aligned with ``out_vars``
    and ``heads()`` still materializes head atoms — so every consumer
    (fixpoint, maintenance, server queries, recovery replay) swaps it in
    without change.  Raises :class:`PlanInapplicable` under exactly the
    same dynamic conditions as the row executor.
    """

    # -- entry points ------------------------------------------------------------

    #: Per-instance copy of :data:`_MIN_VECTOR_ROWS`; equivalence tests
    #: drop it to 0 to force the vector kernels on tiny relations.
    min_vector_rows = _MIN_VECTOR_ROWS

    def batch(self, node: PlanNode) -> list[Row]:
        if columnar_capable(node, self.builtins) \
                and self._vector_worthwhile(node):
            n, cols = self.cols(node)
            return self._decode(n, cols)
        method = _DISPATCH.get(node.__class__)
        if method is None:  # pragma: no cover - defensive
            raise PlanInapplicable(
                f"no executor for {node.__class__.__name__}"
            )
        self.stats.row_nodes += 1
        return method(self, node)

    def distinct_batch(self, node: PlanNode) -> list[Row]:
        if not columnar_capable(node, self.builtins) \
                or not self._vector_worthwhile(node):
            return super().distinct_batch(node)
        n, cols = self.cols(node)
        n, cols = _distinct_cols_of(n, cols)
        return self._decode(n, cols)

    def shaped_batch(
        self, node: PlanNode, take: tuple[int, ...]
    ) -> tuple[list[Row], Optional[list]]:
        if not columnar_capable(node, self.builtins) \
                or not self._vector_worthwhile(node):
            return super().shaped_batch(node, take)
        n, cols = self.cols(node)
        n, cols = _distinct_cols_of(n, [cols[i] for i in take])
        return _Undecoded(self, n, cols), cols

    def _vector_worthwhile(self, node: PlanNode) -> bool:
        """Whether every scan leaf feeds at least ``min_vector_rows``
        rows (see :data:`_MIN_VECTOR_ROWS`).

        Memoized per executor (row kernels recurse through ``batch``, so
        the same subtrees are asked repeatedly).  The gate is a pure
        performance heuristic — both paths compute identical rows — so a
        decision staying cached while the interpretation grows costs at
        most a missed vectorization, never correctness."""
        floor = self.min_vector_rows
        if not floor:
            return True
        try:
            cache = self._worth
        except AttributeError:
            cache = self._worth = {}
        hit = cache.get(node)
        if hit is not None:
            return hit
        # The delta scans this plan contains decide first — their sizes
        # are dict lookups, and semi-naive/maintenance deltas are usually
        # tiny; another predicate's delta says nothing about this plan —
        # then the other leaves, whose estimate may touch an index.
        delta = self.delta
        worth = True
        full: list = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.__class__ is not Scan:
                stack.extend(n.children())
            elif not n.delta:
                full.append(n.atom)
            elif len(delta.get(n.atom.pred, ()) if delta else ()) < floor:
                worth = False
                break
        if worth:
            # For constant-bound scans the row executor reads an index
            # bucket, so that bucket — not the relation — is the input
            # to beat (same policy + estimate the join planner uses).
            estimate = self.interp.estimate_for_pattern
            for a in full:
                if estimate(a.pred, a.args) < floor:
                    worth = False
                    break
        cache[node] = worth
        return worth

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
        # Where the rows' IDs come from, as (arity, rows, column bytes,
        # first row): the relation's cached columns for a full scan; for
        # a delta that is the row range a bulk insert appended
        # (``FactSlice``) the slice's own columns, or — when it was
        # stored without them — that range of the relation's, unless the
        # relation so outgrew the slice that bringing its cache up to
        # date would cost more than encoding the slice (``_PROBE_RATIO``).
        facts = source = None
        if not node.delta:
            entry = self.interp.id_columns(a.pred)
            if entry is not None:
                source = (*entry, 0)
        else:
            facts = self.delta.get(a.pred, ()) if self.delta is not None else ()
            if isinstance(facts, FactSlice):
                n = len(facts)
                if facts.id_cols is not None:
                    source = (len(facts.id_cols), n, facts.id_cols, 0)
                elif n * _PROBE_RATIO >= len(self.interp.facts_of(a.pred)):
                    entry = self.interp.id_columns(a.pred)
                    if entry is not None:
                        source = (entry[0], n, entry[2], facts.start)
        if source is not None:
            arity, n, bufs, lo = source
            if arity != a.arity:
                self.stats.note(node.op, n, 0)
                return 0, _empty_cols(len(var_pos))
            cols = [
                _np.frombuffer(b, dtype=_np.int64, count=n, offset=8 * lo)
                for b in bufs
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
        if facts is None:
            facts = self.interp.candidates_for_pattern(a.pred, a.args)
        # Delta scans and uncacheable relations: encode while matching.
        arity = a.arity
        matched: list = []
        append = matched.append
        n_in = 0
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
        """Index nested-loop on ID columns: per distinct left key, decode
        the key terms once, read the relation's argument-index bucket and
        encode only the joining facts — the columnar mirror of
        :meth:`Executor._probe_join`, same row set when it applies.

        The applicability gate is stricter than the row executor's:
        probing runs a Python loop per candidate fact, while the
        vectorized sort join costs C-speed work linear-log in the
        relation, so probing only pays off when the distinct left keys
        select a small fraction of the relation (the semi-naive
        small-delta rounds it exists for)."""
        pred, arity, positions, template, rtake, dup_checks, var_sorts = probe
        facts = self.interp.facts_of(pred)
        if len(facts) < INDEX_MIN_FACTS:
            return None
        # Gate on the C-side distinct-key count before paying the Python
        # tolist/dict materialization it would take to actually probe
        # (sort+diff: cheaper than np.unique's hash table on int64).
        sk = _np.sort(_key_col(lcols, lkey))
        nkeys = 1 + int((sk[1:] != sk[:-1]).sum())
        if nkeys * _PROBE_RATIO >= len(facts):
            return None
        lkeys = list(zip(*[lcols[i].tolist() for i in lkey]))
        by_key: dict = {}
        for i, k in enumerate(lkeys):
            b = by_key.get(k)
            if b is None:
                by_key[k] = [i]
            else:
                b.append(i)
        id_of = _ID_OF
        candidates = self.interp.candidates
        lidx: list = []
        tails: list = []
        n_in = ln
        for key_ids, bucket in by_key.items():
            probe_key = tuple(
                t if k is None else _TERMS[key_ids[k]] for t, k in template
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
                    tail = tuple(id_of(args[p]) for p in rtake)
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

    def _anti_join_cols(self, node: AntiJoin) -> tuple:
        n, cols = self.cols(node.input)
        metas = node._cmeta
        pred = node.atom.pred
        facts = self.interp.facts_of(pred)
        keep = None                         # ``None`` keeps every row
        n_in = n                            # rows the kernel reads
        if not n or not facts:
            pass
        elif not metas:                     # zero-arity atom: one probe
            if Atom(pred, ()) in facts:
                keep = _np.zeros(n, dtype=bool)
        elif n * _PROBE_RATIO >= len(facts) and (
            entry := self.interp.id_columns(pred)
        ) is not None:
            n_in += entry[1]
            keep = self._absent_mask(n, cols, metas, entry)
        else:
            # Few rows against a large relation (sorting it would cost
            # more than the rows — see ``_PROBE_RATIO``), or a mixed-arity
            # relation without a column cache: decide each row on real
            # values, like the row kernel.
            term = _TERMS.__getitem__
            seqs = [
                map(term, cols[v].tolist()) if k == "col" else repeat(v, n)
                for k, v in metas
            ]
            keep = _np.fromiter(
                (Atom(pred, args) not in facts for args in zip(*seqs)),
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
        arity, rn, bufs = entry
        if arity != len(metas):
            return None
        rcols = [_np.frombuffer(b, dtype=_np.int64) for b in bufs]
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
