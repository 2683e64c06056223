"""Spans around the layers' entry points, recorded from outside ``src/``.

:data:`WRAPS` is the one table of ``(layer, span name, module, attribute)``
entry points.  :class:`Tracer` replaces each with a timing wrapper -- in
the defining module or class *and* in every loaded ``repro`` module that
imported the function by name -- and puts every original back on exit.

A span is ``(layer, name, start, end, parent, thread)``.  Spans are kept in
memory per thread and written out when the run ends.  Self time is the
span's duration minus the time its child spans (same thread) cover.  A
wrapped generator (``Solver.solve``) counts only the time spent inside its
frames, not the time its consumer holds it suspended.  A wrapped function
that re-enters itself (``pretty_term`` on a nested term) records the
outermost call only.

The traced pass keeps one client request in flight, so a span belongs to
the request whose ``[send, done]`` interval contains its start; the
asynchronous write stages fall in the same interval because the traced
writer waits for follower and subscriber before the next commit.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

R, F, M, B = "read_serve", "write_fanout", "mixed_rw", "batch_fixpoint"
SERVING = frozenset({R, F, M})
WRITING = frozenset({F, M})
EVERY = frozenset({R, F, M, B})
NONE: frozenset = frozenset()


@dataclass(frozen=True)
class Wrap:
    layer: str
    name: str
    module: str
    #: ``function`` or ``Class.method``.
    attr: str
    #: Workloads whose measured phase must record at least one such span.
    hit: frozenset = NONE
    #: Workloads whose measured phase must record none.
    bypass: frozenset = NONE
    #: ``tag(args, kwargs) -> str`` appended to the span name.
    tag: Optional[Callable] = None
    #: ``note(result) -> value`` stored with the span.
    note: Optional[Callable] = None


def _delta_tag(args, kwargs) -> str:
    """``apply_delta(self, adds, dels)``: which side the delta is on."""
    adds = kwargs.get("adds", args[1] if len(args) > 1 else ())
    dels = kwargs.get("dels", args[2] if len(args) > 2 else ())
    has_a, has_d = bool(adds), bool(dels)
    if has_a and has_d:
        return ":mixed"
    return ":add" if has_a else ":del" if has_d else ":noop"


def _plan_mode(result) -> str:
    return "set" if result.is_set else "tuple"


def _eval_note(model) -> dict:
    """What one ``Evaluator.run`` derived and its own counters."""
    execs = model.report.exec
    return {
        "atoms": len(model.interpretation),
        "answers": len(model.interpretation),
        "fallbacks": model.report.stats.fallbacks,
        "rows_in": execs.rows_in,
        **execs.columnar_summary(),
    }


def _replayed(model) -> object:
    """WAL records ``recover`` replayed past the checkpoint.  The store
    keeps that count in a private field and offers no public reader."""
    return getattr(model, "_records_since_checkpoint", None)


#: Public entry points wherever the live path goes through one.  Five rows
#: name private methods, because the work they time has no public boundary:
#: the subscription dispatcher thread calls ``_dispatch`` -> ``_diff`` ->
#: ``_delta_diff`` / ``_eval_rows`` directly (the public
#: ``SubscriptionManager.diff`` is a synchronous helper the server never
#: calls), the store runs its commit listeners from ``_notify_commit``, and
#: the follower's tailing thread applies each record in ``_apply_record``.
#: A row whose name has gone is skipped by ``install`` and reported by
#: ``integrity``; it does not stop the traced pass.
WRAPS: tuple[Wrap, ...] = (
    # lang: text <-> terms.  Reads parse each fresh query text; a write
    # parses its fact, then the codec re-prints and re-parses it per WAL
    # record, on the leader and again on the follower.
    Wrap("lang", "parse_program", "repro.lang.parser", "parse_program",
         hit=EVERY),
    Wrap("lang", "parse_atom", "repro.lang.parser", "parse_atom",
         hit=WRITING, bypass={R, B}),
    Wrap("lang", "pretty_atom", "repro.lang.pretty", "pretty_atom",
         hit=WRITING, bypass={R, B}),
    Wrap("lang", "pretty_term", "repro.lang.pretty", "pretty_term",
         hit=WRITING, bypass={R, B}),
    Wrap("lang", "pretty_clause", "repro.lang.pretty", "pretty_clause",
         bypass={R, B}),
    Wrap("lang", "pretty_program", "repro.lang.pretty", "pretty_program",
         bypass={R, B}),
    # engine.planner
    Wrap("engine.planner", "compile_rule", "repro.engine.planner",
         "compile_rule", hit=EVERY, note=_plan_mode),
    Wrap("engine.planner", "compile_body", "repro.engine.planner",
         "compile_body", hit=EVERY),
    Wrap("engine.planner", "compile_grouping", "repro.engine.planner",
         "compile_grouping", hit={B}, note=_plan_mode),
    # engine.executor / engine.columnar: one span per plan execution.  The
    # columnar executor is the default; a row-executor span under it is a
    # per-node or whole-plan fallback.
    Wrap("engine.executor", "heads", "repro.engine.executor",
         "Executor.heads"),
    Wrap("engine.executor", "batch", "repro.engine.executor",
         "Executor.batch"),
    Wrap("engine.executor", "distinct_batch", "repro.engine.executor",
         "Executor.distinct_batch"),
    Wrap("engine.executor", "shaped_batch", "repro.engine.executor",
         "Executor.shaped_batch"),
    Wrap("engine.columnar", "batch", "repro.engine.columnar",
         "ColumnarExecutor.batch", hit=EVERY),
    Wrap("engine.columnar", "distinct_batch", "repro.engine.columnar",
         "ColumnarExecutor.distinct_batch", hit=WRITING),
    Wrap("engine.columnar", "shaped_batch", "repro.engine.columnar",
         "ColumnarExecutor.shaped_batch", hit=EVERY),
    # engine.evaluation: from-scratch evaluation runs per repetition on
    # batch_fixpoint and at recovery on the servers, never in a timed
    # serving run; the tuple solver serves the non-plan strata.
    Wrap("engine.evaluation", "run", "repro.engine.evaluation",
         "Evaluator.run", hit=EVERY, bypass=SERVING, note=_eval_note),
    Wrap("engine.evaluation", "solve", "repro.engine.evaluation",
         "Solver.solve", hit=WRITING | {B}, bypass={R}),
    # engine.maintenance: leader apply and follower replay both land here.
    Wrap("engine.maintenance", "apply_delta", "repro.engine.maintenance",
         "MaterializedModel.apply_delta", hit=WRITING, bypass={R, B},
         tag=_delta_tag),
    # semantics.interpretation
    Wrap("semantics.interpretation", "snapshot",
         "repro.semantics.interpretation", "Interpretation.snapshot",
         hit=WRITING, bypass={R, B}),
    Wrap("semantics.interpretation", "id_columns",
         "repro.semantics.interpretation", "Interpretation.id_columns",
         hit=EVERY),
    # server.session
    Wrap("server.session", "execute", "repro.server.session",
         "Session.execute", hit=SERVING, bypass={B}),
    Wrap("server.session", "to_json", "repro.server.session",
         "Response.to_json", hit=SERVING, bypass={B}, note=len),
    # server.subscriptions: one dispatch per commit, one diff per standing
    # query the commit touches; eval_rows is the re-evaluate fallback.
    Wrap("server.subscriptions", "dispatch", "repro.server.subscriptions",
         "SubscriptionManager._dispatch", hit={F}, bypass={R, M, B}),
    Wrap("server.subscriptions", "diff", "repro.server.subscriptions",
         "SubscriptionManager._diff", hit={F}, bypass={R, M, B}),
    Wrap("server.subscriptions", "delta_diff", "repro.server.subscriptions",
         "SubscriptionManager._delta_diff", hit={F}, bypass={R, M, B}),
    Wrap("server.subscriptions", "eval_rows", "repro.server.subscriptions",
         "SubscriptionManager._eval_rows", bypass={R, M, B}),
    # storage
    Wrap("storage.codec", "encode_record", "repro.storage.codec",
         "encode_record", hit=WRITING, bypass={R, B}),
    Wrap("storage.codec", "decode_record", "repro.storage.codec",
         "decode_record", hit=SERVING, bypass={R, M, B}),
    Wrap("storage.wal", "append_delta", "repro.storage.wal",
         "WriteAheadLog.append_delta", hit=WRITING, bypass={R, B}),
    Wrap("storage.wal", "fsync", "os", "fsync", hit=WRITING, bypass={R, B}),
    Wrap("storage.checkpoint", "write_checkpoint", "repro.storage.checkpoint",
         "write_checkpoint", hit={F}, bypass={R, B}),
    Wrap("storage.checkpoint", "load_checkpoint", "repro.storage.checkpoint",
         "load_checkpoint", hit=SERVING, bypass=EVERY),
    Wrap("storage.durable", "recover", "repro.storage.durable",
         "DurableModel.recover", hit=SERVING, bypass=EVERY, note=_replayed),
    # replication: the commit listeners run under the leader's write lock;
    # the follower applies each shipped record on its tailing thread.
    Wrap("replication.hub", "notify_commit", "repro.storage.durable",
         "DurableModel._notify_commit", hit=WRITING, bypass={R, B}),
    Wrap("replication.follower", "apply_record", "repro.replication.follower",
         "FollowerService._apply_record", hit={F}, bypass={R, M, B}),
    # parallel: sharding is off everywhere (it cannot be judged on 2 cores).
    Wrap("parallel", "eval_stratum", "repro.parallel.coordinator",
         "ShardCoordinator.eval_stratum", bypass=EVERY),
)


def _owner(w: Wrap):
    """(module, object whose ``__dict__`` holds the entry point, its name),
    or ``None`` when the program no longer has that name."""
    try:
        module = importlib.import_module(w.module)
        owner = module
        *path, name = w.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    if name not in vars(owner):
        return None
    return module, owner, name


def leftovers() -> list[str]:
    """Entry points still wrapped (must be empty after ``uninstall``)."""
    left = []
    for w in WRAPS:
        found = _owner(w)
        if found is None:
            continue
        _, owner, name = found
        raw = owner.__dict__[name]
        if hasattr(getattr(raw, "__func__", raw), "__wrapped__"):
            left.append(f"{w.module}.{w.attr}")
    return left


class _Local(threading.local):
    def __init__(self) -> None:
        self.spans: Optional[list] = None
        self.stack: list[int] = []
        self.inside: set[int] = set()


class Tracer:
    """Install the wrappers, collect spans, restore on exit."""

    def __init__(self) -> None:
        self._local = _Local()
        self._threads: list[tuple[str, list]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._marks: list[tuple[float, str]] = []
        #: Rows of the wrap table whose name the program no longer has.
        self.missing: list[str] = []
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def mark(self, phase: str) -> None:
        """Everything recorded from now on belongs to ``phase``."""
        self._marks.append((time.perf_counter(), phase))

    def _spans(self) -> list:
        local = self._local
        if local.spans is None:
            local.spans = []
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, local.spans)
                )
        return local.spans

    def _wrap(self, index: int, w: Wrap, fn):
        local, tracer = self._local, self
        clock = time.perf_counter
        tag, note = w.tag, w.note

        def new_span(args, kwargs) -> tuple[list, int]:
            spans = tracer._spans()
            stack = local.stack
            # [wrap index, tag, start, end, busy, parent, note]
            rec = [index, tag(args, kwargs) if tag else "", 0.0, 0.0, 0.0,
                   stack[-1] if stack else -1, None]
            spans.append(rec)
            return rec, len(spans) - 1

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                if not tracer.enabled or index in local.inside:
                    yield from fn(*args, **kwargs)
                    return
                rec, pos = new_span(args, kwargs)
                inner = fn(*args, **kwargs)
                rec[2] = clock()
                try:
                    while True:
                        # The span is open only while the generator's own
                        # frames run, not while its consumer holds it.
                        local.inside.add(index)
                        local.stack.append(pos)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec[3] = clock()
                            rec[4] += rec[3] - t0
                            local.stack.pop()
                            local.inside.discard(index)
                        yield item
                finally:
                    inner.close()
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.enabled or index in local.inside:
                return fn(*args, **kwargs)
            rec, pos = new_span(args, kwargs)
            local.inside.add(index)
            local.stack.append(pos)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[6] = note(result)
                return result
            finally:
                rec[3] = clock()
                rec[4] = rec[3] - rec[2]
                local.stack.pop()
                local.inside.discard(index)
        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        for index, w in enumerate(WRAPS):
            found = _owner(w)
            if found is None:
                self.missing.append(f"{w.module}.{w.attr}")
                continue
            module, owner, name = found
            raw = owner.__dict__[name]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(index, w, raw.__func__))
            else:
                wrapped = self._wrap(index, w, raw)
            self._patch(owner, name, wrapped)
            if owner is not module or not w.module.startswith("repro"):
                continue
            # A module that did ``from x import f`` holds its own
            # reference to ``f``: patch the name where it is looked up.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod is module or \
                        not mod_name.startswith("repro"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, alias, wrapped)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------------

    def collect(self) -> "Spans":
        with self._lock:
            threads = list(self._threads)
        return Spans(threads, list(self._marks), list(self.missing))


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    #: Time inside the wrapped call (== end - start except generators).
    busy: float
    self_time: float
    parent: int          # index into Spans.items, -1 for a top-level span
    thread: str
    phase: str
    note: object
    index: int = -1      # position in Spans.items
    request: int = -1    # index of the client request it belongs to


class Spans:
    """All spans of one traced pass, flattened, with self times."""

    def __init__(self, threads, marks, missing=()) -> None:
        self.missing = list(missing)
        self.items: list[Span] = []
        times = [t for t, _ in marks]
        for thread_name, recs in threads:
            base = len(self.items)
            child_busy = [0.0] * len(recs)
            for rec in recs:
                if rec[5] >= 0:
                    child_busy[rec[5]] += rec[4]
            for i, rec in enumerate(recs):
                w = WRAPS[rec[0]]
                k = bisect.bisect_right(times, rec[2]) - 1
                self.items.append(Span(
                    layer=w.layer, name=w.name + rec[1], start=rec[2],
                    end=rec[3], busy=rec[4],
                    self_time=max(0.0, rec[4] - child_busy[i]),
                    parent=base + rec[5] if rec[5] >= 0 else -1,
                    thread=thread_name,
                    phase=marks[k][1] if k >= 0 else "",
                    note=rec[6], index=len(self.items),
                ))
        self.requests: list[tuple[float, float]] = []
        self._by_entry: dict[tuple[str, str], list[Span]] = {}
        for span in self.items:
            key = (span.layer, span.name.split(":")[0])
            self._by_entry.setdefault(key, []).append(span)

    def attribute(self, requests: list[tuple[float, float]]) -> None:
        """Give each span the request whose ``[send, done]`` holds its start.

        ``requests`` must be in send order with one in flight at a time.
        """
        self.requests = requests
        sends = [s for s, _ in requests]
        for span in self.items:
            k = bisect.bisect_right(sends, span.start) - 1
            if k >= 0 and span.start <= requests[k][1]:
                span.request = k

    def select(self, layer: str, name: str = "", phases=("run",)) -> list[Span]:
        """Spans of one layer in the given phases; ``name`` is an entry
        point (``apply_delta``), a tagged one (``apply_delta:add``), or
        empty for the whole layer."""
        if name:
            found = self._by_entry.get((layer, name.split(":")[0]), [])
        else:
            found = [s for (lay, _), group in self._by_entry.items()
                     if lay == layer for s in group]
        return [
            s for s in found if s.phase in phases
            and (":" not in name or s.name == name)
        ]

    def coverage(self) -> tuple[float, float]:
        """(covered seconds, request seconds) over the attributed requests:
        the part of each client-observed interval during which at least one
        wrapped span was open on any thread."""
        per_request: dict[int, list[tuple[float, float]]] = {}
        for s in self.items:
            if s.request >= 0 and s.parent < 0:
                lo, hi = self.requests[s.request]
                a, b = max(s.start, lo), min(s.end, hi)
                if b > a:
                    per_request.setdefault(s.request, []).append((a, b))
        covered = 0.0
        for intervals in per_request.values():
            intervals.sort()
            cur_a, cur_b = intervals[0]
            for a, b in intervals[1:]:
                if a > cur_b:
                    covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            covered += cur_b - cur_a
        total = sum(done - send for send, done in self.requests)
        return covered, total

    def integrity(self, workload: str) -> list[str]:
        """Violations of the wrap table's hit / bypass expectations."""
        ran: dict[tuple[str, str], int] = {}
        cold: dict[tuple[str, str], int] = {}
        for s in self.items:
            if s.phase in ("run", "cold"):
                seen = ran if s.phase == "run" else cold
                key = (s.layer, s.name.split(":")[0])
                seen[key] = seen.get(key, 0) + 1
        problems = [f"{name}: not in the program, not wrapped"
                    for name in self.missing]
        for w in WRAPS:
            key = (w.layer, w.name)
            # A hit may come from the run or from the cold starts after
            # it; a bypass is about the timed run alone (recovery replays
            # the bulk load through maintenance on every workload).
            if workload in w.hit and not ran.get(key) and not cold.get(key):
                problems.append(f"{w.layer}.{w.name}: expected spans, got 0")
            if workload in w.bypass and ran.get(key):
                problems.append(
                    f"{w.layer}.{w.name}: expected 0, got {ran[key]}"
                )
        return problems

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.items):
                f.write(json.dumps({
                    "id": i, "layer": s.layer, "name": s.name,
                    "start": s.start, "end": s.end, "busy": s.busy,
                    "self": s.self_time, "parent": s.parent,
                    "thread": s.thread, "phase": s.phase,
                    "request": s.request,
                }) + "\n")
