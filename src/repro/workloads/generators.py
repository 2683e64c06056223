"""Synthetic workload generators for tests and benchmarks.

All generators are deterministic given a seed, so benchmark numbers in
EXPERIMENTS.md are reproducible.  They produce plain Python values (the
engine's :class:`~repro.engine.database.Database` converts them).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from ..engine.database import Database


def random_sets(
    n_sets: int,
    universe: int,
    min_size: int = 0,
    max_size: int = 6,
    seed: int = 0,
) -> list[frozenset[int]]:
    """``n_sets`` random subsets of ``{0..universe-1}``."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_sets):
        k = rng.randint(min_size, max_size)
        out.append(frozenset(rng.sample(range(universe), min(k, universe))))
    return out


def set_database(
    pred: str,
    n_sets: int,
    universe: int,
    max_size: int = 6,
    seed: int = 0,
) -> Database:
    """A database of unary set facts ``pred(S)``."""
    db = Database()
    for s in random_sets(n_sets, universe, max_size=max_size, seed=seed):
        db.add(pred, s)
    return db


def chain_graph(n: int) -> list[tuple[str, str]]:
    """Edges of a path ``v0 → v1 → … → vn``."""
    return [(f"v{i}", f"v{i+1}") for i in range(n)]


def cycle_graph(n: int) -> list[tuple[str, str]]:
    return chain_graph(n - 1) + [(f"v{n-1}", "v0")]


def grid_graph(w: int, h: int) -> list[tuple[str, str]]:
    """Edges of a directed w×h grid (right and down)."""
    out = []
    for i in range(w):
        for j in range(h):
            if i + 1 < w:
                out.append((f"g{i}_{j}", f"g{i+1}_{j}"))
            if j + 1 < h:
                out.append((f"g{i}_{j}", f"g{i}_{j+1}"))
    return out


def random_graph(n: int, m: int, seed: int = 0) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    out = set()
    while len(out) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            out.add((f"v{a}", f"v{b}"))
    return sorted(out)


@dataclass(frozen=True)
class PartsWorld:
    """A parts-explosion hierarchy (the paper's Example 6).

    ``parts`` maps assemblies to their component sets; ``cost`` gives base
    costs of leaf parts; ``expected`` is the analytically computed roll-up
    cost of every object — what the LPS program must reproduce.
    """

    parts: dict[str, frozenset[str]]
    cost: dict[str, int]
    expected: dict[str, int]


def parts_world(
    depth: int,
    fanout: int,
    leaf_cost: int = 1,
    seed: int = 0,
) -> PartsWorld:
    """A complete ``fanout``-ary assembly tree of the given depth.

    Every internal node is an assembly whose components are its children;
    leaves have base costs ``leaf_cost + (index mod 3)``.
    """
    rng = random.Random(seed)
    parts: dict[str, frozenset[str]] = {}
    cost: dict[str, int] = {}
    expected: dict[str, int] = {}
    counter = [0]

    def build(level: int) -> str:
        name = f"p{counter[0]}"
        counter[0] += 1
        if level >= depth:
            c = leaf_cost + (counter[0] % 3)
            cost[name] = c
            expected[name] = c
            return name
        children = [build(level + 1) for _ in range(fanout)]
        parts[name] = frozenset(children)
        expected[name] = sum(expected[ch] for ch in children)
        return name

    build(0)
    return PartsWorld(parts=parts, cost=cost, expected=expected)


def parts_database(world: PartsWorld) -> Database:
    db = Database()
    for obj, components in world.parts.items():
        db.add("parts", obj, components)
    for leaf, c in world.cost.items():
        db.add("cost", leaf, c)
    return db


@dataclass(frozen=True)
class ChurnBatch:
    """One batch of EDB changes: fact specs as ``(pred, args...)`` tuples."""

    adds: tuple[tuple, ...]
    dels: tuple[tuple, ...]


def churn_stream(
    pred: str,
    rows: Iterable[tuple],
    n_batches: int,
    batch_size: int = 1,
    p_delete: float = 0.5,
    fresh_row=None,
    seed: int = 0,
) -> list[ChurnBatch]:
    """A deterministic insert/delete stream over one predicate.

    Starting from the live set ``rows``, each batch draws ``batch_size``
    operations: with probability ``p_delete`` a deletion of a live fact,
    otherwise an insertion — preferring a ``fresh_row(rng)`` row when the
    callable is given, else re-inserting a previously deleted row.  The
    stream never inserts a live row or deletes a dead one, so every
    operation is a *net* change; feed the batches to
    :meth:`~repro.engine.maintenance.MaterializedModel.apply_delta`.
    """
    rng = random.Random(seed)
    live: set[tuple] = {tuple(r) for r in rows}
    # Deletions draw from a sorted list maintained incrementally (bisect),
    # not re-sorted per operation: stream generation stays O(ops · log n)
    # and the draw order is still deterministic under the seed.
    live_sorted: list[tuple] = sorted(live)
    dead: list[tuple] = []
    dead_rows: set[tuple] = set()
    out: list[ChurnBatch] = []
    for _ in range(n_batches):
        adds: list[tuple] = []
        dels: list[tuple] = []
        # Rows touched earlier in the same batch are neither deletion nor
        # re-insertion candidates: `apply_delta` processes deletions before
        # insertions, so an insert+delete (or delete+re-insert) pair within
        # one batch would net out and desynchronize the live-set tracking.
        # Batch-added rows join `live_sorted` only when the batch closes.
        batch_added: set[tuple] = set()
        batch_deleted: set[tuple] = set()
        for _ in range(batch_size):
            revivable = [i for i, r in enumerate(dead)
                         if r not in batch_deleted]
            if live_sorted and (rng.random() < p_delete or
                                (fresh_row is None and not revivable)):
                row = live_sorted.pop(rng.randrange(len(live_sorted)))
                live.discard(row)
                batch_deleted.add(row)
                dead.append(row)
                dead_rows.add(row)
                dels.append((pred, *row))
            else:
                row: Optional[tuple] = None
                if fresh_row is not None:
                    # Dead rows are excluded here too: re-inserting one
                    # without unlisting it would let a later revival emit
                    # an insert of an already-live row.
                    for _attempt in range(20):
                        cand = tuple(fresh_row(rng))
                        if (cand not in live and cand not in batch_deleted
                                and cand not in dead_rows):
                            row = cand
                            break
                if row is None and revivable:
                    row = dead.pop(rng.choice(revivable))
                    dead_rows.discard(row)
                if row is None:
                    continue
                live.add(row)
                batch_added.add(row)
                adds.append((pred, *row))
        for row in batch_added:
            bisect.insort(live_sorted, row)
        out.append(ChurnBatch(adds=tuple(adds), dels=tuple(dels)))
    return out


def edge_churn(
    edges: Iterable[tuple[str, str]],
    n_batches: int,
    batch_size: int = 1,
    n_nodes: int = 0,
    p_delete: float = 0.5,
    seed: int = 0,
) -> list[ChurnBatch]:
    """Insert/delete churn over an ``e(u, v)`` edge relation.

    With ``n_nodes > 0`` insertions may create fresh random edges among
    ``v0..v{n_nodes-1}``; otherwise they re-insert deleted edges.
    """
    fresh = None
    if n_nodes > 1:
        def fresh(rng: random.Random) -> tuple[str, str]:
            while True:
                a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
                if a != b:
                    return (f"v{a}", f"v{b}")
    return churn_stream(
        "e", edges, n_batches, batch_size=batch_size,
        p_delete=p_delete, fresh_row=fresh, seed=seed,
    )


def cost_churn(
    world: PartsWorld,
    n_batches: int,
    max_delta: int = 9,
    seed: int = 0,
) -> list[ChurnBatch]:
    """Leaf-cost repricing churn for the parts-explosion workload.

    Each batch retracts one leaf's ``cost`` fact and asserts a new price —
    the canonical small-delta update that forces the roll-up costs above
    the leaf to be remaintained.
    """
    rng = random.Random(seed)
    current = dict(world.cost)
    leaves = sorted(current)
    out: list[ChurnBatch] = []
    for _ in range(n_batches):
        leaf = rng.choice(leaves)
        old = current[leaf]
        new = 1 + rng.randrange(max_delta)
        if new == old:
            new = old + 1
        current[leaf] = new
        out.append(ChurnBatch(
            adds=(("cost", leaf, new),),
            dels=(("cost", leaf, old),),
        ))
    return out


@dataclass(frozen=True)
class TrafficPlan:
    """A deterministic concurrent-traffic schedule for the query service.

    ``reader_streams[i]`` is the full query-text sequence reader thread
    ``i`` will issue; ``writer_batches`` is the churn stream the single
    writer applies concurrently.  Everything is derived from the seed, so
    a concurrency failure reproduces from ``(workload args, seed)`` even
    though thread interleaving does not.
    """

    reader_streams: tuple[tuple[str, ...], ...]
    writer_batches: tuple[ChurnBatch, ...]

    @property
    def n_queries(self) -> int:
        return sum(len(s) for s in self.reader_streams)


def query_stream(
    n_queries: int,
    n_nodes: int,
    pred: str = "t",
    p_ground: float = 0.3,
    p_open: float = 0.1,
    seed: int = 0,
) -> tuple[str, ...]:
    """Deterministic pattern queries over a binary graph predicate.

    A mix of half-bound (``t(vI, X)``), ground (``t(vI, vJ)``) and fully
    open (``t(X, Y)``) goals — the shapes a point-lookup / reachability /
    dump read workload issues against the closure.
    """
    rng = random.Random(seed)
    out: list[str] = []
    for _ in range(n_queries):
        r = rng.random()
        if r < p_open:
            out.append(f"{pred}(X, Y)")
        elif r < p_open + p_ground:
            a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
            out.append(f"{pred}(v{a}, v{b})")
        else:
            out.append(f"{pred}(v{rng.randrange(n_nodes)}, X)")
    return tuple(out)


def mixed_traffic(
    edges: Iterable[tuple[str, str]],
    n_readers: int,
    queries_per_reader: int,
    n_batches: int,
    batch_size: int = 1,
    n_nodes: int = 0,
    pred: str = "t",
    seed: int = 0,
) -> TrafficPlan:
    """N reader query streams plus one writer churn stream, from one seed.

    The canonical service workload: readers hammer the closure predicate
    while the writer churns the underlying edge relation.  Reader ``i``
    draws from sub-seed ``seed*1000 + i`` so adding readers never changes
    the streams of the existing ones (throughput comparisons across
    thread counts stay apples-to-apples).
    """
    edges = list(edges)
    nodes = n_nodes if n_nodes > 0 else len(
        {u for u, _ in edges} | {v for _, v in edges}
    )
    readers = tuple(
        query_stream(
            queries_per_reader, nodes, pred=pred, seed=seed * 1000 + i
        )
        for i in range(n_readers)
    )
    batches = tuple(edge_churn(
        edges, n_batches=n_batches, batch_size=batch_size,
        n_nodes=n_nodes, seed=seed,
    ))
    return TrafficPlan(reader_streams=readers, writer_batches=batches)


#: The program every crash-recovery plan runs: transitive closure, a
#: set-membership rule, a stratified-negation rule and a grouping rule —
#: a recursive stratum (DRed) under a nonrecursive one with negation and
#: grouping (rederive; recompute for batches over the size gate), so
#: the recorded run maintains through all of them and recovery must land
#: on what they maintained.
CRASH_RECOVERY_PROGRAM = """\
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
dead(X) :- n(X), not t(X, X).
succ(X, <Y>) :- e(X, Y).
mem(X) :- sf(S), X in S.
"""


@dataclass(frozen=True)
class CrashRecoveryPlan:
    """A deterministic durable-write schedule with designated crash points.

    ``program`` + ``initial_facts`` seed the durable store;
    ``batches[i]`` is the i-th committed delta; ``crash_after`` lists the
    batch indices after which the driver simulates a crash (kill the
    process / truncate the WAL) and recovers before continuing.  All
    derived from the seed, so a recovery failure reproduces exactly.
    """

    program: str
    initial_facts: tuple[tuple, ...]
    batches: tuple[ChurnBatch, ...]
    crash_after: tuple[int, ...]


def crash_recovery(
    n_nodes: int = 12,
    n_edges: int = 24,
    n_batches: int = 16,
    batch_size: int = 2,
    n_crashes: int = 3,
    n_sets: int = 4,
    seed: int = 0,
) -> CrashRecoveryPlan:
    """Edge churn over :data:`CRASH_RECOVERY_PROGRAM` with crash points.

    The fact base mixes the ``e``/``n`` scalar relations with ``sf`` set
    facts, so WAL records and checkpoints carry set terms; crash points
    are drawn without replacement from the batch indices.
    """
    rng = random.Random(seed)
    edges = random_graph(n_nodes, n_edges, seed=seed)
    initial = [("e", u, v) for u, v in edges]
    initial += [("n", f"v{i}") for i in range(0, n_nodes, 3)]
    for s in random_sets(n_sets, n_nodes, min_size=1, max_size=4,
                         seed=seed + 1):
        initial.append(("sf", frozenset(f"v{i}" for i in s)))
    batches = edge_churn(
        edges, n_batches=n_batches, batch_size=batch_size,
        n_nodes=n_nodes, seed=seed + 2,
    )
    crash_after = tuple(sorted(rng.sample(
        range(n_batches), min(n_crashes, n_batches)
    )))
    return CrashRecoveryPlan(
        program=CRASH_RECOVERY_PROGRAM,
        initial_facts=tuple(initial),
        batches=tuple(batches),
        crash_after=crash_after,
    )


@dataclass(frozen=True)
class FailoverPlan:
    """A deterministic replicated-write schedule with fault injections.

    ``batches[i]`` is the i-th committed delta applied on the leader;
    ``drop_stream_after`` lists batch indices after which the harness
    severs the follower replication streams (a torn stream plus reconnect
    must be idempotent — no lost or doubled records);
    ``kill_leader_after`` is the batch index after which the leader is
    killed and the most caught-up follower promoted — the remaining
    batches go to the new leader.  All drawn from the seed, so a failover
    bug reproduces from ``(workload args, seed)``.
    """

    program: str
    initial_facts: tuple[tuple, ...]
    batches: tuple[ChurnBatch, ...]
    drop_stream_after: tuple[int, ...]
    kill_leader_after: int


def failover_plan(
    n_nodes: int = 12,
    n_edges: int = 24,
    n_batches: int = 18,
    batch_size: int = 2,
    n_drops: int = 3,
    n_sets: int = 4,
    seed: int = 0,
) -> FailoverPlan:
    """Edge churn over :data:`CRASH_RECOVERY_PROGRAM` with replication
    faults: the same program/fact mix as :func:`crash_recovery` (so
    shipped records carry set terms and exercise every maintenance plan
    class), stream drops in the first two thirds of the run, and the
    leader kill at the two-thirds mark."""
    rng = random.Random(seed + 7)
    base = crash_recovery(
        n_nodes=n_nodes, n_edges=n_edges, n_batches=n_batches,
        batch_size=batch_size, n_crashes=0, n_sets=n_sets, seed=seed,
    )
    kill_after = max(1, (2 * n_batches) // 3)
    drops = tuple(sorted(rng.sample(
        range(kill_after), min(n_drops, kill_after)
    )))
    return FailoverPlan(
        program=base.program,
        initial_facts=base.initial_facts,
        batches=base.batches,
        drop_stream_after=drops,
        kill_leader_after=kill_after,
    )


@dataclass(frozen=True)
class SubscriptionPlan:
    """A deterministic churn-plus-subscribers schedule for the service.

    ``goals[k]`` is the text of standing query ``k``;
    ``subscribe_at[k]`` / ``unsubscribe_at[k]`` are the batch indices
    before which subscriber ``k`` registers and (when ``>= 0``) cancels,
    so subscriptions open and close mid-churn; ``batches`` is the writer
    stream.  Everything derives from the seed, so a diff-equivalence
    failure reproduces from ``(workload args, seed)``.
    """

    program: str
    initial_facts: tuple[tuple, ...]
    batches: tuple[ChurnBatch, ...]
    goals: tuple[str, ...]
    subscribe_at: tuple[int, ...]
    unsubscribe_at: tuple[int, ...]


def subscriber_plan(
    n_nodes: int = 12,
    n_edges: int = 24,
    n_batches: int = 16,
    batch_size: int = 2,
    n_subscribers: int = 6,
    p_unsubscribe: float = 0.4,
    seed: int = 0,
) -> SubscriptionPlan:
    """Edge churn over :data:`CRASH_RECOVERY_PROGRAM` with standing
    queries riding along.

    Goals mix half-bound closure lookups (``t(vI, X)``), ground probes
    (``t(vI, vJ)``), the fully open dump (``t(X, Y)``) and a conjunctive
    goal (``t(X, Y), e(Y, Z)``) — the shapes the subscription manager
    must diff exactly.  Subscribers register at staggered batch indices
    and a ``p_unsubscribe`` fraction cancel mid-churn.
    """
    rng = random.Random(seed + 13)
    base = crash_recovery(
        n_nodes=n_nodes, n_edges=n_edges, n_batches=n_batches,
        batch_size=batch_size, n_crashes=0, seed=seed,
    )
    goals: list[str] = []
    for k in range(n_subscribers):
        r = rng.random()
        if r < 0.15:
            goals.append("t(X, Y)")
        elif r < 0.3:
            a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
            goals.append(f"t(v{a}, v{b})")
        elif r < 0.45:
            goals.append("t(X, Y), e(Y, Z)")
        else:
            goals.append(f"t(v{rng.randrange(n_nodes)}, X)")
    subscribe_at = tuple(
        rng.randrange(max(1, n_batches // 2)) for _ in range(n_subscribers)
    )
    unsubscribe_at = tuple(
        rng.randrange(subscribe_at[k] + 1, n_batches + 1)
        if rng.random() < p_unsubscribe else -1
        for k in range(n_subscribers)
    )
    return SubscriptionPlan(
        program=base.program,
        initial_facts=base.initial_facts,
        batches=base.batches,
        goals=tuple(goals),
        subscribe_at=subscribe_at,
        unsubscribe_at=unsubscribe_at,
    )


def number_set(n: int, seed: int = 0) -> frozenset[int]:
    """``n`` distinct positive integers (for the Example 5 sum benchmark)."""
    rng = random.Random(seed)
    out: set[int] = set()
    while len(out) < n:
        out.add(rng.randint(1, 10 * n + 10))
    return frozenset(out)


def nested_relation_rows(
    n_rows: int,
    set_width: int,
    universe: int = 1000,
    seed: int = 0,
) -> list[tuple[str, frozenset[int]]]:
    """Rows for an Example 4 style relation ``R(x, Y)``."""
    rng = random.Random(seed)
    out = []
    for i in range(n_rows):
        members = frozenset(
            rng.randrange(universe) for _ in range(set_width)
        )
        out.append((f"k{i}", members))
    return out
