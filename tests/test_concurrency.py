"""Concurrency harness: snapshot consistency under real threads.

The service-layer contract, stated as a testable property: **every answer
a concurrent reader receives is bit-identical to a from-scratch
evaluation of the database at the version the answer reports**, where
versions are published in writer order — i.e. each read observes *some*
prefix of the applied delta sequence, consistent with publication order,
and a session's observed versions never go backwards.  That is snapshot
consistency / linearizability of versions, and it must hold on every
forced path of the execution pipeline (``tests/paths.py``) and for 1–8
reader threads.

The stress test replays the PR-2 maintenance traps (DRed recursion,
alternative derivations, stratified negation, grouping-like set
construction) while readers hammer the model mid-sweep: a reader that
ever saw a half-applied DRed overdeletion or a torn rederive batch would
disagree with the from-scratch oracle at its version.

The stats test pins the satellite fix: counters are collected per session
and merged on read, so ``:stats`` totals are exact — not approximately
right — under a parallel thread pool.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from paths import PATHS, forced
from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.setops import with_set_builtins
from repro.lang import parse_atom
from repro.server import QueryService
from repro.workloads import edge_churn, mixed_traffic, query_stream

TC_SOURCE = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

#: Recursion with a join beside it (one DRed stratum: ``pair`` shares
#: stratum 0 with ``t``) and stratified negation over the recursion
#: (rederive, or recompute over the size gate), all live at once.
TRAP_SOURCE = TC_SOURCE + """
n(v0). n(v1). n(v2). n(v3).
pair(X, Y) :- e(X, Y), n(X), n(Y).
iso(X) :- n(X), not t(X, X).
"""

_CONSTS = ["a", "b", "c", "d"]
FACT_SPACE = [("e", u, v) for u in _CONSTS for v in _CONSTS]


def _oracle(program, facts):
    """From-scratch evaluation of the program over the given fact set."""
    db = Database()
    for spec in sorted(facts):
        db.add(*spec)
    return Evaluator(
        program, db, builtins=with_set_builtins()
    ).run()


def _expected_rows(model, query_text):
    """Oracle answers for a pattern query, in the session's row format
    (full bindings sorted by variable name, deduplicated, sorted)."""
    pattern = parse_atom(query_text)
    names = sorted(v.name for v in pattern.free_vars())
    rows = set()
    for theta in model.query(pattern):
        by_name = {v.name: t for v, t in theta.items()}
        rows.add(tuple(by_name[n] for n in names))
    from repro.core.terms import order_key

    return sorted(rows, key=lambda r: tuple(order_key(t) for t in r))


def _run_readers(svc, streams, observations, errors):
    """Spawn one reader thread per stream; collect (version, query, rows)."""
    def reader(stream, out):
        session = svc.open_session()
        try:
            last_version = 0
            for q in stream:
                result = session.query(q)
                # Sessions follow the head: versions never go backwards.
                assert result.version >= last_version
                last_version = result.version
                out.append((result.version, q, result.rows))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        finally:
            session.close()

    threads = []
    for stream in streams:
        out = []
        observations.append(out)
        threads.append(threading.Thread(target=reader, args=(stream, out)))
    for t in threads:
        t.start()
    return threads


def _check_observations(program, states, observations):
    """Every recorded answer equals the oracle at its reported version."""
    oracles = {}
    for out in observations:
        for version, query_text, rows in out:
            assert version in states, (
                f"answer reported unknown version {version}"
            )
            model = oracles.get(version)
            if model is None:
                model = oracles[version] = _oracle(
                    program, states[version]
                )
            assert rows == _expected_rows(model, query_text), (
                f"answer for {query_text!r} at version {version} "
                "diverged from from-scratch evaluation"
            )


@settings(max_examples=6, deadline=None)
@given(
    initial=st.sets(st.sampled_from(FACT_SPACE), max_size=6),
    batches=st.lists(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(FACT_SPACE)),
            min_size=1, max_size=3,
        ),
        min_size=1, max_size=3,
    ),
    n_readers=st.integers(1, 8),
    mode_seed=st.integers(0, 10**6),
)
def test_snapshot_consistency_property(
    initial, batches, n_readers, mode_seed
):
    """Concurrent answers ≡ from-scratch evaluation of some applied-delta
    prefix, on every forced pipeline path and 1–8 threads."""
    program = parse_program(TC_SOURCE)
    # Constants here are a..d, not v0..vN: rewrite the stream's nodes.
    queries = tuple(
        q.replace("v0", "a").replace("v1", "b")
         .replace("v2", "c").replace("v3", "d")
        for q in query_stream(6, n_nodes=4, pred="t", seed=mode_seed)
    )
    for path in PATHS:
        with forced(path):
            svc = QueryService(TC_SOURCE)
            for spec in sorted(initial):
                svc.apply_delta(adds=[spec])
            base_version = svc.model.version
            facts = set(initial)
            states = {base_version: frozenset(facts)}

            observations, errors = [], []
            threads = _run_readers(
                svc, [queries] * n_readers, observations, errors
            )
            # The single writer publishes the batches while readers run.
            for batch in batches:
                adds = [spec for is_add, spec in batch if is_add]
                dels = [spec for is_add, spec in batch if not is_add]
                facts = (facts - set(dels)) | set(adds)
                snap = svc.apply_delta(adds=adds, dels=dels)
                states[snap.version] = frozenset(facts)
            for t in threads:
                t.join(timeout=60)
            svc.shutdown()
        assert not errors, errors
        # Readers started after the initial facts were applied, so the
        # only observable versions are base_version and the batch ones.
        # (Checked outside the block: the oracle is the shipped engine.)
        _check_observations(program, states, observations)


@pytest.mark.parametrize("n_readers", [2, 8])
def test_dred_counting_stress_under_threads(n_readers):
    """Readers during DRed and rederive maintenance never observe
    over-deleted (or under-derived) facts — the PR-2 traps (alternative
    derivations among them), under threads."""
    program = parse_program(TRAP_SOURCE)
    edges = [(f"v{i}", f"v{i+1}") for i in range(6)] + [("v6", "v0")]
    svc = QueryService(TRAP_SOURCE)
    for u, v in edges:
        svc.apply_delta(adds=[("e", u, v)])
    base_version = svc.model.version

    streams = [
        tuple(
            q for pair in zip(
                query_stream(12, 7, pred="t", seed=100 + i),
                ("iso(X)", "pair(v0, X)") * 6,
            ) for q in pair
        )
        for i in range(n_readers)
    ]
    observations, errors = [], []
    stop = threading.Event()

    def reader(stream, out):
        """Cycle the stream until the writer is done: reads are then
        guaranteed to overlap live maintenance sweeps, not just follow
        them."""
        session = svc.open_session()
        try:
            i, last_version = 0, 0
            while not stop.is_set() or i < len(stream):
                q = stream[i % len(stream)]
                result = session.query(q)
                assert result.version >= last_version
                last_version = result.version
                out.append((result.version, q, result.rows))
                i += 1
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        finally:
            session.close()

    threads = []
    for stream in streams:
        out = []
        observations.append(out)
        threads.append(threading.Thread(target=reader, args=(stream, out)))
    for t in threads:
        t.start()

    def wait_until(seen):
        """The writer's twelve tiny batches can finish inside one thread
        switch interval; hold it until the readers are demonstrably
        running beside it (bounded: a dead reader fails below)."""
        deadline = time.monotonic() + 30
        while not seen() and time.monotonic() < deadline:
            time.sleep(0.001)

    wait_until(lambda: all(observations))
    facts = {("e", u, v) for u, v in edges}
    states = {base_version: frozenset(facts)}
    for batch in edge_churn(edges, n_batches=12, batch_size=2,
                            n_nodes=7, seed=5):
        facts = (facts - set(batch.dels)) | set(batch.adds)
        snap = svc.apply_delta(adds=batch.adds, dels=batch.dels)
        states[snap.version] = frozenset(facts)
    wait_until(lambda: errors or any(
        out[-1][0] > base_version for out in observations
    ))
    stop.set()
    for t in threads:
        t.join(timeout=120)
    svc.shutdown()
    assert not errors, errors
    _check_observations(program, states, observations)
    # The harness must actually have exercised concurrency: every reader
    # recorded answers, and at least one answer landed on a mid-stream
    # version (published while readers were running).
    assert all(obs for obs in observations)
    mid_versions = {v for out in observations for v, _, _ in out}
    assert len(mid_versions) > 1, (
        "no reader ever observed an intermediate version; the stress "
        "did not overlap the writer"
    )


def test_stats_totals_exact_under_parallel_queries():
    """``:stats`` totals are exact under the thread pool: per-session
    collection + merge-on-read, no shared mutable counter on reads."""
    n_threads, per_thread = 6, 25
    svc = QueryService(TC_SOURCE)
    for i in range(10):
        svc.apply_delta(adds=[("e", f"v{i}", f"v{i+1}")])

    queries = query_stream(per_thread, 11, pred="t", seed=9)
    # Serial ground truth for the static phase.
    probe = svc.open_session()
    expected_answers = sum(len(probe.query(q).rows) for q in queries)
    probe.close()
    before = svc.stats_data()

    results, errors = [], []

    def worker():
        session = svc.open_session()
        try:
            for q in queries:
                results.append(len(session.query(q).rows))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            session.close()

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors

    after = svc.stats_data()
    assert after["queries"] - before["queries"] == n_threads * per_thread
    assert (after["answers"] - before["answers"]
            == n_threads * expected_answers == sum(results))
    assert after["errors"] == before["errors"] == 0
    svc.shutdown()


def test_stats_totals_match_observed_under_churn():
    """With a writer racing the readers, totals still equal exactly what
    the readers observed (no lost or double-counted increments)."""
    n_threads, per_thread = 4, 20
    svc = QueryService(TC_SOURCE)
    plan = mixed_traffic(
        [(f"v{i}", f"v{i+1}") for i in range(8)],
        n_readers=n_threads, queries_per_reader=per_thread,
        n_batches=10, batch_size=2, n_nodes=9, seed=3,
    )
    for u, v in [(f"v{i}", f"v{i+1}") for i in range(8)]:
        svc.apply_delta(adds=[("e", u, v)])
    before = svc.stats_data()

    observed = []
    errors = []

    def reader(stream):
        session = svc.open_session()
        try:
            observed.append(sum(
                len(session.query(q).rows) for q in stream
            ))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            session.close()

    threads = [
        threading.Thread(target=reader, args=(stream,))
        for stream in plan.reader_streams
    ]
    for t in threads:
        t.start()
    for batch in plan.writer_batches:
        svc.apply_delta(adds=batch.adds, dels=batch.dels)
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors

    after = svc.stats_data()
    assert after["queries"] - before["queries"] == plan.n_queries
    assert after["answers"] - before["answers"] == sum(observed)
    svc.shutdown()
