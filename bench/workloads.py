"""The four workloads: what runs, what is timed, what is checked.

``LineClient`` is blocking request/response, so every connection has one
request in flight.  The readers and the ``write_fanout`` writer are
**closed loops**: the next request leaves when the previous one has been
answered.  The one exception is the ``mixed_rw`` writer, which commits on
a fixed synthetic schedule (see there).  Connection counts are stated per
workload and never exceed the two driving threads this 2-core box can run.

A pass runs in one of three modes.  ``process`` is the measured one: real
``lps serve`` subprocesses.  ``inproc`` and ``traced`` host the same
services in this interpreter (see :mod:`deploy`) with one request in
flight; ``traced`` additionally has :mod:`trace` installed.  End-to-end
metrics only ever come from ``process`` passes.
"""

from __future__ import annotations

import socket
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

import inputs
import oracle
from deploy import (
    FSYNC,
    Deployment,
    InProcessDeployment,
    ProcessDeployment,
    copy_store,
    dir_bytes,
)
from procs import Sandbox, self_rss_mb
from speed import SpeedProbe
from repro.server import LineClient
from repro.workloads import CRASH_RECOVERY_PROGRAM as RULES
from stats import Metric, Outcome, mean_ms, median_s, p50_ms, p95_ms

clock = time.perf_counter

PROCESS, INPROC, TRACED = "process", "inproc", "traced"


@dataclass
class Pass:
    """How one pass over a workload is run."""

    seed: int
    seconds: float
    mode: str = PROCESS
    setup_repeats: int = 5
    cold_repeats: int = 7
    tracer: Optional[object] = None
    #: Runs beside a measured pass; the in-process passes have none.
    speed: Optional[SpeedProbe] = None

    @property
    def single_flight(self) -> bool:
        return self.mode != PROCESS

    def mark(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.mark(phase)

    def at_reference(self, t0: float, t1: float) -> float:
        """The seconds from ``t0`` to ``t1`` stated at reference CPU speed
        (see :mod:`speed`); as they passed when no probe runs."""
        if self.speed is None:
            return t1 - t0
        return (t1 - t0) / self.speed.relative(t0, t1)


# -- shared pieces ---------------------------------------------------------------


def _deploy(
    p: Pass, sandbox: Sandbox, facts: list[str], follower: bool
) -> Deployment:
    """Leader with the serving program, ``facts`` bulk-loaded, then the
    follower (which therefore bootstraps from a snapshot)."""
    cls = ProcessDeployment if p.mode == PROCESS else InProcessDeployment
    return cls(sandbox, RULES, facts, follower)


def _repeat_setup(p: Pass, make):
    """Set up ``setup_repeats`` times; keep the last one for measuring.

    ``make()`` returns ``(state, teardown)`` ready for the first timed
    operation.  Returns the kept state and every set-up's time.
    """
    times, state = [], None
    for i in range(p.setup_repeats):
        t0 = clock()
        state, teardown = make()
        times.append(p.at_reference(t0, clock()))
        if i + 1 < p.setup_repeats:
            teardown()
    return state, times


class Read(NamedTuple):
    shape: str
    text: str
    hot: bool
    t0: float
    t1: float
    #: Answer rows, -1 when the request failed.
    rows: int


def _read(send, shape: str, text: str, hot: bool) -> Read:
    line = f"?- {text}."
    t0 = clock()
    r = send(line)
    t1 = clock()
    return Read(shape, text, hot, t0, t1, len(r.data["rows"]) if r.ok else -1)


def _read_loop(client: LineClient, ops, sink: list) -> None:
    send = client.send
    for shape, text, hot in ops:
        sink.append(_read(send, shape, text, hot))


def _read_until(client: LineClient, ops, sink: list, deadline: float) -> None:
    """Closed loop for a fixed time: the next read leaves when the last one
    has been answered, until ``deadline``."""
    send = client.send
    for shape, text, hot in ops:
        if clock() >= deadline:
            return
        sink.append(_read(send, shape, text, hot))
    raise RuntimeError("the generated reads ran out before the deadline")


def _paced(k: int, t_start: float, interval: float, deadline: float):
    """Wait for the ``k``-th slot of a fixed schedule.

    Returns the time the request counts from -- when it was due if the
    connection was still busy then (so the queueing a stall causes is
    counted), else the moment the wait ended -- or ``None`` once the
    schedule has passed ``deadline``.
    """
    due = t_start + k * interval
    if due >= deadline:
        return None
    wait = due - clock()
    if wait <= 0:
        return due
    time.sleep(wait)
    return clock()


def _send_commit(client: LineClient, commit: inputs.Commit):
    """Send one commit's lines; returns the last response, which carries
    the version, or ``None`` when a line was refused or changed nothing
    (the generated churn has no no-ops, so that is a failure)."""
    r = None
    for line in commit.lines:
        r = client.send(line)
        if not r.ok:
            return None
    if r.version is None or not r.data.get("applied"):
        return None
    return r


def _took(p: Pass, reads) -> list[float]:
    return [p.at_reference(r.t0, r.t1) for r in reads]


def _lookup_metrics(
    p: Pass, out: Outcome, reads: list[Read], t_start: float, t_end: float
) -> None:
    lookups = [r for r in reads if r.shape != "scan"]
    out.named["lookup_p50_ms"] = p50_ms(_took(p, lookups))
    out.named["lookup_p95_ms"] = p95_ms(_took(p, lookups))
    out.named["read_qps"] = Metric(
        len(reads) / p.at_reference(t_start, t_end), "1/s", len(reads)
    )
    for label, flag in (("hot", True), ("fresh", False)):
        part = [r for r in lookups if r.hot is flag]
        if part:
            out.named[f"lookup_{label}_p50_ms"] = p50_ms(_took(p, part))


def _copies(p: Pass, sandbox: Sandbox, data_dir) -> list:
    """One byte copy of a (quiescent or dead) store per cold start."""
    return [copy_store(sandbox, data_dir) for _ in range(p.cold_repeats)]


def _cold_starts(p: Pass, sandbox: Sandbox, stores: list, probe: str):
    """Start one fresh server per store copy; time process start -> first
    answer parsed.

    Returns (times, rows of the probe answer, recovered version, model text
    of the first recovered server).
    """
    times, rows, version, model_text = [], [], None, None
    for i, store in enumerate(stores):
        if p.mode == PROCESS:
            server = sandbox.serve("--data-dir", str(store), "--fsync", FSYNC)
            t0, host, port, stop = (
                server.started, server.host, server.port, server.kill
            )
        else:
            from repro.server import QueryService
            from repro.server.protocol import run_in_thread

            t0 = clock()
            service = QueryService(None, data_dir=store, fsync=FSYNC)
            handle = run_in_thread(service)
            host, port = handle.host, handle.port

            def stop(handle=handle, service=service):
                handle.stop()
                service.shutdown()
        try:
            with LineClient(host, port, timeout=120.0) as c:
                r = c.send(f"?- {probe}.")
                times.append(p.at_reference(t0, clock()))
                rows.append(len(r.data["rows"]) if r.ok else -1)
                if i == 0:
                    version = c.send(":version").data["latest"]
                    model_text = c.send(":model").data
        finally:
            stop()
    return times, rows, version, model_text


def _before_run(p: Pass, out: Outcome, client: LineClient) -> None:
    """Untimed, between set-up and the first timed operation: the
    protocol's round-trip floor and the server's counters so far."""
    pings = []
    for _ in range(50):
        t0 = clock()
        client.send(":version")
        pings.append(p.at_reference(t0, clock()))
    out.named["rtt_floor_ms"] = p50_ms(pings)
    out.raw["stats_before"] = client.send(":stats").data


def _tp_checks(out: Outcome, *texts: str) -> None:
    for i, text in enumerate(texts):
        ok, detail = oracle.tp_agrees(text)
        out.check(f"engine == T_P on down-sized instance {i + 1}", ok, detail)


def _checkpoint_versions(data_dir) -> list[int]:
    from repro.storage.checkpoint import checkpoint_version, list_checkpoints

    return [checkpoint_version(path) for path in list_checkpoints(data_dir)]


# -- read_serve ------------------------------------------------------------------


def read_serve(p: Pass, sandbox: Sandbox) -> Outcome:
    """One durable leader, dense graph, no writes.

    ``process`` mode: 2 closed-loop connections.  Every cache (per-session
    plan cache, columnar ``id_columns``) is warm after the warm-up pass and
    the model fits; 30 % of the texts are fresh so the plan-cache miss
    path stays visible, and 1 % are full scans so row encoding is.
    """
    out = Outcome("read_serve")
    n_conn = 1 if p.single_flight else inputs.READ_CONNECTIONS
    given = inputs.read_serve_inputs(p.seed, p.seconds, n_conn)
    facts, streams = given.facts, given.reads

    def make():
        dep = _deploy(p, sandbox, facts, follower=False)
        clients = [dep.client() for _ in range(n_conn)]
        for c, ops in zip(clients, streams):
            _read_loop(c, ops[:inputs.WARMUP_READS], [])
        return (dep, clients), dep.crash

    p.mark("setup")
    (dep, clients), setup_times = _repeat_setup(p, make)
    out.named["setup_s"] = median_s(setup_times)

    _before_run(p, out, clients[0])

    p.mark("run")
    sinks = [[] for _ in clients]
    threads = [
        threading.Thread(
            target=_read_loop, args=(c, ops[inputs.WARMUP_READS:], sink)
        )
        for c, ops, sink in zip(clients, streams, sinks)
    ]
    t_start = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_end = clock()
    reads = [rec for sink in sinks for rec in sink]
    _lookup_metrics(p, out, reads, t_start, t_end)
    scans = [r for r in reads if r.shape == "scan"]
    out.named["scan_p50_ms"] = p50_ms(_took(p, scans))
    out.raw.update(
        requests=sorted((r.t0, r.t1) for r in reads),
        reads=reads, stats=clients[0].send(":stats").data,
    )
    model_text = clients[0].send(":model").data
    out.named["peak_rss_mb"] = Metric(dep.peak_rss_mb(), "MB")

    p.mark("cold")
    dep.crash()
    store_bytes = dir_bytes(dep.leader_dir)
    out.named["store_bytes_per_fact"] = Metric(
        store_bytes / len(facts), "B", len(facts)
    )
    reference = oracle.evaluate(oracle.program_text(RULES, facts))
    answers = oracle.GraphAnswers(reference)
    cold, cold_rows, _, cold_model = _cold_starts(
        p, sandbox, _copies(p, sandbox, dep.leader_dir), "t(v0, X)"
    )
    out.named["cold_first_answer_s"] = median_s(cold)

    p.mark("oracle")
    wrong = sum(
        1 for r in reads if r.rows != answers.rows(r.shape, r.text)
    )
    out.attempted = len(reads)
    out.failed = wrong
    out.check("every read answer has the oracle's row count", wrong == 0,
              f"{wrong} of {len(reads)} differ")
    out.check("served model == from-scratch evaluation",
              model_text == reference.pretty())
    out.check("restarted model == from-scratch evaluation",
              cold_model == reference.pretty())
    out.check("cold-start probe answers match",
              all(r == answers.rows("prefix", "t(v0, X)") for r in cold_rows))
    _tp_checks(out, oracle.TP_SERVING)
    out.counts.update(
        ops_attempted=len(reads),
        store_bytes=store_bytes,
        scans=len(scans),
        fresh_texts=sum(1 for r in reads if not r.hot),
        answer_rows=sum(r.rows for r in reads),
    )
    return out


# -- write_fanout ----------------------------------------------------------------


class PushClient(LineClient):
    """A ``LineClient`` whose blocked ``recv_push`` another thread can end.

    ``recv_push(timeout)`` cannot be polled: after one socket timeout the
    buffered reader refuses every later read ("cannot read from timed out
    object").  So the subscriber blocks without a deadline and the main
    thread ends the wait by shutting the socket down.
    """

    def interrupt(self) -> None:
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class Subscriber(threading.Thread):
    """The subscriber connection: registers the standing queries, then only
    receives.  Every push frame is timestamped on arrival and kept, so the
    oracle can replay initial answers + diffs."""

    def __init__(self, dep: Deployment, goals: list[str]) -> None:
        super().__init__(name="bench-subscriber", daemon=True)
        self.client = dep.client(cls=PushClient)
        self.sub_ids: list[int] = []
        self.rows: list[set[tuple]] = []
        self.frames: list[tuple[float, dict]] = []
        #: version -> arrival time of the witness query's frame.
        self.witness_at: dict[int, float] = {}
        self._halt = threading.Event()
        self._arrived = threading.Condition()
        for goal in goals:
            r = self.client.send(f":subscribe {goal}.")
            if not r.ok:
                raise RuntimeError(f"subscribe {goal!r} failed: {r.error}")
            self.sub_ids.append(r.data["sub"])
            self.rows.append({tuple(row) for row in r.data["rows"]})
        self.witness = self.sub_ids[-1]

    def run(self) -> None:
        try:
            while True:
                frame = self.client.recv_push()
                if frame is None:
                    break
                now = clock()
                data = frame.data
                self.frames.append((now, data))
                if data.get("sub") == self.witness and frame.kind == "diff":
                    with self._arrived:
                        self.witness_at[data["version"]] = now
                        self._arrived.notify_all()
        except (ConnectionError, OSError):
            if not self._halt.is_set():
                raise

    def wait_for(self, version: int, timeout: float = 30.0) -> bool:
        with self._arrived:
            return self._arrived.wait_for(
                lambda: version in self.witness_at, timeout
            )

    def halt(self) -> None:
        self._halt.set()
        self.client.interrupt()
        self.join()

    def replayed(self) -> list[set[tuple]]:
        """Initial answers with every received diff applied, per goal."""
        state = [set(rows) for rows in self.rows]
        index = {sub: i for i, sub in enumerate(self.sub_ids)}
        for _, data in self.frames:
            i = index.get(data.get("sub"))
            if i is None or data.get("kind") != "diff":
                continue
            state[i] -= {tuple(r) for r in data["dels"]}
            state[i] |= {tuple(r) for r in data["adds"]}
        return state


@dataclass
class CommitRecord:
    kind: str
    version: Optional[int]
    t0: float
    t_ack: float
    t_vis: float
    ok: bool
    #: Single-flight passes only: leader version - follower version right
    #: after the ack, and the leader's ``last_delta`` from ``:stats``.
    lag: int = 0
    last_delta: Optional[dict] = None


def _commit_cycle(
    writer, follower, sub: Subscriber, commit, single_flight: bool
) -> CommitRecord:
    """One commit, one in flight: send -> ack(v) -> follower ``:sync v``.

    A single-flight pass also waits for the subscriber's push frame, and
    reads follower lag and the leader's delta report on the side; a
    measured pass does neither, as both would sit in its timed path.
    """
    t0 = clock()
    r = _send_commit(writer, commit)
    t_ack = clock()
    if r is None:
        return CommitRecord(commit.kind, None, t0, t_ack, t_ack, False)
    lag = 0
    if single_flight:
        lag = r.version - follower.send(":version").data["latest"]
        t_sync = clock()
    synced = follower.send(f":sync {r.version} 30")
    t_vis = clock()
    rec = CommitRecord(commit.kind, r.version, t0, t_ack, t_vis, synced.ok, lag)
    if single_flight:
        rec.t_vis -= t_sync - t_ack          # the lag probe is not latency
        sub.wait_for(r.version)
        rec.last_delta = writer.send(":stats").data["last_delta"]
    return rec


def write_fanout(p: Pass, sandbox: Sandbox) -> Outcome:
    """Leader + follower process + subscriber (8 standing queries) + writer.

    The graph is sparse on purpose: inside a giant strongly connected
    component one delete costs about 2 s (DRed over-deletes the whole
    component, then re-derives it) against about 10 ms here, and the
    workload would time that cliff and nothing else.
    """
    out = Outcome("write_fanout")
    given = inputs.write_fanout_inputs(p.seed, p.seconds)
    facts, edges = given.facts, given.edges
    commits, goals = given.commits, given.goals

    def make():
        dep = _deploy(p, sandbox, facts, follower=True)
        writer, follower = dep.client(), dep.client(follower=True)
        sub = Subscriber(dep, goals)
        sub.start()
        for commit in commits[:inputs.WARMUP_COMMITS]:
            _commit_cycle(writer, follower, sub, commit, p.single_flight)

        def teardown():
            sub.halt()
            dep.crash()
        return (dep, writer, follower, sub), teardown

    p.mark("setup")
    (dep, writer, follower, sub), setup_times = _repeat_setup(p, make)
    out.named["setup_s"] = median_s(setup_times)
    dict_before = _term_dict_size(p)
    _before_run(p, out, writer)

    p.mark("run")
    records = []
    t_start = clock()
    for commit in commits[inputs.WARMUP_COMMITS:]:
        records.append(
            _commit_cycle(writer, follower, sub, commit, p.single_flight)
        )
    t_end = clock()
    acked = [rec for rec in records if rec.version is not None]
    last_version = acked[-1].version if acked else 0
    delivered_all = sub.wait_for(last_version) if acked else False

    ack = {rec.version: p.at_reference(rec.t0, rec.t_ack) for rec in acked}
    out.named["write_ack_p50_ms"] = p50_ms(list(ack.values()))
    out.named["write_ack_p95_ms"] = p95_ms(list(ack.values()))
    out.named["write_cps"] = Metric(
        len(acked) / p.at_reference(t_start, t_end), "1/s", len(acked)
    )
    out.named["follower_visible_p50_ms"] = p50_ms(
        [p.at_reference(rec.t0, rec.t_vis) for rec in acked]
    )
    pushed = [rec for rec in acked if rec.version in sub.witness_at]
    push = [p.at_reference(rec.t0, sub.witness_at[rec.version])
            for rec in pushed]
    out.named["diff_delivered_p50_ms"] = p50_ms(push)
    out.named["diff_delivered_p95_ms"] = p95_ms(push)
    out.named["delivered_p50_ms"] = p50_ms([
        p.at_reference(rec.t0, max(rec.t_vis, sub.witness_at[rec.version]))
        for rec in pushed
    ])
    for kind in ("add", "del", "batch"):
        part = [ack[rec.version] for rec in acked if rec.kind == kind]
        if part:
            out.named[f"write_ack_{kind}_p50_ms"] = p50_ms(part)

    # Final state, read back over the sockets before anything is killed.
    finals = []
    for goal in goals:
        r = writer.send(f"?- {goal}.")
        finals.append({
            tuple(row[v] for v in r.data["vars"]) for row in r.data["rows"]
        } if r.ok else None)
    leader_model = writer.send(":model").data
    follower_model = follower.send(":model").data
    out.raw.update(
        requests=[
            (rec.t0, max(rec.t_vis, sub.witness_at.get(rec.version, 0.0)))
            for rec in acked
        ],
        records=records, witness_at=dict(sub.witness_at),
        stats=writer.send(":stats").data,
        frames=sum(1 for t, _ in sub.frames if t >= t_start),
        term_dict_growth=_term_dict_size(p) - dict_before,
    )
    sub.halt()
    replayed = sub.replayed()
    out.named["peak_rss_mb"] = Metric(dep.peak_rss_mb(), "MB")

    p.mark("cold")
    dep.crash()                              # SIGKILL leader and follower
    total_commits = inputs.WARMUP_COMMITS + len(acked)
    store_bytes = dir_bytes(dep.leader_dir)
    out.raw.update(store_bytes=store_bytes, total_commits=total_commits)
    out.named["wal_bytes_per_commit"] = Metric(
        store_bytes / total_commits, "B", total_commits
    )
    checkpoints = _checkpoint_versions(dep.leader_dir)
    stalls = [ack[rec.version] for rec in acked if rec.version in checkpoints]
    if stalls:
        out.named["checkpoint_stall_ms"] = Metric(
            max(stalls) * 1e3, "ms", len(stalls)
        )
    final = oracle.final_edges(edges, commits[:total_commits])
    reference = oracle.evaluate(oracle.program_text(RULES, facts, final))
    answers = oracle.GraphAnswers(reference)
    cold, cold_rows, recovered, cold_model = _cold_starts(
        p, sandbox, _copies(p, sandbox, dep.leader_dir), "t(v0, X)"
    )
    out.named["recover_first_answer_s"] = median_s(cold)

    p.mark("oracle")
    lost = sum(1 for rec in acked if rec.version > (recovered or 0))
    out.raw["acked_commits_lost"] = lost
    out.attempted = len(records)
    out.failed = sum(1 for rec in records if not rec.ok)
    out.check("every commit acknowledged and synced", out.failed == 0,
              f"{out.failed} of {len(records)} failed")
    out.check("a push frame arrived for every commit",
              delivered_all and len(push) == len(acked),
              f"{len(push)} of {len(acked)}")
    out.check("leader model == from-scratch evaluation of the final EDB",
              leader_model == reference.pretty())
    out.check("follower model == leader model",
              follower_model == leader_model)
    out.check("subscriber initial answers + diffs == final answers",
              all(a is not None and a == b for a, b in zip(finals, replayed)))
    out.check("no acknowledged commit lost after SIGKILL + recovery "
              "(the OS page cache survives SIGKILL, so this checks "
              "log-before-ack ordering, not the device)", lost == 0,
              f"recovered at version {recovered}, last ack {last_version}")
    out.check("recovered model == from-scratch evaluation",
              cold_model == reference.pretty())
    out.check("cold-start probe answers match",
              all(r == answers.rows("prefix", "t(v0, X)") for r in cold_rows))
    _tp_checks(out, oracle.TP_SERVING)
    out.counts.update(
        ops_attempted=len(records),
        store_bytes=store_bytes,
        checkpoint_latest_version=max(checkpoints),
        push_frames=len(sub.frames),
        final_model_atoms=len(reference.interpretation),
    )
    return out


def _term_dict_size(p: Pass) -> int:
    """``len(TERM_DICT)`` of this interpreter; meaningful in-process only."""
    if p.mode == PROCESS:
        return 0
    from repro.core.terms import TERM_DICT

    return len(TERM_DICT)


# -- mixed_rw --------------------------------------------------------------------


def mixed_rw(p: Pass, sandbox: Sandbox) -> Outcome:
    """One durable leader; one reader connection beside one writer
    connection, for a fixed time.

    The reader is a closed loop.  The writer follows a synthetic schedule
    (``MIXED_WRITES_PER_S`` single-fact commits a second, one in flight; see
    :mod:`inputs` for why it is not a second closed loop), so its rate is
    an input and only its latency is a result.

    Same layers as ``read_serve``, used differently: every commit publishes
    a new snapshot, so column caches are rebuilt and reads share the
    interpreter lock with maintenance.
    """
    out = Outcome("mixed_rw")
    given = inputs.mixed_rw_inputs(p.seed, p.seconds)
    facts, edges, commits = given.facts, given.edges, given.commits
    (reads_in,) = given.reads

    def make():
        dep = _deploy(p, sandbox, facts, follower=False)
        reader, writer = dep.client(), dep.client()
        _read_loop(reader, reads_in[:inputs.WARMUP_READS], [])
        for commit in commits[:inputs.WARMUP_COMMITS]:
            _send_commit(writer, commit)
        return (dep, reader, writer), dep.crash

    p.mark("setup")
    (dep, reader, writer), setup_times = _repeat_setup(p, make)
    out.named["setup_s"] = median_s(setup_times)
    dict_before = _term_dict_size(p)
    _before_run(p, out, writer)
    # Cold starts restart the store as loaded (copied now, while it is
    # idle): replaying this run's own commits would take about as long as
    # the run itself, and write_fanout already times that recovery.
    loaded = oracle.evaluate(oracle.program_text(
        RULES, facts,
        oracle.final_edges(edges, commits[:inputs.WARMUP_COMMITS]),
    ))
    stores = _copies(p, sandbox, dep.leader_dir)

    p.mark("run")
    reads: list = []
    writes: list = []
    read_ops = reads_in[inputs.WARMUP_READS:]
    write_ops = commits[inputs.WARMUP_COMMITS:]

    def write_loop(ops, deadline, paced=True) -> None:
        for k, commit in enumerate(ops):
            t0 = _paced(k, t_start, 1.0 / inputs.MIXED_WRITES_PER_S,
                        deadline) if paced else clock()
            if t0 is None:
                break
            r = _send_commit(writer, commit)
            t1 = clock()
            writes.append(CommitRecord(
                commit.kind, r.version if r else None, t0, t1, t1,
                r is not None,
            ))
            if p.single_flight:
                writes[-1].last_delta = \
                    writer.send(":stats").data["last_delta"]

    t_start = clock()
    deadline = t_start + p.seconds
    if p.single_flight:
        # One request in flight: eight reads, then one commit, repeated.
        ri = 0
        for commit in write_ops:
            _read_loop(reader, read_ops[ri:ri + 8], reads)
            ri += 8
            write_loop([commit], deadline, paced=False)
            if clock() >= deadline or ri + 8 > len(read_ops):
                break
    else:
        rt = threading.Thread(target=_read_until, args=(
            reader, read_ops, reads, deadline,
        ))
        wt = threading.Thread(target=write_loop, args=(write_ops, deadline))
        rt.start()
        wt.start()
        rt.join()
        wt.join()
    t_end = clock()
    out.notes.append(
        f"reader: closed loop; writer: a synthetic schedule of "
        f"{inputs.MIXED_WRITES_PER_S} commits/s, one in flight, a late "
        "commit leaving at once and counting from when it was due"
    )

    _lookup_metrics(p, out, reads, t_start, t_end)
    # Reads in flight while a commit was: what the interpreter lock costs.
    ends = [r.t1 for r in reads]
    beside = [
        r for w in writes
        for r in reads[bisect_left(ends, w.t0):bisect_right(ends, w.t_ack) + 1]
        if r.t0 <= w.t_ack
    ]
    if beside:
        out.named["lookup_beside_commit_p50_ms"] = p50_ms(_took(p, beside))
    acked = [w for w in writes if w.ok]
    ack = [p.at_reference(w.t0, w.t_ack) for w in acked]
    out.named["write_ack_p50_ms"] = p50_ms(ack)
    out.named["write_ack_p95_ms"] = p95_ms(ack)
    # The writer's schedule runs by the wall clock: as it passed.
    out.named["write_cps"] = Metric(
        len(acked) / (t_end - t_start), "1/s", len(acked)
    )
    requests = [(r.t0, r.t1) for r in reads]
    requests += [(w.t0, w.t_ack) for w in writes]
    out.raw.update(
        requests=sorted(requests), reads=reads, writes=writes,
        stats=writer.send(":stats").data,
        term_dict_growth=_term_dict_size(p) - dict_before,
    )
    model_text = writer.send(":model").data
    out.named["peak_rss_mb"] = Metric(dep.peak_rss_mb(), "MB")

    p.mark("cold")
    dep.crash()
    total_commits = inputs.WARMUP_COMMITS + len(writes)
    store_bytes = dir_bytes(dep.leader_dir)
    out.named["wal_bytes_per_commit"] = Metric(
        store_bytes / total_commits, "B", total_commits
    )
    out.raw["store_bytes"] = store_bytes
    out.raw["total_commits"] = total_commits
    out.raw["checkpoints"] = _checkpoint_versions(dep.leader_dir)
    final = oracle.final_edges(edges, commits[:total_commits])
    reference = oracle.evaluate(oracle.program_text(RULES, facts, final))
    cold, cold_rows, _, cold_model = _cold_starts(
        p, sandbox, stores, "t(v0, X)"
    )
    out.named["cold_first_answer_s"] = median_s(cold)

    p.mark("oracle")
    bad_reads = sum(1 for r in reads if r.rows < 0)
    bad_writes = len(writes) - len(acked)
    out.attempted = len(reads) + len(writes)
    out.failed = bad_reads + bad_writes
    out.check("every request answered ok", out.failed == 0,
              f"{bad_reads} reads, {bad_writes} writes failed")
    out.check("leader model == from-scratch evaluation of the final EDB",
              model_text == reference.pretty())
    out.check("restarted model == from-scratch evaluation of the loaded EDB",
              cold_model == loaded.pretty())
    out.check("cold-start probe answers match", all(
        r == oracle.GraphAnswers(loaded).rows("prefix", "t(v0, X)")
        for r in cold_rows
    ))
    _tp_checks(out, oracle.TP_SERVING)
    out.counts.update(
        commits=len(writes), store_bytes=store_bytes,
        final_model_atoms=len(reference.interpretation),
    )
    return out


# -- batch_fixpoint --------------------------------------------------------------


def _check_sets(out: Outcome, inst: inputs.SetsInstance, models) -> None:
    quant, parts, nest = models
    family = [frozenset(s) for (s,) in quant.relation("s")]
    out.check("disj == pairwise disjoint sets", quant.relation("disj") == {
        (a, b) for a in family for b in family if not a & b
    })
    out.check("subset == pairwise inclusion", quant.relation("subset") == {
        (a, b) for a in family for b in family if a <= b
    })
    un = quant.relation("un")
    out.check("un: xx | yy == zz, and no triple missing", un == {
        (a, b, c) for a in family for b in family for c in family
        if a | b == c
    } and all(x | y == z for x, y, z in un), f"{len(un)} triples")
    out.check("parts explosion == analytic roll-up",
              dict(parts.relation("obj_cost")) == inst.parts_expected)
    groups: dict[str, set[int]] = {}
    for k, v in inst.nest_pairs:
        groups.setdefault(k, set()).add(v)
    out.check("<Y> grouping then unnest round-trips",
              nest.relation("flat") == set(inst.nest_pairs)
              and dict(nest.relation("owns")) == {
                  k: frozenset(v) for k, v in groups.items()
              })


def batch_fixpoint(p: Pass, sandbox: Sandbox) -> Outcome:
    """In-process, no server: the paper's own workload.

    ``tc`` is recursive closure on the columnar path; ``sets`` is Examples
    1-3 and 6 plus grouping on the tuple-solver / quantifier path.  The
    two alternate so drift hits both alike; every repetition parses its
    text afresh and builds a fresh database.
    """
    out = Outcome("batch_fixpoint")
    tc_text = inputs.tc_program(p.seed)
    sets = inputs.sets_program(p.seed)
    reps = max(2, round(inputs.FIXPOINT_REPS_PER_S * p.seconds))
    work = sandbox.fresh_dir("batch")
    tc_path = work / "tc.lps"

    def make():
        tc_path.write_text(tc_text)
        oracle.evaluate(tc_text)
        for text in sets.texts:
            oracle.evaluate(text)
        return None, lambda: None

    p.mark("setup")
    _, setup_times = _repeat_setup(p, make)
    out.named["setup_s"] = median_s(setup_times)

    p.mark("run")
    tc_times, sets_times, requests = [], [], []
    tc_model, sets_models = None, None
    for _ in range(reps):
        t0 = clock()
        tc_model = oracle.evaluate(tc_text)
        t1 = clock()
        sets_models = [oracle.evaluate(text) for text in sets.texts]
        t2 = clock()
        tc_times.append(p.at_reference(t0, t1))
        sets_times.append(p.at_reference(t1, t2))
        requests += [(t0, t1), (t1, t2)]
    out.named["fixpoint_tc_s"] = median_s(tc_times)
    out.named["fixpoint_sets_s"] = median_s(sets_times)
    out.named["fixpoint_tc_mean_ms"] = mean_ms(tc_times)
    out.named["fixpoint_sets_mean_ms"] = mean_ms(sets_times)
    out.named["fixpoint_tc_p95_ms"] = p95_ms(tc_times)
    # One repetition is both programs, as one user running both would.
    out.named["fixpoint_reps_per_s"] = Metric(
        reps / (sum(tc_times) + sum(sets_times)), "1/s", reps
    )
    atoms = len(tc_model.interpretation) + sum(
        len(mdl.interpretation) for mdl in sets_models
    )
    out.raw.update(requests=requests)
    out.named["peak_rss_mb"] = Metric(self_rss_mb(), "MB")

    p.mark("cold")
    cold, cold_lines = [], []
    for _ in range(p.cold_repeats):
        t0, t1, stdout = sandbox.run_cli("run", str(tc_path))
        cold.append(p.at_reference(t0, t1))
        cold_lines.append(len(stdout.splitlines()))
    out.named["cli_run_s"] = median_s(cold)
    out.named["printed_bytes_per_atom"] = Metric(
        len(stdout.encode()) / cold_lines[-1], "B", cold_lines[-1]
    )

    p.mark("oracle")
    out.attempted = 2 * reps
    closure = inputs.closure(inputs.tc_edges(p.seed))
    out.check("tc == closure by plain graph search",
              tc_model.relation("t") == closure, f"{len(closure)} atoms")
    _check_sets(out, sets, sets_models)
    out.check("`lps run` prints the whole model", all(
        n == len(tc_model.interpretation) for n in cold_lines
    ))
    _tp_checks(out, oracle.TP_SERVING, oracle.TP_SETS)
    out.failed = sum(1 for _, ok, _ in out.checks if not ok)
    out.counts.update(
        ops_attempted=2 * reps, printed_bytes=len(stdout.encode()),
        tc_atoms=len(tc_model.interpretation),
        sets_atoms=atoms - len(tc_model.interpretation),
    )
    return out


WORKLOADS = {
    "read_serve": read_serve,
    "write_fanout": write_fanout,
    "mixed_rw": mixed_rw,
    "batch_fixpoint": batch_fixpoint,
}
