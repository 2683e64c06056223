"""Per-layer metrics of one traced pass.

Sources: **T** spans of the traced pass, **S** the server's own ``:stats``
payload read over TCP before and after the run, **F** the data directory,
**C** client-side counts.  A ``*_ms`` metric is the layer's *self* time --
span time not covered by child spans -- summed over the run and divided by
the client operations (or commits, cold starts, checkpoints: stated per
metric) it served; a mean, so the rows of a workload add up to its mean
latency with ``server.protocol.unattributed_ms`` as the remainder.  A
workload that bypasses a layer reports 0 for it; that is the prediction.
"""

from __future__ import annotations

import re
import statistics

from stats import Metric, Outcome
from trace import Spans

_ROWS_IN = re.compile(r"(\d+) rows in")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stats_delta(outcome: Outcome) -> dict:
    """Counter growth between the two ``:stats`` reads of a serving pass."""
    before = outcome.raw.get("stats_before")
    after = outcome.raw.get("stats")
    if not before or not after:
        return {}

    def rows_in(payload) -> int:
        found = _ROWS_IN.search(payload["executor"])
        return int(found.group(1)) if found else 0

    delta = {k: after[k] - before[k] for k in ("queries", "answers", "writes")}
    delta["rows_in"] = rows_in(after) - rows_in(before)
    for k, v in after["columnar"].items():
        delta[k] = v - before["columnar"][k]
    return delta


def per_layer(
    workload: str, reference: Outcome, traced: Outcome, spans: Spans
) -> dict[str, Metric]:
    raw = traced.raw
    requests = raw["requests"]
    n_ops = len(requests)
    reads = raw.get("reads", [])
    n_reads = len(reads)
    answer_rows = sum(r.rows for r in reads if r.rows > 0)
    commits = raw.get("records") or raw.get("writes") or []
    n_commits = len(commits)
    n_cold = max(1, len([s for s in spans.items
                         if s.layer == "storage.durable" and s.phase == "cold"]))

    def total(layer: str, *names: str, phases=("run",)) -> float:
        """Self seconds of the named spans (all of the layer's if none)."""
        if not names:
            return sum(s.self_time for s in spans.select(layer, "", phases))
        return sum(
            s.self_time for name in names
            for s in spans.select(layer, name, phases)
        )

    def count(layer: str, *names: str, phases=("run",)) -> int:
        return sum(len(spans.select(layer, name, phases)) for name in names)

    def ms(seconds: float, per: int) -> Metric:
        return Metric(_ratio(seconds * 1e3, per), "ms", per)

    def num(value: float, unit: str = "count", n: int = 0) -> Metric:
        return Metric(float(value), unit, n)

    m: dict[str, Metric] = {}

    # lang
    parses = count("lang", "parse_program", "parse_atom")
    m["lang.parse_ms"] = ms(total("lang", "parse_program", "parse_atom"), n_ops)
    m["lang.parse_calls_per_op"] = num(_ratio(parses, n_ops), "1/op", n_ops)
    m["lang.pretty_ms"] = ms(total(
        "lang", "pretty_atom", "pretty_term", "pretty_clause", "pretty_program"
    ), n_ops)

    # engine.planner
    compiles = spans.select("engine.planner", "compile_rule") \
        + spans.select("engine.planner", "compile_grouping")
    m["engine.planner.compile_ms"] = ms(total("engine.planner"), n_ops)
    # Plan-cache misses of client reads only: maintenance and standing
    # queries compile plans too, and those are no query's miss.
    read_starts = {r.t0 for r in reads}
    query_compiles = sum(
        1 for s in spans.select("engine.planner", "compile_rule")
        if s.request >= 0 and requests[s.request][0] in read_starts
    )
    m["engine.planner.compiles_per_query"] = num(
        _ratio(query_compiles, n_reads), "1/query", n_reads
    )
    m["engine.planner.tuple_mode_frac"] = num(_ratio(
        sum(1 for s in compiles if s.note == "tuple"), len(compiles)
    ), "frac", len(compiles))

    # engine.executor / engine.columnar
    delta = _stats_delta(traced)
    evals = [s.note for s in spans.select("engine.evaluation", "run")
             if isinstance(s.note, dict)]
    if not delta:
        # No server: the evaluator's own reports carry the same counters.
        delta = {
            k: sum(e[k] for e in evals)
            for k in ("rows_in", "col_nodes", "row_nodes", "rows_encoded",
                      "rows_decoded", "answers")
        } if evals else {}
        delta["queries"] = len(evals)
    m["engine.executor.run_ms"] = ms(
        total("engine.executor") + total("engine.columnar"), n_ops
    )
    answers = delta.get("answers", 0)
    m["engine.executor.rows_in_per_answer"] = num(
        _ratio(delta.get("rows_in", 0), answers), "rows", answers
    )
    nodes = delta.get("col_nodes", 0) + delta.get("row_nodes", 0)
    m["engine.columnar.col_node_frac"] = num(
        _ratio(delta.get("col_nodes", 0), nodes), "frac", nodes
    )
    m["engine.columnar.rows_decoded_per_answer"] = num(
        _ratio(delta.get("rows_decoded", 0), answers), "rows", answers
    )
    m["engine.columnar.rows_encoded_per_query"] = num(
        _ratio(delta.get("rows_encoded", 0), delta.get("queries", 0)),
        "rows", delta.get("queries", 0),
    )

    # engine.evaluation (every phase: the bulk-load evaluation is set-up)
    every = ("setup", "run", "cold", "oracle")
    run_spans = spans.select("engine.evaluation", "run", every)
    m["engine.evaluation.run_ms"] = ms(total("engine.evaluation", "run"), n_ops)
    m["engine.evaluation.solver_ms"] = ms(
        total("engine.evaluation", "solve"), n_ops
    )
    m["engine.evaluation.fallbacks"] = num(
        sum(e["fallbacks"] for e in evals)
    )
    m["engine.evaluation.derived_atoms_per_s"] = num(_ratio(
        sum(s.note["atoms"] for s in run_spans if isinstance(s.note, dict)),
        sum(s.busy for s in run_spans),
    ), "1/s", len(run_spans))

    # engine.maintenance
    adds = spans.select("engine.maintenance", "apply_delta:add")
    dels = spans.select("engine.maintenance", "apply_delta:del")
    m["engine.maintenance.apply_add_ms"] = ms(
        sum(s.self_time for s in adds), len(adds)
    )
    m["engine.maintenance.apply_del_ms"] = ms(
        sum(s.self_time for s in dels), len(dels)
    )
    reports = [c.last_delta for c in commits if c.last_delta]
    m["engine.maintenance.incremental_frac"] = num(_ratio(
        sum(1 for r in reports if r["strategy"] != "recompute"), len(reports)
    ), "frac", len(reports))
    m["engine.maintenance.atoms_changed_per_commit"] = num(_ratio(
        sum(r["atoms_added"] + r["atoms_removed"] for r in reports),
        len(reports),
    ), "atoms", len(reports))

    # semantics.interpretation
    m["semantics.interpretation.snapshot_ms"] = ms(
        total("semantics.interpretation", "snapshot"), n_ops
    )
    m["semantics.interpretation.id_columns_ms"] = ms(
        total("semantics.interpretation", "id_columns"), n_ops
    )

    # server.session
    m["server.session.execute_ms"] = ms(
        total("server.session", "execute"), n_ops
    )
    m["server.session.encode_ms"] = ms(
        total("server.session", "to_json"), n_ops
    )
    m["server.session.bytes_per_answer_row"] = num(_ratio(
        sum(s.note for s in spans.select("server.session", "to_json")
            if s.request >= 0 and isinstance(s.note, int)),
        answer_rows,
    ), "B", answer_rows)

    # server.protocol
    floor = reference.named.get("rtt_floor_ms")
    m["server.protocol.rtt_floor_ms"] = floor or num(0.0, "ms")
    covered, observed = spans.coverage()
    m["server.protocol.unattributed_ms"] = ms(observed - covered, n_ops)

    # server.subscriptions
    diff_names = ("dispatch", "diff", "delta_diff", "eval_rows")
    m["server.subscriptions.diff_ms"] = ms(
        total("server.subscriptions", *diff_names), n_commits
    )
    diffs = spans.select("server.subscriptions", "diff")
    by_parent: dict[int, set[str]] = {}
    for s in spans.items:
        if s.layer == "server.subscriptions" and s.parent >= 0:
            by_parent.setdefault(s.parent, set()).add(s.name)
    computed = [by_parent[s.index] for s in diffs if s.index in by_parent]
    m["server.subscriptions.delta_path_frac"] = num(_ratio(
        sum(1 for kids in computed if "eval_rows" not in kids), len(computed)
    ), "frac", len(computed))
    m["server.subscriptions.frames_per_commit"] = num(
        _ratio(raw.get("frames", 0), n_commits), "1/commit", n_commits
    )
    waits = []
    witness_at = raw.get("witness_at", {})
    for s in spans.select("server.subscriptions", "dispatch"):
        # write_fanout's requests are its commits, in order.
        if s.request >= 0:
            arrived = witness_at.get(commits[s.request].version)
            if arrived is not None:
                waits.append(arrived - s.end)
    m["server.subscriptions.push_wait_ms"] = ms(sum(waits), len(waits))

    # storage
    m["storage.codec.encode_ms"] = ms(
        total("storage.codec", "encode_record"), n_commits
    )
    m["storage.codec.decode_ms"] = ms(
        total("storage.codec", "decode_record"), n_commits
    )
    m["storage.wal.append_ms"] = ms(
        total("storage.wal", "append_delta"), n_commits
    )
    m["storage.wal.fsync_ms"] = ms(total("storage.wal", "fsync"), n_commits)
    m["storage.wal.fsyncs_per_commit"] = num(
        _ratio(count("storage.wal", "fsync"), n_commits), "1/commit", n_commits
    )
    stored = raw.get("store_bytes", 0)
    all_commits = raw.get("total_commits", 0)
    m["storage.wal.bytes_per_commit"] = num(
        _ratio(stored, all_commits), "B", all_commits
    )
    written = spans.select("storage.checkpoint", "write_checkpoint")
    m["storage.checkpoint.write_ms"] = ms(
        sum(s.self_time for s in written), len(written)
    )
    m["storage.checkpoint.count"] = num(len(written))
    stalls = [
        c.t_ack - c.t0 for c in commits
        if any(c.t0 <= s.start <= c.t_ack for s in written)
    ]
    m["storage.checkpoint.stall_ms"] = num(
        max(stalls, default=0.0) * 1e3, "ms", len(stalls)
    )
    m["storage.checkpoint.load_ms"] = ms(
        total("storage.checkpoint", "load_checkpoint", phases=("cold",)),
        n_cold,
    )
    recovered = spans.select("storage.durable", "recover", ("cold",))
    m["storage.durable.recover_ms"] = ms(
        sum(s.self_time for s in recovered), len(recovered)
    )
    replayed = [s.note for s in recovered if isinstance(s.note, int)]
    m["storage.durable.replayed_records"] = num(
        statistics.mean(replayed) if replayed else 0.0, "count", len(replayed)
    )
    m["storage.durable.acked_commits_lost"] = num(
        raw.get("acked_commits_lost", 0)
    )

    # replication
    shipped = []
    applied = {s.request: s for s in
               spans.select("replication.follower", "apply_record")
               if s.request >= 0}
    for s in spans.select("replication.hub", "notify_commit"):
        # The follower's own store notifies too, inside its apply.
        follower = applied.get(s.request)
        if follower is not None and s.thread != follower.thread:
            shipped.append(max(0.0, follower.start - s.end))
    m["replication.hub.ship_wait_ms"] = ms(sum(shipped), len(shipped))
    m["replication.follower.apply_ms"] = ms(
        total("replication.follower", "apply_record"), n_commits
    )
    m["replication.follower.lag_versions_max"] = num(
        max((c.lag for c in commits), default=0), "versions"
    )

    # core.terms
    from repro.core.terms import TERM_DICT

    m["core.terms.term_dict_size"] = num(len(TERM_DICT), "terms")
    m["core.terms.term_dict_growth_per_kcommit"] = num(
        _ratio(raw.get("term_dict_growth", 0) * 1000.0, n_commits),
        "terms", n_commits,
    )

    # trace
    m["trace.overhead_frac"] = num(
        traced.declared("op_ms").value
        / reference.declared("op_ms").value - 1.0, "frac"
    )
    m["trace.coverage_frac"] = num(_ratio(covered, observed), "frac", n_ops)
    return m
