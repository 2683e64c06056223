#!/usr/bin/env python3
"""Determinism checks for the benchmark itself.  A plain script, not a test
the tier-1 suite collects:

    python bench/selftest.py

1. Two generations with one seed give byte-identical request streams, and
   another seed gives different ones -- for every workload.
2. Every role ``BENCHMARK.json`` declares is filled by every workload.
3. The exact counts repeat across two runs of one seed: operations
   attempted, bytes under the leader's data directory and the gated
   ``bytes_per_op``, the newest checkpoint's version (measured passes,
   ``--quick`` sized), and the plan-cache miss ratio, checkpoints written
   and fsyncs per commit (traced passes).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

SECONDS = 2.0
EXACT_LAYER_COUNTS = (
    "engine.planner.compiles_per_query",
    "storage.checkpoint.count",
    "storage.wal.fsyncs_per_commit",
    "storage.wal.bytes_per_commit",
    "lang.parse_calls_per_op",
)


def stream_digest(workload: str, seed: int) -> str:
    if workload == "read_serve":
        lines = inputs.read_serve_inputs(
            seed, SECONDS, inputs.READ_CONNECTIONS
        ).request_lines()
    elif workload == "write_fanout":
        lines = inputs.write_fanout_inputs(seed, SECONDS).request_lines()
    elif workload == "mixed_rw":
        lines = inputs.mixed_rw_inputs(seed, SECONDS).request_lines()
    else:
        lines = [inputs.tc_program(seed), *inputs.sets_program(seed).texts]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check(label: str, ok: bool, failures: list[str]) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def main() -> int:
    failures: list[str] = []
    print("== request streams")
    for workload in run.WORKLOAD_NAMES:
        a, b = stream_digest(workload, 7), stream_digest(workload, 7)
        c = stream_digest(workload, 8)
        check(f"{workload}: one seed, byte-identical streams", a == b, failures)
        check(f"{workload}: another seed, another stream", a != c, failures)

    print("== roles")
    for name, filled_by in stats.ROLES.items():
        check(f"{name}: declared, and filled by every workload",
              name in {m["name"] for m in run.SPEC["end_to_end"]}
              and set(filled_by) == set(run.WORKLOAD_NAMES), failures)

    print("== exact counts, measured passes")
    for workload in run.WORKLOAD_NAMES:
        seen = []
        for _ in range(2):
            out = run.measure(workload, 7, SECONDS, quick=True)
            seen.append({
                **out.counts,
                "bytes_per_op": out.declared("bytes_per_op").value,
            })
        check(f"{workload}: {seen[0]}", seen[0] == seen[1], failures)

    print("== exact counts, traced passes")
    import layers

    for workload in ("read_serve", "write_fanout"):
        seen = []
        for _ in range(2):
            reference, traced, spans = run.trace_passes(
                workload, 7, SECONDS / run.TRACE_SHARE
            )
            metrics = layers.per_layer(workload, reference, traced, spans)
            seen.append({k: metrics[k].value for k in EXACT_LAYER_COUNTS})
        check(f"{workload}: {seen[0]}", seen[0] == seen[1], failures)

    print("selftest", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
