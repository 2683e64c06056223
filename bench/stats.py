"""Sample summaries and the result record of one workload run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    #: Samples behind the value (0 for counts and single measurements).
    n: int = 0


def pct(values, q: float) -> float:
    """The ``q``-th percentile by linear interpolation (``q`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def p50_ms(seconds) -> Metric:
    return Metric(statistics.median(seconds) * 1e3, "ms", len(seconds))


def p95_ms(seconds) -> Metric:
    return Metric(pct(seconds, 95) * 1e3, "ms", len(seconds))


def mean_ms(seconds) -> Metric:
    return Metric(statistics.fmean(seconds) * 1e3, "ms", len(seconds))


def median_s(seconds) -> Metric:
    return Metric(statistics.median(seconds), "s", len(seconds))


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median: the driver's measure of how far runs of one code disagree."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


#: The driver has every workload report every end-to-end metric that
#: ``BENCHMARK.json`` declares, and no workload has the others' operations.
#: So three of the declared names are roles, and this table says which of a
#: workload's own metrics fills each: the typical time of its common
#: operation, that of its heavy one, and the bytes it stores or prints per
#: unit of user data (a count: exact for a seed).  Typical is the median
#: where a run has hundreds or thousands of samples, and the mean of
#: ``batch_fixpoint``'s 30 repetitions, whose median moved twice as far
#: between seeds.  ``write_fanout`` gates the whole fan-out and the recovery,
#: not the acknowledgement alone: with client, leader and follower on one CPU
#: (see :mod:`speed`) the order in which they run after a commit moves
#: ``write_ack_p50_ms`` by 10 % between runs and the fan-out, which waits for
#: all of them, by 4 %.  ``mixed_rw`` gates the lookups of hot texts: hot and
#: fresh ones form two clusters there, and the median of both together sits
#: on the edge of the larger and spread 5-9 % over ten seeds where either
#: cluster's own median spread 3-6 %.  ``setup_s`` and ``peak_rss_mb`` mean one
#: thing everywhere and have no row.  Everything else a workload measures is
#: printed and saved, not gated.
ROLES: dict[str, dict[str, str]] = {
    "op_ms": {
        "read_serve": "lookup_p50_ms",
        "write_fanout": "delivered_p50_ms",
        "mixed_rw": "lookup_hot_p50_ms",
        "batch_fixpoint": "fixpoint_tc_mean_ms",
    },
    "second_ms": {
        "read_serve": "scan_p50_ms",
        "write_fanout": "recover_first_answer_s",
        "mixed_rw": "write_ack_p50_ms",
        "batch_fixpoint": "fixpoint_sets_mean_ms",
    },
    "bytes_per_op": {
        "read_serve": "store_bytes_per_fact",
        "write_fanout": "wal_bytes_per_commit",
        "mixed_rw": "wal_bytes_per_commit",
        "batch_fixpoint": "printed_bytes_per_atom",
    },
}


def own_name(declared: str, workload: str) -> str:
    """The workload's own name for a declared end-to-end metric."""
    return ROLES.get(declared, {}).get(workload, declared)


@dataclass
class Outcome:
    """What one pass over one workload measured and checked."""

    workload: str
    #: Metrics by their own names (``lookup_p50_ms`` ...).
    named: dict[str, Metric] = field(default_factory=dict)
    #: Exact counts that must repeat for one seed.
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Oracle verdicts: (check name, passed, detail).
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Raw samples the per-layer metrics are computed from.
    raw: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def declared(self, name: str) -> Metric:
        """The value this workload reports under a declared metric; a
        metric kept in seconds fills a role stated in milliseconds."""
        metric = self.named[own_name(name, self.workload)]
        if name.endswith("_ms") and metric.unit == "s":
            return Metric(metric.value * 1e3, "ms", metric.n)
        return metric

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)
