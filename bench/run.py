#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python bench/run.py --seed S [--workload W] [--seconds N] [--trace [0|1]]
                        [--quick] [--repeat K] [--selfcheck]

Without ``--trace`` a workload runs against real ``lps serve``
subprocesses, all on one CPU, and prints its end-to-end metrics with every
timing stated at reference CPU speed (see ``bench/speed.py``); with
``--trace`` it runs the in-process reference and traced passes and prints
the per-layer metrics.  Either way the outputs are checked against the oracles, a
results file lands in ``bench/out/``, and the last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``)
holding the metrics ``BENCHMARK.json`` declares.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure under {REPO_ROOT / 'src'}")
sys.path.insert(0, str(REPO_ROOT / "src"))

from procs import OUT_DIR, Sandbox  # noqa: E402
from stats import Metric, Outcome, own_name, spread  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: The traced pass and its in-process reference each run this share of the
#: measured pass's operation counts.
TRACE_SHARE = 0.25
QUICK_SHARE = 0.1


# -- running ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, quick: bool) -> Outcome:
    """One measured pass: real subprocesses, tracing off, on one CPU with
    the speed probe beside them (see :mod:`speed`)."""
    import speed
    from workloads import WORKLOADS, Pass

    placement = speed.pin()
    with Sandbox() as sandbox, speed.SpeedProbe() as probe:
        plan = Pass(seed, seconds, speed=probe)
        if quick:
            plan.setup_repeats = plan.cold_repeats = 1
        began = time.perf_counter()
        out = WORKLOADS[workload](plan, sandbox)
        out.named["cpu_speed_rel"] = Metric(
            probe.relative(began, time.perf_counter()), "x"
        )
    out.notes.append(
        f"{placement}; timings are stated at reference CPU speed; over this "
        "pass the CPU took cpu_speed_rel times as long as at reference speed"
    )
    return out


def trace_passes(workload: str, seed: int, seconds: float):
    """The in-process reference pass, then the traced pass, same inputs.

    Returns (reference outcome, traced outcome, spans).
    """
    from trace import Tracer
    from workloads import INPROC, TRACED, WORKLOADS, Pass

    import speed

    share = seconds * TRACE_SHARE
    speed.pin()
    with Sandbox() as sandbox:
        reference = WORKLOADS[workload](
            Pass(seed, share, INPROC, setup_repeats=1, cold_repeats=1),
            sandbox,
        )
        tracer = Tracer()
        with tracer:
            traced = WORKLOADS[workload](
                Pass(seed, share, TRACED, setup_repeats=1, cold_repeats=1,
                     tracer=tracer),
                sandbox,
            )
    spans = tracer.collect()
    spans.attribute(traced.raw["requests"])
    return reference, traced, spans


# -- reporting -------------------------------------------------------------------


def _fmt(metric: Metric) -> str:
    n = f"  (n={metric.n})" if metric.n else ""
    return f"{metric.value:>14.4f} {metric.unit:<5}{n}"


def report(out: Outcome, header: str) -> None:
    print(f"== {out.workload}: {header}")
    declared = {own_name(spec["name"], out.workload): spec["name"]
                for spec in SPEC["end_to_end"]}
    for name, metric in out.named.items():
        as_ = declared.get(name)
        tag = "" if as_ is None else "  gated" if as_ == name \
            else f"  gated as {as_}"
        print(f"  {name:<28}{_fmt(metric)}{tag}")
    print(f"  {'ops_attempted':<28}{out.attempted:>14d}")
    print(f"  {'ops_failed':<28}{out.failed:>14d}")
    for name, value in out.counts.items():
        print(f"  count {name:<22}{value:>14d}")
    for note in out.notes:
        print(f"  note: {note}")
    for name, ok, detail in out.checks:
        suffix = f" [{detail}]" if detail else ""
        print(f"  {'ok  ' if ok else 'FAIL'} {name}{suffix}")


def report_layers(workload: str, layers: dict[str, Metric]) -> None:
    print(f"== {workload}: per-layer metrics (traced, in-process, "
          f"{TRACE_SHARE:g} of the operation counts, one request in flight)")
    for name, metric in layers.items():
        print(f"  {name:<46}{_fmt(metric)}")


def contract_line(out: Outcome, metrics: dict[str, Metric]) -> str:
    return json.dumps({
        "correct": out.correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in metrics.items()
        },
    })


def end_to_end(out: Outcome) -> dict[str, Metric]:
    """The declared end-to-end metrics as this workload reports them."""
    return {spec["name"]: out.declared(spec["name"])
            for spec in SPEC["end_to_end"]}


def machine(probe: bool = False) -> dict:
    import numpy

    info = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    if probe:
        info["probe_s"] = calibrate()
    return info


def calibrate() -> float:
    """A fixed pure-Python loop, timed: how fast this box is today."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def save(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def _metrics_json(metrics: dict[str, Metric]) -> dict:
    return {k: {"value": m.value, "unit": m.unit, "n": m.n}
            for k, m in metrics.items()}


def run_one(args, workload: str, seed: int) -> tuple[bool, dict[str, Metric]]:
    """Run one workload once; print, save, and emit the contract line."""
    seconds = args.seconds * (QUICK_SHARE if args.quick else 1.0)
    flush = f"flush policy --fsync always, shards=1, seed {seed}, " \
            f"{seconds:g} s budget"
    if args.trace:
        import layers
        import trace

        reference, traced, spans = trace_passes(workload, seed, seconds)
        computed = layers.per_layer(workload, reference, traced, spans)
        metrics = {m["name"]: computed[m["name"]] for m in SPEC["per_layer"]}
        problems = spans.integrity(workload)
        out = traced
        out.checks = reference.checks + traced.checks
        out.check("trace integrity: every wrapped entry point hit or "
                  "bypassed as declared", not problems, "; ".join(problems))
        out.check("every patched name restored", not trace.leftovers())
        report(out, f"traced pass, in-process; {flush}")
        report_layers(workload, metrics)
        trace_path = OUT_DIR / f"trace-{workload}.jsonl"
        spans.write(trace_path)
        print(f"  spans: {len(spans.items)} -> "
              f"{trace_path.relative_to(REPO_ROOT)}")
    else:
        out = measure(workload, seed, seconds, args.quick)
        metrics = end_to_end(out)
        quick = " QUICK MODE, smoke use only;" if args.quick else ""
        report(out, f"measured pass, tracing off;{quick} {flush}")
    save(f"results-{workload}{'-trace' if args.trace else ''}.json", {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(args.trace), "quick": args.quick,
        "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed, "counts": out.counts,
        "named": _metrics_json(out.named),
        "metrics": _metrics_json(metrics),
        "checks": [list(c) for c in out.checks],
        "machine": machine(),
    })
    print(contract_line(out, metrics), flush=True)
    return out.correct, metrics


def run_isolated(args, workload: str) -> tuple[bool, dict[str, Metric]]:
    """Run one workload in a fresh interpreter, as the driver does.

    A set of several runs goes through here: a second workload measured
    in the process that ran the first inherits its heap and threads, and
    its client-side latencies move with them (``mixed_rw`` read 4.5 ms
    alone and 12 ms after two other workloads).
    """
    import subprocess

    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate()
    except BaseException:
        # SIGTERM, not kill(): the child must unwind its own sandbox.
        child.terminate()
        child.wait()
        raise
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload}: run failed (exit {child.returncode})")
    result = json.loads(lines[-1])
    return result["correct"], {
        name: Metric(m["value"], m["unit"])
        for name, m in result["metrics"].items()
    }


# -- self-check ------------------------------------------------------------------


#: Runs of each workload in each of the self-check's two sets: ten in all,
#: the number the driver takes its spread over (the quartiles of fewer runs
#: sit nearer the extremes and read wider).
SELFCHECK_RUNS = 5


def selfcheck(args) -> int:
    """Two sets of runs on the same code: do their medians agree within
    the bounds, and do all the runs together spread no wider than them?

    This is the driver's acceptance test of the benchmark in small: it
    compares the medians of two sets of ten and the spread of each set.
    The sets alternate, whole set after whole set, so that a slow spell of
    the machine meets both alike.
    """
    specs = SPEC["end_to_end"]
    values: list[dict[str, dict[str, list[float]]]] = [{}, {}]
    ok = True
    for _ in range(SELFCHECK_RUNS):
        for by_workload in values:
            for workload in args.workload:
                correct, metrics = run_isolated(args, workload)
                ok &= correct
                seen = by_workload.setdefault(workload, {})
                for name, metric in metrics.items():
                    seen.setdefault(name, []).append(metric.value)
    rows = []
    print(f"== selfcheck, seed {args.seed}: two sets of {SELFCHECK_RUNS} "
          "runs; metric x workload, median of each set, relative "
          "difference, spread of all runs, bound")
    for workload in args.workload:
        for spec in specs:
            name = spec["name"]
            first, second = (values[i][workload][name] for i in (0, 1))
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            wide = spread(first + second)
            # The driver does not hold setup_s to its spread either.
            within = abs(worse) <= spec["bound"] and (
                wide <= spec["bound"] or name == "setup_s"
            )
            ok &= within
            rows.append({
                "workload": workload, "metric": name,
                "reports": own_name(name, workload),
                "set1": first, "set2": second, "median1": a, "median2": b,
                "rel_diff": worse, "spread": wide, "bound": spec["bound"],
                "within": within,
            })
            print(f"  {workload:<15}{name:<15}{a:>12.4f}{b:>12.4f}"
                  f"{worse:>+8.1%}  spread {wide:>5.1%}  "
                  f"bound {spec['bound']:.0%}{'' if within else '  OUTSIDE'}")
    # One entry per seed checked, so a second seed adds to the record.
    path = OUT_DIR / "selfcheck.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record[f"seed-{args.seed}"] = {
        "seconds": args.seconds, "runs_per_set": SELFCHECK_RUNS,
        "machine": machine(probe=True), "rows": rows, "ok": ok,
    }
    save("selfcheck.json", record)
    print(f"selfcheck {'passed' if ok else 'FAILED'} -> "
          f"{path.relative_to(REPO_ROOT)}")
    return 0 if ok else 1


# -- entry -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measurement budget per workload; operation counts "
                         "are fixed multiples of it")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer metrics from the traced "
                                         "in-process pass")
    ap.add_argument("--quick", action="store_true",
                    help="a tenth of the operation counts and single "
                         "set-ups: smoke use only, never for claims")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the whole set this many times and print the "
                         "median of each metric across the sets")
    ap.add_argument("--selfcheck", action="store_true",
                    help=f"run two sets of {SELFCHECK_RUNS} runs and compare "
                         "their medians and spread with the bounds in "
                         "BENCHMARK.json")
    args = ap.parse_args(argv)
    args.workload = args.workload or WORKLOAD_NAMES
    if args.selfcheck:
        return selfcheck(args)
    if args.repeat == 1 and len(args.workload) == 1:
        correct, _ = run_one(args, args.workload[0], args.seed)
        return 0 if correct else 1
    ok = True
    collected: dict[str, list[dict[str, Metric]]] = {}
    for _ in range(args.repeat):
        for workload in args.workload:
            correct, metrics = run_isolated(args, workload)
            ok &= correct
            collected.setdefault(workload, []).append(metrics)
    if args.repeat > 1:
        print(f"== medians over {args.repeat} sets")
        for workload, runs in collected.items():
            for name in runs[0]:
                values = [r[name].value for r in runs]
                print(f"  {workload:<15}{name:<46}"
                      f"{statistics.median(values):>14.4f} {runs[0][name].unit}")
    return 0 if ok else 1


def _terminated(signum, frame) -> None:
    # Unwind through the sandbox so no child outlives a ``kill``.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
