#!/usr/bin/env python
"""Benchmark entry point: time the ``benchmarks/`` suite and record results.

Runs pytest with pytest-benchmark *enabled* (the repository default disables
timing so the benchmarks double as plain correctness tests), parses the
benchmark JSON, and merges mean wall-clock seconds per benchmark into
``BENCH_results.json`` under a label.  Labels accumulate, so the file holds
a perf trajectory across PRs::

    {
      "labels": {
        "before": {"<benchmark id>": {"mean_s": ..., "rounds": ...}, ...},
        "after":  {...}
      }
    }

Usage::

    python benchmarks/run_benchmarks.py                    # label "current"
    python benchmarks/run_benchmarks.py --label after
    python benchmarks/run_benchmarks.py --files test_bench_seminaive.py
    python benchmarks/run_benchmarks.py --compare before after
    python benchmarks/run_benchmarks.py --check-regressions plans --quick

``--quick`` caps rounds/time per benchmark for CI-sized runs;
``--check-regressions`` re-times stored labels against the committed
baseline and fails on >2× slowdowns (the CI perf gate).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: The files a perf-sensitive PR must not regress (see ISSUE/ROADMAP).
CORE_FILES = (
    "test_bench_seminaive.py",
    "test_bench_fixpoint.py",
    "test_bench_topdown.py",
)


def run_pytest_benchmarks(files: list[str], quick: bool) -> dict[str, dict]:
    """Run pytest-benchmark on the files; return {benchmark id: stats}."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    cmd = [
        sys.executable, "-m", "pytest",
        *[str(BENCH_DIR / f) for f in files],
        "-q",
        "--benchmark-enable",
        f"--benchmark-json={json_path}",
        "--benchmark-warmup=off",
        "--benchmark-disable-gc",
    ]
    if quick:
        cmd += ["--benchmark-min-rounds=1", "--benchmark-max-time=0.25"]
    else:
        cmd += ["--benchmark-min-rounds=3", "--benchmark-max-time=1.0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"pytest failed with exit code {proc.returncode}")
    with open(json_path) as fh:
        data = json.load(fh)
    out: dict[str, dict] = {}
    for bench in data.get("benchmarks", ()):
        out[bench["fullname"]] = {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
        }
    return out


def load_results(path: Path) -> dict:
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    return {"labels": {}}


def calibrate() -> float:
    """Machine-speed probe: a fixed pure-Python workload, min-of-3 seconds.

    Stored next to each label so ``--check-regressions`` can compare
    wall-clock baselines recorded on one machine against a fresh run on a
    slower/faster one: ratios are normalized by the calibration ratio, so
    the gate measures *code* regressions, not hardware differences.
    """
    import time

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        d: dict = {}
        for i in range(200_000):
            d[i & 1023] = i
            acc += hash((i, i & 7))
        best = min(best, time.perf_counter() - t0)
    return best


def check_regressions(
    results: dict, labels: list[str], quick: bool, tolerance: float
) -> int:
    """Re-run each label's benchmark files and fail on >tolerance× slowdowns.

    The committed BENCH_results.json is the baseline: for every benchmark
    stored under a label, the file it lives in is re-timed and the fresh
    ``min_s`` compared against the stored one.  Minima (not means) are
    compared because scheduler noise inflates means, and ratios are
    normalized by the :func:`calibrate` machine-speed probe when the
    baseline recorded one, so a slower CI runner does not read as a code
    regression.  A baseline benchmark missing from the fresh run (renamed,
    skipped, deleted without updating the baseline) also fails — silently
    losing a benchmark is how regressions slip through.  Exit code 1 on
    any violation — the CI gate for perf-sensitive PRs.
    """
    stored_labels = results.get("labels", {})
    calibrations = results.get("calibration", {})
    if not labels:
        labels = sorted(stored_labels)
    fresh_cal = calibrate()
    exit_code = 0
    for label in labels:
        stored = stored_labels.get(label)
        if not stored:
            print(f"no committed baseline under label {label!r} "
                  f"(have {sorted(stored_labels)})")
            return 1
        base_cal = calibrations.get(label)
        scale = (fresh_cal / base_cal) if base_cal else 1.0
        allowed = tolerance * scale
        files = sorted({name.split("::")[0].split("/")[-1] for name in stored})
        print(f"label {label!r}: re-timing {files} "
              f"(machine-speed scale {scale:.2f}x, "
              f"allowed slowdown {allowed:.2f}x)")
        fresh = run_pytest_benchmarks(files, quick)
        print(f"{'benchmark':68s} {'base':>10s} {'fresh':>10s} {'ratio':>7s}")
        for name in sorted(stored):
            entry = fresh.get(name)
            if entry is None:
                print(f"{name[:68]:68s} {'MISSING':>10s}  << baseline "
                      "benchmark did not run (renamed/skipped/deleted?)")
                exit_code = 1
                continue
            base = stored[name]["min_s"]
            new = entry["min_s"]
            ratio = new / base if base > 0 else 0.0
            verdict = "" if ratio <= allowed else "  << REGRESSION"
            print(f"{name[:68]:68s} {base:10.4f} {new:10.4f} "
                  f"{ratio:6.2f}x{verdict}")
            if ratio > allowed:
                exit_code = 1
    if exit_code:
        print(f"\nFAIL: a baseline benchmark is missing or regressed more "
              f"than {tolerance:.1f}x (machine-normalized) against the "
              "committed baseline")
    else:
        print(f"\nOK: no benchmark regressed more than {tolerance:.1f}x "
              "(machine-normalized)")
    return exit_code


def compare(results: dict, base: str, new: str) -> int:
    labels = results.get("labels", {})
    if base not in labels or new not in labels:
        print(f"missing label(s): have {sorted(labels)}")
        return 1
    common = sorted(set(labels[base]) & set(labels[new]))
    if not common:
        print("no common benchmarks between labels")
        return 1
    print(f"{'benchmark':68s} {base:>10s} {new:>10s} {'speedup':>8s}")
    worst = float("inf")
    for name in common:
        b = labels[base][name]["mean_s"]
        n = labels[new][name]["mean_s"]
        speedup = b / n if n > 0 else float("inf")
        worst = min(worst, speedup)
        print(f"{name[:68]:68s} {b:10.4f} {n:10.4f} {speedup:7.2f}x")
    print(f"\nworst speedup: {worst:.2f}x over {len(common)} benchmarks")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="current",
                        help="label to store results under (default: current)")
    parser.add_argument("--files", nargs="*", default=list(CORE_FILES),
                        help="benchmark files to run (default: the core trio); "
                             "pass 'all' for the whole suite")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_results.json"))
    parser.add_argument("--quick", action="store_true",
                        help="single-round timing (CI-sized)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print speedups between two stored labels and exit")
    parser.add_argument("--check-regressions", nargs="*", metavar="LABEL",
                        default=None,
                        help="re-run the files behind the given stored "
                             "labels (default: all labels) and exit 1 if "
                             "any benchmark is slower than the committed "
                             "baseline by more than --tolerance")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed slowdown factor for "
                             "--check-regressions (default: 2.0)")
    args = parser.parse_args(argv)

    out_path = Path(args.output)
    results = load_results(out_path)

    if args.compare:
        return compare(results, *args.compare)
    if args.check_regressions is not None:
        return check_regressions(
            results, args.check_regressions, args.quick, args.tolerance
        )

    files = args.files
    if files == ["all"]:
        files = sorted(p.name for p in BENCH_DIR.glob("test_bench_*.py"))
    stats = run_pytest_benchmarks(files, args.quick)
    results.setdefault("labels", {}).setdefault(args.label, {}).update(stats)
    results.setdefault("calibration", {})[args.label] = calibrate()
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(stats)} benchmark timings to {out_path} "
          f"under label {args.label!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
