"""Tier-1 guard for the benchmark's wrap table.

``bench/trace.py`` finds the layers' entry points by module path and
own-``__dict__`` name; a renamed or moved entry point would otherwise
surface only as a trace-integrity failure inside a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def test_every_wrap_row_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    # Its dataclasses look their own module up while the body executes.
    monkeypatch.setitem(sys.modules, spec.name, trace)
    spec.loader.exec_module(trace)
    gone = [
        f"{w.module}.{w.attr}" for w in trace.WRAPS if trace._owner(w) is None
    ]
    assert not gone, f"bench/trace.py WRAPS rows no longer resolve: {gone}"
