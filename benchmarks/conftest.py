"""Shared fixtures and helpers for the benchmark suite.

Each benchmark file regenerates one row of the experiment index in
DESIGN.md / EXPERIMENTS.md.  Sizes are chosen so the whole suite runs in a
couple of minutes; the generators are deterministic, so numbers are
comparable across runs.

The engine entry point is provided as the ``evaluate`` *fixture* (not a
module import) so the benchmark modules need no package-relative imports —
``python -m pytest`` collects them from the repository root without any
package context.
"""

import time

import pytest

from paths import forced
from repro.engine import Evaluator
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins


def run_engine(program, db=None, **opts):
    """Evaluate a program with the set builtins enabled."""
    options = EvalOptions(**opts) if opts else EvalOptions()
    return Evaluator(program, db, builtins=with_set_builtins(),
                     options=options).run()


@pytest.fixture(scope="session")
def evaluate():
    """Fixture-injected engine entry point (see module docstring)."""
    return run_engine


@pytest.fixture(scope="session")
def set_builtin_registry():
    return with_set_builtins()


# -- two-arm benchmarks ---------------------------------------------------------
# A module that times the shipped pipeline against a baseline path declares
# ``MODES = {arm: tests/paths.py path}``, shipped arm first.

@pytest.fixture
def timed_run(request):
    """Skips unless pytest-benchmark timing is on, which is how
    ``benchmarks/run_benchmarks.py`` and the ``benchmarks`` CI job run the
    suite; tier-1 runs it with timing off, as correctness tests."""
    config = request.config
    if config.getoption("benchmark_disable") \
            and not config.getoption("benchmark_enable"):
        pytest.skip("times a baseline path: timed runs only")


def pytest_generate_tests(metafunc):
    if "mode" in metafunc.fixturenames:
        metafunc.parametrize("mode", list(metafunc.module.MODES), indirect=True)


@pytest.fixture
def mode(request):
    """Runs the test under each arm of the module's ``MODES``; the
    baseline arms in timed runs only."""
    arms = request.module.MODES
    if request.param != next(iter(arms)):
        request.getfixturevalue("timed_run")
    with forced(arms[request.param]):
        yield request.param


@pytest.fixture
def speedups(request, timed_run):
    """``speedups({name: thunk})``: how many times faster the shipped arm
    runs each thunk than the baseline arm; min-of-3 on both sides so
    scheduler noise cancels."""
    def best_of(fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def measure(workloads):
        times = []
        for path in request.module.MODES.values():
            with forced(path):
                times.append({n: best_of(fn) for n, fn in workloads.items()})
        shipped, baseline = times
        return {n: round(baseline[n] / t, 2) for n, t in shipped.items()}

    return measure
