"""Test-suite configuration: deterministic hypothesis runs, a per-test
time budget.

The top-down prover's SLD search is depth-bounded but can blow up
combinatorially on adversarial random programs (the paper itself flags the
procedure as impractical in general — Section 3.2).  With free-running
randomness, the property tests occasionally draw such a program and a
20-second suite turns into a multi-minute one.  Derandomized draws give the
same coverage on every run, keep tier-1 wall-clock stable, and make
benchmark numbers comparable across PRs.

A test that hangs (a deadlock, a lost wake-up) would otherwise stop the
whole run with no word of where.  On POSIX every test call runs under a
real-time timer of :data:`TEST_TIMEOUT_S` seconds; on expiry the test fails
with the stack of every thread in its report.  Standard library only: the
signal interrupts a main thread blocked in ``Lock.acquire``, ``sleep`` or a
socket wait, which is where the hangs this suite has seen were.
"""

import faulthandler
import signal
import tempfile
import threading

import pytest
from hypothesis import settings

settings.register_profile(
    "repro-deterministic",
    derandomize=True,
    deadline=None,
)
settings.load_profile("repro-deterministic")

#: Seconds one test call may take before it is failed (the slowest test
#: takes about 11 s).
TEST_TIMEOUT_S = 300


def _thread_stacks() -> str:
    with tempfile.TemporaryFile("w+") as f:
        faulthandler.dump_traceback(file=f, all_threads=True)
        f.seek(0)
        return f.read()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer") \
            or threading.current_thread() is not threading.main_thread():
        return (yield)
    budget = TEST_TIMEOUT_S

    def expire(signum, frame):
        pytest.fail(
            f"test exceeded its {budget} s budget; thread stacks:\n"
            + _thread_stacks(),
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
