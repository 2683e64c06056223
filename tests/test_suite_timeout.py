"""The per-test time budget of ``tests/conftest.py``: a test that blocks
forever fails after the budget, and its report shows where it blocked."""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).with_name("conftest.py")


@pytest.mark.skipif(
    not hasattr(__import__("signal"), "setitimer"), reason="POSIX timer"
)
def test_a_hung_test_fails_with_its_stack(pytester):
    # The suite's own conftest, loaded as it is, with a one-second budget.
    pytester.makeconftest(f"""
import importlib.util

_spec = importlib.util.spec_from_file_location("suite_conftest", {str(CONFTEST)!r})
_suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_suite)
_suite.TEST_TIMEOUT_S = 1
pytest_runtest_call = _suite.pytest_runtest_call
""")
    pytester.makepyfile(test_hang="""
import threading

def blocked_on_a_lock_held_by_itself():
    lock = threading.Lock()
    lock.acquire()
    lock.acquire()

def test_hangs():
    blocked_on_a_lock_held_by_itself()

def test_after_the_hang_still_runs():
    pass
""")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines([
        "*test exceeded its 1 s budget; thread stacks:*",
        "*in blocked_on_a_lock_held_by_itself*",
    ])
