"""Shared fixture for the paper's experiment files.

Each benchmark file regenerates one experiment of DESIGN.md on the paper's
own programs.  Tier-1 runs them as correctness tests (timing off, see
``pyproject.toml``); ``python -m pytest --benchmark-enable benchmarks/``
times them.  The generators are deterministic, so numbers are comparable
across runs.

The engine entry point is provided as the ``evaluate`` *fixture* (not a
module import) so the benchmark modules need no package-relative imports —
``python -m pytest`` collects them from the repository root without any
package context.
"""

import pytest

from repro.engine import Evaluator
from repro.engine.setops import with_set_builtins


def run_engine(program, db=None):
    """Evaluate a program with the set builtins enabled."""
    return Evaluator(program, db, builtins=with_set_builtins()).run()


@pytest.fixture(scope="session")
def evaluate():
    """Fixture-injected engine entry point (see module docstring)."""
    return run_engine
