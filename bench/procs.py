"""Child processes and scratch space for the benchmark.

Every ``lps serve`` the benchmark talks to is a real subprocess
(``python -m repro.repl.cli serve ...`` with ``PYTHONPATH=src``) bound to
port 0; the port is parsed from its ``listening on`` line.  All children
and all data directories belong to one :class:`Sandbox`, whose ``close``
kills what is still running, waits for it, closes its pipes and removes
the scratch root -- on success, failure and Ctrl-C alike.  What a
``SIGKILL`` of the benchmark itself leaves behind, the next run removes.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class Server:
    """One ``lps serve`` subprocess."""

    def __init__(self, proc: subprocess.Popen, started: float) -> None:
        self.proc = proc
        self.host = ""
        self.port = 0
        #: ``perf_counter()`` just before ``Popen``.
        self.started = started
        self.peak_rss_kb = 0

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def sample_rss(self) -> int:
        """Refresh the high-water mark (``VmHWM``, kB) while alive."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_kb = max(
                            self.peak_rss_kb, int(line.split()[1])
                        )
                        break
        except OSError:
            pass                            # already gone: keep the last value
        return self.peak_rss_kb

    def kill(self) -> None:
        """SIGKILL, reap, close pipes.  Safe to call twice."""
        self.sample_rss()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Sandbox:
    """Scratch root + registry of children; a context manager."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        _remove_orphans()
        # Inside the checkout, not the system's temporary directory: the
        # driver lets a run write nowhere else.
        self.root = Path(tempfile.mkdtemp(
            prefix=f"run-{os.getpid()}-", dir=OUT_DIR
        ))
        self._servers: list[Server] = []
        self._n = 0

    def fresh_dir(self, label: str) -> Path:
        self._n += 1
        path = self.root / f"{label}-{self._n}"
        path.mkdir()
        return path

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        return env

    def serve(self, *args: str) -> Server:
        """Start ``lps serve --port 0 <args>`` and wait for its address."""
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-u", "-W", "ignore", "-m", "repro.repl.cli",
             "serve", "--host", "127.0.0.1", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=REPO_ROOT, env=self.env(),
        )
        # Register before waiting: a child that never reports its address
        # must still be reaped by close().
        server = Server(proc, started)
        self._servers.append(server)
        seen: list[str] = []
        # readline() returns when the child prints or exits; the driver's
        # per-run limit bounds a child that does neither.
        while True:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"lps serve exited (rc={proc.poll()}) before listening:"
                    f"\n{''.join(seen)}"
                )
            seen.append(line)
            if "listening on" in line:
                host, _, port = line.rsplit(" ", 1)[-1].strip().rpartition(":")
                server.host, server.port = host, int(port)
                return server

    def run_cli(self, *args: str) -> tuple[float, float, str]:
        """Run one ``lps`` command to completion; (``perf_counter`` at its
        start, at its end, stdout)."""
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "repro.repl.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=self.env(), check=True,
        )
        return t0, time.perf_counter(), done.stdout

    def close(self) -> None:
        for server in self._servers:
            server.kill()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _remove_orphans() -> None:
    """Remove the scratch roots of runs that were killed before they could:
    ``run-<pid>-*`` whose process is gone."""
    for path in OUT_DIR.glob("run-*-*"):
        pid = path.name.split("-")[1]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass                            # alive, and not ours


def self_rss_mb() -> float:
    """``VmHWM`` of this process, MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
