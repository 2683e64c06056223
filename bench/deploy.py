"""One set-up of the system under test, as processes or in-process.

The untraced passes talk to real ``lps serve`` subprocesses
(:class:`ProcessDeployment`).  The traced pass needs the layers in *this*
interpreter so :mod:`trace` can wrap them, so :class:`InProcessDeployment`
hosts the same services on threads (``QueryService`` + ``run_in_thread``,
``FollowerService.start()``).  Both expose addresses only: every request
still crosses a TCP socket through ``LineClient``.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Optional

from repro.server import LineClient

from procs import Sandbox, Server

FSYNC = "always"
#: The served checkpoint interval is the service default (512 commits) and
#: ``lps serve`` has no flag for it.  The traced pass is a quarter as long,
#: so in-process it checkpoints every 64 commits to still cross a few.
TRACE_CHECKPOINT_EVERY = 64


def _addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host, int(port)


class Deployment:
    """A leader, optionally a follower; addresses and data directories."""

    leader_addr: str
    follower_addr: Optional[str] = None
    leader_dir: Path
    follower_dir: Optional[Path] = None

    def __init__(self) -> None:
        self._clients: list[LineClient] = []

    def client(self, follower: bool = False, cls=LineClient) -> LineClient:
        addr = self.follower_addr if follower else self.leader_addr
        c = cls(*_addr(addr), timeout=120.0)
        self._clients.append(c)
        return c

    def bulk_load(self, facts: list[str]) -> None:
        """Assert ``facts`` on the leader as one committed batch."""
        with LineClient(*_addr(self.leader_addr), timeout=120.0) as c:
            for line in (":begin", *(f"+{f}." for f in facts), ":commit"):
                r = c.send(line)
                if not r.ok:
                    raise RuntimeError(f"bulk load refused {line!r}: {r.error}")

    def close_clients(self) -> None:
        for c in self._clients:
            c.close()
        self._clients.clear()

    def crash(self) -> None:
        """Stop serving without a clean shutdown of the stores."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError


class ProcessDeployment(Deployment):
    def __init__(self, sandbox: Sandbox, rules: str, facts: list[str],
                 follower: bool) -> None:
        super().__init__()
        work = sandbox.fresh_dir("deploy")
        prog = work / "prog.lps"
        prog.write_text(rules)
        self.leader_dir = work / "leader"
        self._servers: list[Server] = [sandbox.serve(
            str(prog), "--data-dir", str(self.leader_dir), "--fsync", FSYNC,
        )]
        self.leader_addr = self._servers[0].addr
        self.bulk_load(facts)
        if follower:
            self.follower_dir = work / "follower"
            self._servers.append(sandbox.serve(
                "--follow", self.leader_addr,
                "--data-dir", str(self.follower_dir), "--fsync", FSYNC,
            ))
            self.follower_addr = self._servers[1].addr

    def crash(self) -> None:
        self.close_clients()
        for s in self._servers:
            s.kill()                        # SIGKILL

    def peak_rss_mb(self) -> float:
        return max(s.sample_rss() for s in self._servers) / 1024.0


class InProcessDeployment(Deployment):
    def __init__(self, sandbox: Sandbox, rules: str, facts: list[str],
                 follower: bool) -> None:
        super().__init__()
        from repro.replication import FollowerService, ReplicationHub
        from repro.server import QueryService
        from repro.server.protocol import run_in_thread

        work = sandbox.fresh_dir("deploy")
        self.leader_dir = work / "leader"
        self.service = QueryService(
            rules, data_dir=self.leader_dir, fsync=FSYNC,
            checkpoint_every=TRACE_CHECKPOINT_EVERY,
        )
        ReplicationHub.attach(self.service)
        self._handles = [run_in_thread(self.service)]
        self.leader_addr = self._handles[0].addr
        self.bulk_load(facts)
        self._follower = None
        if follower:
            self.follower_dir = work / "follower"
            self._follower = FollowerService(
                self.leader_addr, self.follower_dir, fsync=FSYNC,
                checkpoint_every=TRACE_CHECKPOINT_EVERY,
            )
            self._handles.append(run_in_thread(self._follower.start()))
            self.follower_addr = self._handles[1].addr

    def crash(self) -> None:
        """In one interpreter there is nothing to SIGKILL, so the services
        are shut down.  A shutdown closes the WAL and writes nothing: the
        bytes the cold starts then copy are the ones every acknowledged
        commit had already fsynced."""
        self.close_clients()
        # Follower before leader, so its tailing thread is not left
        # reconnecting to a leader that has gone.
        if self._follower is not None:
            self._handles.pop().stop()
            self._follower.stop()
        self._handles.pop().stop()
        self.service.shutdown()

    def peak_rss_mb(self) -> float:
        from procs import self_rss_mb

        return self_rss_mb()


def copy_store(sandbox: Sandbox, data_dir: Path) -> Path:
    """A byte copy of a data directory, for one cold start."""
    target = sandbox.fresh_dir("cold") / "store"
    shutil.copytree(data_dir, target)
    return target


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
