"""Topology-aware client: leader writes, follower read fan-out, failover.

:class:`ReplicaClient` wraps one :class:`~repro.server.protocol.LineClient`
per endpoint (created lazily, reconnecting with bounded backoff) and adds
the routing policy a replicated deployment needs:

* **writes → leader.**  A ``read_only`` refusal means the presumed
  leader is actually a follower; the refusal carries the real leader's
  address and the write is redirected there once.
* **reads → followers.**  Round-robin over the follower list, falling
  back to the leader when no follower answers — each follower is a
  process of its own, so read capacity can grow with followers where
  there are cores to run them (DESIGN.md, "Replication & failover").
* **read-your-writes.**  Every acknowledged write's version becomes the
  client's *version token*; a follower read is preceded by
  ``:sync <token>``, so the session never observes a state older than
  its own writes no matter which replica serves it.
* **failover.**  :func:`promote_best` asks every follower for its
  applied version, promotes the highest, and the client's
  :meth:`ReplicaClient.set_leader` repoints writes.
"""

from __future__ import annotations

import logging
from typing import Iterable, Optional, Union

from ..server.protocol import LineClient
from ..server.session import E_READ_ONLY, Response
from .follower import ReplicationError, _parse_addr

logger = logging.getLogger("repro.replication")


class ReplicaClient:
    """Route requests across a leader and its followers (single-threaded,
    like the :class:`LineClient` connections it manages)."""

    def __init__(
        self,
        leader: Union[str, tuple],
        followers: Iterable[Union[str, tuple]] = (),
        timeout: float = 10.0,
        max_attempts: int = 3,
        sync_timeout: float = 10.0,
    ) -> None:
        self.leader_addr = _parse_addr(leader)
        self.follower_addrs = [_parse_addr(a) for a in followers]
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.sync_timeout = sync_timeout
        #: The read-your-writes version token.
        self.last_write_version = 0
        self._clients: dict[tuple, LineClient] = {}
        self._rr = 0

    # -- connections -------------------------------------------------------------

    def _client(self, addr: tuple) -> LineClient:
        client = self._clients.get(addr)
        if client is None:
            client = LineClient(
                addr[0], addr[1],
                timeout=self.timeout, max_attempts=self.max_attempts,
            )
            self._clients[addr] = client
        return client

    def _drop(self, addr: tuple) -> None:
        client = self._clients.pop(addr, None)
        if client is not None:
            client.close()

    def close(self) -> None:
        for addr in list(self._clients):
            self._drop(addr)

    def __enter__(self) -> "ReplicaClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing -----------------------------------------------------------------

    def set_leader(self, addr: Union[str, tuple]) -> None:
        new = _parse_addr(addr)
        if new != self.leader_addr:
            old = self.leader_addr
            self.leader_addr = new
            if new not in self.follower_addrs:
                # The promoted follower stops being a read-only target.
                self.follower_addrs = [
                    a for a in self.follower_addrs if a != new
                ]
            logger.info("leader repointed %s -> %s", old, new)

    def write(self, line: str) -> Response:
        """Send a write to the leader, following one redirect."""
        response = self._client(self.leader_addr).send(line)
        if (
            not response.ok
            and response.code == E_READ_ONLY
            and isinstance(response.data, dict)
            and response.data.get("leader")
        ):
            self.set_leader(response.data["leader"])
            response = self._client(self.leader_addr).send(line)
        if response.ok and response.version is not None:
            self.last_write_version = max(
                self.last_write_version, response.version
            )
        return response

    def read(self, goal: str) -> Response:
        """Fan a query out: next follower (synced to the write token),
        then the remaining followers, then the leader."""
        candidates = self._read_candidates()
        last_exc: Optional[Exception] = None
        for addr in candidates:
            try:
                client = self._client(addr)
                if addr != self.leader_addr and self.last_write_version:
                    synced = client.send(
                        f":sync {self.last_write_version} "
                        f"{self.sync_timeout:g}"
                    )
                    if not synced.ok:
                        continue           # lagging replica: try the next
                return client.query(goal)
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                self._drop(addr)
        raise ConnectionError(
            f"no endpoint answered the read ({len(candidates)} tried): "
            f"{last_exc}"
        )

    def _read_candidates(self) -> list[tuple]:
        followers = [
            a for a in self.follower_addrs if a != self.leader_addr
        ]
        if followers:
            self._rr = (self._rr + 1) % len(followers)
            followers = followers[self._rr:] + followers[:self._rr]
        return followers + [self.leader_addr]

    # -- convenience -------------------------------------------------------------

    def assert_fact(self, fact: str) -> Response:
        return self.write(f"+{fact.rstrip('.')}.")

    def retract_fact(self, fact: str) -> Response:
        return self.write(f"-{fact.rstrip('.')}.")

    def role(self, addr: Union[str, tuple, None] = None) -> Response:
        target = _parse_addr(addr) if addr is not None else self.leader_addr
        return self._client(target).send(":role")


def promote_best(
    followers: Iterable[Union[str, tuple]], timeout: float = 10.0
) -> tuple[tuple, dict]:
    """Fail over: promote the reachable follower with the highest
    applied version (so no acknowledged-and-replicated write is lost).

    Returns ``((host, port), role_data)`` of the new leader; raises
    :class:`ConnectionError` when no follower is reachable and
    :class:`ReplicationError` when the chosen follower refuses.
    """
    best: Optional[tuple] = None
    best_version = -1
    for addr in (_parse_addr(a) for a in followers):
        try:
            with LineClient(addr[0], addr[1], timeout=timeout) as client:
                response = client.send(":version")
        except (ConnectionError, OSError):
            continue
        if response.ok and isinstance(response.data, dict):
            version = response.data.get("latest", -1)
            if isinstance(version, int) and version > best_version:
                best, best_version = addr, version
    if best is None:
        raise ConnectionError(
            "no follower is reachable; cannot promote"
        )
    with LineClient(best[0], best[1], timeout=timeout) as client:
        response = client.send(":promote")
    if not response.ok:
        raise ReplicationError(
            f"promotion of {best[0]}:{best[1]} (version {best_version}) "
            f"failed: {response.error}"
        )
    logger.warning(
        "promoted %s:%d at version %d", best[0], best[1], best_version
    )
    return best, response.data if isinstance(response.data, dict) else {}
