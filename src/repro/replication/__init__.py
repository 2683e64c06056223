"""Replication & failover: WAL-shipping followers over the line protocol.

The design (DESIGN.md, "Replication & failover") in one paragraph: the
leader's :class:`~repro.storage.durable.DurableModel` already produces a
totally ordered, checksummed, crash-recoverable log of every acknowledged
commit — replication *ships that log*.  A follower tails the stream over
the ``:repl from N`` protocol extension, applies each record — judged by
the rule recovery folds by — through the ``MaterializedModel.apply_delta``
engine, logs it into its **own** durable directory (so a follower is independently
crash-recoverable), and serves read-only sessions at its applied version.
Failover bumps a fencing **epoch** stamped into every record: a promoted
follower's lineage rejects any append still carrying the deposed leader's
epoch, so acknowledged history can never fork silently.

* :class:`ReplicationHub` — leader side: subscribes to the model's commit
  stream under the write lock (gap-free), fans records out to followers,
  collects ``:ack N`` confirmations, and gates write acknowledgement on
  ``ack_replicas``.
* :class:`FollowerService` — follower side: bootstrap (the leader's
  checkpoint lines, or local recovery), tail/replay/ack loop with
  reconnect backoff, read-only
  sessions, :meth:`FollowerService.promote`.
* :class:`ReplicaClient` — client side: writes to the leader, reads
  fanned out across followers, read-your-writes via version tokens.
* :func:`promote_best` — pick the follower with the highest durable
  version and promote it.
"""

from .client import ReplicaClient, promote_best
from .follower import FollowerService, FollowerSession, ReplicationError
from .hub import ReplicationHub, ReplicationLagError

__all__ = [
    "ReplicationHub",
    "ReplicationLagError",
    "FollowerService",
    "FollowerSession",
    "ReplicationError",
    "ReplicaClient",
    "promote_best",
]
