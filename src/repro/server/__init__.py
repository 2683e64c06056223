"""``repro.server`` — the concurrent query service layer.

Many sessions, one maintained model: readers evaluate against immutable
copy-on-write snapshots published by a single serialized writer, so no
query ever observes a half-applied delta (see DESIGN.md, "Service
layer").  The package splits into:

* :mod:`repro.server.session` — per-client :class:`Session` (the REPL
  grammar: queries, fact churn, batches, time-travel reads) and the
  structured :class:`Response` envelope,
* :mod:`repro.server.service` — :class:`QueryService`, the front end
  owning the :class:`~repro.engine.maintenance.VersionedModel`,
* :mod:`repro.server.protocol` — a line-oriented TCP server with one
  thread per connection, plus a minimal blocking :class:`LineClient`.
"""

from .session import (
    E_BATCH,
    E_CLOSED,
    E_CLOSING,
    E_COMMAND,
    E_EVAL,
    E_NOT_FOLLOWER,
    E_NOT_YET,
    E_PARSE,
    E_READ_ONLY,
    E_RETIRED,
    E_UNKNOWN_VERSION,
    E_UNSAFE,
    QueryResult,
    Response,
    Session,
    SessionStats,
)
from .service import QueryService
from .protocol import Backoff, LineClient, Server, ServerHandle, run_in_thread

__all__ = [
    "Backoff",
    "E_BATCH",
    "E_CLOSED",
    "E_CLOSING",
    "E_COMMAND",
    "E_EVAL",
    "E_NOT_FOLLOWER",
    "E_NOT_YET",
    "E_PARSE",
    "E_READ_ONLY",
    "E_RETIRED",
    "E_UNKNOWN_VERSION",
    "E_UNSAFE",
    "LineClient",
    "QueryResult",
    "QueryService",
    "Response",
    "Server",
    "ServerHandle",
    "Session",
    "SessionStats",
    "run_in_thread",
]
