"""Shard coordinator: owns the program and the authoritative model.

The coordinator keeps the only authoritative interpretation.  For each
shardable stratum it ships every worker a full replica of the relations
the stratum reads plus that worker's hash-partition of the stratum's own
predicates, then drives synchronous exchange rounds: workers run their
local fixpoint to quiescence, return per-destination outboxes of
cross-shard delta tuples (codec atom text), and the coordinator forwards
each outbox to its owner until no worker has anything left to ship.  A
final gather merges each worker's owned additions back into the
coordinator's interpretation.

Every failure path — a worker dying, a transport error, a stratum the
worker cannot map, an active-domain fallback inside a worker — makes
``eval_stratum`` return ``None`` with the coordinator's interpretation
untouched, and the caller reruns the stratum single-process.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import pickle
from typing import Optional

from ..core.atoms import Atom
from ..engine.builtins import DEFAULT_BUILTINS
from ..engine.setops import with_set_builtins
from ..engine.stratify import StratumRules
from ..lang.pretty import pretty_program
from .partition import choose_partition, preserved_positions, shard_of
from .worker import builtins_for_profile, worker_main

logger = logging.getLogger(__name__)

#: Generous per-reply ceiling: a worker that stays silent this long is
#: treated as dead and the stratum falls back to single-process.
REPLY_TIMEOUT_S = 600.0


class ShardEvalError(Exception):
    """A sharded stratum attempt failed; fall back to single-process."""


def builtin_profile(builtins) -> Optional[str]:
    """A name a worker process can rebuild the builtin registry from.

    Only the two registries the engine ships are recognized; custom
    builtin sets cannot be serialized to another process, so evaluators
    using them never shard (single-process fallback, like any other
    unshardable configuration).
    """
    keys = set(builtins)
    if keys == set(DEFAULT_BUILTINS):
        return "default"
    if keys == set(with_set_builtins()):
        return "setops"
    return None


class ShardCoordinator:
    def __init__(self, program, n_shards: int, options,
                 builtins_profile: str) -> None:
        if n_shards < 2:
            raise ValueError("n_shards must be >= 2")
        # Workers re-parse the program and re-intern every shipped term
        # in their own process; their options must not recurse into
        # sharding.
        opts = dataclasses.asdict(options)
        opts["shards"] = 1
        text = pretty_program(program)
        # Prefer fork where available (Linux): workers inherit warm
        # imports.  worker_main is spawn-safe for the other platforms.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.n_shards = n_shards
        self.broken = False
        self._builtins = builtins_for_profile(builtins_profile)
        self._procs = []
        self._conns = []
        try:
            for i in range(n_shards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=worker_main,
                    args=(child, i, n_shards, text, opts, builtins_profile),
                    daemon=True,
                    name=f"repro-shard-{i}",
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send({"cmd": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        self.broken = True

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- stratum evaluation ------------------------------------------------------

    def eval_stratum(
        self,
        group: StratumRules,
        interp,
        domain,
        report,
    ) -> Optional[dict[str, set[Atom]]]:
        """Evaluate one shardable stratum across the workers.

        Returns the per-predicate atoms added (already merged into
        ``interp``/``domain``), or ``None`` if anything failed — the
        interpretation is untouched in that case and the caller must
        rerun the stratum single-process.
        """
        if self.broken:
            return None
        try:
            return self._eval_stratum(group, interp, domain, report)
        except ShardEvalError as exc:
            logger.warning(
                "sharded evaluation of stratum %d failed (%s); "
                "falling back to single-process", group.index, exc,
            )
            self._reset_workers()
            return None
        except (OSError, EOFError, BrokenPipeError) as exc:
            logger.warning(
                "shard worker transport failed (%s); disabling sharding "
                "for this evaluator", exc,
            )
            self.close()
            return None

    def _reset_workers(self) -> None:
        """Drop any half-finished stratum state in every worker."""
        try:
            for conn in self._conns:
                conn.send({"cmd": "reset"})
            for conn in self._conns:
                self._recv(conn)
        except (OSError, EOFError, BrokenPipeError, ShardEvalError):
            self.close()

    def _recv(self, conn) -> dict:
        if not conn.poll(REPLY_TIMEOUT_S):
            raise ShardEvalError("worker reply timed out")
        return conn.recv()

    def _eval_stratum(self, group, interp, domain, report):
        n = self.n_shards
        spec = choose_partition(
            interp, group.head_preds,
            preferred=preserved_positions(group, self._builtins),
        )
        heads = sorted(group.head_preds)
        # One pickle for the shared replica, whatever the worker count:
        # the blob is byte-copied into each pipe and each worker unpickles
        # (and re-interns, via the terms' ``__reduce__``) in parallel.
        replicated_blob = pickle.dumps(
            {
                p: list(interp.facts_of(p))
                for p in sorted(group.body_preds - group.head_preds)
                if interp.facts_of(p)
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        owned: list[list[Atom]] = [[] for _ in range(n)]
        for p in heads:
            for a in interp.facts_of(p):
                owned[shard_of(a, spec, n)].append(a)
        for i, conn in enumerate(self._conns):
            conn.send({
                "cmd": "eval",
                "head_preds": heads,
                "partition": spec,
                "replicated_blob": replicated_blob,
                "owned": owned[i],
            })
        replies = {i: self._check(self._recv(c))
                   for i, c in enumerate(self._conns)}

        # Exchange rounds: forward outboxes until global quiescence.
        while True:
            inboxes: dict[int, list[str]] = {}
            for r in replies.values():
                for dest, texts in r["exports"].items():
                    inboxes.setdefault(dest, []).extend(texts)
            if not inboxes:
                break
            for dest, texts in inboxes.items():
                self._conns[dest].send({"cmd": "continue", "inbox": texts})
            replies = {
                dest: self._check(self._recv(self._conns[dest]))
                for dest in inboxes
            }

        added: dict[str, set[Atom]] = {}
        rounds = 0
        for conn in self._conns:
            conn.send({"cmd": "finish"})
        for conn in self._conns:
            r = self._check(self._recv(conn))
            rounds = max(rounds, r["rounds"])
            report.rule_applications += r["rule_applications"]
            for a in r["added"]:
                if interp.add(a):
                    if domain.built:
                        domain.note_atom(a)
                    report.derived += 1
                    added.setdefault(a.pred, set()).add(a)
        report.rounds += rounds
        return added

    @staticmethod
    def _check(reply: dict) -> dict:
        if not reply.get("ok"):
            raise ShardEvalError(reply.get("error", "worker error"))
        return reply
