"""Shard worker process: the plan-IR semi-naive fixpoint over one shard.

Each worker owns one hash-partition of the stratum being evaluated plus
a full replica of every relation the stratum reads from lower strata.
It runs the **existing** ``Evaluator._fixpoint`` (plan-IR, semi-naive,
columnar-capable) over that local interpretation; a :class:`ShardContext`
hook routes each derived head — owned heads stay local and drive further
local rounds, foreign heads accumulate in per-destination outboxes that
the coordinator ships between rounds as ``storage.codec`` atom text
(**never** raw ``TERM_DICT`` ids; the receiving worker re-interns on
decode).

A worker is stateless between strata: every ``eval`` message carries the
complete shard state for one stratum, so the coordinator's own
interpretation remains the single source of truth and a failed sharded
attempt can always fall back to the single-process path unchanged.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Mapping, Optional

from ..core.atoms import Atom
from ..engine.builtins import DEFAULT_BUILTINS
from ..engine.evaluation import (
    EvalOptions,
    EvalReport,
    Evaluator,
    SolverStats,
)
from ..engine.setops import with_set_builtins
from ..lang import parse_program
from ..semantics.interpretation import Interpretation
from ..storage.codec import decode_atoms, encode_atoms
from .partition import shard_of


def builtins_for_profile(name: str):
    if name == "setops":
        return with_set_builtins()
    return DEFAULT_BUILTINS


class ShardContext:
    """Head-routing hook threaded through ``Evaluator._fixpoint``.

    ``admit(head, exportable)`` decides, per derived head, whether the
    calling fixpoint should keep it: owned heads are admitted; foreign
    heads are dropped locally and — when the deriving rule reads a
    partitioned predicate, i.e. the derivation happened *only* on this
    shard — recorded once in the owner's outbox.  Heads of rules that
    read no partitioned predicate are derived identically by every
    worker, so the owner already has them and nothing is shipped.
    """

    __slots__ = ("index", "n_shards", "spec", "partitioned", "_outbox",
                 "_shipped")

    def __init__(self, index: int, n_shards: int,
                 spec: Mapping[str, int], partitioned: frozenset) -> None:
        self.index = index
        self.n_shards = n_shards
        self.spec = spec
        self.partitioned = partitioned
        self._outbox: dict[int, list[Atom]] = {}
        self._shipped: set[Atom] = set()

    def exportable(self, rule_deps: set) -> bool:
        return bool(self.partitioned & rule_deps)

    def admit(self, head: Atom, exportable: bool) -> bool:
        dest = shard_of(head, self.spec, self.n_shards)
        if dest == self.index:
            return True
        if exportable and head not in self._shipped:
            self._shipped.add(head)
            self._outbox.setdefault(dest, []).append(head)
        return False

    def drain(self) -> dict[int, list[Atom]]:
        out, self._outbox = self._outbox, {}
        return out


class _StratumRun:
    """One stratum's shard-local state, alive between exchange rounds."""

    def __init__(self, evaluator: Evaluator, index: int, n_shards: int,
                 msg: dict) -> None:
        self.evaluator = evaluator
        head_preds = frozenset(msg["head_preds"])
        for group in evaluator.stratification.groups:
            if group.head_preds == head_preds:
                self.clauses = group.clauses
                break
        else:
            raise LookupError(
                f"no stratum with head predicates {sorted(head_preds)}; "
                "coordinator and worker stratifications disagree"
            )
        self.ctx = ShardContext(index, n_shards, msg["partition"], head_preds)
        self.interp = Interpretation()
        for atoms in pickle.loads(msg["replicated_blob"]).values():
            self.interp.update(atoms)
        self.interp.update(msg["owned"])
        self.report = EvalReport(stats=SolverStats())
        #: Owned atoms added by this worker's fixpoints (the gather set).
        self.added: dict[str, set[Atom]] = {}

    def start(self) -> dict:
        return self._run(None)

    def resume(self, inbox: list) -> dict:
        seeds: dict[str, set[Atom]] = {}
        for a in decode_atoms(inbox):
            if self.interp.add(a):
                self.added.setdefault(a.pred, set()).add(a)
                seeds.setdefault(a.pred, set()).add(a)
        if not seeds:
            return {"ok": True, "exports": {}}
        return self._run({p: frozenset(s) for p, s in seeds.items()})

    def _run(self, seed_deltas) -> dict:
        # Same soundness gate as incremental maintenance: a worker has no
        # active domain (the coordinator's is not its own), so a
        # consultation raises and the stratum falls back.
        added = self.evaluator._fixpoint(
            self.clauses, self.interp, None, self.report,
            seed_deltas=seed_deltas, shard=self.ctx,
        )
        for p, slices in added.items():
            self.added.setdefault(p, set()).update(
                itertools.chain.from_iterable(slices)
            )
        return {
            "ok": True,
            "exports": {
                dest: encode_atoms(atoms)
                for dest, atoms in self.ctx.drain().items()
            },
        }

    def finish(self) -> dict:
        return {
            "ok": True,
            "added": [a for s in self.added.values() for a in s],
            "rounds": self.report.rounds,
            "rule_applications": self.report.rule_applications,
        }


def worker_main(conn, index: int, n_shards: int, program_text: str,
                options_kwargs: dict, builtins_profile: str) -> None:
    """Entry point of a shard worker process (fork- and spawn-safe)."""
    program = parse_program(program_text)
    options = EvalOptions(**options_kwargs)
    builtins = builtins_for_profile(builtins_profile)
    evaluator = Evaluator(program, None, builtins=builtins, options=options)
    run: Optional[_StratumRun] = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        cmd = msg.get("cmd")
        if cmd == "shutdown":
            conn.close()
            return
        try:
            if cmd == "eval":
                run = _StratumRun(evaluator, index, n_shards, msg)
                reply = run.start()
            elif cmd == "continue":
                reply = run.resume(msg["inbox"])
            elif cmd == "finish":
                reply = run.finish()
                run = None
            elif cmd == "reset":
                run = None
                reply = {"ok": True}
            else:
                reply = {"ok": False, "error": f"unknown command {cmd!r}"}
        except Exception as exc:  # surfaced to the coordinator's fallback
            run = None
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
