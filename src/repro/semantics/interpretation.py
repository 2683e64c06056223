"""Herbrand interpretations and model checking (Definitions 3, 8, 9).

A Herbrand interpretation is a set of ground non-special atoms; the special
predicates ``=`` and ``in`` have their interpretations fixed structurally
(identity and set membership), which is exactly what Definition 3 requires
of an LPS model and what makes Lemma 1 automatic here.

:class:`Interpretation` stores the atoms with a per-predicate index and
implements

* :meth:`Interpretation.holds` — the atom oracle used by formula evaluation,
* :meth:`Interpretation.satisfies_clause` — ``M ⊨ C`` by enumerating ground
  substitutions for the clause's free variables over a finite
  :class:`~repro.semantics.herbrand.Universe`,
* :meth:`Interpretation.satisfies_program` — ``M ⊨ P``.

Model checking a clause against a finite universe is decidable and exact;
the theory tests rely on this as the *independent* semantics oracle against
which the engine and the fixpoint operator are validated.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..core.atoms import Atom, atom_order_key
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import EvaluationError
from ..core.formulas import evaluate
from ..core.program import Program
from ..core.substitution import Subst
from ..core.terms import SetExpr, SetValue, Term, Var, setvalue
from .herbrand import Universe


#: Relations smaller than this are scanned rather than indexed.
INDEX_MIN_FACTS = 8

_EMPTY_FACTS: dict = {}

#: Sentinel distinguishing "no cache entry yet" from the ``None`` marker
#: that pins a mixed-arity predicate as uncacheable (see ``id_columns``).
_NO_COLUMNS = object()


def _index_insert(
    index: dict, positions: tuple[int, ...], a: Atom,
    base: Optional[dict] = None,
) -> None:
    """Insert one fact into a positions-index (shared by lazy build and
    incremental maintenance — the two must never diverge).

    Buckets are insertion-ordered dicts (value always ``None``), like the
    per-predicate fact sets: deterministic enumeration order plus O(1)
    removal (bulk retraction would be quadratic on list buckets).

    ``base`` is the snapshot-side index this one was shallow-copied from
    (see :meth:`Interpretation._mutable_bucket`): a bucket that is still
    the very object ``base`` holds is shared with frozen snapshots and is
    copied before its first mutation.
    """
    args = a.args
    if positions and positions[-1] >= len(args):
        return  # arity mismatch: can never match such patterns
    key = tuple(args[i] for i in positions)
    bucket = index.get(key)
    if bucket is None:
        index[key] = {a: None}
        return
    if base is not None and base.get(key) is bucket:
        bucket = index[key] = dict(bucket)
    bucket[a] = None


def _index_remove(
    index: dict, positions: tuple[int, ...], a: Atom,
    base: Optional[dict] = None,
) -> None:
    """Remove one fact from a positions-index (inverse of `_index_insert`,
    with the same copy-before-first-mutation rule for shared buckets)."""
    args = a.args
    if positions and positions[-1] >= len(args):
        return  # arity mismatch: was never inserted
    key = tuple(args[i] for i in positions)
    bucket = index.get(key)
    if bucket is None or a not in bucket:
        return
    if len(bucket) == 1:
        del index[key]      # the writer's map only; the bucket is untouched
        return
    if base is not None and base.get(key) is bucket:
        bucket = index[key] = dict(bucket)
    del bucket[a]


class FactSlice(list):
    """The atoms one bulk insert appended to a predicate, in bucket order.

    ``start`` is the bucket offset of the first, so the atoms are rows
    ``[start, start + len)`` of the relation — and of its
    :meth:`Interpretation.id_columns` — until something is removed from
    the predicate.  ``id_cols`` holds the slice's own ID columns (native
    int64 bytes per argument position, the ``id_columns`` format) when the
    insert was given them, else ``None``.  The semi-naive loop hands these
    to the next round as its deltas: consumers that want atoms iterate the
    list, the columnar delta scan reads the IDs.
    """

    __slots__ = ("start", "id_cols")


#: A bulk insert extends a relation's cached ID columns in place of the
#: next ``id_columns`` call only when it adds at least this fraction⁻¹ of
#: the relation: the cache is immutable bytes, so extending it copies the
#: relation, and a deep recursion (hundreds of rounds, each adding a few
#: hundred rows to a relation that keeps growing) must not copy it every
#: round.  Above the ratio the copies sum to a constant times the rows
#: inserted; below it the cache falls behind and catches up when asked.
COLUMN_EXTEND_RATIO = 16


class Interpretation:
    """A mutable set of ground non-special atoms with a predicate index.

    Beyond the per-predicate fact sets, the interpretation maintains
    **incremental argument indexes**: per predicate and per combination of
    bound argument positions, a hash map from the value tuple at those
    positions to the matching facts.  An index is built lazily the first
    time a caller asks for candidates with that position signature and is
    kept up to date by :meth:`add` from then on, so both the bottom-up
    solver's join steps and the top-down prover's fact lookups stay
    O(candidates) instead of O(relation) as the relation grows (see
    DESIGN.md, "Performance architecture").

    **Snapshots.**  :meth:`snapshot` returns an immutable view sharing the
    per-predicate fact dicts and their indexes with this interpretation —
    O(#predicates), not O(#facts).  The writable original switches to
    copy-on-write: the first mutation of a predicate after a snapshot
    copies that predicate's fact dict and takes a *shallow* copy of each
    of its built indexes — the key → bucket maps are the writer's own, the
    buckets stay shared with the snapshot and are copied one by one, each
    before its first mutation — so every published snapshot stays
    bit-identical to the model at its version forever while the writer
    keeps its indexes across publications.  Frozen snapshots refuse all
    mutation; their lazy index builds are pure caches over immutable
    buckets and are safe to race between CPython reader threads (see
    DESIGN.md, "Service layer").
    """

    __slots__ = (
        "_by_pred", "_indexes", "_bases", "_size", "_frozen", "_shared",
        "_columns",
    )

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        # Per-predicate facts as insertion-ordered dicts (value always None):
        # enumeration order is then the order facts were added, independent
        # of the process hash seed — the top-down prover relies on this for
        # deterministic answer order.  There is deliberately no global atom
        # set: per-predicate dicts are the single source of truth, which is
        # what makes per-predicate copy-on-write snapshots sound.
        self._by_pred: dict[str, dict[Atom, None]] = {}
        # pred -> positions -> key tuple -> facts
        self._indexes: dict[
            str, dict[tuple[int, ...], dict[tuple, dict[Atom, None]]]
        ] = {}
        #: pred -> positions -> the snapshot-side index the writer's was
        #: shallow-copied from; tells shared buckets from the writer's own.
        self._bases: dict[str, dict[tuple[int, ...], dict]] = {}
        self._size = 0
        self._frozen = False
        #: Predicates whose bucket/indexes are shared with a snapshot.
        self._shared: set[str] = set()
        #: pred -> (arity, nfacts, per-position ID column bytes) — the
        #: columnar executor's encoded relations (see :meth:`id_columns`).
        #: ``None`` marks a predicate as uncacheable (mixed arities).
        self._columns: dict[
            str, Optional[tuple[int, int, tuple[bytes, ...]]]
        ] = {}
        self.update(atoms)

    # -- snapshots / copy-on-write ------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether this interpretation is an immutable snapshot."""
        return self._frozen

    def snapshot(self) -> "Interpretation":
        """An immutable O(#predicates) snapshot of the current facts.

        The snapshot shares fact dicts and index structures with this
        interpretation; subsequent mutations here copy-on-write, so the
        snapshot never changes.  See the class docstring.
        """
        snap = Interpretation.__new__(Interpretation)
        snap._by_pred = dict(self._by_pred)
        # Per-predicate signature maps are copied (either side may lazily
        # add new signatures); the index dicts themselves are shared.
        snap._indexes = {p: dict(per) for p, per in self._indexes.items()}
        snap._bases = {}
        snap._size = self._size
        snap._frozen = True
        snap._shared = set()
        # Column-cache entries are immutable tuples over immutable bytes
        # and only ever *replaced* (never extended in place), so sharing
        # them is safe: the writable side swaps in new tuples, the
        # snapshot keeps the prefix it captured.
        snap._columns = dict(self._columns)
        if not self._frozen:
            # Every index — buckets the writer un-shared since the last
            # snapshot included — now belongs to this snapshot too.
            self._shared = set(self._by_pred)
            self._bases.clear()
        return snap

    def _mutable_bucket(self, pred: str) -> Optional[dict[Atom, None]]:
        """The predicate's fact dict, un-shared and safe to mutate."""
        if self._frozen:
            raise EvaluationError(
                "interpretation is a frozen snapshot and cannot be mutated"
            )
        shared = self._shared
        if shared and pred in shared:
            shared.discard(pred)
            bucket = self._by_pred.get(pred)
            if bucket is not None:
                bucket = self._by_pred[pred] = dict(bucket)
            per = self._indexes.get(pred)
            if per:
                # The index maps the snapshot holds stay as they are; the
                # writer continues on shallow copies whose buckets are
                # un-shared only when touched (``_index_insert``).
                self._bases[pred] = dict(per)
                for positions, index in per.items():
                    per[positions] = dict(index)
            return bucket
        return self._by_pred.get(pred)

    # -- mutation ----------------------------------------------------------------

    @staticmethod
    def _check_assertable(a: Atom) -> None:
        if a.is_special():
            raise EvaluationError(
                f"special atom {a} cannot be asserted; its interpretation is "
                "fixed (Definition 3)"
            )
        if not a.is_ground():
            raise EvaluationError(f"cannot assert non-ground atom {a}")

    def add(self, a: Atom) -> bool:
        """Insert a ground atom; returns ``True`` if it was new."""
        self._check_assertable(a)
        bucket = self._by_pred.get(a.pred)
        if bucket is not None and a in bucket:
            return False
        bucket = self._mutable_bucket(a.pred)
        if bucket is None:
            bucket = self._by_pred[a.pred] = {}
        bucket[a] = None
        self._size += 1
        per = self._indexes.get(a.pred)
        if per:
            bases = self._bases.get(a.pred, _EMPTY_FACTS)
            for positions, index in per.items():
                _index_insert(index, positions, a, bases.get(positions))
        return True

    def update(self, atoms: Iterable[Atom]) -> list[Atom]:
        """Insert many atoms; returns the ones actually added, in order.

        Validates like :meth:`add` (same errors) but in one pass before
        anything is inserted, then extends each predicate once."""
        fresh: dict[str, dict[Atom, None]] = {}
        for a in atoms:
            self._check_assertable(a)
            held = self._by_pred.get(a.pred)
            if held is None or a not in held:
                fresh.setdefault(a.pred, {})[a] = None
        added: list[Atom] = []
        for pred, new in fresh.items():
            added += self._append(pred, FactSlice(new))
        return added

    def extend(
        self, pred: str, rows: Sequence[tuple],
        id_cols: Optional[Sequence] = None,
    ) -> FactSlice:
        """Bulk-insert the atoms ``pred(*row)``; returns them as the
        relation's new row range.

        The caller guarantees what a head plan that ends in an anti-join
        against this relation yields: ground canonical cells, rows pairwise
        distinct, none held yet, ``pred`` not special (repeated or held
        rows raise and leave the interpretation as it was).  ``id_cols``
        are the rows' term-dictionary IDs — one int64 vector per argument
        position, aligned with ``rows`` — when the caller decoded the rows
        from them: the returned slice keeps them for the next round's
        delta scan, and a column cache that covers the whole relation is
        extended with them as they are — its prefix stays valid and no
        cell is re-encoded."""
        return self._append(
            pred, FactSlice(map(Atom, itertools.repeat(pred), rows)), id_cols
        )

    def _append(
        self, pred: str, new: FactSlice, id_cols: Optional[Sequence] = None
    ) -> FactSlice:
        """The one bulk insertion path: the bucket, every built argument
        index and the column cache grow by ``new`` in one pass."""
        new.start = n_old = len(self._by_pred.get(pred, _EMPTY_FACTS))
        new.id_cols = None
        if not new:
            return new
        if id_cols is not None:
            new.id_cols = self._checked_id_bytes(pred, new, id_cols)
        bucket = self._mutable_bucket(pred)
        if bucket is None:
            bucket = self._by_pred[pred] = {}
        bucket.update(dict.fromkeys(new))
        if len(bucket) != n_old + len(new):
            # Held atoms kept their place, so what the update appended is
            # everything past the old end: take it out again.
            for a in list(itertools.islice(bucket, n_old, None)):
                del bucket[a]
            raise EvaluationError(
                f"bulk insert into {pred!r}: atoms repeated or already held"
            )
        self._size += len(new)
        per = self._indexes.get(pred)
        if per:
            bases = self._bases.get(pred, _EMPTY_FACTS)
            for positions, index in per.items():
                base = bases.get(positions)
                for a in new:
                    _index_insert(index, positions, a, base)
        ids = new.id_cols
        if ids is not None and len(new) * COLUMN_EXTEND_RATIO >= n_old:
            # A missing, stale, uncacheable or other-arity entry is left
            # for the next ``id_columns`` call to (re)build from the bucket.
            entry = (
                self._columns.get(pred) if n_old
                else (len(ids), 0, (b"",) * len(ids))
            )
            if entry and entry[0] == len(ids) and entry[1] == n_old:
                self._columns[pred] = (
                    entry[0],
                    n_old + len(new),
                    tuple(o + c for o, c in zip(entry[2], ids)),
                )
        return new

    @staticmethod
    def _checked_id_bytes(
        pred: str, new: FactSlice, id_cols: Sequence
    ) -> tuple[bytes, ...]:
        """``id_cols`` as column bytes, after checking that they can be
        the IDs of ``new``: one int64 vector per argument position, as
        long as the batch, naming the first and the last atom's terms (a
        batch that was sorted, filtered or sliced after its columns were
        taken fails here instead of poisoning every later columnar scan)."""
        from ..core.terms import TERM_DICT

        n = len(new)
        ends = (new[0].args, new[-1].args)
        views = [memoryview(c) for c in id_cols]
        id_of = TERM_DICT.id_of
        if not all(
            len(args) == len(views) for args in ends
        ) or not all(
            v.ndim == 1 and v.itemsize == 8 and v.format in ("q", "l")
            and v.shape[0] == n
            and v[0] == id_of(ends[0][j]) and v[-1] == id_of(ends[1][j])
            for j, v in enumerate(views)
        ):
            raise EvaluationError(
                f"bulk insert into {pred!r}: ID columns do not match the rows"
            )
        return tuple(v.tobytes() for v in views)

    def remove(self, a: Atom) -> bool:
        """Retract a ground atom; returns ``True`` if it was present.

        Keeps every already-built argument index consistent, so interleaved
        :meth:`add`/:meth:`remove` sequences leave :meth:`candidates` and
        :meth:`candidate_count` agreeing with a fresh linear scan (the
        incremental-maintenance subsystem depends on this invariant).
        """
        bucket = self._by_pred.get(a.pred)
        if bucket is None or a not in bucket:
            return False
        bucket = self._mutable_bucket(a.pred)
        bucket.pop(a, None)
        self._size -= 1
        # Removal breaks the append-only prefix the column cache relies
        # on; drop it and let the next columnar scan rebuild (like the
        # lazily rebuilt indexes after copy-on-write).
        self._columns.pop(a.pred, None)
        per = self._indexes.get(a.pred)
        if per:
            bases = self._bases.get(a.pred, _EMPTY_FACTS)
            for positions, index in per.items():
                _index_remove(index, positions, a, bases.get(positions))
        return True

    def discard(self, atoms: Iterable[Atom]) -> int:
        """Retract many atoms; returns the number actually removed."""
        return sum(1 for a in atoms if self.remove(a))

    def copy(self) -> "Interpretation":
        out = Interpretation()
        out._by_pred = {p: dict(s) for p, s in self._by_pred.items()}
        out._size = self._size
        # Indexes are rebuilt lazily on the copy.
        return out

    # -- queries ------------------------------------------------------------------

    def holds(self, a: Atom) -> bool:
        """Whether a ground non-special atom is true in this interpretation."""
        return a in self._by_pred.get(a.pred, _EMPTY_FACTS)

    def by_pred(self, pred: str) -> frozenset[Atom]:
        return frozenset(self._by_pred.get(pred, ()))

    def facts_of(self, pred: str) -> Mapping[Atom, None]:
        """The live, insertion-ordered facts of a predicate.

        Callers must not mutate it; iterate it like a set of atoms.
        """
        return self._by_pred.get(pred, _EMPTY_FACTS)

    def id_columns(
        self, pred: str
    ) -> Optional[tuple[int, int, tuple[bytes, ...]]]:
        """``(arity, nfacts, per-position ID column bytes)`` for a relation.

        The columnar executor's counterpart of the argument indexes: each
        argument position of the relation encoded as a contiguous vector
        of dense term-dictionary IDs (native int64 bytes, insertion
        order).  Built lazily and extended incrementally — :meth:`add`
        appends facts at the end of the bucket, so a cached encoding stays
        a valid prefix and only new facts pay the per-cell encode;
        :meth:`remove` drops the entry for a full lazy rebuild.  Entries
        are immutable and only ever replaced, which makes sharing them
        with snapshots safe.

        Returns ``None`` for empty relations and for relations with mixed
        arities (callers fall back to per-scan encoding).
        """
        bucket = self._by_pred.get(pred)
        n = 0 if bucket is None else len(bucket)
        if n == 0:
            return None
        entry = self._columns.get(pred, _NO_COLUMNS)
        if entry is None:  # known mixed-arity relation
            return None
        if entry is _NO_COLUMNS:
            facts: Iterable[Atom] = bucket
            arity = len(next(iter(bucket)).args)
            n_old, old = 0, (b"",) * arity
        else:
            arity, n_old, old = entry
            if n_old == n:
                return entry
            facts = itertools.islice(bucket, n_old, None)
        from ..core.terms import TERM_DICT

        id_of = TERM_DICT.id_of
        rows = []
        append = rows.append
        for f in facts:
            args = f.args
            if len(args) != arity:
                self._columns[pred] = None
                return None
            append(args)
        # Transpose then encode column-wise: zip/map/array run the per-cell
        # work in C, leaving only the id_of calls at Python speed.
        new = zip(*rows) if rows else ((),) * arity
        entry = (
            arity,
            n,
            tuple(
                o + array("q", map(id_of, col)).tobytes()
                for o, col in zip(old, new)
            ),
        )
        self._columns[pred] = entry
        return entry

    def _index_for(
        self, pred: str, positions: tuple[int, ...]
    ) -> dict[tuple, dict[Atom, None]]:
        per = self._indexes.get(pred)
        if per is None:
            per = self._indexes[pred] = {}
        index = per.get(positions)
        if index is None:
            index = {}
            for f in self._by_pred.get(pred, ()):
                _index_insert(index, positions, f)
            per[positions] = index
        return index

    def candidates(
        self, pred: str, positions: tuple[int, ...], key: tuple
    ) -> Iterable[Atom]:
        """Facts of ``pred`` whose arguments at ``positions`` equal ``key``.

        Uses (and incrementally maintains) the hash index for that position
        signature; an exact superset-free answer, not a heuristic.  The
        result is a read-only iterable of atoms in insertion order.
        """
        return self._index_for(pred, positions).get(key, ())

    def candidate_count(
        self, pred: str, positions: tuple[int, ...], key: tuple
    ) -> int:
        """``len(candidates(...))`` without materialising anything new."""
        bucket = self._index_for(pred, positions).get(key)
        return 0 if bucket is None else len(bucket)

    def has_index(self, pred: str, positions: tuple[int, ...]) -> bool:
        """Whether an index for this position signature is already built."""
        per = self._indexes.get(pred)
        return per is not None and positions in per

    def _bound_positions(
        self, args: Sequence[Term]
    ) -> list[tuple[int, Term]]:
        return [
            (i, t) for i, t in enumerate(args)
            if not isinstance(t, SetExpr) and t.is_ground()
        ]

    def _bucket_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> Optional[tuple[tuple[int, ...], tuple]]:
        """The (positions, key) bucket a pattern's scan should read.

        The single shared selection policy behind both
        :meth:`candidates_for_pattern` and :meth:`estimate_for_pattern`:
        ``None`` means scan the whole relation (relation below
        ``INDEX_MIN_FACTS``, or no bound position); a single bound
        position uses its (incrementally maintained) index; with several
        bound positions an already-built composite index is used exactly,
        and otherwise the **most selective single bound position** is
        chosen by comparing bucket sizes — single-position indexes are
        shared across every pattern shape of the predicate, where
        per-signature composite indexes would each pay an O(relation)
        build.
        """
        if len(self._by_pred.get(pred, _EMPTY_FACTS)) < INDEX_MIN_FACTS:
            return None
        bound = self._bound_positions(args)
        if not bound:
            return None
        if len(bound) == 1:
            i, t = bound[0]
            return (i,), (t,)
        positions = tuple(i for i, _ in bound)
        if self.has_index(pred, positions):
            return positions, tuple(t for _, t in bound)
        best_i, best_t, best_n = bound[0][0], bound[0][1], None
        for i, t in bound:
            n = self.candidate_count(pred, (i,), (t,))
            if best_n is None or n < best_n:
                best_i, best_t, best_n = i, t, n
        return (best_i,), (best_t,)

    def candidates_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> Iterable[Atom]:
        """Candidate facts for a pattern atom's bound argument positions.

        The shared index policy (see :meth:`_bucket_for_pattern`) for the
        solver, the top-down prover and the plan executor.  The result may
        be a superset of the matching facts (callers re-match
        candidates), but is never larger than the chosen bucket.
        """
        bucket = self._bucket_for_pattern(pred, args)
        if bucket is None:
            return self._by_pred.get(pred, _EMPTY_FACTS)
        return self.candidates(pred, *bucket)

    def estimate_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> int:
        """Candidate-count estimate matching :meth:`candidates_for_pattern`
        exactly — both consult :meth:`_bucket_for_pattern`, so the join
        planner's cost estimate is the size of the very bucket the scan
        would read (an upper bound on the true join fan-out)."""
        bucket = self._bucket_for_pattern(pred, args)
        if bucket is None:
            return len(self._by_pred.get(pred, _EMPTY_FACTS))
        return self.candidate_count(pred, *bucket)

    def predicates(self) -> set[str]:
        return {p for p, s in self._by_pred.items() if s}

    def __contains__(self, a: Atom) -> bool:
        return a in self._by_pred.get(a.pred, _EMPTY_FACTS)

    def __iter__(self) -> Iterator[Atom]:
        for bucket in self._by_pred.values():
            yield from bucket

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Interpretation):
            if self._size != other._size:
                return False
            return all(a in other for a in self)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash(frozenset(self))

    def __le__(self, other: "Interpretation") -> bool:
        return all(a in other for a in self)

    def __or__(self, other: "Interpretation") -> "Interpretation":
        return Interpretation(itertools.chain(self, other))

    def __and__(self, other: "Interpretation") -> "Interpretation":
        return Interpretation(a for a in self if a in other)

    def atoms(self) -> frozenset[Atom]:
        return frozenset(self)

    def sorted_atoms(self) -> list[Atom]:
        """Atoms in a deterministic order for printing and diffing."""
        return sorted(self, key=atom_order_key)

    def pretty(self) -> str:
        return "\n".join(f"{a}." for a in self.sorted_atoms())

    def __repr__(self) -> str:
        frozen = " frozen" if self._frozen else ""
        return f"Interpretation({self._size} atoms{frozen})"

    # -- model checking -------------------------------------------------------------

    def satisfies_clause(self, c: LPSClause, universe: Universe) -> bool:
        """``M ⊨ C`` relative to a finite universe.

        Enumerates every assignment of the clause's free variables over the
        universe carriers and checks head-or-not-body.  Restricted
        quantifiers inside the body are unfolded over their (then ground)
        range sets, honouring the ``(∀x ∈ ∅)φ ≡ true`` convention.
        """
        free = sorted(c.free_vars(), key=lambda v: (v.sort, v.name))
        body = c.body_formula()
        for theta in assignments(free, universe):
            head = c.head.substitute(theta)
            if self.holds(head):
                continue
            if evaluate(body.substitute(theta), self.holds):
                return False
        return True

    def satisfies_program(self, p: Program, universe: Universe) -> bool:
        """``M ⊨ P`` for programs of LPS clauses (grouping is not first-order
        satisfiable in this sense and is rejected)."""
        for c in p.clauses:
            if isinstance(c, GroupingClause):
                raise EvaluationError(
                    "grouping clauses have no first-order satisfaction "
                    "relation; evaluate them with the engine"
                )
            if not self.satisfies_clause(c, universe):
                return False
        return True

    def failing_instance(
        self, c: LPSClause, universe: Universe
    ) -> Optional[Subst]:
        """A witness substitution under which the clause is violated, if any."""
        free = sorted(c.free_vars(), key=lambda v: (v.sort, v.name))
        body = c.body_formula()
        for theta in assignments(free, universe):
            head = c.head.substitute(theta)
            if self.holds(head):
                continue
            if evaluate(body.substitute(theta), self.holds):
                return theta
        return None


def assignments(variables: Sequence[Var], universe: Universe) -> Iterator[Subst]:
    """All ground substitutions for ``variables`` over the universe."""
    if not variables:
        yield Subst()
        return
    carriers = [universe.carrier(v.sort) for v in variables]
    # Carrier values are canonical ground terms of the variable's own sort,
    # so the validating constructor would only re-check what holds by
    # construction — use the fast internal one.
    for combo in itertools.product(*carriers):
        yield Subst._make(dict(zip(variables, combo)))


def active_universe(
    program: Program,
    interp: Optional[Interpretation] = None,
    extra_atoms: Iterable[Term] = (),
    extra_sets: Iterable[SetValue] = (),
) -> Universe:
    """The **active domain** universe of a program plus an interpretation.

    Contains every ground sort-a term and every set value occurring in the
    program's clauses, the interpretation's atoms, and the given extras —
    closed downward (elements of occurring sets are included as atoms when
    they are a-terms, and as sets when nested).  The empty set is always
    present: the paper's semantics of restricted quantification makes ``∅``
    a first-class citizen (Definition 4).
    """
    from ..core.terms import App, Const, subterms

    atoms: dict[Term, None] = {}
    sets: dict[SetValue, None] = {}

    def note(t: Term) -> None:
        for s in subterms(t):
            if isinstance(s, SetValue):
                sets.setdefault(s, None)
            elif isinstance(s, (Const, App)) and s.is_ground():
                atoms.setdefault(s, None)

    for t in program.all_terms():
        note(t)
    if interp is not None:
        for a in interp:
            for t in a.args:
                note(t)
    for t in extra_atoms:
        note(t)
    for s in extra_sets:
        note(s)
    sets.setdefault(setvalue(()), None)
    return Universe(tuple(atoms), tuple(sets))
