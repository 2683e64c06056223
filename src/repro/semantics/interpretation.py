"""Herbrand interpretations and model checking (Definitions 3, 8, 9).

A Herbrand interpretation is a set of ground non-special atoms; the special
predicates ``=`` and ``in`` have their interpretations fixed structurally
(identity and set membership), which is exactly what Definition 3 requires
of an LPS model and what makes Lemma 1 automatic here.

:class:`Interpretation` stores the atoms as per-predicate tables of term IDs
(:class:`FactTable`) with argument indexes, and implements

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
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from ..core.atoms import Atom, atom_order_key
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import EvaluationError
from ..core.formulas import evaluate
from ..core.program import Program
from ..core.substitution import Subst
from ..core.terms import TERM_DICT, SetExpr, SetValue, Term, Var, setvalue
from .herbrand import Universe


#: Relations smaller than this are scanned rather than indexed.
INDEX_MIN_FACTS = 8

_TERMS = TERM_DICT.terms
_IDS = TERM_DICT.ids
_ID_OF = TERM_DICT.id_of


# ---------------------------------------------------------------------------
# Row keys: a row's term IDs packed into one int
# ---------------------------------------------------------------------------
#
# A row's key is its IDs in radix 2**32, first column most significant:
# ``(id0 << 32 | id1) << 32 | id2 …``.  The base is fixed, so a key stays
# valid however far the term dictionary grows, and Python ints never
# overflow, so any arity packs without a wide-key branch.  Argument
# indexes key their buckets the same way on the IDs at their positions.

def row_key(ids: Iterable[int]) -> int:
    """The key of one row (or index entry) given as its term IDs."""
    key = 0
    for i in ids:
        key = key << 32 | i
    return key


def _key_of(terms: Iterable[Term]) -> Optional[int]:
    """The key of a row of terms, or ``None`` when a term has no ID yet
    (no stored row can hold it)."""
    key = 0
    for t in terms:
        i = t._tid
        if i < 0:
            i = _IDS.get(t)
            if i is None:
                return None
        key = key << 32 | i
    return key


def _keys_of(cols: Sequence, n: int) -> list[int]:
    """The key of each of ``n`` rows given as ID columns (``array('q')``
    or int64 ndarrays)."""
    if not cols:
        return [0] * n
    if len(cols) == 2 and hasattr(cols[0], "dtype") and len(_TERMS) <= 1 << 31:
        return ((cols[0] << 32) | cols[1]).tolist()
    keys = cols[0].tolist()
    for c in cols[1:]:
        keys = [k << 32 | i for k, i in zip(keys, c.tolist())]
    return keys


def _id_column(col) -> object:
    """``col`` as a flat int64 buffer: itself when it is one, else a copy
    into an ``array('q')``."""
    if col.__class__ is array and col.typecode == "q":
        return col
    try:
        with memoryview(col) as m:
            if m.ndim == 1 and m.itemsize == 8 and m.format in ("q", "l") \
                    and m.c_contiguous:
                return col
    except TypeError:
        pass
    return array("q", col)


def _index_add(index: dict, key: int, slot: int, base: Optional[dict]) -> None:
    """Put a slot in an argument index's bucket (shared by the index
    build's result and incremental maintenance — the two never diverge).

    ``base`` is the snapshot-side index this one was shallow-copied from
    (see :meth:`Interpretation._mutable`): a bucket that is still the very
    object ``base`` holds is shared with frozen snapshots and is copied
    before its first mutation."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = {slot: None}
        return
    if base is not None and base.get(key) is bucket:
        bucket = index[key] = dict(bucket)
    bucket[slot] = None


def _index_drop(index: dict, key: int, slot: int, base: Optional[dict]) -> None:
    """Take a slot out of its bucket (inverse of :func:`_index_add`)."""
    bucket = index.get(key)
    if bucket is None or slot not in bucket:
        return
    if len(bucket) == 1:
        del index[key]      # the writer's map only; the bucket is untouched
        return
    if base is not None and base.get(key) is bucket:
        bucket = index[key] = dict(bucket)
    del bucket[slot]


class FactTable:
    """One predicate's facts, stored as term IDs.

    Row ``s`` (a *slot*) is ``cols[j][s]`` for each argument position
    ``j``: one growable ``array('q')`` of dense term-dictionary IDs per
    position.  ``keys`` maps each row's key (:func:`row_key`) to its slot,
    so every membership test is one dict probe.  Slots are dense: a
    removal moves the last row into the hole.

    ``atoms[s]`` is the row's :class:`Atom` once something asked for it
    (iteration, :meth:`atom`), else ``None``; an atom is built at most
    once per table and kept.  A predicate has one arity (every store
    boundary refuses a second: :class:`~repro.core.errors.ArityError`),
    so every row has the table's; a row of another is an engine fault
    (:meth:`Interpretation._table_for`), and a read at another arity
    holds nothing.

    A table is the live read view :meth:`Interpretation.facts_of` hands
    out: ``len``, ``in`` (an atom) and iteration (atoms) like the set of
    facts it stores, plus row-level reads that build no atom
    (:meth:`has_row`, :meth:`rows`).  Callers never mutate it.
    """

    __slots__ = (
        "pred", "arity", "cols", "keys", "atoms", "missing", "moves",
        "_bytes",
    )

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        self.cols: list[array] = [array("q") for _ in range(arity)]
        self.keys: dict[int, int] = {}
        self.atoms: list[Optional[Atom]] = []
        #: An upper bound on the slots whose atom is not built yet: kept
        #: by the writer's inserts, removals and slice reads, zeroed by a
        #: full build; a reader that fills a slot leaves it high.
        self.missing = 0
        #: Removals so far: a :class:`FactSlice` of this table reads its
        #: slots only while this is what it was when the slice was taken.
        self.moves = 0
        #: The :meth:`id_columns` entry, dropped by every write.
        self._bytes: Optional[tuple] = None

    def copy(self) -> "FactTable":
        t = FactTable.__new__(FactTable)
        t.pred, t.arity = self.pred, self.arity
        t.cols = [c[:] for c in self.cols]
        t.keys = self.keys.copy()
        # ``missing`` is read before ``atoms``: a reader thread building
        # a shared table's atoms (``_built``) publishes the full list
        # before it zeroes ``missing``, so the count read first is an
        # upper bound for whichever list is read after it.
        missing = self.missing
        t.atoms = self.atoms[:]
        t.missing = missing
        t.moves = self.moves
        t._bytes = self._bytes
        return t

    # -- reads ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, a: Atom) -> bool:
        return self.has_row(a.args)

    def has_row(self, args: Sequence[Term]) -> bool:
        """Whether the fact ``pred(*args)`` is held (no atom is built)."""
        return len(args) == self.arity and _key_of(args) in self.keys

    def atom(self, slot: int) -> Atom:
        """The atom of one slot, built on first request and kept."""
        a = self.atoms[slot]
        if a is None:
            a = self.atoms[slot] = Atom(
                self.pred, tuple([_TERMS[c[slot]] for c in self.cols])
            )
        return a

    def row(self, slot: int) -> tuple:
        """The argument terms of one slot."""
        a = self.atoms[slot]
        if a is not None:
            return a.args
        return tuple([_TERMS[c[slot]] for c in self.cols])

    def _decoded(self) -> Iterable[tuple]:
        if not self.arity:
            return repeat((), len(self.atoms))
        term = _TERMS.__getitem__
        return zip(*[map(term, c) for c in self.cols])

    def _built(self) -> list[Atom]:
        """Every slot's atom, the missing ones built now (the full list
        is published before ``missing`` is zeroed: see :meth:`copy`)."""
        atoms = self.atoms
        if self.missing:
            pred = self.pred
            atoms = self.atoms = [
                Atom(pred, r) if a is None else a
                for a, r in zip(atoms, self._decoded())
            ]
            self.missing = 0
        return atoms

    def __iter__(self) -> Iterator[Atom]:
        yield from self._built()

    def rows(self) -> list[tuple]:
        """Every fact's argument terms, in slot order (no atom is built)."""
        if not self.missing:
            return [a.args for a in self.atoms]
        return list(self._decoded())

    def id_columns(self) -> Optional[tuple[int, int, tuple[bytes, ...]]]:
        if not self.atoms:
            return None
        entry = self._bytes
        if entry is None:
            entry = self._bytes = (
                self.arity, len(self.atoms),
                tuple(c.tobytes() for c in self.cols),
            )
        return entry


#: The facts of a predicate nothing was stored for.
_NO_FACTS = FactTable("", 0)

#: The ``_bases`` entry of a predicate whose indexes share no bucket.
_NO_BASES: dict = {}

_ARGS = attrgetter("args")


def _built_index(table: Optional[FactTable], positions: tuple[int, ...]) -> dict:
    """A fresh argument index of a table: the key of each row's IDs at
    ``positions`` -> the slots holding it."""
    index: dict = {}
    if table is None or not table.atoms or (
        positions and positions[-1] >= table.arity
    ):
        return index
    keys = _keys_of([table.cols[p] for p in positions], len(table.atoms))
    for slot, key in enumerate(keys):
        bucket = index.get(key)
        if bucket is None:
            index[key] = {slot: None}
        else:
            bucket[slot] = None
    return index


class FactSlice:
    """The rows one bulk insert added to a predicate.

    :attr:`id_cols` are their ID columns (one int64 vector per argument
    position), which the next round's columnar delta scan reads: as the
    insert was given them, or — for rows given as terms — taken from the
    table's slots ``[start, start + n)`` when first asked for.  Consumers
    that want atoms iterate the slice: the atoms come from those slots —
    built there once, on first request — or, once a removal has moved the
    table's rows, are decoded.
    """

    __slots__ = ("table", "start", "n", "moves", "_cols", "_atoms", "_rows")

    def __init__(
        self, table: FactTable, start: int, n: int, id_cols: Optional[list],
        atoms: Optional[list[Atom]] = None,
        rows: Optional[Sequence[tuple]] = None,
    ) -> None:
        self.table = table
        self.start = start
        self.n = n
        self.moves = table.moves
        self._cols = id_cols
        self._atoms = atoms
        self._rows = rows

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._built())

    @property
    def id_cols(self) -> list:
        cols = self._cols
        if cols is None:
            t, lo = self.table, self.start
            if t.moves == self.moves:
                cols = [c[lo:lo + self.n] for c in t.cols]
            else:
                cols = [array("q", map(_ID_OF, col))
                        for col in zip(*self.rows())]
            self._cols = cols
        return cols

    def _built(self) -> list[Atom]:
        atoms = self._atoms
        if atoms is None:
            t, lo, hi = self.table, self.start, self.start + self.n
            if t.moves != self.moves:
                atoms = [Atom(t.pred, r) for r in self.rows()]
            elif self._rows is not None and t.atoms[lo:hi].count(None) \
                    == self.n:
                # Rows given as terms: build their atoms in one pass and
                # keep them in the slots.
                atoms = t.atoms[lo:hi] = list(
                    map(Atom, repeat(t.pred), self._rows)
                )
                t.missing -= self.n
            else:
                atoms = list(map(t.atom, range(lo, hi)))
            self._atoms = atoms
        return atoms

    def rows(self) -> Sequence[tuple]:
        """The rows' argument terms (no atom is built)."""
        if self._rows is not None:
            return self._rows
        if self._atoms is not None:
            return [a.args for a in self._atoms]
        if not self._cols:
            return [()] * self.n
        term = _TERMS.__getitem__
        return list(zip(*[map(term, c.tolist()) for c in self._cols]))


class Interpretation:
    """A mutable set of ground non-special atoms, stored as term IDs.

    Each predicate's facts are one :class:`FactTable`: an ``array('q')``
    of term IDs per argument position plus a map from each row's packed
    key to its slot.  That is the canonical store.  An :class:`Atom` is
    built only when a caller reads one (the tuple solver, the top-down
    prover, provenance, printing, :meth:`candidates`), and is then kept
    in its slot; the executors read rows and IDs and build none.

    **Incremental argument indexes**: per predicate and per combination
    of bound argument positions, a hash map from the key of the IDs at
    those positions to the slots holding them.  An index is built the
    first time a caller asks for candidates with that position signature
    and is kept up to date by every write from then on, so the solver's
    join steps and the top-down prover's fact lookups stay
    O(candidates).  A signature that covers every argument position needs
    no index: it is one probe of the key map.

    **Snapshots.**  :meth:`snapshot` returns an immutable view sharing
    the tables and their indexes with this interpretation —
    O(#predicates), not O(#facts).  The writable original switches to
    copy-on-write: the first write to a predicate after a snapshot copies
    its table (columns, key map and atom slots) and takes a *shallow*
    copy of each of its built indexes — the key → bucket maps are the
    writer's own, the buckets stay shared and are copied one by one, each
    before its first mutation.  Frozen snapshots refuse all mutation;
    their lazy index builds and atom slots are pure caches over immutable
    rows, safe to race between reader threads.  A signature a snapshot
    builds is recorded in a set it shares with its writer, which builds
    that index itself at its next :meth:`snapshot`, so the snapshots
    after it share the writer's maintained index instead of each
    building its own (see DESIGN.md, "Service layer").
    """

    __slots__ = (
        "_tables", "_indexes", "_bases", "_size", "_frozen", "_shared",
        "_wanted",
    )

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._tables: dict[str, FactTable] = {}
        # pred -> positions -> key -> slots
        self._indexes: dict[
            str, dict[tuple[int, ...], dict[int, dict[int, None]]]
        ] = {}
        #: pred -> positions -> the snapshot-side index the writer's was
        #: shallow-copied from; tells shared buckets from the writer's own.
        self._bases: dict[str, dict[tuple[int, ...], dict]] = {}
        self._size = 0
        self._frozen = False
        #: Predicates whose table and indexes are shared with a snapshot.
        self._shared: set[str] = set()
        #: ``(pred, positions)`` signatures snapshots built (shared).
        self._wanted: set[tuple[str, tuple[int, ...]]] = set()
        self.update(atoms)

    def __reduce__(self):
        # Term IDs are process-local: a pickle carries the atoms.
        return (Interpretation, (list(self),))

    # -- snapshots / copy-on-write ------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether this interpretation is an immutable snapshot."""
        return self._frozen

    def snapshot(self) -> "Interpretation":
        """An immutable O(#predicates) snapshot of the current facts.

        The snapshot shares tables and index structures with this
        interpretation; subsequent mutations here copy-on-write, so the
        snapshot never changes.  The indexes earlier snapshots built are
        built here first, so this one shares them.  See the class
        docstring.
        """
        if not self._frozen:
            wanted = self._wanted
            while wanted:
                self._index_for(*wanted.pop())
        snap = Interpretation.__new__(Interpretation)
        snap._tables = dict(self._tables)
        # Per-predicate signature maps are copied (either side may lazily
        # add new signatures); the index dicts themselves are shared.
        snap._indexes = {p: dict(per) for p, per in self._indexes.items()}
        snap._bases = {}
        snap._size = self._size
        snap._frozen = True
        snap._shared = set()
        snap._wanted = self._wanted
        if not self._frozen:
            # Every index — buckets the writer un-shared since the last
            # snapshot included — now belongs to this snapshot too.
            self._shared = set(self._tables)
            self._bases.clear()
        return snap

    def _writable(self) -> None:
        """Refuse a write to a frozen snapshot, whether or not it would
        change a fact."""
        if self._frozen:
            raise EvaluationError(
                "interpretation is a frozen snapshot and cannot be mutated"
            )

    def _mutable(self, pred: str) -> Optional[FactTable]:
        """The predicate's table, un-shared and safe to write."""
        self._writable()
        table = self._tables.get(pred)
        shared = self._shared
        if shared and pred in shared:
            shared.discard(pred)
            if table is not None:
                table = self._tables[pred] = table.copy()
            per = self._indexes.get(pred)
            if per:
                # The index maps the snapshot holds stay as they are; the
                # writer continues on shallow copies whose buckets are
                # un-shared only when touched (``_index_add``).
                self._bases[pred] = dict(per)
                for positions, index in per.items():
                    per[positions] = dict(index)
        return table

    def _table_for(self, pred: str, arity: int) -> FactTable:
        """The predicate's writable table, made (or re-shaped, while it
        has no row) for rows of ``arity``.  A row of another arity than
        the rows held is refused: the boundaries that let facts in
        refuse it first, so reaching here is a fault."""
        table = self._mutable(pred)
        if table is None:
            table = self._tables[pred] = FactTable(pred, arity)
        elif table.arity != arity:
            if table.atoms:
                raise EvaluationError(
                    f"a row of arity {arity} for {pred!r}, whose rows have "
                    f"arity {table.arity}"
                )
            table.arity = arity
            table.cols = [array("q") for _ in range(arity)]
        return table

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
        self._writable()
        self._check_assertable(a)
        pred, args = a.pred, a.args
        table = self._tables.get(pred)
        if table is None or len(args) != table.arity:
            table = self._table_for(pred, len(args))
        return self._put(pred, table, [_ID_OF(t) for t in args], a) \
            is not None

    def _put(
        self, pred: str, table: FactTable, ids: list[int], a: Optional[Atom]
    ) -> Optional[tuple[FactTable, int]]:
        """Insert one row of ``table``'s arity, given as its IDs (and its
        atom, when built): ``(table, slot)`` — the table copied if a
        snapshot shared it — or ``None`` when the row is held."""
        key = row_key(ids)
        if key in table.keys:
            return None
        table = self._mutable(pred)
        slot = len(table.atoms)
        table.keys[key] = slot
        for c, i in zip(table.cols, ids):
            c.append(i)
        table.atoms.append(a)
        if a is None:
            table.missing += 1
        table._bytes = None
        self._size += 1
        per = self._indexes.get(pred)
        if per:
            bases = self._bases.get(pred, _NO_BASES)
            for positions, index in per.items():
                if len(positions) == 1:
                    if positions[0] < len(ids):
                        _index_add(
                            index, ids[positions[0]], slot,
                            bases.get(positions),
                        )
                elif not positions or positions[-1] < len(ids):
                    _index_add(
                        index, row_key([ids[p] for p in positions]), slot,
                        bases.get(positions),
                    )
        return table, slot

    def update(self, atoms: Iterable[Atom]) -> list[Atom]:
        """Insert many atoms; returns the ones actually added, in order.

        Validates like :meth:`add` (same errors) but in one pass before
        anything is inserted, then extends each predicate once."""
        self._writable()
        fresh: dict[str, dict[Atom, None]] = {}
        for a in atoms:
            self._check_assertable(a)
            fresh.setdefault(a.pred, {})[a] = None
        added: list[Atom] = []
        for pred, new in fresh.items():
            held = self._tables.get(pred)
            if held is not None:
                new = [a for a in new if a not in held]
            by_arity: dict[int, list[Atom]] = {}
            for a in new:
                by_arity.setdefault(len(a.args), []).append(a)
            for group in by_arity.values():
                added += self._append_terms(
                    pred, [a.args for a in group], group
                )
        return added

    def extend(
        self, pred: str, n: int, id_cols: Optional[Sequence] = None,
        atoms: Optional[list[Atom]] = None,
        rows: Optional[Sequence[tuple]] = None, repeats: bool = False,
    ) -> FactSlice:
        """Bulk-insert ``n`` rows; returns them as the relation's new row
        range.  The rows come as ID columns (one int64 vector per argument
        position — ``array('q')``, int64 ndarrays or int lists), stored as
        they are: nothing is decoded and no atom is built.  A row kernel or
        the tuple solver gives ``rows`` of terms instead (encoded once,
        cell by cell, into the columns), or ``atoms`` (which then also
        fill the new rows' slots).

        The caller guarantees what a head plan that ends in an anti-join
        against this relation yields: rows none of which is held yet,
        pairwise distinct unless ``repeats`` (then repeats are dropped,
        the first kept), ``pred`` not special.  Rows that break it raise
        and leave the interpretation as it was."""
        if id_cols is None:
            if rows is None:
                rows = [a.args for a in atoms]
            if repeats:
                rows = list(dict.fromkeys(rows))
                atoms = None
            return self._append_terms(pred, rows, atoms)
        cols = [_id_column(c) for c in id_cols]
        keys = None
        if repeats and n > 1:
            keys = _keys_of(cols, n)
            # Later duplicates are assigned first, so each key keeps its
            # first row.
            first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
            if len(first) < n:
                keep = sorted(first.values())
                cols = [array("q", map(c.tolist().__getitem__, keep))
                        for c in cols]
                if atoms is not None:
                    atoms = [atoms[i] for i in keep]
                keys = list(map(keys.__getitem__, keep))
                n = len(keep)
        return self._append(pred, n, cols, atoms, keys=keys)

    def _append_terms(
        self, pred: str, rows: Sequence[tuple], atoms: Optional[list[Atom]]
    ) -> FactSlice:
        """:meth:`_append` for rows of terms, all of one arity, encoded to
        ID columns; the slice keeps the rows for its readers.  A single
        row takes :meth:`add`'s path instead: building column arrays for
        it would cost a 1-row round — each step of a deep recursion's
        semi-naive or DRed closure — about a tenth of its time (chain-128
        one-fact maintenance)."""
        if len(rows) == 1:
            (row,) = rows
            table = self._tables.get(pred)
            if table is not None and table.arity == len(row):
                a = atoms[0] if atoms else None
                put = self._put(pred, table, [_ID_OF(t) for t in row], a)
                if put is None:
                    raise EvaluationError(
                        f"bulk insert into {pred!r}: rows repeated or "
                        "already held"
                    )
                table, slot = put
                return FactSlice(table, slot, 1, None, atoms, rows)
        arity = len(rows[0]) if rows else 0
        cols = [array("q", map(_ID_OF, col)) for col in zip(*rows)] \
            if rows else [array("q") for _ in range(arity)]
        return self._append(pred, len(rows), cols, atoms, rows)

    def _append(
        self, pred: str, n: int, cols: list, atoms: Optional[list[Atom]],
        rows: Optional[Sequence[tuple]] = None,
        keys: Optional[list[int]] = None,
    ) -> FactSlice:
        """The one bulk insertion path: the table, every built argument
        index and the size grow by ``n`` rows in one pass.  ``rows`` are
        the same rows as terms, ``keys`` their row keys, when the caller
        has them."""
        arity = len(cols)
        table = self._table_for(pred, arity)
        start = len(table.atoms)
        if not n:
            return FactSlice(table, start, 0, cols, [])
        if keys is None:
            keys = _keys_of(cols, n)
        held = table.keys
        held.update(zip(keys, range(start, start + n)))
        if len(held) != start + n:
            # A held key now names a new slot: rebuild the map of the rows
            # that were there before.
            table.keys = dict(zip(
                _keys_of(table.cols, start) if start else (), range(start)
            ))
            raise EvaluationError(
                f"bulk insert into {pred!r}: rows repeated or already held"
            )
        for tc, c in zip(table.cols, cols):
            if c.__class__ is array:
                tc.extend(c)
            else:
                with memoryview(c) as m:
                    tc.frombytes(m.cast("B"))
        if atoms is None:
            table.atoms.extend(repeat(None, n))
            table.missing += n
        else:
            table.atoms.extend(atoms)
        table._bytes = None
        self._size += n
        per = self._indexes.get(pred)
        if per:
            bases = self._bases.get(pred, _NO_BASES)
            for positions, index in per.items():
                if positions and positions[-1] >= arity:
                    continue
                ikeys = cols[positions[0]].tolist() if len(positions) == 1 \
                    else _keys_of([cols[p] for p in positions], n)
                base = bases.get(positions)
                for slot, key in enumerate(ikeys, start):
                    _index_add(index, key, slot, base)
        return FactSlice(table, start, n, cols, atoms, rows)

    def remove(self, a: Atom) -> bool:
        """Retract a ground atom; returns ``True`` if it was present.

        Keeps every already-built argument index consistent, so interleaved
        :meth:`add`/:meth:`remove` sequences leave :meth:`candidates` and
        :meth:`candidate_count` agreeing with a fresh linear scan (the
        incremental-maintenance subsystem depends on this invariant).  The
        table's last row moves into the hole; nothing is re-encoded.
        """
        self._writable()
        pred, args = a.pred, a.args
        table = self._tables.get(pred)
        if table is None or len(args) != table.arity:
            return False
        key = _key_of(args)
        if key is None or key not in table.keys:
            return False
        table = self._mutable(pred)
        table._bytes = None
        self._size -= 1
        table.moves += 1
        cols, atoms, keys = table.cols, table.atoms, table.keys
        slot = keys.pop(key)
        last = len(atoms) - 1
        if atoms[slot] is None:
            table.missing -= 1
        if slot == last:
            gone = [c.pop() for c in cols]
            atoms.pop()
            moved = None
        else:
            gone = [c[slot] for c in cols]
            moved = [c.pop() for c in cols]
            for c, i in zip(cols, moved):
                c[slot] = i
            atoms[slot] = atoms.pop()
            keys[row_key(moved)] = slot
        per = self._indexes.get(pred)
        if per:
            bases = self._bases.get(pred, _NO_BASES)
            for positions, index in per.items():
                if positions and positions[-1] >= table.arity:
                    continue
                base = bases.get(positions)
                if len(positions) == 1:
                    _index_drop(index, gone[positions[0]], slot, base)
                    if moved is not None:
                        ikey = moved[positions[0]]
                        _index_drop(index, ikey, last, base)
                        _index_add(index, ikey, slot, base)
                    continue
                _index_drop(
                    index, row_key([gone[p] for p in positions]), slot, base
                )
                if moved is not None:
                    ikey = row_key([moved[p] for p in positions])
                    _index_drop(index, ikey, last, base)
                    _index_add(index, ikey, slot, base)
        return True

    def discard(self, atoms: Iterable[Atom]) -> int:
        """Retract many atoms; returns the number actually removed."""
        return sum(1 for a in atoms if self.remove(a))

    def copy(self) -> "Interpretation":
        out = Interpretation()
        out._tables = {p: t.copy() for p, t in self._tables.items()}
        out._size = self._size
        # Indexes are rebuilt lazily on the copy.
        return out

    # -- queries ------------------------------------------------------------------

    def holds(self, a: Atom) -> bool:
        """Whether a ground non-special atom is true in this interpretation."""
        table = self._tables.get(a.pred)
        return table is not None and a in table

    __contains__ = holds

    def by_pred(self, pred: str) -> frozenset[Atom]:
        return frozenset(self._tables.get(pred, ()))

    def facts_of(self, pred: str) -> FactTable:
        """The live facts of a predicate (see :class:`FactTable`).

        Callers must not mutate it; iterate it like a set of atoms, or
        read its rows."""
        return self._tables.get(pred, _NO_FACTS)

    def id_columns(
        self, pred: str
    ) -> Optional[tuple[int, int, tuple[bytes, ...]]]:
        """``(arity, nfacts, per-position ID column bytes)`` for a relation.

        The columnar executor's read of the store: each argument
        position's term IDs as native int64 bytes, in slot order — a copy
        of the table's columns, taken once per state of the table and
        kept until its next write.  Nothing is encoded.

        Returns ``None`` for an empty relation.
        """
        table = self._tables.get(pred)
        return None if table is None else table.id_columns()

    def _index_for(
        self, pred: str, positions: tuple[int, ...]
    ) -> dict[int, dict[int, None]]:
        per = self._indexes.get(pred)
        if per is None:
            per = self._indexes[pred] = {}
        index = per.get(positions)
        if index is None:
            index = per[positions] = _built_index(
                self._tables.get(pred), positions
            )
            if self._frozen:
                self._wanted.add((pred, positions))
        return index

    def lookup(
        self, pred: str, positions: tuple[int, ...], key: Optional[int]
    ) -> tuple[Optional[FactTable], Iterable[int]]:
        """``(table, slots)``: the predicate's table and the slots of the
        rows whose IDs at ``positions`` (ascending) pack to ``key``
        (:func:`row_key`; ``None`` matches nothing).  A signature that
        covers every position is one probe of the key map; any other
        reads (and on first use builds) its argument index."""
        table = self._tables.get(pred)
        if table is None or key is None or (
            positions and positions[-1] >= table.arity
        ):
            return table, ()
        if len(positions) == table.arity:
            slot = table.keys.get(key)
            return table, (() if slot is None else (slot,))
        per = self._indexes.get(pred)
        index = per.get(positions) if per else None
        if index is None:
            index = self._index_for(pred, positions)
        return table, index.get(key, ())

    def _slots(
        self, pred: str, positions: tuple[int, ...], key: Sequence[Term]
    ) -> tuple[Optional[FactTable], Iterable[int]]:
        """:meth:`lookup` for a key given as terms."""
        return self.lookup(pred, positions, _key_of(key))

    def _atoms_at(self, table: FactTable, slots: Iterable[int]) -> list[Atom]:
        if not table.missing:
            return list(map(table.atoms.__getitem__, slots))
        atoms, atom = table.atoms, table.atom
        return [atoms[s] or atom(s) for s in slots]

    @staticmethod
    def _rows_at(table: FactTable, slots: Iterable[int]) -> list[tuple]:
        if not table.missing:
            return list(map(_ARGS, map(table.atoms.__getitem__, slots)))
        return list(map(table.row, slots))

    def candidates(
        self, pred: str, positions: tuple[int, ...], key: tuple
    ) -> list[Atom]:
        """Facts of ``pred`` whose arguments at ``positions`` equal ``key``.

        Uses (and incrementally maintains) the hash index for that position
        signature; an exact superset-free answer, not a heuristic.
        """
        table, slots = self._slots(pred, positions, key)
        if table is None:
            return []
        return self._atoms_at(table, slots)

    def candidate_rows(
        self, pred: str, positions: tuple[int, ...], key: tuple
    ) -> list[tuple]:
        """:meth:`candidates` as argument rows (no atom is built)."""
        table, slots = self._slots(pred, positions, key)
        if table is None:
            return []
        return self._rows_at(table, slots)

    def candidate_count(
        self, pred: str, positions: tuple[int, ...], key: tuple
    ) -> int:
        """``len(candidates(...))`` without materialising anything new."""
        return len(self._slots(pred, positions, key)[1])

    def has_index(self, pred: str, positions: tuple[int, ...]) -> bool:
        """Whether an index for this position signature is already built."""
        per = self._indexes.get(pred)
        return per is not None and positions in per

    def _bucket_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> tuple[Optional[FactTable], Optional[tuple[int, ...]], Iterable[int]]:
        """``(table, positions, slots)``: the bucket a pattern's scan
        should read — the slots of the rows whose IDs at ``positions``
        are the pattern's there — or ``positions`` ``None`` to scan the
        whole table; ``table`` is ``None`` when no fact has the pattern's
        predicate and arity.

        The single shared selection policy behind
        :meth:`candidates_for_pattern`, :meth:`rows_for_pattern` and
        :meth:`estimate_for_pattern`: scan the whole relation when it
        has fewer than ``INDEX_MIN_FACTS`` facts or no bound position; a
        single bound position uses its (incrementally maintained)
        index; every position bound is one probe of the key map; with
        several bound positions an already-built composite index is used
        exactly, and otherwise the **most selective single bound
        position** is chosen by comparing bucket sizes — single-position
        indexes are shared across every pattern shape of the predicate,
        where per-signature composite indexes would each pay an
        O(relation) build.
        """
        table = self._tables.get(pred)
        if table is None or len(args) != table.arity:
            return None, None, ()
        if len(table.atoms) < INDEX_MIN_FACTS:
            return table, None, ()
        bound = [
            i for i, t in enumerate(args)
            if t.__class__ is not SetExpr and t.is_ground()
        ]
        if not bound:
            return table, None, ()
        if len(bound) == 1:
            i = bound[0]
            return table, (i,), self.lookup(pred, (i,), _key_of((args[i],)))[1]
        if not (
            len(bound) == table.arity or self.has_index(pred, tuple(bound))
        ):
            best = None
            for i in bound:
                slots = self._slots(pred, (i,), (args[i],))[1]
                if best is None or len(slots) < len(best[1]):
                    best = ((i,), slots)
            return table, *best
        positions = tuple(bound)
        return table, positions, self._slots(
            pred, positions, [args[i] for i in bound]
        )[1]

    def candidates_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> Iterable[Atom]:
        """Candidate facts for a pattern atom's bound argument positions.

        The shared index policy (see :meth:`_bucket_for_pattern`) for the
        solver, the top-down prover and the plan executor.  The result may
        be a superset of the matching facts (callers re-match
        candidates), but is never larger than the chosen bucket.
        """
        table, positions, slots = self._bucket_for_pattern(pred, args)
        if positions is None:
            return _NO_FACTS if table is None else table
        return self._atoms_at(table, slots)

    def rows_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> list[tuple]:
        """:meth:`candidates_for_pattern` as argument rows (no atom is
        built)."""
        table, positions, slots = self._bucket_for_pattern(pred, args)
        if positions is None:
            return [] if table is None else table.rows()
        return self._rows_at(table, slots)

    def estimate_for_pattern(
        self, pred: str, args: Sequence[Term]
    ) -> int:
        """Candidate-count estimate matching :meth:`candidates_for_pattern`
        exactly — both consult :meth:`_bucket_for_pattern`, so the join
        planner's cost estimate is the size of the very bucket the scan
        would read (an upper bound on the true join fan-out)."""
        table, positions, slots = self._bucket_for_pattern(pred, args)
        if positions is None:
            return 0 if table is None else len(table)
        return len(slots)

    def predicates(self) -> set[str]:
        return {p for p, t in self._tables.items() if len(t)}

    def __iter__(self) -> Iterator[Atom]:
        for table in self._tables.values():
            yield from table

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
