"""Terms of the LPS/ELPS languages (Definitions 1, 2 and 7 of the paper).

The term language has:

* **constants** ``c`` of sort ``a`` (we allow Python ``str`` and ``int``
  payloads; integers make the paper's arithmetic examples runnable),
* **variables** of sort ``a`` (written ``x, y, z`` in the paper), sort ``s``
  (written ``X, Y, Z``) or the ELPS pseudo-sort ``u``,
* **function applications** ``f(t1, ..., tn)`` of uninterpreted function
  symbols — always of sort ``a`` (Definition 1(2); see Example 8 for why), and
* **set constructors** ``{t1, ..., tn}`` — the paper's special symbols
  ``{_n`` — of sort ``s``.

A crucial point of the paper's Herbrand semantics (Definition 7) is that a
*ground* set constructor is interpreted as the **finite set of its element
terms**, not as a syntactic tree: ``{a, b}``, ``{b, a}`` and ``{a, b, a}``
all denote the same object.  We mirror this with two node types:

* :class:`SetExpr` — the syntactic constructor, possibly containing
  variables, with element order and duplicates preserved;
* :class:`SetValue` — the canonical ground value wrapping a ``frozenset``.

:func:`canonicalize` maps every ground term to its value form; substitution
canonicalizes automatically, so fully instantiated terms always compare by
set identity, as Lemma 1 requires.

In ELPS (Section 5) elements of a :class:`SetValue` may themselves be
:class:`SetValue` objects, giving arbitrarily nested finite sets;
:func:`nesting_depth` measures the nesting and LPS mode rejects depth > 1.

Performance architecture (see DESIGN.md).  Term nodes sit on every hot path
of the engine — set membership against interpretations, substitution
application, unification — so this module trades the convenience of frozen
dataclasses for hand-written classes with three properties:

* **Interning.**  :class:`Const`, :class:`Var` and :class:`SetValue` are
  hash-consed through weak-valued intern tables: constructing an equal term
  returns the *same* object, so ``==`` is usually pointer comparison and the
  per-object validation (sort checks, groundness of set elements) runs once
  per distinct term rather than once per construction.
* **Cached hashes.**  Every node computes its hash once (eagerly for the
  interned classes, lazily for :class:`App`/:class:`SetExpr`) and stores it
  in a slot; repeated set/dict lookups no longer re-hash whole subtrees.
* **Memoized derived facts.**  ``is_ground`` and :func:`canonicalize`
  results are cached per node, and :meth:`SetValue.sorted_elems` keeps its
  deterministic ordering, so quantifier unfolding does not re-sort the same
  range set on every solver step.
* **Dense term IDs.**  :data:`TERM_DICT` assigns every term that reaches a
  columnar batch a dense integer ID (see DESIGN.md, "Columnar execution").
  The dictionary is append-only and holds strong references, so an ID never
  changes or disappears for the lifetime of the process — which is what
  makes IDs stable across model snapshots, WAL-replay recovery and
  replication re-seeds, all of which re-intern the same terms in-process.
  IDs are *never* persisted: the WAL and checkpoints store terms
  textually, and every recovery re-encodes from scratch.  Beside the
  terms the dictionary caches, per ID, what printing needs — the
  :func:`order_key` and the JSON string literal — filled on first use.

Terms remain immutable by contract: no code in the repository mutates a
constructed node, and the caches above depend on that.  (The ``_tid``
slot is a cache of the node's :data:`TERM_DICT` ID, not term state.)
"""

from __future__ import annotations

import json
import threading
import weakref
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import SortError
from .sorts import SORT_A, SORT_S, SORT_U, check_sort


class Term:
    """Abstract base class for all term nodes."""

    __slots__ = ()

    @property
    def sort(self) -> str:
        raise NotImplementedError

    def is_ground(self) -> bool:
        raise NotImplementedError


#: Intern tables (weak-valued so long-running sessions do not leak renamed
#: variables or transient derived sets).
_VAR_INTERN: "weakref.WeakValueDictionary[tuple[str, str], Var]" = (
    weakref.WeakValueDictionary()
)
_CONST_INTERN: "weakref.WeakValueDictionary[tuple, Const]" = (
    weakref.WeakValueDictionary()
)
_SET_INTERN: "weakref.WeakValueDictionary[frozenset, SetValue]" = (
    weakref.WeakValueDictionary()
)


class Var(Term):
    """A variable, tagged with its sort.

    Following the paper's convention, lower-case names are customary for sort
    ``a`` and upper-case for sort ``s``, but the sort tag — not the spelling —
    is authoritative.
    """

    __slots__ = ("name", "var_sort", "_hash", "_tid", "__weakref__")

    def __new__(cls, name: str, var_sort: str = SORT_A) -> "Var":
        key = (name, var_sort)
        if cls is Var:
            self = _VAR_INTERN.get(key)
            if self is not None:
                return self
        check_sort(var_sort)
        self = super().__new__(cls)
        self.name = name
        self.var_sort = var_sort
        self._tid = -1
        self._hash = hash((Var, name, var_sort))
        if cls is Var:
            _VAR_INTERN[key] = self
        return self

    def __reduce__(self):
        # Rebuild through the interning constructor so no cached slot —
        # in particular the process-local ``_tid`` dense-ID slot — ever
        # crosses a pickle boundary: unpickling re-interns and the local
        # ``TERM_DICT`` re-derives its own id lazily.
        return (type(self), (self.name, self.var_sort))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name and self.var_sort == other.var_sort

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort(self) -> str:
        return self.var_sort

    def is_ground(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.var_sort!r})"

    def __str__(self) -> str:
        return self.name


ConstPayload = Union[str, int]


class Const(Term):
    """A constant of sort ``a``.

    The payload may be a string (symbolic constant) or an int (numeric
    constant, used by the arithmetic built-ins of Examples 5 and 6).
    """

    __slots__ = ("value", "_hash", "_tid", "__weakref__")

    def __new__(cls, value: ConstPayload) -> "Const":
        # Key by (type, value) so 1 and True stay distinct objects even
        # though they compare equal (mirroring the dataclass semantics).
        key = (value.__class__, value)
        if cls is Const:
            self = _CONST_INTERN.get(key)
            if self is not None:
                return self
        self = super().__new__(cls)
        self.value = value
        self._tid = -1
        self._hash = hash((Const, value))
        if cls is Const:
            _CONST_INTERN[key] = self
        return self

    def __reduce__(self):
        # See Var.__reduce__: re-intern on unpickle, never ship ``_tid``.
        return (type(self), (self.value,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Const:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort(self) -> str:
        return SORT_A

    def is_ground(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class Param(Const):
    """Constant slot ``index`` of a goal shape.

    A served goal is compiled once per shape (``repro.server.session``):
    its plan holds ``Param(k)`` where each goal text has its own ``k``-th
    constant, and the executors bind it per execution (:func:`bind_args`).
    Ground and of sort ``a`` like the constant it stands for, so the
    planner schedules it as one.  It is never a value: it has no dense ID
    and is never stored or matched against a fact.
    """

    __slots__ = ("index",)

    _interned: dict[int, "Param"] = {}

    def __new__(cls, index: int) -> "Param":
        self = cls._interned.get(index)
        if self is None:
            self = object.__new__(cls)
            self.value = f"§{index}"
            self.index = index
            self._hash = hash((Param, index))
            # No ``_tid``: asking TERM_DICT for a Param's ID fails loudly.
            self = cls._interned.setdefault(index, self)
        return self

    def __reduce__(self):
        return (Param, (self.index,))

    def __repr__(self) -> str:
        return f"Param({self.index})"


def bind_args(
    args: tuple[Term, ...], params: Sequence[Term]
) -> tuple[Term, ...]:
    """``args`` with each :class:`Param` replaced by its constant."""
    return tuple([
        params[t.index] if t.__class__ is Param else t for t in args
    ])


class App(Term):
    """Application ``f(t1, ..., tn)`` of an uninterpreted function symbol.

    Every argument must be of sort ``a`` and the result is of sort ``a``
    (Definition 2(3)).  Ground ``App`` terms are Herbrand-universe elements:
    the interpretation of ``f`` is concatenation of the symbol to its
    arguments (Definition 9(3)).
    """

    __slots__ = ("fname", "args", "_hash", "_ground", "_canon", "_tid")

    def __init__(self, fname: str, args: tuple[Term, ...]) -> None:
        for arg in args:
            if arg.sort == SORT_S:
                raise SortError(
                    f"function {fname!r} applied to a set-sorted argument "
                    f"{arg}; function symbols take sort-'a' arguments only"
                )
        self.fname = fname
        self.args = args
        self._hash = -1
        self._ground = None
        self._canon = None
        self._tid = -1

    def __reduce__(self):
        # Rebuild through __init__: slot state (``_tid``, ``_hash``,
        # ``_canon``) is process-local and must be recomputed on unpickle.
        return (type(self), (self.fname, self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        if (
            self._hash != -1
            and other._hash != -1
            and self._hash != other._hash
        ):
            return False
        return self.fname == other.fname and self.args == other.args

    def __hash__(self) -> int:
        h = self._hash
        if h == -1:
            h = hash((App, self.fname, self.args))
            self._hash = h
        return h

    @property
    def sort(self) -> str:
        return SORT_A

    def is_ground(self) -> bool:
        g = self._ground
        if g is None:
            g = all(arg.is_ground() for arg in self.args)
            self._ground = g
        return g

    def __repr__(self) -> str:
        return f"App({self.fname!r}, {self.args!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.fname}({inner})"


class SetExpr(Term):
    """The syntactic set constructor ``{t1, ..., tn}`` (the paper's ``{_n``).

    Elements may contain variables; order and multiplicity are preserved at
    the syntactic level and erased on canonicalization.  In LPS the elements
    must be of sort ``a``; ELPS relaxes this (nested constructors), which is
    why the constructor only rejects elements that are *provably* set-sorted
    when ``strict_lps`` terms are checked by the clause layer, not here.
    """

    __slots__ = ("elems", "_hash", "_ground", "_canon", "_tid")

    def __init__(self, elems: tuple[Term, ...]) -> None:
        self.elems = elems
        self._hash = -1
        self._ground = None
        self._canon = None
        self._tid = -1

    def __reduce__(self):
        # See App.__reduce__: recompute caches on unpickle.
        return (type(self), (self.elems,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SetExpr:
            return NotImplemented
        return self.elems == other.elems

    def __hash__(self) -> int:
        h = self._hash
        if h == -1:
            h = hash((SetExpr, self.elems))
            self._hash = h
        return h

    @property
    def sort(self) -> str:
        return SORT_S

    def is_ground(self) -> bool:
        g = self._ground
        if g is None:
            g = all(e.is_ground() for e in self.elems)
            self._ground = g
        return g

    def __repr__(self) -> str:
        return f"SetExpr({self.elems!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elems)
        return "{" + inner + "}"


class SetValue(Term):
    """A canonical ground finite set — an element of ``U_s`` (Definition 7).

    Wraps a ``frozenset`` of ground values.  Two set values are equal exactly
    when they contain the same elements, which is what makes Lemma 1 hold in
    the implementation.  Interned: equal sets are the same object.
    """

    __slots__ = ("elems", "_hash", "_sorted", "_tid", "__weakref__")

    def __new__(cls, elems: frozenset = frozenset()) -> "SetValue":
        if elems.__class__ is not frozenset:
            elems = frozenset(elems)
        if cls is SetValue:
            self = _SET_INTERN.get(elems)
            if self is not None:
                return self
        for e in elems:
            if not isinstance(e, Term) or not e.is_ground():
                raise SortError(f"SetValue element {e!r} is not a ground term")
            if isinstance(e, SetExpr):
                raise SortError(
                    "SetValue elements must be canonical; got a SetExpr "
                    f"{e!r} (canonicalize first)"
                )
        self = super().__new__(cls)
        self.elems = elems
        self._hash = hash((SetValue, elems))
        self._sorted = None
        self._tid = -1
        if cls is SetValue:
            _SET_INTERN[elems] = self
        return self

    def __reduce__(self):
        # See Var.__reduce__: re-intern on unpickle, never ship ``_tid``.
        return (type(self), (self.elems,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SetValue:
            return NotImplemented
        return self.elems == other.elems

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort(self) -> str:
        return SORT_S

    def is_ground(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.elems)

    def __contains__(self, item: Term) -> bool:
        return item in self.elems

    def __iter__(self) -> Iterator[Term]:
        return iter(self.elems)

    def sorted_elems(self) -> list[Term]:
        """Elements in a deterministic order (for printing and iteration).

        The list is computed once and cached; callers must not mutate it.
        """
        s = self._sorted
        if s is None:
            s = sorted(self.elems, key=cached_order_key)
            self._sorted = s
        return s

    def __repr__(self) -> str:
        return f"SetValue({{{', '.join(map(repr, self.sorted_elems()))}}})"

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.sorted_elems())
        return "{" + inner + "}"


#: The empty set value, the paper's ``∅`` / ``{_0``.
EMPTY_SET = SetValue(frozenset())


def mkset(*elems: Term) -> Term:
    """Build a set term from element terms, canonicalizing when ground."""
    return canonicalize(SetExpr(tuple(elems)))


def setvalue(elems: Iterable[Term]) -> SetValue:
    """Build a :class:`SetValue` from ground element terms."""
    return SetValue(frozenset(canonicalize(e) for e in elems))


def canonicalize(term: Term) -> Term:
    """Rewrite every *ground* :class:`SetExpr` inside ``term`` to a :class:`SetValue`.

    Non-ground subterms are left alone.  Idempotent, and memoized per node.
    """
    if isinstance(term, (Var, Const, SetValue)):
        return term
    if isinstance(term, App):
        out = term._canon
        if out is None:
            new_args = tuple(canonicalize(a) for a in term.args)
            out = term if new_args == term.args else App(term.fname, new_args)
            term._canon = out
            out._canon = out
        return out
    if isinstance(term, SetExpr):
        out = term._canon
        if out is None:
            new_elems = tuple(canonicalize(e) for e in term.elems)
            if all(e.is_ground() for e in new_elems):
                out = SetValue(frozenset(new_elems))
            elif new_elems == term.elems:
                out = term
            else:
                out = SetExpr(new_elems)
            term._canon = out
            if out.__class__ is SetExpr:
                out._canon = out
        return out
    raise TypeError(f"not a term: {term!r}")


def free_vars(term: Term) -> set[Var]:
    """The set of variables occurring in ``term``."""
    out: set[Var] = set()
    _collect_vars(term, out)
    return out


def _collect_vars(term: Term, out: set[Var]) -> None:
    if isinstance(term, Var):
        out.add(term)
    elif isinstance(term, App):
        for a in term.args:
            _collect_vars(a, out)
    elif isinstance(term, SetExpr):
        for e in term.elems:
            _collect_vars(e, out)
    # Const and SetValue are ground.


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its subterms (set values yield elements)."""
    yield term
    if isinstance(term, App):
        for a in term.args:
            yield from subterms(a)
    elif isinstance(term, SetExpr):
        for e in term.elems:
            yield from subterms(e)
    elif isinstance(term, SetValue):
        for e in term.elems:
            yield from subterms(e)


def nesting_depth(term: Term) -> int:
    """Set-nesting depth of a term: atoms have depth 0, ``{a}`` depth 1, ``{{a}}`` 2.

    LPS permits depth ≤ 1; ELPS (Section 5) permits arbitrary finite depth.
    """
    if isinstance(term, (Const, Var)):
        return 1 if isinstance(term, Var) and term.sort == SORT_S else 0
    if isinstance(term, App):
        return max((nesting_depth(a) for a in term.args), default=0)
    if isinstance(term, (SetExpr, SetValue)):
        elems = term.elems
        return 1 + max((nesting_depth(e) for e in elems), default=0)
    raise TypeError(f"not a term: {term!r}")


def order_key(term: Term):
    """A total-order key over ground terms, used for deterministic printing.

    Orders by shape class first, then structurally.  Integer constants order
    numerically before string constants.
    """
    if isinstance(term, Const):
        if isinstance(term.value, int):
            return (0, 0, term.value)
        return (0, 1, term.value)
    if isinstance(term, App):
        return (1, term.fname, tuple(order_key(a) for a in term.args))
    if isinstance(term, SetValue):
        return (2, len(term.elems), tuple(sorted(order_key(e) for e in term.elems)))
    if isinstance(term, Var):
        return (3, term.var_sort, term.name)
    if isinstance(term, SetExpr):
        return (4, len(term.elems), tuple(order_key(e) for e in term.elems))
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# The term dictionary: dense integer IDs for columnar execution.
# ---------------------------------------------------------------------------

class TermDict:
    """Append-only dictionary assigning dense integer IDs to terms.

    The columnar executor (``repro.engine.columnar``) represents batches
    as ``array('q')`` columns of these IDs; two cells join/deduplicate
    equal exactly when their IDs are equal, because :meth:`id_of` keys on
    term equality.  Three properties the executor relies on:

    * **Dense and append-only** — the first distinct term seen gets ID 0,
      the next ID 1, and so on; an assigned ID is never reused or
      remapped, so IDs taken at different times (e.g. across model
      snapshots, or before and after a WAL replay) remain comparable.
    * **Strong references** — ``terms[i]`` pins the term, so the
      weak-valued intern tables above can never drop a term that has an
      ID; re-interning always returns the object whose ``_tid`` slot
      already caches its ID.
    * **Process-local** — IDs are never written to the WAL, checkpoints
      or the replication stream; recovery and re-seeding re-encode.

    Beside ``terms`` live two per-ID caches of what printing a term
    needs — its :func:`order_key` (``keys``) and its JSON string literal
    (``literals``) — so a term is keyed and rendered once however many
    answer cells hold it (:meth:`keys_of`, :meth:`literals_of`).  Both
    are filled lazily, hold ``None`` for an ID not asked for yet and may
    be shorter than ``terms``; neither depends on the order IDs were
    assigned in.

    **Threads.**  Pool, dispatcher and writer threads all intern and
    read.  Assigning an ID and growing a cache are check-then-act and
    take ``_lock``; everything else is a single list or dict operation,
    atomic under the interpreter lock.  A term is appended to ``terms``
    before its ID is published in ``ids``, so an ID read without the lock
    always has its term; a cache is grown to ``len(terms)`` under the
    lock, so it then covers every ID handed out before; two threads that
    fill one entry store equal values.

    One process-wide instance (:data:`TERM_DICT`) exists; hot loops bind
    ``ids``/``terms`` directly.
    """

    __slots__ = ("ids", "terms", "keys", "literals", "_lock")

    def __init__(self) -> None:
        #: term -> ID (structural equality, so non-interned but equal
        #: ``App`` nodes share one ID).
        self.ids: dict[Term, int] = {}
        #: ID -> term, densely indexed (the decode side).
        self.terms: list[Term] = []
        #: ID -> ``order_key(term)``, or ``None`` until first asked for.
        self.keys: list = []
        #: ID -> ``json.dumps(str(term))``, likewise.
        self.literals: list[Optional[str]] = []
        self._lock = threading.Lock()

    def id_of(self, term: Term) -> int:
        """The term's dense ID, assigned on first sight."""
        i = term._tid
        if i >= 0:
            return i
        i = self.ids.get(term)
        if i is None:
            with self._lock:
                i = self.ids.get(term)
                if i is None:
                    i = len(self.terms)
                    self.terms.append(term)
                    self.ids[term] = i
        term._tid = i
        return i

    def term_of(self, tid: int) -> Term:
        """The term behind a dense ID (inverse of :meth:`id_of`)."""
        return self.terms[tid]

    def keys_of(self, tids: Sequence[int]) -> list:
        """``order_key`` of each ID's term, computed once per ID."""
        return self._cached(self.keys, order_key, tids)

    def literals_of(self, tids: Sequence[int]) -> list[str]:
        """Each ID's term as a JSON string literal — ``str(term)`` through
        ``json.dumps``, so escaping is the encoder's own — rendered once
        per ID."""
        return self._cached(self.literals, _json_literal, tids)

    def _cached(self, cache: list, make, tids: Sequence[int]) -> list:
        try:
            out = list(map(cache.__getitem__, tids))
        except IndexError:
            with self._lock:
                cache.extend([None] * (len(self.terms) - len(cache)))
            out = list(map(cache.__getitem__, tids))
        if None in out:
            terms = self.terms
            for i, tid in enumerate(tids):
                if out[i] is None:
                    out[i] = cache[tid] = make(terms[tid])
        return out

    def __len__(self) -> int:
        return len(self.terms)


def _json_literal(term: Term) -> str:
    return json.dumps(str(term))


#: The process-wide term dictionary (see :class:`TermDict`).
TERM_DICT = TermDict()


def term_id(term: Term) -> int:
    """Module-level convenience for :meth:`TermDict.id_of`."""
    return TERM_DICT.id_of(term)


def term_of(tid: int) -> Term:
    """Module-level convenience for :meth:`TermDict.term_of`."""
    return TERM_DICT.terms[tid]


_KEYS = TERM_DICT.keys


def cached_order_key(term: Term):
    """:func:`order_key`, from the dictionary's cache when the term has
    an ID (a term without one is keyed afresh: sorting assigns no IDs)."""
    tid = term._tid
    if tid < 0:
        return order_key(term)
    try:
        key = _KEYS[tid]
    except IndexError:
        key = None
    if key is None:
        key = TERM_DICT.keys_of((tid,))[0]
    return key


# ---------------------------------------------------------------------------
# Convenience constructors used pervasively in tests and examples.
# ---------------------------------------------------------------------------

def var_a(name: str) -> Var:
    """An individual (sort ``a``) variable."""
    return Var(name, SORT_A)


def var_s(name: str) -> Var:
    """A set (sort ``s``) variable."""
    return Var(name, SORT_S)


def var_u(name: str) -> Var:
    """An untyped ELPS variable."""
    return Var(name, SORT_U)


def const(value: ConstPayload) -> Const:
    """A constant of sort ``a``."""
    return Const(value)


def app(fname: str, *args: Term) -> App:
    """A function application term."""
    return App(fname, tuple(args))
