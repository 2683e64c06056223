"""Answers stay in ID space to the wire; the wire must not notice.

Two contracts on top of ``tests/test_server.py``:

* **Wire identity** — the response line of every answer is, byte for byte,
  what ``json.dumps`` makes of the rows built the plain way: one
  ``{var: str(term)}`` dict per row, rows sorted by the tuple of their
  cells' ``order_key``.  Checked as a property over generated models and
  goals on every arm of ``tests/paths.py`` that serves a maintained model.
* **The order belongs to the terms** — not to the IDs the term dictionary
  happened to hand out, nor to the moment a key or a rank was cached: terms
  interned later sort before and between earlier ones, readers race the
  writer's interning, and every answer still equals a fresh sort.
"""

import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_program
from repro.core import Atom, const, order_key
from repro.core.terms import TERM_DICT, App, setvalue
from repro.engine import Database
from repro.engine.columnar import HAS_NUMPY
from repro.server import LineClient, QueryService, Response, run_in_thread

from paths import PATHS, forced

#: Gives ``p3`` its signature ``(a, a, s)``; never derives anything the
#: goals below read.
PROGRAM = "seen :- p3(X, Y, S), M in S.\n"


# ---------------------------------------------------------------------------
# Reference: the rows built the plain way
# ---------------------------------------------------------------------------

def sorted_rows(rows):
    return sorted(set(rows), key=lambda r: tuple(order_key(t) for t in r))


def answers_line(names, rows, version):
    """The line a server that builds every row as a dict would send."""
    return json.dumps(
        {
            "ok": True, "kind": "answers", "version": version,
            "error": None, "code": None,
            "data": {
                "vars": list(names),
                "rows": [
                    {v: str(t) for v, t in zip(names, r)}
                    for r in sorted_rows(rows)
                ],
                "truth": bool(rows),
            },
        },
        sort_keys=True,
    )


def subscribed_line(sub, names, rows, version):
    return json.dumps(
        {
            "ok": True, "kind": "subscribed", "version": version,
            "error": None, "code": None,
            "data": {
                "sub": sub,
                "vars": list(names),
                "rows": [[str(t) for t in r] for r in sorted_rows(rows)],
                "truth": bool(rows),
            },
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Generated models
# ---------------------------------------------------------------------------

# Constants that need every kind of escaping the encoder has: the JSON
# quote and backslash, the language's own quote, non-ASCII, a control
# character, a space, a digit string beside the int of the same digits.
texts = st.sampled_from([
    "a", "b", "zz", "A b", 'say "hi"', "back\\slash", "it's", "müße",
    "日本", "tab\there", "7", "",
])
ints = st.integers(min_value=-50, max_value=50)
atoms_flat = st.one_of(ints, texts).map(const)
atoms = st.one_of(
    atoms_flat,
    st.builds(
        lambda f, args: App(f, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(atoms_flat, min_size=1, max_size=2),
    ),
)
flat_sets = st.frozensets(atoms, max_size=3).map(setvalue)
# ELPS values: sets among the elements, the empty set among those.
sets = st.one_of(
    flat_sets,
    st.frozensets(st.one_of(atoms, flat_sets), max_size=3).map(setvalue),
)
models = st.lists(st.tuples(atoms, atoms, sets), max_size=12)


def service_over(triples):
    db = Database()
    for x, y, s in triples:
        db.add_atom(Atom("p3", (x, y, s)))
        db.add_atom(Atom("p2", (x, y)))
        db.add_atom(Atom("p1", (x,)))
    return QueryService(parse_program(PROGRAM), database=db)


def goals_over(triples):
    """``(goal text, output variables in answer order, expected rows)``:
    three, two (names against positions), one and no output variables,
    the ground goals both ways, and a constant-bound column."""
    from repro.lang.pretty import pretty_term

    out = [
        ("p3(X, Y, Z)", ("X", "Y", "Z"), list(triples)),
        ("p2(B, A)", ("A", "B"), [(y, x) for x, y, _ in triples]),
        ("p1(X)", ("X",), [(x,) for x, _, _ in triples]),
        ("p1(no_such_constant)", (), []),
    ]
    if triples:
        x0, y0, _ = triples[0]
        out.append((f"p1({pretty_term(x0)})", (), [()]))
        out.append((
            f"p3(X, {pretty_term(y0)}, S)", ("X", "S"),
            [(x, s) for x, y, s in triples if y == y0],
        ))
    return out


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40)
@given(triples=models)
def test_response_lines_are_the_plain_encoding(path, triples):
    with forced(path):
        svc = service_over(triples)
        try:
            session = svc.open_session()
            version = svc.model.version
            for goal, names, rows in goals_over(triples):
                response = session.execute(f"?- {goal}.")
                line = response.to_json()
                assert line == answers_line(names, rows, version), goal
                assert Response.from_json(line).data == response.data
                assert Response.from_json(line) == response
                # ... and once ``data`` has built the rows, the plain
                # encoder prints the same line from them.
                assert response.to_json() == line
            # A standing query's initial answer takes the same route.
            response = session.execute(":subscribe p2(B, A).")
            line = response.to_json()
            assert line == subscribed_line(
                response.data["sub"], ("A", "B"),
                [(y, x) for x, y, _ in triples], version,
            )
            assert Response.from_json(line).data == response.data
        finally:
            svc.shutdown()


@pytest.mark.parametrize("path", PATHS)
def test_a_large_answer_takes_the_same_bytes(path):
    """Past the vector gate on the default arm: 400 rows, two columns,
    ints beside strings beside applications, every row distinct."""
    values = [const(i - 20) for i in range(40)] + [
        const(f"k{i}") for i in range(20)
    ] + [App("f", (const(i),)) for i in range(10)]
    triples = [
        (values[i % len(values)], values[(i * 7) % 61], setvalue(
            frozenset(values[: i % 4])
        ))
        for i in range(400)
    ]
    with forced(path):
        svc = service_over(triples)
        try:
            session = svc.open_session()
            for goal, names, rows in goals_over(triples):
                assert session.execute(f"?- {goal}.").to_json() == \
                    answers_line(names, rows, svc.model.version), goal
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# The order belongs to the terms
# ---------------------------------------------------------------------------

def _rows_of(response):
    return [tuple(row[v] for v in response.data["vars"])
            for row in response.data["rows"]]


def _expected(terms):
    return [(str(t),) for t in sorted(terms, key=order_key)]


@pytest.mark.parametrize("path", PATHS)
def test_order_ignores_ids_and_when_keys_were_cached(path):
    """Every query ranks what it sees and caches the keys; the next commit
    interns terms that sort *before* and *between* the ranked ones, under
    higher IDs: an int after strings, a shorter set after longer ones."""
    with forced(path):
        svc = QueryService("u(X) :- p(X).\nhas(S) :- s(S), M in S.\n")
        try:
            session = svc.open_session()
            held, held_sets = [], []

            def commit(new, new_sets=()):
                session.execute(":begin")
                for t in new:
                    session.execute(f"+p({t}).")
                    held.append(const(t))
                for elems in new_sets:
                    session.execute("+s({%s})." % ", ".join(elems))
                    held_sets.append(setvalue(map(const, elems)))
                assert session.execute(":commit").ok
                # Plain scan, derived relation, sets as cells: each sorted
                # afresh by the reference.
                assert _rows_of(session.execute("?- p(X).")) == _expected(held)
                assert _rows_of(session.execute("?- u(X).")) == _expected(held)
                assert _rows_of(session.execute("?- s(S).")) == \
                    _expected(held_sets)

            # Terms no earlier arm has interned, so the later ones below
            # do get the higher IDs.
            k = PATHS.index(path)
            names = [f"m{k}x{i:03d}" for i in range(200)]
            # Strings first — enough of them to cross the vector gate.
            commit(names[0::2],
                   [(f"x{k}", f"y{k}", f"z{k}"), ("a", "b", "c", f"d{k}")])
            ids_before = len(TERM_DICT)
            # Ints sort before every string, odd names between the even
            # ones, and a one-element set before the longer sets.
            commit([7000 + k, -3000 - k, 100_000 + k] + names[1::2],
                   [(f"zz{k}",), (f"q{k}", f"r{k}")])
            assert len(TERM_DICT) >= ids_before + 103
            # ... and once more below everything held so far.
            commit([-1_000_000 - k, f"a{k}"], [()])
        finally:
            svc.shutdown()


def test_readers_race_the_writers_interning():
    """Two readers render answers while the writer interns the terms of
    its next commits: no torn cache entry, no ``IndexError`` on a cache
    shorter than ``terms``, every answer the fresh sort of its version."""
    svc = QueryService("")
    base = [f"w{i:04d}" for i in range(0, 400, 2)]
    extra = [f"w{i:04d}" for i in range(1, 400, 2)]    # sort between
    writer_session = svc.open_session()
    writer_session.execute(":begin")
    for t in base:
        writer_session.execute(f"+p({t}).")
    v0 = writer_session.execute(":commit").version
    failures, done = [], threading.Event()

    def reader():
        session = svc.open_session()
        try:
            while not done.is_set():
                response = session.execute("?- p(X).")
                held = base + extra[: response.version - v0]
                line = answers_line(
                    ("X",), [(const(t),) for t in held], response.version
                )
                if response.to_json() != line:
                    failures.append(response.version)
                    return
        except Exception as exc:           # surfaced below, not swallowed
            failures.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in extra[:120]:
            assert writer_session.execute(f"+p({t}).").ok
    finally:
        done.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
        svc.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures


def test_term_dict_caches_under_concurrent_growth():
    """The dictionary alone: threads interning overlapping runs of new
    terms beside threads keying and rendering everything interned so far.
    IDs stay a bijection and every cached entry is its term's."""
    terms = [const(f"race{i}") for i in range(3000)]
    d = TERM_DICT
    first = len(d)
    errors = []

    def intern(chunk):
        try:
            for t in chunk:
                d.id_of(t)
        except Exception as exc:
            errors.append(exc)

    def render():
        try:
            for _ in range(100):
                ids = list(range(first, len(d.terms)))
                keys, lits = d.keys_of(ids), d.literals_of(ids)
                for i, k, lit in zip(ids, keys, lits):
                    assert k == order_key(d.terms[i])
                    assert lit == json.dumps(str(d.terms[i]))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=intern, args=(terms[i::2],))
               for i in range(2)]
    threads += [threading.Thread(target=intern, args=(terms[::-1],)),
                threading.Thread(target=intern, args=(terms,))]
    threads += [threading.Thread(target=render) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(d) == first + len(terms)
    assert sorted(d.ids[t] for t in terms) == list(range(first, len(d)))
    assert all(d.terms[t._tid] is t for t in terms)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not HAS_NUMPY, reason="vector path needs numpy")
def test_tcp_answers_are_counted_and_never_decoded():
    """Over the socket a vectorized answer builds no term row:
    ``rows_decoded`` stays put while ``queries``/``answers`` stay exact."""
    svc = QueryService("t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n")
    handle = run_in_thread(svc)
    try:
        with LineClient(handle.host, handle.port) as c:
            c.send(":begin")
            for i in range(120):
                c.send(f"+e(n{i}, n{i + 1}).")
            assert c.send(":commit").ok
            before = c.send(":stats").data
            goals = ["t(X, Y)", "e(X, Y)", "t(X, Y), e(Y, Z)"]
            n_rows = 0
            for goal in goals:
                r = c.query(goal)
                assert r.ok and len(r.data["rows"]) >= 64
                n_rows += len(r.data["rows"])
            after = c.send(":stats").data
        assert after["queries"] - before["queries"] == len(goals)
        assert after["answers"] - before["answers"] == n_rows
        assert after["columnar"]["col_nodes"] > before["columnar"]["col_nodes"]
        assert after["columnar"]["rows_decoded"] == \
            before["columnar"]["rows_decoded"]
    finally:
        handle.stop()
        svc.shutdown()
