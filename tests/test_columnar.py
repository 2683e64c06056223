"""The columnar executor: ID dictionary, column cache, kernels, fallbacks.

Covers the pieces DESIGN.md "Columnar execution" names:

* **term dictionary** — dense, stable, structural IDs (equal terms share
  one ID; assigned IDs never move);
* **relation columns** — ``Interpretation.id_columns`` reads the ID
  store: appends grow the columns, a removal moves the last row into the
  hole, neither encodes a cell; a row at another arity is refused;
  safely shared with frozen snapshots;
* **kernel equivalence** — ``ColumnarExecutor`` computes exactly the
  row executor's batches, distinct batches and shaped batches, for full
  and delta-substituted scans (a hypothesis sweep randomizes both the
  relation and the pinned delta);
* **counters** — ``ExecStats`` observes columnar vs row-fallback node
  executions and the encode/decode row flow;
* **gating** — ``make_executor`` hands back the row executor when numpy
  is missing, and the size gate keeps tiny batches on the row kernels.
"""

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")  # the kernels under test need it

from repro import parse_program
from repro.core import Atom, EvaluationError, LPSClause, Var, atom, const
from repro.core.atoms import pos
from repro.core.sorts import EQUALS, SORT_S
from repro.core.terms import TERM_DICT, setvalue, term_id, term_of
from repro.engine import Database, Evaluator
from repro.engine.columnar import (
    ColumnarExecutor,
    annotated_pretty,
    columnar_capable,
    make_executor,
    plan_mode_counts,
)
from repro.engine.executor import Executor
from repro.engine.ir import ExecStats
from repro.engine.planner import compile_rule, head_plan
from repro.engine.setops import with_set_builtins
from repro.semantics import interpretation
from repro.semantics.interpretation import Interpretation

TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")

JOIN_RULE = TC.clauses[1]


# ---------------------------------------------------------------------------
# Term dictionary
# ---------------------------------------------------------------------------


class TestTermDict:
    def test_ids_are_stable_and_dense(self):
        t = const("columnar-dict-probe-1")
        before = len(TERM_DICT)
        i = term_id(t)
        assert i == before  # fresh terms take the next dense slot
        assert len(TERM_DICT) == before + 1
        assert term_id(t) == i  # never remapped
        assert term_of(i) is t

    def test_structurally_equal_terms_share_an_id(self):
        a = setvalue([const("x"), const("y")])
        b = setvalue([const("y"), const("x")])
        assert term_id(a) == term_id(b)

    def test_distinct_terms_get_distinct_ids(self):
        ids = {term_id(const(f"columnar-dict-probe-2-{k}")) for k in range(50)}
        assert len(ids) == 50


# ---------------------------------------------------------------------------
# Relation columns
# ---------------------------------------------------------------------------


def _no_encode(term):
    raise AssertionError(f"{term} encoded")


def _ids(entry, pos):
    arity, n, bufs = entry
    col = np.frombuffer(bufs[pos], dtype=np.int64)
    assert col.size == n
    return col.tolist()


class TestIdColumns:
    def facts(self, n):
        return [atom("e", const(f"u{i}"), const(f"v{i}")) for i in range(n)]

    def test_columns_encode_the_relation_in_order(self):
        interp = Interpretation()
        facts = self.facts(5)
        for f in facts:
            interp.add(f)
        entry = interp.id_columns("e")
        assert entry[0] == 2 and entry[1] == 5
        assert _ids(entry, 0) == [term_id(f.args[0]) for f in facts]
        assert _ids(entry, 1) == [term_id(f.args[1]) for f in facts]

    def test_appends_grow_the_columns_in_place(self, monkeypatch):
        interp = Interpretation()
        for f in self.facts(3):
            interp.add(f)
        first = interp.id_columns("e")
        for f in self.facts(6)[3:]:
            interp.add(f)
        # Reading the columns encodes nothing: the store is IDs.
        monkeypatch.setattr(interpretation, "_ID_OF", _no_encode)
        second = interp.id_columns("e")
        assert second[1] == 6
        # The old columns are a byte-prefix of the new ones.
        assert all(b2.startswith(b1)
                   for b1, b2 in zip(first[2], second[2]))
        assert interp.id_columns("e") is second   # kept until a write

    def test_remove_moves_the_last_row_into_the_hole(self, monkeypatch):
        interp = Interpretation()
        facts = self.facts(4)
        for f in facts:
            interp.add(f)
        assert interp.id_columns("e")[1] == 4
        monkeypatch.setattr(interpretation, "_ID_OF", _no_encode)
        interp.remove(facts[1])
        entry = interp.id_columns("e")
        assert entry[1] == 3
        order = [facts[0], facts[3], facts[2]]
        assert _ids(entry, 0) == [term_id(f.args[0]) for f in order]
        assert _ids(entry, 1) == [term_id(f.args[1]) for f in order]
        assert list(interp.facts_of("e")) == order
        assert facts[1] not in interp and facts[3] in interp

    def test_empty_and_unknown_relations_have_no_columns(self):
        interp = Interpretation()
        assert interp.id_columns("nope") is None

    def test_a_row_at_another_arity_is_refused(self):
        """A predicate has one arity: the table refuses a row of another
        and keeps its columns, and a read at that arity holds nothing."""
        interp = Interpretation()
        interp.add(atom("p", const("a")))
        entry = interp.id_columns("p")
        for write in (interp.add, lambda a: interp.update([a])):
            with pytest.raises(EvaluationError, match="arity 2 for 'p'"):
                write(atom("p", const("a"), const("b")))
        assert interp.id_columns("p") == entry and len(interp) == 1
        assert not interp.facts_of("p").has_row((const("a"), const("b")))
        assert interp.rows_for_pattern("p", (const("a"), Var("X"))) == []

    def test_snapshot_shares_columns_safely(self):
        interp = Interpretation()
        facts = self.facts(3)
        for f in facts:
            interp.add(f)
        entry = interp.id_columns("e")
        snap = interp.snapshot()
        for f in self.facts(5)[3:]:
            interp.add(f)
        assert interp.id_columns("e")[1] == 5
        # The frozen snapshot still sees exactly its three facts, through
        # the entry captured before the writer extended.
        snap_entry = snap.id_columns("e")
        assert snap_entry == entry and snap_entry[1] == 3


# ---------------------------------------------------------------------------
# Kernel equivalence with the row executor
# ---------------------------------------------------------------------------


def _graph_interp(edges, closure=()):
    interp = Interpretation()
    for u, v in edges:
        interp.add(atom("e", const(f"n{u}"), const(f"n{v}")))
    for u, v in closure:
        interp.add(atom("t", const(f"n{u}"), const(f"n{v}")))
    return interp


def _row_key(row):
    return tuple(map(str, row))


def _assert_same_rows(interp, delta=None, delta_index=None):
    cp = compile_rule(JOIN_RULE, {}, delta_index=delta_index)
    assert cp.is_set
    node = head_plan(cp)
    row_exec = Executor(interp, delta=delta)
    col_exec = ColumnarExecutor(interp, delta=delta)
    col_exec.min_vector_rows = 0   # force the kernels on tiny relations
    # head_plan roots at Distinct, so batches are sets: order-insensitive.
    assert (sorted(map(_row_key, col_exec.batch(node)))
            == sorted(map(_row_key, row_exec.batch(node))))
    assert (sorted(map(_row_key, col_exec.distinct_batch(node)))
            == sorted(map(_row_key, row_exec.distinct_batch(node))))
    shape = tuple(range(len(node.out_vars)))[:1]
    col_batch = col_exec.shaped_batch(node, shape)
    row_batch = row_exec.shaped_batch(node, shape)
    assert (sorted(map(_row_key, col_batch))
            == sorted(map(_row_key, row_batch)))
    # Both batches give the same ID columns: the columnar one as it made
    # them, the row one encoded when asked.
    assert [tuple(TERM_DICT.terms[i] for i in ids)
            for ids in zip(*(c.tolist() for c in col_batch.cols))] \
        == col_batch.rows
    assert (sorted(zip(*(c.tolist() for c in col_batch.cols)))
            == sorted(zip(*(c.tolist() for c in row_batch.cols))))
    # The fixpoint's plan: the same rows minus the head relation.
    fresh = head_plan(cp, subtract_head=True)
    assert (sorted(map(_row_key, col_exec.batch(fresh)))
            == sorted(map(_row_key, row_exec.batch(fresh))))


class TestKernelEquivalence:
    def test_full_scan_join(self):
        interp = _graph_interp(
            [(0, 1), (1, 2), (2, 3), (3, 1)],
            closure=[(1, 2), (2, 3), (1, 3)],
        )
        _assert_same_rows(interp)

    def test_delta_substituted_scan(self):
        interp = _graph_interp(
            [(0, 1), (1, 2), (2, 3)],
            closure=[(1, 2), (2, 3), (1, 3)],
        )
        delta = {"t": frozenset({atom("t", const("n2"), const("n3"))})}
        _assert_same_rows(interp, delta=delta, delta_index=1)

    @pytest.mark.parametrize("negated", [
        "t(X, Y)", "t(Y, X)", "t(X, X)", "t(X, n2)", "t(n1, n2)",
        "t(n0, n0)", "e(Y, Y)",
    ])
    def test_anti_join_shapes(self, negated):
        """Variables, a repeated variable, constants and a ground atom:
        the packed-key anti-join keeps the rows the row kernel keeps."""
        interp = _graph_interp(
            [(0, 1), (1, 2), (2, 3), (3, 3)],
            closure=[(1, 2), (2, 3), (1, 3), (3, 3), (2, 1)],
        )
        rule = parse_program(
            f"u(X, Y) :- e(X, Y), not {negated}."
        ).clauses[0]
        node = head_plan(compile_rule(rule, {}))
        col_exec = ColumnarExecutor(interp)
        col_exec.min_vector_rows = 0
        got = sorted(map(_row_key, col_exec.batch(node)))
        assert got == sorted(map(_row_key, Executor(interp).batch(node)))
        assert col_exec.stats.row_nodes == 0

    @pytest.mark.parametrize("equality", [
        "Y = Z", "Z = Y", "Z = n2", "Z = {n1, n2}",
    ])
    def test_equality_compute_is_a_column_copy(self, equality):
        """``Z`` bound by an equality: the columnar kernel copies the
        column (or repeats the term) and keeps the rows the row kernel
        keeps, sorts checked as unification checks them."""
        interp = _graph_interp([(0, 1), (1, 2), (2, 3), (3, 3)])
        interp.add(atom("e", const("n4"), setvalue([const("n1")])))
        for text in (f"u(X, Z) :- e(X, Y), {equality}.",
                     f"#elps\nu(X, Z) :- e(X, Y), {equality}."):
            rule = parse_program(text).clauses[0]
            node = head_plan(compile_rule(rule, {}))
            col_exec = ColumnarExecutor(interp)
            col_exec.min_vector_rows = 0
            got = sorted(map(_row_key, col_exec.batch(node)))
            assert got == sorted(map(_row_key, Executor(interp).batch(node)))
            assert col_exec.stats.row_nodes == 0 and got

    def test_equality_compute_checks_the_bound_sort(self):
        """A set-sorted ``Z`` takes only the set values of an untyped
        ``Y``, on either kernel."""
        interp = _graph_interp([(0, 1), (1, 2), (2, 3), (3, 3)])
        interp.add(atom("e", const("n4"), setvalue([const("n1")])))
        rule = parse_program("#elps\nu(X, Z) :- e(X, Y), Y = Z.").clauses[0]
        z = Var("Z", SORT_S)
        rule = LPSClause(
            Atom("u", (rule.head.args[0], z)),
            body=(rule.body[0], pos(Atom(EQUALS, (rule.body[1].atom.args[0], z)))),
        )
        node = head_plan(compile_rule(rule, {}))
        col_exec = ColumnarExecutor(interp)
        col_exec.min_vector_rows = 0
        got = sorted(map(_row_key, col_exec.batch(node)))
        assert got == sorted(map(_row_key, Executor(interp).batch(node)))
        assert [set(r) for r in got] == [{"n4", "{n1}"}]
        assert col_exec.stats.row_nodes == 0

    @pytest.mark.parametrize("negated", ["t(X, Y)", "t(Y, X)", "t(X, n3)"])
    def test_anti_join_probes_a_relation_that_dwarfs_its_input(self, negated):
        """100 rows against 2 500: sorting the relation would cost more
        than the rows, so each row is probed — same rows kept, and the
        node reads its input, not the relation."""
        interp = _graph_interp(
            [(i, i + 1) for i in range(100)],
            closure=[(i, j) for i in range(50) for j in range(50)],
        )
        rule = parse_program(
            f"u(X, Y) :- e(X, Y), not {negated}."
        ).clauses[0]
        node = head_plan(compile_rule(rule, {}))
        col_exec = ColumnarExecutor(interp)
        got = sorted(map(_row_key, col_exec.batch(node)))
        assert got == sorted(map(_row_key, Executor(interp).batch(node)))
        assert 0 < len(got) < 100
        assert col_exec.stats.row_nodes == 0
        assert col_exec.stats.per_op["AntiJoin"][1] == 100
        # Against a relation its own size the packed-key kernel runs and
        # reads both sides.
        for u in range(50, 99):
            interp.remove(atom("e", const(f"n{u}"), const(f"n{u + 1}")))
        small = Interpretation(
            list(interp.facts_of("e")) + list(interp.facts_of("t"))[:500]
        )
        col_exec = ColumnarExecutor(small)
        col_exec.min_vector_rows = 0
        assert (sorted(map(_row_key, col_exec.batch(node)))
                == sorted(map(_row_key, Executor(small).batch(node))))
        assert col_exec.stats.per_op["AntiJoin"][1] == 51 + 500

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=0, max_size=24,
        ),
        closure=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=0, max_size=24,
        ),
        pin=st.sampled_from([None, 0, 1]),
        delta_bits=st.integers(0, 2**24 - 1),
    )
    def test_random_relations_and_deltas_agree(
        self, edges, closure, pin, delta_bits
    ):
        interp = _graph_interp(edges, closure=closure)
        delta = None
        if pin is not None:
            pred = ("e", "t")[pin]
            pool = sorted(interp.facts_of(pred), key=str)
            delta = {pred: frozenset(
                f for i, f in enumerate(pool) if delta_bits >> i & 1
            )}
        _assert_same_rows(interp, delta=delta, delta_index=pin)


# ---------------------------------------------------------------------------
# Counters and plan annotation
# ---------------------------------------------------------------------------


class TestCounters:
    def test_columnar_run_counts_col_nodes_and_decodes(self):
        db = Database()
        for i in range(100):   # above the size gate's _MIN_VECTOR_ROWS
            db.add("e", f"v{i}", f"v{i + 1}")
        model = Evaluator(TC, db).run()
        stats = model.report.exec
        assert stats.col_nodes > 0
        assert stats.rows_decoded > 0
        summary = stats.columnar_summary()
        assert set(summary) == {
            "col_nodes", "row_nodes", "rows_encoded", "rows_decoded"
        }

    def test_row_fallback_nodes_are_counted(self):
        db = Database()
        db.add("has", "alice", frozenset({"a", "b"}))
        p = parse_program("elem(E) :- has(X, S), E in S.")
        model = Evaluator(p, db, builtins=with_set_builtins()).run()
        assert model.report.exec.row_nodes > 0  # Unnest is row-only

    def test_plan_annotation_tags_every_node(self):
        cp = compile_rule(JOIN_RULE, {})
        node = head_plan(cp)
        col, row = plan_mode_counts(node, {})
        assert col > 0 and row == 0
        text = annotated_pretty(node, {})
        assert "·col" in text and "·row" not in text


# ---------------------------------------------------------------------------
# Gating
# ---------------------------------------------------------------------------


class TestGating:
    def test_make_executor_degrades_without_numpy(self, monkeypatch):
        import repro.engine.columnar as columnar

        assert type(make_executor(Interpretation(), {})) is ColumnarExecutor
        monkeypatch.setattr(columnar, "_np", None)
        assert type(make_executor(Interpretation(), {})) is Executor

    def test_small_inputs_stay_on_the_row_path(self):
        """The size gate: a plan fed by a tiny scan leaf runs entirely
        row-at-a-time (fixed ndarray setup loses to indexed probes on
        e.g. single-fact maintenance deltas), and forcing the gate off
        vectorizes the same plan."""
        interp = _graph_interp([(0, 1), (1, 2)], closure=[(1, 2)])
        cp = compile_rule(JOIN_RULE, {})
        node = head_plan(cp)
        ex = ColumnarExecutor(interp)
        assert not ex._vector_worthwhile(node)
        ex.batch(node)
        assert ex.stats.col_nodes == 0 and ex.stats.row_nodes > 0
        forced = ColumnarExecutor(interp)
        forced.min_vector_rows = 0
        assert forced._vector_worthwhile(node)
        forced.batch(node)
        assert forced.stats.col_nodes > 0

    def test_capability_is_per_node(self):
        p = parse_program("s(X, N1) :- r(X, S), E in S, N1 = 1.")
        cp = compile_rule(p.clauses[0], with_set_builtins())
        col, row = plan_mode_counts(cp.root, with_set_builtins())
        assert row > 0  # Unnest/Compute stay on the row kernels
        assert not columnar_capable(cp.root, with_set_builtins()) or col > 0
