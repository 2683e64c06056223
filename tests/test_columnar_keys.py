"""The columnar key kernels against numpy and nested-loop references.

Every vector kernel keys on one int64 per row (DESIGN.md, "Kernels and
fallbacks"): ``_pack`` encodes k ID columns by mixed radix in the term
dictionary's size, or — keys too wide for int64 — by successive
factorization.  The properties below draw rows of real ``TERM_DICT``
IDs, duplicates included, and hold the kernels to what the previous
``np.unique``/stable-``argsort`` implementation computed:

* ``_pack``: equal rows get equal codes, and code order is the rows'
  lexicographic ID order;
* the distinct kernel: the rows, in the order, of
  ``np.unique(key, return_index=True)`` over the factorized key;
* ``_stable_order``: ``np.argsort(key, kind="stable")``;
* ``_equi_join_idx``: a nested-loop join, pairs in the same order;
* ``_absent_mask``: a set-difference reference.

Each runs with 1–4 columns (radix) and with 8 columns once the
dictionary holds more than 234 terms, so ``base**8 >= 2**63`` and the
wide-key branch is the one that runs.
"""

import functools

import pytest
from hypothesis import given, strategies as st

np = pytest.importorskip("numpy")  # the kernels under test need it

from repro.core import const
from repro.core.terms import TERM_DICT, term_id
from repro.engine.columnar import (
    ColumnarExecutor,
    _distinct_cols_of,
    _equi_join_idx,
    _key_pair,
    _pack,
    _radix,
    _stable_order,
)

#: Constants interned for the draws.  With more than 234 terms in the
#: dictionary ``base**8 >= 2**63``, so 8-column keys take the wide branch.
POOL_SIZE = 240


@functools.lru_cache(maxsize=None)
def pool() -> tuple:
    ids = tuple(term_id(const(f"colkey-{i}")) for i in range(POOL_SIZE))
    assert len(TERM_DICT) > 234
    return (0,) + ids


def factorized(cols):
    """The key the kernels used before radix packing: successive
    ``np.unique`` factorization."""
    codes = cols[0]
    for c in cols[1:]:
        _, inv1 = np.unique(codes, return_inverse=True)
        u2, inv2 = np.unique(c, return_inverse=True)
        codes = inv1.astype(np.int64) * u2.size + inv2.astype(np.int64)
    return codes


def as_cols(rows, k):
    return [np.asarray([r[j] for r in rows], dtype=np.int64)
            for j in range(k)]


def as_rows(cols):
    return list(zip(*[c.tolist() for c in cols]))


@st.composite
def id_rows(draw, k, max_rows=30):
    """``k``-column rows over a handful of pool IDs, so rows repeat."""
    n_values = len(pool())
    values = draw(st.lists(
        st.integers(0, n_values - 1), min_size=1, max_size=5, unique=True,
    ))
    picks = draw(st.lists(
        st.tuples(*[st.sampled_from(values)] * k), max_size=max_rows,
    ))
    ids = pool()
    return [tuple(ids[i] for i in row) for row in picks]


NARROW = st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), id_rows(k)))
WIDE = st.tuples(st.just(8), id_rows(8))


def check_pack(k, rows):
    if not rows:
        return
    cols = as_cols(rows, k)
    codes = _pack(cols, _radix(k)).tolist()
    for a, ca in zip(rows, codes):
        for b, cb in zip(rows, codes):
            assert (a == b) == (ca == cb)
            assert (a < b) == (ca < cb)


def check_distinct(k, rows):
    cols = as_cols(rows, k)
    n, out = _distinct_cols_of(len(rows), cols)
    assert n == len(set(rows))
    assert as_rows(out) == sorted(set(rows))
    if rows:
        _, first = np.unique(factorized(cols), return_index=True)
        assert as_rows(out) == as_rows([c[first] for c in cols])
    assert all(c.dtype == np.int64 for c in out)


def check_stable_order(k, rows):
    if not rows:
        return
    cols = as_cols(rows, k)
    for key in (_pack(cols, _radix(k)), factorized(cols)):
        assert _stable_order(key).tolist() == \
            np.argsort(key, kind="stable").tolist()


def check_join(k, left, right):
    if not left or not right:
        return
    lk, rk = _key_pair(as_cols(left, k), as_cols(right, k))
    lidx, ridx = _equi_join_idx(lk, rk)
    assert list(zip(lidx.tolist(), ridx.tolist())) == [
        (i, j)
        for i, a in enumerate(left) for j, b in enumerate(right) if a == b
    ]


def check_absent(k, rows, relation, metas):
    """``metas`` places an input column (``("col", i)``) or a ground term
    (``("term", t)``) at each relation position, as an anti-join atom
    whose arguments are schema variables or ground does."""
    arity = len(metas)
    rcols = as_cols(relation, arity)
    entry = (arity, len(relation), [c.tobytes() for c in rcols])
    keep = ColumnarExecutor._absent_mask(
        len(rows), as_cols(rows, k), metas, entry
    )
    held = set(relation)
    want = [
        tuple(r[v] if kind == "col" else term_id(v) for kind, v in metas)
        not in held
        for r in rows
    ]
    got = [True] * len(rows) if keep is None else keep.tolist()
    assert got == want


@st.composite
def anti_join(draw, k, every_col=False):
    """Input rows, relation facts and the atom's metas; ``every_col``
    makes the atom read every input column, so the key is ``k`` wide."""
    rows = draw(id_rows(k))
    arg = st.one_of(
        st.integers(0, k - 1).map(lambda i: ("col", i)),
        st.integers(0, 4).map(lambda i: ("term", const(f"colkey-{i}"))),
    )
    if every_col:
        metas = [("col", i) for i in range(k)]
        metas += draw(st.lists(arg, max_size=2))
        metas = tuple(draw(st.permutations(metas)))
    else:
        metas = tuple(draw(st.lists(arg, min_size=1, max_size=k + 1)))
    arity = len(metas)
    ids = pool()
    row_ids = sorted({i for r in rows for i in r} | set(ids[1:6]))
    relation = draw(st.lists(
        st.tuples(*[st.sampled_from(row_ids)] * arity), max_size=30,
    ))
    return rows, relation, metas


# ---------------------------------------------------------------------------
# 1–4 columns: mixed radix
# ---------------------------------------------------------------------------


@given(NARROW)
def test_pack_is_lexicographic(case):
    k, rows = case
    if k <= 3:      # radix up to ≈ 2.1 M terms
        assert _radix(k)
    check_pack(k, rows)


@given(NARROW)
def test_distinct_matches_unique(case):
    check_distinct(*case)


@given(NARROW)
def test_stable_order_matches_argsort(case):
    check_stable_order(*case)


@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), id_rows(k), id_rows(k))
))
def test_equi_join_matches_nested_loop(case):
    check_join(*case)


@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), anti_join(k))
))
def test_absent_mask_matches_set_difference(case):
    k, (rows, relation, metas) = case
    check_absent(k, rows, relation, metas)


# ---------------------------------------------------------------------------
# 8 columns: too wide for radix, factorized
# ---------------------------------------------------------------------------


def test_eight_columns_take_the_wide_branch():
    pool()
    assert _radix(8) == 0


@given(WIDE)
def test_wide_pack_is_lexicographic(case):
    check_pack(*case)


@given(WIDE)
def test_wide_distinct_matches_unique(case):
    check_distinct(*case)


@given(WIDE)
def test_wide_stable_order_matches_argsort(case):
    check_stable_order(*case)


@given(id_rows(8), id_rows(8))
def test_wide_equi_join_matches_nested_loop(left, right):
    check_join(8, left, right)


@given(anti_join(8, every_col=True))
def test_wide_absent_mask_matches_set_difference(case):
    rows, relation, metas = case
    check_absent(8, rows, relation, metas)


def test_stable_order_falls_back_when_the_composite_overflows():
    key = np.asarray([2 ** 62, 5, 2 ** 62, 5, 0], dtype=np.int64)
    assert _stable_order(key).tolist() == [4, 1, 3, 0, 2]
