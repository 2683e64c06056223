"""Answer rows in ID space: put in print order and rendered without
building a term row.

A query answer leaves the executor as ID columns (or is encoded once, a
dictionary lookup per cell, when a row kernel or the tuple solver produced
it) and stays that way to the wire.  The print order — rows ascending by
the tuple of their cells' :func:`~repro.core.terms.order_key` — is
computed from the term dictionary's per-ID key cache, the text from its
per-ID literal cache, so each *distinct* term is keyed and rendered once
per process rather than once per cell per answer.  Nothing here reads an
ID's value except to look its term up: the order is the same whatever
order the terms were interned in.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Optional, Sequence

from ..core.terms import TERM_DICT
from . import columnar
from .ir import Row

_ID_OF = TERM_DICT.id_of
_TERMS = TERM_DICT.terms


class Answers:
    """``n`` distinct ground rows as one list of term IDs per position,
    in print order."""

    __slots__ = ("n", "cols")

    def __init__(self, rows: Sequence[Row], id_cols: Optional[list] = None):
        """Order ``rows``; ``id_cols`` are their ID columns when the
        producer has them (``rows`` is then only asked its length)."""
        n = self.n = len(rows)
        np = columnar._np
        # Below the size the vector kernels are gated at, ranking through
        # numpy costs more than sorting the few rows by their keys.
        ranked = np is not None \
            and n >= columnar.ColumnarExecutor.min_vector_rows
        if id_cols is None:
            cols = [list(map(_ID_OF, col)) for col in zip(*rows)]
        elif ranked:
            cols = id_cols
        else:
            cols = [col.tolist() for col in id_cols]
        if ranked:
            arrays = [np.asarray(col, dtype=np.int64) for col in cols]
            order = _rank_order(np, arrays)
            cols = [col[order].tolist() for col in arrays]
        elif n > 1:
            keys = list(zip(*map(TERM_DICT.keys_of, cols)))
            order = sorted(range(n), key=keys.__getitem__)
            cols = [[col[i] for i in order] for col in cols]
        self.cols = cols

    def terms(self) -> list[Row]:
        """The rows as term tuples."""
        if not self.cols:
            return [()] * self.n
        term = _TERMS.__getitem__
        return list(zip(*[map(term, col) for col in self.cols]))

    def texts(self, names: Optional[Sequence[str]] = None) -> list:
        """The rows rendered: a ``{name: text}`` dict per row under
        ``names``, else a list of texts per row."""
        if not self.cols:
            rows = [()] * self.n
        else:
            rows = zip(*[
                [str(_TERMS[i]) for i in col] for col in self.cols
            ])
        if names is None:
            return list(map(list, rows))
        return [dict(zip(names, row)) for row in rows]

    def json(self, names: Optional[tuple[str, ...]] = None) -> str:
        """``json.dumps(self.texts(names), sort_keys=True)`` without its
        enclosing brackets, spliced from the cached cell literals."""
        picks, row = _row_template(names, len(self.cols))
        if not picks or not self.n:
            return ", ".join([row] * self.n)
        literals = [TERM_DICT.literals_of(self.cols[i]) for i in picks]
        return ", ".join(map(row.__mod__, zip(*literals)))


@lru_cache(maxsize=512)
def _row_template(
    names: Optional[tuple[str, ...]], width: int
) -> tuple[tuple[int, ...], str]:
    """The columns one rendered row takes its cells from, in order, and
    its ``%``-template: a list of ``width`` cells, or under ``names`` what
    the encoder prints for a dict built from (name, cell) pairs — the last
    cell under a repeated name, names ascending."""
    if names is None:
        return tuple(range(width)), "[" + ", ".join(["%s"] * width) + "]"
    by_name = sorted(dict(zip(names, range(len(names)))).items())
    return tuple(i for _, i in by_name), "{" + ", ".join(
        json.dumps(name).replace("%", "%%") + ": %s" for name, _ in by_name
    ) + "}"


def _rank_order(np, id_cols: list):
    """The permutation that sorts ID rows by their cells' order keys:
    per column the *distinct* IDs are ranked by key, then one lexsort
    over the rank columns.  (Distinct ground terms have distinct keys,
    so ranks carry exactly the key order.)"""
    ranks = []
    for col in id_cols:
        ids, inverse = np.unique(col, return_inverse=True)
        keys = TERM_DICT.keys_of(ids.tolist())
        rank = np.empty(len(keys), dtype=np.int64)
        rank[sorted(range(len(keys)), key=keys.__getitem__)] = \
            np.arange(len(keys))
        ranks.append(rank[inverse])
    if not ranks:
        return np.arange(0)
    return np.lexsort(ranks[::-1])
