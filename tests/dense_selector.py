"""A selector's dense t x n 0/1 matrix, for tests only: the package holds a
selector as its sorted ones and never builds its cells."""

from __future__ import annotations

import numpy as np

from radiosched.selectors import SelectorMatrix


def selector(rows, **claims) -> SelectorMatrix:
    """The selector whose ones are the 1 cells of the 2-D 0/1 matrix rows."""
    rows = np.asarray(rows, dtype=np.uint8)
    row_of, col_of = np.nonzero(rows)
    return SelectorMatrix(row_of, col_of, *rows.shape, **claims)


def dense(m: SelectorMatrix) -> np.ndarray:
    """The t x n uint8 matrix with a 1 at each of m's ones."""
    rows = np.zeros((m.t, m.n), dtype=np.uint8)
    rows[m.row_of, m.col_of] = 1
    return rows


def ones(m: SelectorMatrix) -> tuple[list[int], list[int]]:
    """m's (rows, columns) as lists, for equality checks."""
    return m.row_of.tolist(), m.col_of.tolist()
