"""Exact integer Smith normal form.

Matrices are plain lists of lists of Python ints, viewed as maps
Z^cols -> Z^rows.  Arbitrary precision comes for free.

The Smith form is computed sparsely, because cover relator matrices are
large, very sparse and full of +-1 entries.  The matrix is stored once as
columns of ``{row: value}`` dicts plus, per row, the set of its nonzero
columns.  Each step pivots on an entry of smallest absolute value, which
keeps entry growth tame.  Finished pivots are dropped with their row and
column; the divisor chain is built from them afterwards.  Only the divisors
are computed, no transforms.  See Havas, Holt and Rees, "Recognizing badly
presented Z-modules" (1993), and Dumas, Saunders and Villard, "On efficient
sparse integer matrix Smith normal form computations" (2001).

The pivot search keeps fill-in low without rescanning the matrix.  Each
live column caches the key (least |entry|, nnz, index), which depends on
that column's entries alone.  A step writes only to the columns of its
pivot row, so rescanning those keeps every cached key exact.  The least key
names the pivot column and value; the pivot row is then chosen among that
column's entries of that value, fewest row nonzeros first and lowest index
on ties, counted when the step runs.  The pivot row is what a step adds
into the other rows of the pivot column, so a short one keeps fill-in low.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class SmithForm:
    """Divisor chain d1 | d2 | ... of a matrix.

    ``divisors`` lists the nonzero diagonal entries (1s included), so the
    cokernel of the matrix is Z^(rows - len(divisors)) + sum Z/d_i.
    """

    rows: int
    cols: int
    divisors: tuple

    @property
    def cokernel_rank(self):
        return self.rows - len(self.divisors)


def _symmetric_quotient(a, p):
    # remainder in (-p/2, p/2] for p > 0, so every round halves the pivot
    q, r = divmod(a, p)
    return q + 1 if 2 * r > p else q


def smith_normal_form(matrix):
    """Divisor chain of an integer matrix under unimodular row/column operations.

    >>> smith_normal_form([[1, 0], [0, 2]]).divisors
    (1, 2)
    >>> smith_normal_form([[2, 4], [6, 8]]).divisors
    (2, 4)
    >>> f = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    >>> f.divisors, f.cokernel_rank
    ((), 2)
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    columns = {}
    in_row = [set() for _ in range(rows)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                columns.setdefault(j, {})[i] = v
                in_row[i].add(j)
    pivots = []
    keys = {}  # live column -> (least |entry|, nnz, column)
    stale = list(columns)
    while columns:
        for j in stale:
            col = columns.get(j)
            if col is None:
                del keys[j]
                continue
            keys[j] = (min(map(abs, col.values())), len(col), j)
        a, _, c = min(keys.values())
        pivot_col = columns[c]
        _, r = min((len(in_row[i]), i) for i, v in pivot_col.items() if abs(v) == a)
        # this step writes only to the columns of row r, c among them
        stale = list(in_row[r])
        if pivot_col[r] < 0:
            for i in pivot_col:
                pivot_col[i] = -pivot_col[i]
        p = pivot_col[r]
        # clear the pivot column by row operations: row i -= q * row r
        for i in [i for i in pivot_col if i != r]:
            q = _symmetric_quotient(pivot_col[i], p)
            for j in in_row[r]:
                col = columns[j]
                old = col.get(i, 0)
                v = old - q * col[r]
                if v:
                    col[i] = v
                    if not old:
                        in_row[i].add(j)
                else:
                    col.pop(i, None)
                    in_row[i].discard(j)
        if len(pivot_col) > 1:
            continue  # a remainder is now the smallest entry
        # the pivot column is {r: p}, so column operations touch only row r
        for j in [j for j in in_row[r] if j != c]:
            col = columns[j]
            v = col[r] - _symmetric_quotient(col[r], p) * p
            if v:
                col[r] = v
            else:
                del col[r]
                in_row[r].discard(j)
                if not col:
                    del columns[j]
        if len(in_row[r]) == 1:
            pivots.append(p)
            del columns[c]
            in_row[r].clear()
    ones = pivots.count(1)
    chain = sorted(d for d in pivots if d > 1)
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] * chain[b] // g
    return SmithForm(rows, cols, (1,) * ones + tuple(chain))
