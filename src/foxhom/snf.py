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

A column that is a lone +-1 needs no row operation: its row goes, every
other entry of that row with it, and a divisor 1 is recorded.  Every
such column of the input (on a cover matrix, the n - 1 transversal-tree
relators) is taken this way before the pivot heap is built.  Removing a
row only deletes entries, so a lone column stays lone or empties, and
the matrix left is the one the rule below reaches after the same pivots.

The other pivots come from two sources, and together they take the pivots
of one rule: the least key (least |entry|, nnz, index) over the live
columns, in the row of that value with the fewest nonzeros, lowest index on
ties, counted when the step runs.  The pivot row is what a step adds into the
other rows of the pivot column, so a short one keeps fill-in low.

- A unit pivot comes from a lazy heap of (nnz, column) entries.  It starts
  with every column, and an entry is pushed for each column a unit step
  writes to and each one a least-entry step leaves with a +-1.  A popped
  entry is skipped when its nnz is stale or its column holds no +-1, so the
  first one kept is the least key with |entry| = 1.  The step is one Schur
  update, row i -= s * v_i * row r with s the pivot's sign, after which row
  r and the pivot column go and a divisor 1 is recorded.  This is the unit
  elimination of Havas, Holt and Rees.
- When no column holds a unit, the least-entry loop pivots on the least of
  the cached keys.  A key depends on its column alone, and a step writes
  only to the columns of its pivot row, so the columns the unit steps wrote
  to are rescanned before the loop runs, and those its own step wrote to
  after it.  The loop runs Euclid's steps on the pivot row and column with
  symmetric remainders; a remainder of +-1 is taken by a unit step next.

Both steps make their row operations in one kernel, ``_row_ops``.  A unit
step skips the sign flip, the quotients and the column pass of the Euclid
path, which a +-1 pivot does not need; it and the lone-column step drop
the pivot row in one helper, ``_drop_row``.

Passive columns.  ``smith_normal_form(matrix, passive)`` also takes blocks
B1, ..., Bk of columns that ride along in the elimination of the matrix A:
they take every row operation, and each column pass reduces their
pivot-row entry mod p, which adds a multiple of an image column of A to
them and so leaves every coker[A | B1 | ... | Bj] unchanged.  On a unit
pivot row the pivot column is +-e_r, so they lose their entry there.  They
never pivot and are kept in their own row index, so A's pivots are those
of a call without them.  Afterwards coker[A | B1 | ... | Bj] is that of a
small leftover matrix on the rows no unit pivot took: the nonunit pivots
as diagonal columns, then the residue of B1 restricted to those rows.  One
more call of this function reduces it, with the residues of B2, ..., Bk as
its passive blocks, and the unit pivots are added back as divisors 1.  This
is how a cover's transfer quotient and transfer module come from one
elimination.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate, compress
from math import gcd

from ._record import Record


class SmithForm(Record):
    """Divisor chain d1 | d2 | ... of a matrix.

    ``divisors`` lists the nonzero diagonal entries (1s included), so the
    cokernel of the matrix is Z^(rows - len(divisors)) + sum Z/d_i.
    ``extended`` holds, for passive column blocks B1, ..., Bk, the forms of
    [matrix | B1 | ... | Bj] for j = 1..k, and is empty without them.
    """

    _fields = ("rows", "cols", "divisors", "extended")

    def __init__(self, rows, cols, divisors, extended=()):
        super().__init__(rows, cols, divisors, extended)

    @property
    def cokernel_rank(self):
        return self.rows - len(self.divisors)


def _symmetric_quotient(a, p):
    # remainder in (-p/2, p/2] for p > 0, so every round halves the pivot
    q, r = divmod(a, p)
    return q + 1 if 2 * r > p else q


def _refresh(keys, units, columns, written):
    """Recompute the keys of the written columns and queue those holding a unit."""
    for j in written:
        col = columns.get(j)
        if col is None:
            keys.pop(j, None)
        else:
            key = keys[j] = (min(map(abs, col.values())), len(col), j)
            if key[0] == 1:
                heappush(units, key[1:])


def _unit_column(units, columns):
    """Pop the least (nnz, column) of a live column holding +-1, or None."""
    while units:
        size, c = heappop(units)
        col = columns.get(c)
        if col is not None and len(col) == size and (1 in col.values() or -1 in col.values()):
            return c
    return None


def _row_ops(columns, in_row, r, factors, targets):
    """Row i -= f * row r for each (i, f) in factors, on the target columns."""
    for j in targets:
        col = columns[j]
        x = col[r]
        for i, f in factors:
            old = col.get(i, 0)
            v = old - f * x
            if v:
                col[i] = v
                if not old:
                    in_row[i].add(j)
            else:
                col.pop(i, None)
                in_row[i].discard(j)


def _reduce_row(columns, in_row, r, p, targets):
    """Column j -= q * (p * e_r) for each target j: its row-r entry mod p."""
    for j in targets:
        col = columns[j]
        v = col[r] - _symmetric_quotient(col[r], p) * p
        if v:
            col[r] = v
        else:
            del col[r]
            in_row[r].discard(j)
            if not col:
                del columns[j]


def _passive_row_ops(parked, r, factors):
    """A step's row operations on the passive columns; return those in row r."""
    columns, in_row = parked
    targets = list(in_row[r])
    _row_ops(columns, in_row, r, factors, targets)
    return targets


def _drop_row(columns, in_row, r, parked, units=None):
    """Remove row r once its unit pivot column, now +-e_r, is gone.

    Reducing mod 1 empties the row, so every column in it, passive ones
    too, loses its row-r entry with no arithmetic.  Return the live columns
    that did; each one left nonempty is pushed to ``units`` when given.
    """
    written = in_row[r]
    in_row[r] = set()
    for j in written:
        col = columns[j]
        del col[r]
        if not col:
            del columns[j]
        elif units is not None:
            heappush(units, (len(col), j))
    if parked:
        _drop_row(*parked, r, None)
    return written


def _unit_step(columns, in_row, units, c, parked):
    """Pivot on a +-1 of column c in one Schur step; return the columns written.

    Row i -= s * v_i * row r, with s the pivot's sign and v_i column c's entry
    in row i; then row r and column c go, and the passive entries in row r.
    """
    pivot_col = columns.pop(c)
    _, r = min((len(in_row[i]), i) for i, v in pivot_col.items() if v == 1 or v == -1)
    s = pivot_col.pop(r)
    for i in pivot_col:
        in_row[i].discard(c)
    in_row[r].discard(c)
    factors = [(i, s * v) for i, v in pivot_col.items()]
    _row_ops(columns, in_row, r, factors, in_row[r])
    if parked:
        _passive_row_ops(parked, r, factors)
    written = _drop_row(columns, in_row, r, parked, units)
    written.add(c)
    return written


def _divisor_chain(pivots):
    """The positive pivots as a divisor chain d1 | d2 | ..., a tuple.

    Sorted pivots that already divide one another are their own chain, and
    one pass checks it; on a cover matrix they take two values, 2 and 2n.
    Otherwise each pair (a, b), a before b, becomes (gcd, lcm), which keeps
    the product of the diagonal and makes a divisor of every later entry.
    """
    chain = sorted(pivots)
    if all(b % a == 0 for a, b in zip(chain, chain[1:])):
        return tuple(chain)
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] * chain[b] // g
    return tuple(chain)


def smith_normal_form(matrix, passive=()):
    """Divisor chain of an integer matrix under unimodular row/column operations.

    ``passive`` is a sequence of column blocks B1, ..., Bk, each a list of
    columns of the matrix's height; ``extended`` then holds the forms of
    [matrix | B1 | ... | Bj], from the same elimination (see the module
    docstring).  Raises ``ValueError`` when a row's length is not that of
    row 0, or a passive column's length is not the number of rows.

    >>> smith_normal_form([[1, 0], [0, 2]]).divisors
    (1, 2)
    >>> smith_normal_form([[2, 4], [6, 8]]).divisors
    (2, 4)
    >>> f = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    >>> f.divisors, f.cokernel_rank
    ((), 2)
    >>> [g.divisors for g in smith_normal_form([[2, 0], [0, 2]], [[[1, 1]]]).extended]
    [(1, 2)]
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    columns = {}
    in_row = []
    indices = range(cols)
    for i, row in enumerate(matrix):
        if len(row) != cols:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {cols}")
        nonzero = list(compress(indices, row))
        in_row.append(set(nonzero))
        for j in nonzero:
            columns.setdefault(j, {})[i] = row[j]
    parked = None  # the passive columns and their own row index
    if passive:
        vectors = [v for block in passive for v in block]
        parked_cols, parked_in_row = parked = {}, [set() for _ in range(rows)]
        for k, v in enumerate(vectors):
            if len(v) != rows:
                raise ValueError(f"passive column {k} has {len(v)} entries, not {rows}")
            nonzero = list(compress(range(rows), v))
            parked_cols[k] = {i: v[i] for i in nonzero}
            for i in nonzero:
                parked_in_row[i].add(k)
    # lone +-1 columns first (see the module docstring); a row removal only
    # deletes entries, so a column listed here is still lone or gone
    ones = 0
    for c in [j for j, col in columns.items() if len(col) == 1]:
        col = columns.get(c)
        if col is not None:
            (r, v), = col.items()
            if v == 1 or v == -1:
                del columns[c]
                in_row[r].discard(c)
                _drop_row(columns, in_row, r, parked)
                ones += 1
    pivots = {}  # row -> nonunit pivot
    units = [(len(col), j) for j, col in columns.items()]  # lazy: (nnz, column)
    heapify(units)
    keys = {}  # live column -> (least |entry|, nnz, column), exact once refreshed
    stale = set(columns)
    while columns:
        c = _unit_column(units, columns)
        if c is not None:
            stale |= _unit_step(columns, in_row, units, c, parked)
            ones += 1
            continue
        # no column holds a unit: pivot on the least key
        _refresh(keys, units, columns, stale)
        stale.clear()
        a, _, c = min(keys.values())
        pivot_col = columns[c]
        _, r = min((len(in_row[i]), i) for i, v in pivot_col.items() if abs(v) == a)
        # this step writes only to the columns of row r, c among them
        written = list(in_row[r])
        if pivot_col[r] < 0:
            for i in pivot_col:
                pivot_col[i] = -pivot_col[i]
        p = pivot_col[r]
        # clear the pivot column by row operations: row i -= q * row r
        factors = [(i, _symmetric_quotient(v, p)) for i, v in pivot_col.items() if i != r]
        _row_ops(columns, in_row, r, factors, written)
        touched = _passive_row_ops(parked, r, factors) if parked else ()
        if len(pivot_col) == 1:
            # the pivot column is {r: p}, so column operations touch only row r
            _reduce_row(columns, in_row, r, p, [j for j in in_row[r] if j != c])
            if parked:
                _reduce_row(*parked, r, p, touched)
            if len(in_row[r]) == 1:
                pivots[r] = p
                del columns[c]
                in_row[r].clear()
        # a remainder of +-1 is taken by the next unit step
        _refresh(keys, units, columns, written)
    divisors = (1,) * ones + _divisor_chain(pivots.values())
    if not passive:
        return SmithForm(rows, cols, divisors)
    # the leftover's rows: those no unit pivot took, less the empty ones,
    # which add to the rank alike with and without the blocks
    kept = sorted(pivots.keys() | {i for i, ks in enumerate(parked_in_row) if ks})
    residues = [[parked_cols.get(k, {}).get(i, 0) for i in kept] for k in range(len(vectors))]
    ends = list(accumulate(map(len, passive)))
    diagonal = sorted(pivots)
    leftover = [
        [pivots[i] if i == d else 0 for d in diagonal] + [v[x] for v in residues[:ends[0]]]
        for x, i in enumerate(kept)
    ]
    inner = smith_normal_form(leftover, [residues[a:b] for a, b in zip(ends, ends[1:])])
    extended = tuple(
        SmithForm(rows, cols + w, (1,) * ones + f.divisors)
        for w, f in zip(ends, (inner, *inner.extended))
    )
    return SmithForm(rows, cols, divisors, extended)
