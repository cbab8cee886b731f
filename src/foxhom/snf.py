"""Exact integer matrix normal forms: Smith and Hermite.

Matrices are plain lists of lists of Python ints, viewed as maps
Z^cols -> Z^rows.  Arbitrary precision comes for free; the pivot strategy
(smallest absolute value first) keeps intermediate growth tame at the
desk scale this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SmithForm:
    """Divisor chain d1 | d2 | ... of a matrix, with optional transforms.

    ``divisors`` lists the nonzero diagonal entries (1s included), so the
    cokernel of the matrix is Z^(rows - len(divisors)) + sum Z/d_i.
    When transforms are requested, U @ M @ V is the diagonal matrix.
    """

    rows: int
    cols: int
    divisors: tuple
    U: tuple | None = None
    V: tuple | None = None

    @property
    def cokernel_rank(self):
        return self.rows - len(self.divisors)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix, transforms=False):
    """Diagonalize an integer matrix by unimodular row/column operations.

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
    m = [[int(v) for v in row] for row in matrix]
    U = _identity(rows) if transforms else None
    V = _identity(cols) if transforms else None

    def swap_rows(a, b):
        m[a], m[b] = m[b], m[a]
        if U is not None:
            U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]
        if V is not None:
            for row in V:
                row[a], row[b] = row[b], row[a]

    def add_row(src, dst, factor):
        m[dst] = [d + factor * s for d, s in zip(m[dst], m[src])]
        if U is not None:
            U[dst] = [d + factor * s for d, s in zip(U[dst], U[src])]

    def add_col(src, dst, factor):
        for row in m:
            row[dst] += factor * row[src]
        if V is not None:
            for row in V:
                row[dst] += factor * row[src]

    def negate_row(i):
        m[i] = [-v for v in m[i]]
        if U is not None:
            U[i] = [-v for v in U[i]]

    def symmetric_quotient(a, p):
        # remainder in (-p/2, p/2] for p > 0, so every round halves the pivot
        q, r = divmod(a, p)
        if 2 * r > p:
            q += 1
        return q

    t = 0
    while t < rows and t < cols:
        while True:
            # always pivot on the global minimum: the one rule that keeps
            # intermediate entries from exploding
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    v = m[i][j]
                    if v and (pivot is None or abs(v) < abs(pivot[2])):
                        pivot = (i, j, v)
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if m[t][t] < 0:
                negate_row(t)
            p = m[t][t]

            # reduce pivot row and column; nonzero remainders mean a
            # strictly smaller pivot exists, so start over
            progress = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    add_row(t, i, -symmetric_quotient(m[i][t], p))
                    if m[i][t]:
                        progress = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    add_col(t, j, -symmetric_quotient(m[t][j], p))
                    if m[t][j]:
                        progress = True
            if progress:
                continue
            # enforce the divisor chain: pivot must divide the trailing block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

        if pivot is None:
            break
        t += 1

    divisors = tuple(m[i][i] for i in range(min(rows, cols)) if m[i][i])
    return SmithForm(
        rows,
        cols,
        divisors,
        tuple(tuple(r) for r in U) if transforms else None,
        tuple(tuple(r) for r in V) if transforms else None,
    )


def hermite_normal_form(rows):
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped.  Two row sets span the same lattice
    iff their Hermite forms are equal.

    >>> hermite_normal_form([[2, 4], [6, 8]])
    [[2, 0], [0, 4]]
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    result = []
    col = 0
    r = 0
    while col < ncols and r < len(work):
        # euclidean elimination in this column below row r
        while True:
            nonzero = [i for i in range(r, len(work)) if work[i][col]]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(work[i][col]))
            work[r], work[i0] = work[i0], work[r]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][col]:
                    q = work[i][col] // work[r][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][col]:
                        done = False
            if done:
                break
        if any(work[i][col] for i in range(r, len(work))):
            if work[r][col] < 0:
                work[r] = [-v for v in work[r]]
            r += 1
        col += 1
    work = work[:r]
    # reduce entries above each pivot; ascending pivot columns so a later
    # reduction never disturbs an already-reduced column
    pivots = []
    for row in work:
        j = next(k for k, v in enumerate(row) if v)
        pivots.append(j)
    for k in range(len(work)):
        for i in range(k + 1, len(work)):
            j = pivots[i]
            q = work[k][j] // work[i][j]
            if q:
                work[k] = [a - q * b for a, b in zip(work[k], work[i])]
    result = [row for row in work if any(row)]
    return result


def lattice_contains(hnf, vector):
    """Whether ``vector`` lies in the row lattice given by its Hermite form."""
    v = list(map(int, vector))
    for row in hnf:
        j = next(k for k, val in enumerate(row) if val)
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def lattice_equal(rows_a, rows_b):
    return hermite_normal_form(rows_a) == hermite_normal_form(rows_b)
