"""Matrices of Laurent polynomials and their exact determinants.

Determinants clear each row to ordinary polynomials by a monomial unit,
run fraction-free elimination there, and multiply the unit back in, so the
result is the exact determinant (not just an associate).  Every size
runs Bareiss elimination, whose divisions are exact.  Each step divides by
the previous step's pivot.  The first step's divisor is 1, so it divides
nothing, and an n x n matrix makes (n - 2)^2 + ... + 1 exact divisions
(14 at 5 x 5, against 30 if the first step divided by 1 too).
"""

from __future__ import annotations

from ._record import Record
from .laurent import LaurentPoly, json_list, json_vars
from .polygcd import poly_divexact


class LaurentMatrix(Record):
    """A rectangular grid of Laurent polynomials over the ring ``vars``.

    Every entry must lie in that ring; a grid with no entries keeps it too.
    ``entries`` is a tuple of row tuples of LaurentPoly.
    """

    _fields = ("vars", "row_labels", "col_labels", "entries")

    def __init__(self, vars, row_labels, col_labels, entries):
        super().__init__(
            tuple(vars),
            tuple(row_labels),
            tuple(col_labels),
            tuple(tuple(row) for row in entries),
        )
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("ragged matrix")
            if any(e.vars != self.vars for e in row):
                raise ValueError(f"an entry is not over the variables {self.vars}")

    @property
    def shape(self):
        return len(self.row_labels), len(self.col_labels)

    def to_json(self):
        return {
            "vars": list(self.vars),
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [[e.to_json()["terms"] for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data):
        vars = json_vars(data["vars"])
        rows = [
            tuple(LaurentPoly.from_json({"vars": data["vars"], "terms": t}) for t in row)
            for row in json_list(data["entries"])
        ]
        return cls(vars, json_list(data["row_labels"]), json_list(data["col_labels"]), rows)

    def table(self):
        """Aligned plain-text rendering."""
        headers = [""] + [str(c) for c in self.col_labels]
        body = [
            [str(label)] + [str(e) for e in row]
            for label, row in zip(self.row_labels, self.entries)
        ]
        widths = [
            max(len(line[i]) for line in [headers] + body)
            for i in range(len(headers))
        ]
        lines = []
        for line in [headers] + body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        return "\n".join(lines)


def _det_bareiss(rows, vars):
    n = len(rows)
    m = [list(r) for r in rows]
    prev = None  # the divisor of the first step is 1
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return LaurentPoly.zero(vars)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = poly_divexact(num, prev) if k else num
            m[i][k] = LaurentPoly.zero(vars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def determinant(matrix):
    """Exact determinant of a square LaurentMatrix.

    >>> from .laurent import parse_poly
    >>> p = lambda s: parse_poly(s, ("x",))
    >>> m = LaurentMatrix(("x",), ("a", "b"), ("c", "d"),
    ...                   ((p("x"), p("1")), (p("1"), p("x"))))
    >>> print(determinant(m))
    x^2 - 1
    """
    nrows, ncols = matrix.shape
    if nrows != ncols:
        raise ValueError("determinant of a non-square matrix")
    vars = matrix.vars
    if nrows == 0:
        return LaurentPoly.constant(vars, 1)
    # clear each row by its minimal-exponent monomial so entries are polynomials
    unit_exp = [0] * len(vars)
    cleared = []
    for row in matrix.entries:
        mins = [0] * len(vars)
        for e in row:
            if e.is_zero:
                continue
            for i, v in enumerate(e.min_exponents()):
                mins[i] = min(mins[i], v)
        cleared.append(tuple(e.shift(tuple(-m for m in mins)) for e in row))
        for i, v in enumerate(mins):
            unit_exp[i] += v
    return _det_bareiss(cleared, vars).shift(tuple(unit_exp))
