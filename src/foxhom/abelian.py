"""Finitely generated abelian groups as rank plus a torsion divisor chain."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .snf import smith_normal_form


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank + Z/d1 + ... + Z/dk with d1 | d2 | ... and every di >= 2.

    >>> print(AbelianGroup(3, (2,)))
    Z^3 x Z/2
    >>> AbelianGroup(0, ()).order
    1
    """

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion divisors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion chain violated: {a} does not divide {b}")

    @property
    def is_finite(self):
        return self.rank == 0

    @property
    def order(self):
        """Order of the group; raises for infinite groups."""
        if self.rank:
            raise ValueError("infinite group has no order")
        return prod(self.torsion)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel(matrix):
    """Cokernel of an integer matrix viewed as a map Z^cols -> Z^rows.

    The matrix is a list of rows, so a matrix with no columns still has
    ``len(matrix)`` rows.

    >>> print(cokernel([[1, 1, 1]]))
    0
    >>> print(cokernel([[1], [1], [1]]))
    Z^2
    >>> print(cokernel([[], []]))
    Z^2
    """
    return _group(smith_normal_form(matrix))


def cokernel_chain(matrix, passive):
    """Cokernels of [matrix], [matrix | B1], ..., [matrix | B1 | ... | Bk].

    ``passive`` holds the column blocks B1, ..., Bk, each a list of columns;
    they ride along in one elimination of the matrix (see ``snf``), so the
    list of k + 1 groups costs about one Smith form.

    >>> [str(g) for g in cokernel_chain([[2, 0], [0, 0]], [[[0, 3]], [[1, 1]]])]
    ['Z x Z/2', 'Z/6', '0']
    """
    form = smith_normal_form(matrix, passive)
    return [_group(f) for f in (form, *form.extended)]


def _group(form):
    torsion = tuple(d for d in form.divisors if d > 1)
    return AbelianGroup(form.cokernel_rank, torsion)
