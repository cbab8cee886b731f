"""Fox free differential calculus and Alexander matrices.

Derivatives are taken directly in the Laurent image of an abelianization
map (never in the group ring of the free group): for a word w = l_1...l_k,

    d(w)/dg = sum over positions of  phi(l_1...l_{i-1}) * d(l_i)/dg

with d(g)/dg = 1, d(g^-1)/dg = -phi(g)^-1 and d(h)/dg = 0 otherwise.

The matrix orientation is rows = generators, columns = relators.

Fox's fundamental formula, sum over g of phi(d(r)/dg) (phi(g) - 1) = 0 for
every relator r, makes v = (phi(g) - 1)_g a left null vector of that
matrix.  ``codim_one_minors`` checks it before any determinant, and on a
deficiency-one matrix it turns one row-deletion minor into all of them by
exact division; see there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .laurent import LaurentPoly, json_int, json_ints, json_vars
from .polygcd import laurent_divexact, laurent_gcd
from .polymat import LaurentMatrix, determinant

# Cap on C(g, s)·C(r, s), the number of codimension-one minors of size s,
# checked before any determinant.  A deficiency-one matrix takes one Bareiss
# determinant whatever the count, unless its map sends every generator to 1;
# other shapes take one per minor, about 2 ms at size 6 in one variable, so
# 10 000 of them take tens of seconds.  A 24-generator, 12-relator
# presentation has C(24, 12) ≈ 2.7·10^6 minors of size 12, about 3 ms each
# (2-CPU host, Python 3.11.7): over two hours.
MAX_MINORS = 10_000
# Cap on the letters of the relators, checked before any Fox derivative is
# taken.  A word of L letters has derivatives of up to L terms, and the gcd of
# the minors grows about quadratically with them: `alexander --minors` of
# <a, b | a^e b> under a -> x, b -> 1 takes 0.40 s and 35 MB at e = 20 000,
# and 4.4 s and 102 MB at e = 100 000 (fresh process, 2-CPU host, Python
# 3.11.7).  The bundled n-final has 62 letters.
MAX_FOX_LETTERS = 20_000


class MissingImages(ValueError):
    """A map applied to generators that it has no image for."""


@dataclass(frozen=True)
class AbelianizationMap:
    """A homomorphism sending each generator to a signed monomial unit.

    ``images`` maps generator -> (sign, exponent vector over ``vars``).
    """

    source: tuple
    vars: tuple
    images: dict

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "vars", tuple(self.vars))
        images = {}
        for g in self.source:
            if g not in self.images:
                continue
            sign, exp = self.images[g]
            if sign not in (1, -1):
                raise ValueError("images must be units: sign +-1")
            images[g] = (sign, tuple(exp))
            if len(images[g][1]) != len(self.vars):
                raise ValueError("image exponent length does not match variables")
        missing = [repr(g) for g in self.source if g not in images]
        if missing:
            noun = "generator" if len(missing) == 1 else "generators"
            raise MissingImages(f"no image for {noun} {', '.join(missing)}")
        object.__setattr__(self, "images", images)

    def image_monomial(self, gen, power=1):
        sign, exp = self.images[gen]
        s = sign if power % 2 else 1
        return (s, tuple(power * e for e in exp))

    @classmethod
    def from_json(cls, data, source):
        images = {
            g: (json_int(entry["sign"]), json_ints(entry["exp"]))
            for g, entry in data["images"].items()
        }
        return cls(source, json_vars(data["vars"]), images)


def fox_derivative(word, gen, phi):
    """The image of d(word)/d(gen) under the abelianization map.

    ``ValueError`` names a gen or a word letter that the map has no image for.

    >>> from .words import parse_word
    >>> phi = AbelianizationMap(("a",), ("x",), {"a": (1, (1,))})
    >>> print(fox_derivative(parse_word("a^-1", ["a"]), "a", phi))
    -x^-1
    """
    if gen not in phi.images:
        raise ValueError(f"unknown generator {gen!r}")
    stray = next((g for g, _ in word.runs if g not in phi.images), None)
    if stray is not None:
        raise ValueError(f"letter {stray!r} has no image under the map")
    terms = {}
    sign, exp = 1, tuple([0] * len(phi.vars))

    def add(s, e):
        terms[e] = terms.get(e, 0) + s

    for g, step in word.single_letters():
        if step > 0:
            if g == gen:
                add(sign, exp)
            s, ge = phi.image_monomial(g)
            sign, exp = sign * s, tuple(a + b for a, b in zip(exp, ge))
        else:
            s, ge = phi.image_monomial(g, -1)
            sign, exp = sign * s, tuple(a + b for a, b in zip(exp, ge))
            if g == gen:
                add(-sign, exp)
    return LaurentPoly(phi.vars, terms)


def alexander_matrix(p, phi):
    """Generators x relators grid of Fox derivatives pushed through phi.

    Rows follow the presentation's generator order; column j is relator j.
    The grid is over ``phi.vars`` even when it has no entries.  Relators of
    more than ``MAX_FOX_LETTERS`` letters in all raise ``ValueError``.
    """
    missing = set(p.generators) - set(phi.images)
    if missing:
        raise ValueError(f"map lacks images for generators {sorted(missing)}")
    letters = sum(map(len, p.relators))
    if letters > MAX_FOX_LETTERS:
        raise ValueError(f"relators of {letters} letters exceed {MAX_FOX_LETTERS}")
    col_labels = tuple(f"r{j + 1}" for j in range(len(p.relators)))
    entries = [
        tuple(fox_derivative(r, g, phi) for r in p.relators) for g in p.generators
    ]
    return LaurentMatrix(phi.vars, p.generators, col_labels, entries)


def minor_polys(grid, phi):
    """Row-deletion minors of a deficiency-one Alexander matrix, in normal form.

    For each generator g, the determinant of the matrix with row g deleted.
    ``grid`` must be the Fox matrix of ``phi``; see ``codim_one_minors``.
    """
    nrows, ncols = grid.shape
    if nrows != ncols + 1:
        raise ValueError(f"minors need a deficiency-one matrix, got {nrows}x{ncols}")
    # codim_one_minors deletes the last row first
    minors = reversed(codim_one_minors(grid, phi))
    return {g: m.normal_form() for g, m in zip(grid.row_labels, minors)}


def codim_one_minors(grid, phi):
    """The minors of size min(#generators - 1, #relators), unnormalized.

    For a deficiency-one matrix these are the row-deletion minors, last row
    deleted first.  When that size is 0 or less the one minor is the empty
    determinant, 1.  More than ``MAX_MINORS`` minors raise ``ValueError``
    before any determinant is taken.

    ``grid`` must be the Fox matrix of ``phi``: v = (phi(g) - 1)_g is then a
    left null vector of it (Fox's fundamental formula), and a grid that
    fails v·J = 0 raises ``ValueError``, as does a map that does not send
    every relator to 1.  On a deficiency-one grid the signed minors
    (-1)^i D_i span the same line as v, so one determinant D_j with
    v_j != 0 gives D_i = (-1)^(i+j) D_j v_i / v_j, each an exact division.
    Other shapes, and maps with every v_g = 0, take every minor's
    determinant.
    """
    nrows, ncols = grid.shape
    size = min(nrows - 1, ncols)
    if size <= 0:
        return [LaurentPoly.constant(grid.vars, 1)]
    count = comb(nrows, size) * comb(ncols, size)
    if count > MAX_MINORS:
        raise ValueError(f"{count} codimension-one minors exceed {MAX_MINORS}")
    if not set(grid.row_labels) <= set(phi.images):
        raise ValueError("the grid is not the Fox matrix of the map")
    v = [LaurentPoly.monomial(phi.vars, exp, sign) - LaurentPoly.constant(phi.vars, 1)
         for sign, exp in map(phi.image_monomial, grid.row_labels)]
    zero = LaurentPoly.zero(phi.vars)
    if any(sum((vi * row[k] for vi, row in zip(v, grid.entries)), zero)
           for k in range(ncols)):
        raise ValueError("the grid is not the Fox matrix of the map")
    if nrows != ncols + 1 or not any(v):
        return [determinant(_minor(grid, rows, cols))
                for rows in combinations(range(nrows), size)
                for cols in combinations(range(ncols), size)]
    j = min((i for i in range(nrows) if v[i]), key=lambda i: len(v[i].terms))
    d_j = determinant(_minor(grid, [i for i in range(nrows) if i != j], range(ncols)))
    return [
        d_j if i == j else laurent_divexact(d_j * v[i], v[j]) * (-1) ** (i + j)
        for i in reversed(range(nrows))
    ]


def _minor(grid, rows, cols):
    return LaurentMatrix(
        grid.vars,
        tuple(grid.row_labels[i] for i in rows),
        tuple(grid.col_labels[j] for j in cols),
        tuple(tuple(grid.entries[i][j] for j in cols) for i in rows),
    )


def alexander_poly(p, phi):
    """Gcd of the codimension-one minors of the Alexander matrix.

    For a deficiency-one presentation (g generators, g-1 relators) these are
    the row-deletion minors.  In general the minors of size
    min(g - 1, #relators) are used; an empty determinant is 1, so free
    presentations of rank one and the ``rst`` style presentations give 1.
    Zero is the identity of ``laurent_gcd``, so zero minors drop out of the
    gcd, and the result is the zero polynomial exactly when every minor
    vanishes.
    """
    return laurent_gcd(codim_one_minors(alexander_matrix(p, phi), phi))
