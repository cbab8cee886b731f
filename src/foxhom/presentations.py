"""Finitely presented groups: presentations, Tietze moves, abelianization.

The presentation file format is JSON::

    {"name": str, "generators": [str], "relators": [str]}

with relator words in the ``parse_word`` syntax.  An optional "note" field
is carried through for bundled datasets and otherwise ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import cokernel
from .laurent import json_list
from .words import Word, parse_word

# the most cells a relator matrix may hold, appended columns included; it is
# dense, and the bundled cover job peaks at 9 021 000 (sakuma at level 500:
# 3000 rows by 2999 relators, 3 transfer columns and 5 passive ones)
MAX_MATRIX_CELLS = 10_000_000


def check_cells(rows, cols):
    """Raise ValueError when a rows x cols matrix passes MAX_MATRIX_CELLS."""
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(f"relator matrix of {rows} x {cols} exceeds {MAX_MATRIX_CELLS} cells")


def _check_name(name):
    if not name or any(c.isspace() for c in name) or "^" in name:
        raise ValueError(f"invalid generator name {name!r}")


@dataclass(frozen=True)
class Presentation:
    """An ordered generator list and a list of relator words.

    >>> p = Presentation("rst", ("r", "s", "t"), (parse_word("r s t", "rst"),))
    >>> print(abelianize(p))
    Z^2
    """

    name: str
    generators: tuple
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        seen = set()
        for g in self.generators:
            _check_name(g)
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        for r in self.relators:
            stray = r.generators_used() - seen
            if stray:
                raise ValueError(f"relator uses unknown generators {sorted(stray)}")

    @classmethod
    def _of(cls, name, generators, relators):
        """A presentation from tuples whose names and relator letters are known good.

        Skips the checks of ``__post_init__``, for a presentation built from
        names it formatted itself and words over them.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)
        return self

    def relator_matrix(self, columns=()):
        """Exponent-sum matrix, generators as rows and relators as columns.

        Each of ``columns``, a vector over the generators, is appended after
        the relators.  Raises ValueError before it allocates when the matrix
        would hold more than MAX_MATRIX_CELLS cells.
        """
        rows, cols = len(self.generators), len(self.relators)
        check_cells(rows, cols + len(columns))
        index = {g: i for i, g in enumerate(self.generators)}
        matrix = [[0] * (cols + len(columns)) for _ in range(rows)]
        for j, r in enumerate(self.relators):
            for g, e in r.runs:
                matrix[index[g]][j] += e
        for j, column in enumerate(columns, cols):
            for row, v in zip(matrix, column, strict=True):
                row[j] = v
        return matrix

    def to_json(self):
        return {
            "name": self.name,
            "generators": list(self.generators),
            "relators": [str(r) for r in self.relators],
        }

    @classmethod
    def from_json(cls, data):
        gens = tuple(json_list(data["generators"]))
        relators = tuple(parse_word(text, gens) for text in json_list(data["relators"]))
        return cls(data["name"], gens, relators)


def abelianize(p):
    """H_1 of the presented group: cokernel of the relator exponent lattice.

    A presentation with no relators abelianizes to Z^(number of generators).
    """
    return cokernel(p.relator_matrix())


def tietze_add_generator(p, name, definition):
    """Add ``name`` with defining relator name^-1 * definition.

    ``definition`` must be a word in the existing generators; the new
    presentation checks that ``name`` is a valid, new generator name.
    """
    stray = definition.generators_used() - set(p.generators)
    if stray:
        raise ValueError(f"definition uses unknown generators {sorted(stray)}")
    relator = Word([(name, -1)]) * definition
    return Presentation(p.name, p.generators + (name,), p.relators + (relator,))


def tietze_eliminate(p, gen, rel_index):
    """Remove ``gen`` by solving relator ``rel_index`` for it.

    The chosen relator must contain ``gen`` exactly once, with exponent +-1.
    Every other occurrence of ``gen`` is replaced by the solved word and
    freely reduced.
    """
    if gen not in p.generators:
        raise ValueError(f"no generator named {gen!r}")
    relator = p.relators[rel_index]
    runs = relator.runs
    hits = [i for i, (g, _) in enumerate(runs) if g == gen]
    if len(hits) != 1 or abs(runs[hits[0]][1]) != 1:
        raise ValueError(
            f"relator {rel_index} must contain {gen!r} exactly once with exponent +-1"
        )
    i = hits[0]
    before = Word(runs[:i])
    after = Word(runs[i + 1 :])
    if runs[i][1] == 1:
        # A g B = 1  =>  g = A^-1 B^-1
        solution = ~before * ~after
    else:
        # A g^-1 B = 1  =>  g = B A
        solution = after * before
    new_relators = tuple(
        r.substitute(gen, solution)
        for j, r in enumerate(p.relators)
        if j != rel_index
    )
    new_generators = tuple(g for g in p.generators if g != gen)
    return Presentation(p.name, new_generators, new_relators)
