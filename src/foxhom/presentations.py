"""Finitely presented groups: presentations, Tietze moves, abelianization.

The presentation file format is JSON::

    {"name": str, "generators": [str], "relators": [str]}

with relator words in the ``parse_word`` syntax.  An optional "note" field
is carried through for bundled datasets and otherwise ignored.
"""

from __future__ import annotations

from ._record import Record
from .abelian import cokernel
from .laurent import json_list
from .words import Word, parse_word

# the most cells a relator matrix may hold, appended columns included; it is
# dense, and the bundled cover job peaks at 4 010 000 (sakuma at level 500 on
# the reduced base: 2000 rows by 1999 relators, 3 transfer columns and 3
# passive ones; the unreduced base would need 3000 by 3007)
MAX_MATRIX_CELLS = 10_000_000


# the most letters eliminate_conjugates reads and builds in all: every
# elimination reads each relator and rewrites each word, so a long
# presentation with many conjugate definitions is left partly reduced instead
# of rewritten once per definition
MAX_TIETZE_LETTERS = 1_000_000


def check_cells(rows, cols):
    """Raise ValueError when a rows x cols matrix passes MAX_MATRIX_CELLS."""
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(f"relator matrix of {rows} x {cols} exceeds {MAX_MATRIX_CELLS} cells")


def _check_name(name):
    if not name or any(c.isspace() for c in name) or "^" in name:
        raise ValueError(f"invalid generator name {name!r}")


class Presentation(Record):
    """An ordered generator list and a list of relator words.

    >>> p = Presentation("rst", ("r", "s", "t"), (parse_word("r s t", "rst"),))
    >>> print(abelianize(p))
    Z^2
    """

    _fields = ("name", "generators", "relators")

    def __init__(self, name, generators, relators):
        super().__init__(name, tuple(generators), tuple(relators))
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


def _solve(runs, i):
    """The word that the run i, a letter g^+-1, equals in the relator ``runs``."""
    before, after = Word(runs[:i]), Word(runs[i + 1 :])
    if runs[i][1] == 1:
        # A g B = 1  =>  g = A^-1 B^-1
        return ~before * ~after
    # A g^-1 B = 1  =>  g = B A
    return after * before


def tietze_eliminate(p, gen, rel_index):
    """Remove ``gen`` by solving relator ``rel_index`` for it.

    The chosen relator must contain ``gen`` exactly once, with exponent +-1,
    and 0 <= rel_index < len(p.relators).  Every other occurrence of ``gen``
    is replaced by the solved word and freely reduced.
    """
    if gen not in p.generators:
        raise ValueError(f"no generator named {gen!r}")
    if not 0 <= rel_index < len(p.relators):
        raise ValueError(f"no relator {rel_index} among {len(p.relators)}")
    runs = p.relators[rel_index].runs
    hits = [i for i, (g, _) in enumerate(runs) if g == gen]
    if len(hits) != 1 or abs(runs[hits[0]][1]) != 1:
        raise ValueError(
            f"relator {rel_index} must contain {gen!r} exactly once with exponent +-1"
        )
    solution = _solve(runs, hits[0])
    new_relators = tuple(
        r.substitute(gen, solution)
        for j, r in enumerate(p.relators)
        if j != rel_index
    )
    new_generators = tuple(g for g in p.generators if g != gen)
    return Presentation(p.name, new_generators, new_relators)


def _conjugate_definition(relator):
    """(g, w h^+-1 w^-1) for the first letter g that ``relator`` defines as a
    conjugate of another letter h, or None.

    Such a g occurs once, with exponent +-1, and the relator's exponent sums
    are +-1 on g and on h and zero elsewhere, so only a relator with exactly
    two nonzero sums, both +-1, has its solutions built.
    """
    runs = relator.runs
    sums, count = {}, {}
    for g, e in runs:
        sums[g] = sums.get(g, 0) + e
        count[g] = count.get(g, 0) + 1
    moving = [s for s in sums.values() if s]
    if len(moving) != 2 or any(abs(s) != 1 for s in moving):
        return None
    for i, (g, e) in enumerate(runs):
        if count[g] == 1 and abs(e) == 1:
            solution = _solve(runs, i)
            middle = solution.conjugated_run()
            if middle is not None and abs(middle[1]) == 1:
                return g, solution
    return None


def eliminate_conjugates(p):
    """Eliminate conjugate-defined generators: (reduced presentation, words).

    Repeatedly takes the first relator, in relator order, that holds some g
    once with exponent +-1 and solves to g = w h^+-1 w^-1, and removes g by
    ``tietze_eliminate``.  It stops when no such relator is left, or before
    an elimination could take the relators, or the words, past twice the
    input's letters (counted before free reduction, so before anything is
    built): each elimination can double what it substitutes into, relators
    and earlier words alike, so an unbounded chain of them grows
    exponentially.  It also stops before the letters it has read and built
    pass ``MAX_TIETZE_LETTERS``.  ``words`` maps each eliminated generator,
    in elimination order, to its word in the reduced generators, a conjugate
    u h^+-1 u^-1 of one of them; substituted back, each turns its defining
    relator into the identity.

    >>> p = Presentation("p", ("a", "b", "c"), (parse_word("c^-1 b a b^-1", "abc"),
    ...                                          parse_word("c a c^-1 a^-1", "abc")))
    >>> q, words = eliminate_conjugates(p)
    >>> q.generators, [str(r) for r in q.relators], {g: str(w) for g, w in words.items()}
    (('a', 'b'), ['b a b^-1 a b a^-1 b^-1 a^-1'], {'c': 'b a b^-1'})
    """
    letters = sum(map(len, p.relators))
    limit, read, spelled = 2 * letters, letters, 0
    words = {}
    while True:
        found = next(
            ((j, d) for j, r in enumerate(p.relators) if (d := _conjugate_definition(r))), None
        )
        if found is None:
            return p, words
        j, (gen, solution) = found
        # the defining relator goes, and each other run of gen, in a relator
        # or in a word, gains w and w^-1
        in_relators = sum(g == gen for r in p.relators for g, _ in r.runs) - 1
        grown = letters - len(p.relators[j]) + in_relators * (len(solution) - 1)
        in_words = sum(g == gen for w in words.values() for g, _ in w.runs)
        spells = spelled + in_words * (len(solution) - 1) + len(solution)
        if max(grown, spells) > limit or read + grown + spells > MAX_TIETZE_LETTERS:
            return p, words
        p = tietze_eliminate(p, gen, j)
        words = {g: w.substitute(gen, solution) for g, w in words.items()}
        words[gen] = solution
        letters = sum(map(len, p.relators))
        spelled = sum(map(len, words.values()))
        read += letters + spelled
