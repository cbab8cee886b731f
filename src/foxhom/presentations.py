"""Finitely presented groups: presentations, Tietze moves, abelianization.

The presentation file format is JSON::

    {"name": str, "generators": [str], "relators": [str]}

with relator words in the ``parse_word`` syntax.  An optional "note" field
is carried through for bundled datasets and otherwise ignored.
"""

from __future__ import annotations

from itertools import compress

from ._record import Record
from .abelian import cokernel
from .laurent import json_list
from .snf import SparseMatrix
from .words import Word, parse_word

# the most entries a relator matrix may take, counted before anything is
# built: each nonzero, at most one per relator run and one per generator in
# each appended column (the cover commands build a filling or transfer column
# as a vector over the generators), and ROW_ENTRIES per row: a row takes
# about the memory of four or five nonzeros, for a cover generator's name and
# lifted letters in the rewrite and the Smith form's set of the row's columns.  The bundled cover
# job takes 4 * 4n + 102n + (n - 1) + 6 * 4n at level n (sakuma on the
# reduced base), about 572 000 at level 4000.  Just under the cap (fresh
# process, 2-CPU host, Python 3.11.7), cover on 61 generators of degree 1 at
# level 4000 (244 000 rows) took 0.41 s and 144 MB peak RSS, sakuma on 42 of
# them at level 494 (1 031 columns) 0.18 s and 50 MB, and fill along a slope
# of degree 0 on two generators at level 704 (704 columns) 0.09 s and 27 MB
MAX_MATRIX_ENTRIES = 1_000_000
ROW_ENTRIES = 4


# the most letters eliminate_conjugates reads and builds in all: every
# elimination reads each relator and rewrites each word, so a long
# presentation with many conjugate definitions is left partly reduced instead
# of rewritten once per definition
MAX_TIETZE_LETTERS = 1_000_000


def check_entries(rows, cols, nonzeros):
    """Raise ValueError when a rows x cols relator matrix with up to
    ``nonzeros`` nonzeros passes MAX_MATRIX_ENTRIES."""
    entries = ROW_ENTRIES * rows + nonzeros
    if entries > MAX_MATRIX_ENTRIES:
        raise ValueError(f"relator matrix of {rows} x {cols} with up to {nonzeros} nonzeros "
                         f"takes {entries} entries, more than {MAX_MATRIX_ENTRIES}")


def check_relator_matrix(p, appended=0):
    """``check_entries`` on p's relator matrix with ``appended`` columns: a
    nonzero per relator run, and one per generator in each appended column."""
    rows = len(p.generators)
    runs = sum(len(r.runs) for r in p.relators)
    check_entries(rows, len(p.relators) + appended, runs + appended * rows)


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

    def relator_matrix(self, columns=(), sparse=False):
        """Exponent-sum matrix, generators as rows and relators as columns.

        Each of ``columns``, a vector over the generators, is appended after
        the relators.  The matrix is a list of rows, or with ``sparse`` a
        ``snf.SparseMatrix``, built column by column with no dense grid:
        the form the cover commands hand to the Smith form.  Raises
        ValueError before it allocates when ``check_relator_matrix``
        refuses it.

        >>> p = Presentation("t", ("a", "b"), (parse_word("a b a^-1 b^2", "ab"),))
        >>> p.relator_matrix([[1, 0]])
        [[0, 1], [3, 0]]
        >>> p.relator_matrix([[1, 0]], sparse=True).columns
        {0: {1: 3}, 1: {0: 1}}
        """
        rows, cols = len(self.generators), len(self.relators)
        check_relator_matrix(self, len(columns))
        index = {g: i for i, g in enumerate(self.generators)}
        entries = {}
        for j, r in enumerate(self.relators):
            sums = {}
            for g, e in r.runs:
                sums[g] = sums.get(g, 0) + e
            if column := {index[g]: v for g, v in sums.items() if v}:
                entries[j] = column
        indices = range(rows)
        for j, column in enumerate(columns, cols):
            if len(column) != rows:
                raise ValueError(
                    f"appended column {j - cols} has {len(column)} entries, not {rows}")
            if nonzero := {i: column[i] for i in compress(indices, column)}:
                entries[j] = nonzero
        matrix = SparseMatrix._of(rows, cols + len(columns), entries)
        return matrix if sparse else [list(row) for row in matrix]

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
    return cokernel(p.relator_matrix(sparse=True))


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
