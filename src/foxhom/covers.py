"""Finite cyclic covers: Reidemeister-Schreier rewriting, transfers, fillings.

A cyclic quotient map grades the generators over Z/n; the degree of a word
is its graded exponent sum.  The cover's coset space is Z/n itself and the
deck action is the coset shift c -> c + 1.  The Schreier transversal is a
spanning tree of the coset graph, in which generator g joins coset c to
c + deg g, so any grading onto Z/n is served.  Any such tree presents the
same group; the tree is grown first from the generators of least
gcd(deg g, n), the one with the most base relator letters first, because
the Smith form deletes each tree row with all its entries before any
arithmetic (see ``snf``).  On the reduced bundled base that is t, with 38
letters, where the meridian m has 18.

Cover generators are named ``g@c`` for base generator g at coset c.  The
kernel presentation has the n * (base relators) rewritten relators, then
n - 1 one-letter relators that trivialize the tree edges; their exponent
sums are the columns of the relator matrix M.  Every cover group here is
the cokernel of one ``relator_matrix(columns, sparse=True)``: filled slopes
and transfers are vectors appended to M, counted by
``check_relator_matrix`` before they are built, and M reaches the Smith form
as sparse columns.  The transfer quotient
appends the paper's tr(m), 2 tr(s) and 2 tr(t) (``SAKUMA_TRANSFERS``), the
transfer module every tr(g); ``transfer_quotients`` lets the transfers ride
along as passive columns (see ``snf``), so one Smith form gives both.

Lifts need no free reduction.  A lift is built run by run: a run of degree
0 mod n stays at one coset and lifts to one run, any other run steps to a
new coset at each letter, and adjacent runs of a reduced base word name
distinct generators.  So the rewrite of a freely reduced word is freely
reduced (Magnus, Karrass and Solitar), and the rewrite builds its words
and its kernel presentation with the trusted ``_of`` constructors, which
``Word`` keeps and ``Presentation`` inherits from ``Record``; their checked
constructors serve outside input.
The filling columns read the same run pattern, summed per shift orbit.

The cover commands (``cover``, ``fill``, ``sakuma``, ``rhs-sweep`` and
``verify-paper``'s ``rhs`` item) first pass their job through
``reduce_job``, once per command: a generator that a relator defines as a
conjugate of another, such as m1 and m2 in ``n-final``, is eliminated from
the base before any level is rewritten, and every group is unchanged.  The
library functions here take the base they are given and do not reduce it.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from ._record import Record
from .abelian import cokernel, cokernel_chain
from .laurent import substitute_monomial
from .polygcd import shared_root_count
from .presentations import (
    Presentation,
    abelianize,
    check_entries,
    check_relator_matrix,
    eliminate_conjugates,
)
from .words import Word, exponent_vector

# Cap on n times the letters of the words rewritten into an n-fold cover,
# checked for the relators and for the slopes; a relator letter becomes at
# most one pointer to a run shared through `CyclicQuotientMap.letters`.  At
# 499 998 letters `cover --n 3` of <a, b | a^166665 b> takes 0.35-0.5 s and 37 MB
# peak RSS, `fill` with a slope at the cap 0.45-0.5 s and 38 MB, and 3·10^6
# letters 1.1-1.5 s and 127 MB (fresh process, 2-CPU host, Python 3.11.7;
# foxhom.cli alone peaks at 20 MB).  The cover commands count the relators and
# slopes of `reduce_job`'s base, which keeps the job as it was when the
# reduced one would pass the cap: at the level cap of 4000 the bundled job
# needs 4000 · 102 relator and 4000 · 9 slope letters.
MAX_COVER_LETTERS = 500_000

# the paper's sakuma columns k tr(g) as (g, k): tr(m), 2 tr(s) and 2 tr(t)
SAKUMA_TRANSFERS = (("m", 1), ("s", 2), ("t", 2))


class CyclicQuotientMap(Record):
    """A surjection of the presented group onto Z/n via generator degrees.

    ``degrees`` assigns each generator an integer grading; it must reduce to
    a surjection (the degrees generate Z/n) and every relator must have
    total degree 0 mod n.
    """

    _fields = ("base", "n", "degrees")

    def __init__(self, base, n, degrees):
        if n < 1:
            raise ValueError("modulus must be at least 1")
        degs = {}
        for g in base.generators:
            if g not in degrees:
                raise ValueError(f"no degree for generator {g!r}")
            degs[g] = degrees[g] % n
        super().__init__(base, n, degs)
        span = gcd(self.n, *degs.values()) if degs else self.n
        if span != 1:
            raise ValueError(f"degrees do not generate Z/{self.n}")
        for i, r in enumerate(self.base.relators):
            if self.word_degree(r) != 0:
                raise ValueError(f"relator {i} has nonzero degree mod {self.n}")

    @cached_property
    def letters(self):
        """{(g, s): the runs (g@c, s) indexed by coset c}, for s = 1 and -1.

        Built once per map, so every rewritten letter shares its run.
        """
        return {
            (g, s): tuple((f"{g}@{c}", s) for c in range(self.n))
            for g in self.base.generators
            for s in (1, -1)
        }

    def degree(self, g):
        """The degree of base generator g; ``ValueError`` names any other letter."""
        d = self.degrees.get(g)
        if d is None:
            raise ValueError(f"letter {g!r} is not a generator of {self.base.name}")
        return d

    def word_degree(self, word):
        return sum(e * self.degree(g) for g, e in word.runs) % self.n


class CoverPresentation(Record):
    """An n-fold cyclic cover and its kernel presentation.

    ``presentation`` presents the cover's group: one generator per (base
    generator, coset) pair, one rewritten relator per (base relator, coset)
    pair, then one relator per edge of the transversal tree, in the order
    the tree was grown.
    """

    _fields = ("quotient", "presentation")

    def __init__(self, quotient, presentation):
        super().__init__(quotient, presentation)

    @property
    def base(self):
        return self.quotient.base

    @property
    def n(self):
        return self.quotient.n

    def rewrite(self, word, start=0):
        """Rewrite a base word into cover generators, starting at a coset."""
        return _lifts(self.quotient, word, (start,))[0]


def _check_letters(n, lengths, what):
    """Raise before rewriting when n times the summed word lengths passes the cap."""
    letters = n * sum(lengths)
    if letters > MAX_COVER_LETTERS:
        raise ValueError(
            f"{n} cosets of {what} make {letters} letters, more than {MAX_COVER_LETTERS}"
        )


def _lifted_runs(q, word):
    """The one walk of a base word from coset 0, as (g, e, offset) per lifted run.

    The rewrite from coset c holds (g@(c + offset), e).  A run of degree 0
    mod n lifts to one run, any other run (g, e) to |e| runs of +-1 at
    successive cosets.  ``ValueError`` names a letter outside the base.
    """
    n = q.n
    coset = 0
    for g, e in word.runs:
        d = q.degree(g)
        if not d:
            yield g, e, coset
        elif e > 0:
            for _ in range(e):
                yield g, 1, coset
                coset = (coset + d) % n
        else:
            for _ in range(-e):
                coset = (coset - d) % n
                yield g, -1, coset


def _lifts(q, word, starts):
    """The rewrites of a base word from each start coset, reduced and maximal as built."""
    n, letters = q.n, q.letters
    pattern = [  # (the lifted run at each coset, offset from the start coset)
        (letters[g, e] if e in (1, -1) else tuple((x, e) for x, _ in letters[g, 1]), offset)
        for g, e, offset in _lifted_runs(q, word)
    ]
    return [Word._of(tuple([runs[(c + o) % n] for runs, o in pattern])) for c in starts]


def reidemeister_schreier(p, q):
    """Present the kernel of a cyclic quotient map.

    The cover of a (g generators, r relators) presentation has n*g Schreier
    generators and n*r + n - 1 relators: the rewritten base relators, then
    the symbols of the n - 1 tree edges, which the transversal trivializes.
    The transversal representative of coset c + deg g is that of c times g
    along a tree edge (g, c).  Raises ``ValueError`` before anything is
    built when n times the relator letters passes ``MAX_COVER_LETTERS``, or
    ``check_entries`` refuses the n*g rows with a nonzero per letter.

    The tree takes the generators in a stable sort by (gcd(deg g, n),
    -letters(g)), letters(g) being the sum of |e| over g's runs in the base
    relators: so with a generator of degree coprime to n, it is the powers
    of the one with the most letters, the first in base order on a tie.
    Every tree relator is a lone +-1 column, whose row the Smith form
    deletes with every entry in it before any row operation, so the rows of
    the most-used generator leave the sparsest matrix to eliminate.  Any
    Schreier transversal presents the same group (Magnus, Karrass and
    Solitar), so only the n - 1 tree relators depend on this choice.

    >>> free = Presentation("free", ("a", "b"), ())
    >>> cover = reidemeister_schreier(free, CyclicQuotientMap(free, 6, {"a": 2, "b": 3}))
    >>> [str(r) for r in cover.presentation.relators]
    ['a@0', 'a@2', 'b@0', 'b@2', 'b@4']
    """
    if not isinstance(q, CyclicQuotientMap):
        raise TypeError("need a CyclicQuotientMap")
    if q.base is not p and q.base != p:
        raise ValueError("quotient map built from a different presentation")
    n = q.n
    letters = dict.fromkeys(p.generators, 0)  # each generator's relator letters
    for r in p.relators:
        for g, e in r.runs:
            letters[g] += abs(e)
    total = sum(letters.values())
    _check_letters(n, (total,), "relators")
    check_entries(n * len(p.generators), n * len(p.relators) + n - 1, n * total + n - 1)
    gens = tuple(name for g in p.generators for name, _ in q.letters[g, 1])
    relators = tuple(lift for r in p.relators for lift in _lifts(q, r, range(n)))

    # a spanning tree of the coset graph (g joins c to c + deg g), grown from
    # coset 0 one generator at a time in a stable sort by (gcd(deg, n),
    # -letters): a first generator of coprime degree d spans it alone, at
    # cosets 0, d, ..., (n - 2)d
    reached, seen, trivial = [0], {0}, []
    for g in sorted(p.generators, key=lambda g: (gcd(q.degrees[g], n), -letters[g])):
        for c in reached:  # grows in the loop, so g is followed from new cosets too
            e = (c + q.degrees[g]) % n
            if e not in seen:
                seen.add(e)
                reached.append(e)
                trivial.append(Word._of((q.letters[g, 1][c],)))
    # the names g@c are valid and distinct (the text after the last @ is c),
    # and every letter is one of them, taken from q.letters: no check needed
    kernel = Presentation._of(f"{p.name}~{n}fold", gens, relators + tuple(trivial))
    return CoverPresentation(q, kernel)


def h1_cover(cover):
    """First homology of the n-fold cyclic cover.

    >>> free = Presentation("free", ("a", "b"), ())
    >>> q = CyclicQuotientMap(free, 2, {"a": 1, "b": 0})
    >>> print(h1_cover(reidemeister_schreier(free, q)))
    Z^3
    """
    return abelianize(cover.presentation)


def transfer(cover, word):
    """Class of the full preimage of a base loop, as an abelianized vector.

    The transfer sums the lifts of the loop over all cosets, so the vector
    has the exponent sum of g in ``word`` at every coordinate (g, c).  It is
    additive in the homology class of ``word`` and fixed by the deck action.
    """
    vec = exponent_vector(word, cover.base.generators)
    return [total for total in vec for _ in range(cover.n)]


class FillingSpec(Record):
    """Boundary slopes to fill, as words in the base generators."""

    _fields = ("slopes",)

    def __init__(self, slopes):
        super().__init__(tuple(slopes))
        if not self.slopes:
            raise ValueError("no slopes to fill")
        if not all(self.slopes):
            raise ValueError("empty slope word")


def filled_relators(cover, spec):
    """Filling columns: the class of one lift of w^(n/o) per shift orbit.

    For a slope w of degree d, the o = gcd(n, d) orbits of c -> c + d are
    the residues mod o.  The lift of w^(n/o) from c holds each lifted run
    (g, e, offset) of w at g@x for every x = c + offset (mod o): a partial
    transfer (Fox).  ``ValueError`` before any column is built when n times
    the slope letters passes ``MAX_COVER_LETTERS``, a slope letter is not a
    base generator, or ``check_relator_matrix`` refuses [M | columns].
    """
    spec = spec if isinstance(spec, FillingSpec) else FillingSpec(spec)
    n, q, p = cover.n, cover.quotient, cover.presentation
    _check_letters(n, map(len, spec.slopes), "slopes")
    orbits = [gcd(n, q.word_degree(w)) for w in spec.slopes]
    check_relator_matrix(p, sum(orbits))
    first = {g: i * n for i, g in enumerate(cover.base.generators)}
    out = []
    for w, o in zip(spec.slopes, orbits):
        steps = {}  # {(g, offset mod o): summed e}
        for g, e, offset in _lifted_runs(q, w):
            steps[g, offset % o] = steps.get((g, offset % o), 0) + e
        for c in range(o):
            column = [0] * len(p.generators)
            for (g, r), total in steps.items():
                column[first[g] + (c + r) % o : first[g] + n : o] = [total] * (n // o)
            out.append(column)
    return out


def fill(cover, spec):
    """Homology after filling the given slopes in the cover."""
    return cokernel(cover.presentation.relator_matrix(filled_relators(cover, spec), sparse=True))


def _letter(g):
    return Word._of(((g, 1),))


def sakuma_transfers(base, words=None):
    """``SAKUMA_TRANSFERS`` as (word, k) pairs over ``base``.

    A generator that ``reduce_job`` eliminated is read through its word in
    ``words``; ``ValueError`` names a g that base lacks.
    """
    words = words or {}
    out = []
    for g, k in SAKUMA_TRANSFERS:
        if g not in words and g not in base.generators:
            raise ValueError(f"no base generator named {g!r}")
        out.append((words[g] if g in words else _letter(g), k))
    return tuple(out)


def _transfer_chain(cover, *blocks):
    """Cokernels of [M | B1], [M | B1 | B2], ... for blocks of (word, k) as k tr(word).

    ``check_relator_matrix`` passes [M | every block] before any column is
    built.
    """
    p = cover.presentation
    check_relator_matrix(p, sum(map(len, blocks)))
    first, *rest = [[[k * v for v in transfer(cover, w)] for w, k in block]
                    for block in blocks]
    return cokernel_chain(p.relator_matrix(first, sparse=True), rest)


def sakuma_quotient(cover):
    """Quotient of the cover homology by the paper's tr(m), 2 tr(s) and 2 tr(t).

    The filled manifold's homology for the bundled data (``verify-paper``'s
    ``rhs`` item checks this); the base must have generators m, s and t.
    """
    return _transfer_chain(cover, sakuma_transfers(cover.base))[0]


def h_n_module(cover):
    """Cover homology modulo the transfers of every base generator.

    For n = 1 the transfers generate everything and the result is trivial.
    """
    return _transfer_chain(cover, [(_letter(g), 1) for g in cover.base.generators])[0]


def transfer_quotients(cover, words=None):
    """(sakuma_quotient, h_n_module) of a cover, from one elimination.

    The sakuma columns S lie in the span of the transfers and hold tr(m), so
    the transfers T of the other base generators ride along as passive
    columns: coker[M | S | T] = coker[M | every transfer].  ``words`` reads
    the sakuma generators that ``reduce_job`` eliminated; the transfer of
    such a generator, a conjugate of a base letter h, is tr(h), so the base
    generators alone give every transfer.
    """
    sakuma = sakuma_transfers(cover.base, words)
    others = [(w, 1) for w in map(_letter, cover.base.generators) if (w, 1) not in sakuma]
    return tuple(_transfer_chain(cover, sakuma, others))


def reduce_job(job, top):
    """A cover job over its base with the conjugate-defined generators eliminated.

    The base goes through ``presentations.eliminate_conjugates``; the
    eliminated generators lose their degrees, the slopes are rewritten
    through their words, and ``job["words"]`` keeps the words for the
    transfers (``transfer_quotients``).  Every cover group is a Tietze
    invariant, so each level gives the groups of the job as it was.  The
    cover commands call this once per command, with ``top`` their highest
    level; no library function does.

    The job stays as it is, with no words, unless every generator has a
    degree, every relator has integer degree 0, and no slope rewrites to the
    empty word.  Then an eliminated g has the degree of its word's letter h,
    up to sign, and every level meets the same quotient map checks, in the
    same order, as the job it came from.  It also stays when
    ``_check_letters`` refuses at level ``top`` its reduced relators or its
    slopes as rewritten before free reduction: the reduction may lengthen
    them, and must not refuse a level that the job as it was can take.
    """
    p, degrees = job["presentation"], job["degrees"]
    unchanged = {**job, "words": {}}
    if any(g not in degrees for g in p.generators) or any(
        sum(e * degrees[g] for g, e in r.runs) for r in p.relators
    ):
        return unchanged
    reduced, words = eliminate_conjugates(p)
    # the slopes' letters as substitute_all spells them, run by run: a run
    # (g, k) of an eliminated g = u h^e u^-1 is u h^(e k) u^-1 (Word.__pow__),
    # len(g's word) - |e| + |e k| letters, counted in O(1) with no word built
    size = {g: (len(w), abs(w.conjugated_run()[1])) for g, w in words.items()}
    spelled = (size[g][0] + (abs(k) - 1) * size[g][1] if g in size else abs(k)
               for w in job["fill"] for g, k in w.runs)
    try:
        _check_letters(top, map(len, reduced.relators), "relators")
        _check_letters(top, spelled, "slopes")
    except ValueError:
        return unchanged
    slopes = tuple(w.substitute_all(words) for w in job["fill"])
    if not all(slopes):
        return unchanged
    return {
        **job,
        "presentation": reduced,
        "degrees": {g: degrees[g] for g in reduced.generators},
        "fill": slopes,
        "words": words,
    }


def branched_betti(delta, k, n):
    """First Betti number of the (n, k) branched cover of a two-variable link.

    Counts the roots shared by delta(t^k, t) and nu_n.  The boundary factor
    (t - 1) is left out: nu_n(1) = n, so it has no root among the nontrivial
    n-th roots of unity, and (t - 1) * delta(t^k, t) is zero exactly when
    delta(t^k, t) is.  A zero specialization returns the flagged count
    n - 1: the Betti number is positive, its exact value is not asserted.
    """
    if not (0 < k < n):
        raise ValueError("need 0 < k < n")
    if gcd(k, n) != 1:
        raise ValueError(f"k = {k} and n = {n} are not coprime")
    if len(delta.vars) != 2:
        raise ValueError("need a two-variable polynomial")
    a, b = delta.vars
    spec = substitute_monomial(delta, {a: (1, (k,)), b: (1, (1,))}, ("t",))
    return shared_root_count(spec, n)


def mutation_invariance_check(delta_a, delta_b):
    """Whether two two-variable polynomials agree on the diagonal, up to unit.

    The diagonal specialization x, y -> t is insensitive to mutation, so
    mutant pairs must pass this check.
    """
    out = []
    for p in (delta_a, delta_b):
        if len(p.vars) != 2:
            raise ValueError("need two-variable polynomials")
        a, b = p.vars
        out.append(substitute_monomial(p, {a: (1, (1,)), b: (1, (1,))}, ("t",)))
    return out[0].unit_equivalent(out[1])
