"""Finite cyclic covers: Reidemeister-Schreier rewriting, transfers, fillings.

A cyclic quotient map grades the generators over Z/n; the degree of a word
is its graded exponent sum.  The cover's coset space is Z/n itself and the
deck action is the coset shift c -> c + 1.  The Schreier transversal is a
spanning tree of the coset graph, in which generator g joins coset c to
c + deg g, so any grading onto Z/n is served.

Cover generators are named ``g@c`` for base generator g at coset c.  The
kernel presentation keeps all n * (base generators) symbols; its relators are
the n * (base relators) rewritten ones, then the n - 1 one-letter relators
that trivialize the tree-edge symbols; their exponent sums are the columns
of the relator matrix M.  Fillings enter as relator words after those, and
M is built from the augmented presentation.  Transfers enter as vectors: a
block S of them is appended to M, and a chain coker[M | S] ->>
coker[M | S | B1] ->> ... comes from one elimination of [M | S], in which
the later blocks ride along as passive columns (see ``snf``):
``transfer_quotients`` reads the transfer quotient and the transfer module
off one Smith form this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .abelian import cokernel_chain
from .laurent import substitute_monomial
from .polygcd import shared_root_count
from .presentations import Presentation, abelianize
from .words import Word, exponent_vector

# Cap on n times the letters of the words rewritten into an n-fold cover,
# checked for the relators and for the slopes.  Every letter becomes one
# pointer to a run shared through `CyclicQuotientMap.letters`: at 499 998
# letters, `cover --n 3` of <a, b | a^166665 b> takes 0.3-0.5 s and 26 MB peak
# RSS, and `fill` with a slope at the cap too 0.5-0.8 s and 30 MB; 3·10^6
# letters take 1.2-2.1 s and 58 MB (fresh process, 2-CPU host, Python
# 3.11.7; an interpreter that imports foxhom.cli alone peaks at 20 MB).  The
# bundled job needs 499 · (62 + 9) at n = 499.
MAX_COVER_LETTERS = 500_000


@dataclass(frozen=True)
class CyclicQuotientMap:
    """A surjection of the presented group onto Z/n via generator degrees.

    ``degrees`` assigns each generator an integer grading; it must reduce to
    a surjection (the degrees generate Z/n) and every relator must have
    total degree 0 mod n.
    """

    base: Presentation
    n: int
    degrees: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be at least 1")
        degs = {}
        for g in self.base.generators:
            if g not in self.degrees:
                raise ValueError(f"no degree for generator {g!r}")
            degs[g] = self.degrees[g] % self.n
        object.__setattr__(self, "degrees", degs)
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
            (g, s): tuple((cover_gen(g, c), s) for c in range(self.n))
            for g in self.base.generators
            for s in (1, -1)
        }

    def word_degree(self, word):
        vec = exponent_vector(word, self.base.generators)
        total = sum(d * self.degrees[g] for g, d in zip(self.base.generators, vec))
        return total % self.n


def cover_gen(g, c):
    return f"{g}@{c}"


@dataclass(frozen=True)
class CoverPresentation:
    """An n-fold cyclic cover and its kernel presentation.

    ``presentation`` presents the cover's group: one generator per (base
    generator, coset) pair, one rewritten relator per (base relator, coset)
    pair, then one relator per edge of the transversal tree, in the order
    the tree was grown.
    """

    quotient: CyclicQuotientMap
    presentation: Presentation

    @property
    def base(self):
        return self.quotient.base

    @property
    def n(self):
        return self.quotient.n

    def rewrite(self, word, start=0):
        """Rewrite a base word into cover generators, starting at a coset."""
        return _lifts(self.quotient, word, (start,))[0]


def _check_letters(n, words, what):
    """Raise before rewriting when n times the letters of words passes the cap."""
    letters = n * sum(map(len, words))
    if letters > MAX_COVER_LETTERS:
        raise ValueError(
            f"{n} cosets of {what} make {letters} letters, more than {MAX_COVER_LETTERS}"
        )


def _lifts(q, word, starts):
    """The rewrites of a base word into cover generators of q, one per start coset.

    One walk from coset 0 records each letter's shared run and coset offset;
    the lift from coset c reads each run at c + offset.
    """
    n = q.n
    coset = 0
    pattern = []
    letters = q.letters
    for g, step in word.single_letters():
        if step > 0:
            pattern.append((letters[g, 1], coset))
            coset = (coset + q.degrees[g]) % n
        else:
            coset = (coset - q.degrees[g]) % n
            pattern.append((letters[g, -1], coset))
    return [Word([runs[(c + o) % n] for runs, o in pattern]) for c in starts]


def reidemeister_schreier(p, q):
    """Present the kernel of a cyclic quotient map.

    The cover of a (g generators, r relators) presentation has n*g Schreier
    generators and n*r + n - 1 relators: the rewritten base relators, then
    the symbols of the n - 1 tree edges, which the transversal trivializes.
    The transversal representative of coset c + deg g is that of c times g
    along a tree edge (g, c).  Raises ``ValueError`` when n times the
    relator letters passes ``MAX_COVER_LETTERS``.

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
    _check_letters(n, p.relators, "relators")
    gens = tuple(cover_gen(g, c) for g in p.generators for c in range(n))
    relators = tuple(lift for r in p.relators for lift in _lifts(q, r, range(n)))

    # a spanning tree of the coset graph (g joins c to c + deg g), grown from
    # coset 0 one generator at a time in a stable sort by gcd(deg, n): a first
    # generator of coprime degree d spans it alone, at cosets 0, d, ..., (n - 2)d
    reached, seen, trivial = [0], {0}, []
    for g in sorted(p.generators, key=lambda g: gcd(q.degrees[g], n)):
        for c in reached:  # grows in the loop, so g is followed from new cosets too
            e = (c + q.degrees[g]) % n
            if e not in seen:
                seen.add(e)
                reached.append(e)
                trivial.append(Word([(cover_gen(g, c), 1)]))
    return CoverPresentation(q, Presentation(f"{p.name}~{n}fold", gens, relators + tuple(trivial)))


def _quotient(cover, columns, *passive):
    """The chain coker[M | columns] ->> coker[M | columns | B1] ->> ... as a list.

    M is the kernel presentation's relator matrix.  ``columns`` and each
    passive block B1, ... are lists of vectors over the cover generators:
    the columns are appended to M after its cell check, and the blocks ride
    along in the one elimination of [M | columns].
    """
    matrix = cover.presentation.relator_matrix()
    for i, row in enumerate(matrix):
        matrix[i] = row + [c[i] for c in columns]
    return cokernel_chain(matrix, passive)


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


@dataclass(frozen=True)
class FillingSpec:
    """Boundary slopes to fill, as words in the base generators."""

    slopes: tuple

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(self.slopes))
        if not self.slopes:
            raise ValueError("no slopes to fill")
        for s in self.slopes:
            if not s:
                raise ValueError("empty slope word")


def filled_relators(cover, spec):
    """Filling relators: one rewritten lift of w^o per shift orbit.

    For a slope w of degree d, o is the order of d in Z/n, and the orbits of
    the shift c -> c + d are the residues mod n/o.  The relator at orbit
    representative c is the rewrite of w^o from coset c.  Its column is that
    of t_c w^o t_c^-1 rewritten from coset 0, t_c the transversal
    representative, since the letters of t_c and t_c^-1 cancel.  Raises
    ``ValueError`` when n times the slope letters passes
    ``MAX_COVER_LETTERS``.
    """
    if not isinstance(spec, FillingSpec):
        spec = FillingSpec(tuple(spec))
    _check_letters(cover.n, spec.slopes, "slopes")
    out = []
    for w in spec.slopes:
        orbits = gcd(cover.n, cover.quotient.word_degree(w))
        power = w ** (cover.n // orbits)
        out.extend(_lifts(cover.quotient, power, range(orbits)))
    return out


def fill(cover, spec):
    """Homology after filling the given slopes in the cover.

    Each filled relator imposes its class as a relation; the result is the
    abelianization of the augmented kernel presentation.
    """
    p = cover.presentation
    extra = tuple(filled_relators(cover, spec))
    return abelianize(Presentation(p.name, p.generators, p.relators + extra))


def _sakuma_columns(cover, meridian, doubled):
    """tr(meridian), then 2 tr(g) for each doubled g, as vectors."""
    for g in (meridian, *doubled):
        if g not in cover.base.generators:
            raise ValueError(f"no base generator named {g!r}")
    columns = [transfer(cover, Word([(meridian, 1)]))]
    columns.extend([2 * v for v in transfer(cover, Word([(g, 1)]))] for g in doubled)
    return columns


def sakuma_quotient(cover, meridian="m", doubled=("s", "t")):
    """Quotient of the cover homology by tr(meridian) and doubled transfers.

    Models the filled manifold's homology as H_1(cover) / <tr(m), tr(2s),
    tr(2t)> for the bundled data; the generator names are parameters so the
    construction is reusable.
    """
    return _quotient(cover, _sakuma_columns(cover, meridian, doubled))[0]


def h_n_module(cover):
    """Cover homology modulo the transfers of every base generator.

    For n = 1 the transfers generate everything and the result is trivial.
    """
    transfers = [transfer(cover, Word([(g, 1)])) for g in cover.base.generators]
    return _quotient(cover, transfers)[0]


def transfer_quotients(cover, meridian="m", doubled=("s", "t")):
    """(sakuma_quotient, h_n_module) of a cover, from one elimination.

    The sakuma columns lie in the span of the transfers, so the transfer
    module is the transfer quotient modulo every transfer.  The sakuma
    columns already hold tr(meridian), so the transfers of the other base
    generators ride along as passive columns in the Smith form of the
    transfer quotient: coker[M | S | T - tr(meridian)] = coker[M | T].
    """
    columns = _sakuma_columns(cover, meridian, doubled)
    transfers = [transfer(cover, Word([(g, 1)])) for g in cover.base.generators if g != meridian]
    return tuple(_quotient(cover, columns, transfers))


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
