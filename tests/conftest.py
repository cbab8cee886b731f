from math import gcd

import pytest

from foxhom import datasets
from foxhom.abelian import AbelianGroup, cokernel
from foxhom.covers import CoverPresentation, reidemeister_schreier
from foxhom.fox import AbelianizationMap, alexander_matrix
from foxhom.polymat import LaurentMatrix, determinant
from foxhom.presentations import Presentation
from foxhom.snf import smith_normal_form
from foxhom.words import Word, exponent_vector


@pytest.fixture(scope="session")
def n_final():
    return datasets.load_presentation("n-final")


@pytest.fixture(scope="session")
def free_abelian_map(n_final):
    return datasets.load_map("map-free-abelian", source=n_final.generators)


@pytest.fixture(scope="session")
def infinite_cyclic_map(n_final):
    return datasets.load_map("map-infinite-cyclic", source=n_final.generators)


@pytest.fixture(scope="session")
def reference():
    return datasets.load_reference()


@pytest.fixture(scope="session")
def cover_job():
    return datasets.standard_cover_job()


@pytest.fixture(scope="session")
def same_row_lattice():
    """Whether the rows of ``a`` and the rows of ``b`` span one lattice in Z^m.

    L(a) lies in L(a + b), so Z^m/L(a) maps onto Z^m/L(a + b).  Equal Smith
    divisors make the two groups isomorphic, and a finitely generated abelian
    group is Hopfian, so that surjection is injective: L(a) = L(a + b).  The
    same holds for b, hence L(a) = L(b).
    """

    def same(a, b):
        return len({smith_normal_form(rows).divisors for rows in (a, a + b, b)}) == 1

    return same


@pytest.fixture(scope="session")
def all_minors():
    """The row-deletion minors of a deficiency-one grid, one determinant each.

    The oracle for ``fox.codim_one_minors``, which takes one determinant and
    gets the other minors by exact division: generator -> exact minor.
    """

    def minors(grid):
        out = {}
        for i, g in enumerate(grid.row_labels):
            keep = [k for k in range(len(grid.row_labels)) if k != i]
            rest = LaurentMatrix(
                grid.vars,
                [grid.row_labels[k] for k in keep],
                grid.col_labels,
                [grid.entries[k] for k in keep],
            )
            out[g] = determinant(rest)
        return out

    return minors


@pytest.fixture(scope="session")
def fox_cover_group():
    """The cover groups of ``covers`` by the Fox route, with no rewriting at all.

    ``fox_cover_group(p, degrees, n, slopes=(), transfers=())`` is H_1 of the
    n-fold cyclic cover graded by the integer ``degrees``, with each slope
    filled and the relation k tr(g) = 0 for each (g, k) in ``transfers``; g
    is a generator's name or a Word, whose transfer is its exponent vector
    on every coset.

    The cover's cellular chains are the Fox complex over Z[Z/n]: the Fox
    matrix under g -> t^deg(g), exponents folded mod n and each relator
    column expanded at the n shifts, is the boundary of the 2-cells, with
    row i * n + c for t^c times generator i.  Its cokernel is H_1 + Z^(n - 1),
    the second summand being the augmentation ideal of Z[Z/n], which the
    1-cells map onto and which is free.  A slope w of degree d closes up as
    w^(n/o), o = gcd(n, d), whose Fox column is N_o dw with
    N_o = 1 + t^o + ... + t^(n - o), at shifts 0..o - 1.  k tr(g) is k times
    the all-ones vector on generator g's block.
    """

    def group(p, degrees, n, slopes=(), transfers=()):
        gens = p.generators
        phi = AbelianizationMap(gens, ("t",), {g: (1, (degrees[g],)) for g in gens})
        grid = alexander_matrix(Presentation(p.name, gens, p.relators + tuple(slopes)), phi)
        lifts = [((0,), range(n))] * len(p.relators)  # (norm exponents, shifts) per column
        for w in slopes:
            o = gcd(n, sum(e * degrees[g] for g, e in w.runs))
            lifts.append((range(0, n, o), range(o)))
        columns = []
        for j, (norm, shifts) in enumerate(lifts):
            for c in shifts:
                column = [0] * (len(gens) * n)
                for i, row in enumerate(grid.entries):
                    for (e,), coef in row[j].terms.items():
                        for s in norm:
                            column[i * n + (e + s + c) % n] += coef
                columns.append(column)
        for g, k in transfers:
            vec = exponent_vector(g if isinstance(g, Word) else Word([(g, 1)]), gens)
            columns.append([k * vec[r // n] for r in range(len(gens) * n)])
        rows = [list(r) for r in zip(*columns)] if columns else [[] for _ in gens * n]
        h = cokernel(rows)
        return AbelianGroup(h.rank - (n - 1), h.torsion)

    return group



@pytest.fixture(scope="session")
def braid_knot():
    """The group of a braid's closure, in its Wirtinger presentation.

    ``braid_knot(word, strands)`` reads ``word`` as Artin generators, i for
    sigma_i and -i for its inverse, 1 <= i < strands.  The strands start as
    the arcs x1, ..., xs.  The k-th crossing applies the Artin action to the
    arcs at positions i and i + 1, sigma_i: (a, b) -> (a b a^-1, a) and its
    inverse: (a, b) -> (b, b^-1 a b), and names the conjugate it makes as a
    new arc yk, with the relator yk^-1 w.  The closure joins the arc that
    ends at each position to the strand that starts there.  So every relator
    defines one letter as a conjugate of another (Crowell and Fox,
    "Introduction to Knot Theory", 1963; Birman, "Braids, Links, and Mapping
    Class Groups", 1974).
    """

    def knot(word, strands):
        start = [f"x{j}" for j in range(1, strands + 1)]
        arcs, gens, relators = list(start), list(start), []
        for k, s in enumerate(word, 1):
            i = abs(s) - 1
            a, b = Word([(arcs[i], 1)]), Word([(arcs[i + 1], 1)])
            if s > 0:
                conjugate, arcs[i], arcs[i + 1] = a * b * ~a, f"y{k}", arcs[i]
            else:
                conjugate, arcs[i], arcs[i + 1] = ~b * a * b, arcs[i + 1], f"y{k}"
            gens.append(f"y{k}")
            relators.append(Word([(f"y{k}", -1)]) * conjugate)
        relators += [Word([(end, -1), (first, 1)]) for end, first in zip(arcs, start)
                     if end != first]
        return Presentation(f"braid{list(word)}", tuple(gens), tuple(relators))

    return knot


@pytest.fixture(scope="session")
def base_order_cover():
    """The cover of ``reidemeister_schreier`` with its tree grown in base order.

    ``base_order_cover(p, q)`` keeps the rewritten relators and trivializes
    the tree that a stable sort of the generators by gcd(deg g, n) alone
    grows: with a generator of coprime degree, the powers of the first one.
    It is the transversal rule that the relator-letter order replaced, so a
    differential against it checks that the choice of tree changes no group
    (any Schreier transversal presents the kernel).
    """

    def build(p, q):
        n = q.n
        kernel = reidemeister_schreier(p, q).presentation
        rewritten = kernel.relators[: n * len(p.relators)]
        reached, seen, trivial = [0], {0}, []
        for g in sorted(p.generators, key=lambda g: gcd(q.degrees[g], n)):
            for c in reached:
                e = (c + q.degrees[g]) % n
                if e not in seen:
                    seen.add(e)
                    reached.append(e)
                    trivial.append(Word([(f"{g}@{c}", 1)]))
        tree = Presentation(kernel.name, kernel.generators, rewritten + tuple(trivial))
        return CoverPresentation(q, tree)

    return build


@pytest.fixture(scope="session")
def cover_order():
    """|det(C^n - I)| for the companion matrix C of a monic delta.

    ``cover_order(delta, n)`` reads ``delta`` as integer coefficients from
    the constant term up.  For a knot's Alexander polynomial, when it is
    nonzero, this is the order |T_n| of the torsion of H_1 = Z + T_n of the
    n-fold cyclic cover of the complement: the product of delta over the
    n-th roots of unity, delta(1) being +-1 (Fox 1956; Weber 1979).  It is
    zero when some root of delta is an n-th root of unity, and then H_1 has
    a larger rank.  An integer matrix power and a Bareiss determinant: no
    Smith form.
    """

    def order(delta, n):
        *low, lead = delta
        if lead not in (1, -1):
            raise ValueError("need a monic polynomial")
        d = len(low)
        # C e_i = e_(i + 1) for i < d - 1, and C e_(d - 1) = -low / lead
        base = [[int(i == j + 1) for j in range(d - 1)] + [-a * lead] for i, a in enumerate(low)]
        power = [[int(i == j) for j in range(d)] for i in range(d)]

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)]
                    for i in range(d)]

        while n:
            if n & 1:
                power = mul(power, base)
            base, n = mul(base, base), n >> 1
        m = [[power[i][j] - (i == j) for j in range(d)] for i in range(d)]
        sign, prev = 1, 1
        for k in range(d):
            pivot = next((i for i in range(k, d) if m[i][k]), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot], sign = m[pivot], m[k], -sign
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return abs(sign * prev)

    return order
