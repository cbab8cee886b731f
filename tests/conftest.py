from math import gcd

import pytest

from foxhom import datasets
from foxhom.abelian import AbelianGroup, cokernel
from foxhom.fox import AbelianizationMap, alexander_matrix
from foxhom.polymat import LaurentMatrix, determinant
from foxhom.presentations import Presentation
from foxhom.snf import smith_normal_form


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
    filled and the relation k tr(g) = 0 for each (g, k) in ``transfers``.

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
            i = gens.index(g)
            columns.append([k * (i * n <= r < (i + 1) * n) for r in range(len(gens) * n)])
        rows = [list(r) for r in zip(*columns)] if columns else [[] for _ in gens * n]
        h = cokernel(rows)
        return AbelianGroup(h.rank - (n - 1), h.torsion)

    return group
