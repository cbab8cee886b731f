import pytest

from foxhom import datasets
from foxhom.polymat import LaurentMatrix, determinant
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
