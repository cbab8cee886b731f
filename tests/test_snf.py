import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from foxhom.snf import (
    hermite_normal_form,
    lattice_contains,
    lattice_equal,
    smith_normal_form,
)

# ---- independent oracles (kept free of the code under test) ----------


def det_oracle(rows):
    """Exact determinant via fraction elimination."""
    n = len(rows)
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def determinantal_divisors(matrix):
    """d_k = gcd of all k x k minors; divisor chain via successive ratios."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    chain = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ridx in combinations(range(rows), k):
            for cidx in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in cidx] for i in ridx]
                g = gcd(g, det_oracle(sub))
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
    return tuple(chain)


# ---- examples ---------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 2]]).divisors == (1, 2)
    assert smith_normal_form([[2, 4], [6, 8]]).divisors == (2, 4)
    f = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert f.divisors == () and f.cokernel_rank == 2


def test_snf_empty():
    assert smith_normal_form([]).divisors == ()
    assert smith_normal_form([[], []]).cokernel_rank == 2


def test_snf_chain_condition():
    rng = random.Random(5)
    for _ in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        divisors = smith_normal_form(m).divisors
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


def test_snf_matches_determinantal_divisor_oracle():
    rng = random.Random(17)
    for _ in range(120):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m).divisors == determinantal_divisors(m)


def test_snf_transforms_diagonalize():
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        f = smith_normal_form(m, transforms=True)
        u, v = [list(r) for r in f.U], [list(r) for r in f.V]
        assert abs(det_oracle(u)) == 1
        assert abs(det_oracle(v)) == 1
        um = [
            [sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)
        ]
        umv = [
            [sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)
        ]
        expected = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(f.divisors):
            expected[i][i] = d
        assert umv == expected


def test_snf_handles_entry_growth():
    # dense structured matrix of the kind produced by filled covers
    rng = random.Random(31)
    rows = 30
    m = [[rng.randrange(-3, 4) for _ in range(32)] for _ in range(rows)]
    f = smith_normal_form(m)
    assert len(f.divisors) <= 30
    for a, b in zip(f.divisors, f.divisors[1:]):
        assert b % a == 0


def test_hermite_examples():
    assert hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert hermite_normal_form([[0, 0]]) == []


def test_hermite_canonical_under_row_operations():
    rng = random.Random(43)
    for _ in range(80):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        h = hermite_normal_form(m)
        shuffled = [row[:] for row in m]
        rng.shuffle(shuffled)
        if len(shuffled) > 1:
            shuffled[0] = [
                a + 3 * b for a, b in zip(shuffled[0], shuffled[1])
            ]
        assert hermite_normal_form(shuffled) == h
        assert lattice_equal(m, shuffled)


def test_lattice_membership():
    h = hermite_normal_form([[2, 0], [0, 3]])
    assert lattice_contains(h, [4, 3])
    assert not lattice_contains(h, [1, 0])
    assert lattice_contains(h, [0, 0])


def test_lattice_equal_detects_difference():
    assert not lattice_equal([[2, 0]], [[1, 0]])
    assert lattice_equal([[1, 1], [0, 2]], [[1, -1], [0, 2]])
