import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from foxhom import abelian, cli, covers, snf
from foxhom.snf import smith_normal_form

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


def dense_smith_divisors(matrix):
    """Dense Smith form, divisors only: the reference for the sparse engine.

    Pivots on the smallest entry of the whole trailing block, reduces its row
    and column with symmetric remainders, and restores the divisor chain by
    adding an offending row to the pivot row.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [[int(v) for v in row] for row in matrix]

    def quotient(a, p):
        q, r = divmod(a, p)
        return q + 1 if 2 * r > p else q

    t = 0
    while t < rows and t < cols:
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    v = m[i][j]
                    if v and (pivot is None or abs(v) < abs(pivot[2])):
                        pivot = (i, j, v)
            if pivot is None:
                break
            m[t], m[pivot[0]] = m[pivot[0]], m[t]
            for row in m:
                row[t], row[pivot[1]] = row[pivot[1]], row[t]
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
            p = m[t][t]
            progress = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = quotient(m[i][t], p)
                    m[i] = [d - q * s for d, s in zip(m[i], m[t])]
                    progress = progress or bool(m[i][t])
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = quotient(m[t][j], p)
                    for row in m:
                        row[j] -= q * row[t]
                    progress = progress or bool(m[t][j])
            if progress:
                continue
            offender = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols) if m[i][j] % p),
                None,
            )
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
        if pivot is None:
            break
        t += 1
    return tuple(m[i][i] for i in range(min(rows, cols)) if m[i][i])


def single_loop_smith_divisors(matrix):
    """The least-key loop run on every pivot, units included: the oracle for
    the two-phase engine, which must take the same pivots and divisors.

    Each step pivots on the column key (least |entry|, nnz, index), in the
    row of that value with the fewest nonzeros, and runs the Euclid path even
    for a pivot of 1.
    """
    rows = len(matrix)
    columns, in_row = {}, [set() for _ in range(rows)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                columns.setdefault(j, {})[i] = v
                in_row[i].add(j)

    def quotient(a, p):
        q, r = divmod(a, p)
        return q + 1 if 2 * r > p else q

    pivots = []
    while columns:
        a, _, c = min((min(map(abs, col.values())), len(col), j) for j, col in columns.items())
        pivot_col = columns[c]
        _, r = min((len(in_row[i]), i) for i, v in pivot_col.items() if abs(v) == a)
        if pivot_col[r] < 0:
            for i in pivot_col:
                pivot_col[i] = -pivot_col[i]
        p = pivot_col[r]
        for i in [i for i in pivot_col if i != r]:
            q = quotient(pivot_col[i], p)
            for j in in_row[r]:
                col = columns[j]
                old = col.get(i, 0)
                v = old - q * col[r]
                if v:
                    col[i] = v
                    in_row[i].add(j)
                else:
                    col.pop(i, None)
                    in_row[i].discard(j)
        if len(pivot_col) > 1:
            continue
        for j in [j for j in in_row[r] if j != c]:
            col = columns[j]
            v = col[r] - quotient(col[r], p) * p
            if v:
                col[r] = v
            else:
                del col[r]
                in_row[r].discard(j)
                if not col:
                    del columns[j]
        if len(in_row[r]) == 1:
            pivots.append(p)
            del columns[c]
            in_row[r].clear()
    return pairwise_sweep(pivots)


def pairwise_sweep(pivots):
    """Sorted pivots made a divisor chain by (gcd, lcm) on every pair, always."""
    chain = sorted(pivots)
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] * chain[b] // g
    return tuple(chain)


def sparse_matrix(rng, rows, cols, density):
    return [
        [rng.choice((-3, -2, -1, 1, 1, 2, 5)) if rng.random() < density else 0
         for _ in range(cols)]
        for _ in range(rows)
    ]


# (matrix, passive blocks) with columns that are a lone entry, the first
# of them a +-1 that is taken before the pivot heap is built
LONE_COLUMN_CASES = (
    # a lone -1, whose row holds a 2 of another column
    ([[-1, 2], [0, 3]], [[[5, 6]]]),
    # two lone units in one row: the second column empties with that row
    ([[1, -1, 2], [0, 0, 4]], [[[0, 6]], [[7, 1]]]),
    # a lone 2 stays for the least-entry loop, once with a unit step's fill-in
    ([[2, 1], [0, 3]], [[[1, 1]]]),
    ([[2, 0, 0], [0, -1, 3]], [[[4, 5]]]),
    # a lone unit whose row holds passive entries, one column's only entry
    ([[1, 2], [0, 4]], [[[3, 2], [5, 0]], [[2, 2]]]),
)


# ---- examples ---------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 2]]).divisors == (1, 2)
    assert smith_normal_form([[2, 4], [6, 8]]).divisors == (2, 4)
    f = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert f.divisors == () and f.cokernel_rank == 2


def test_snf_empty():
    assert smith_normal_form([]).divisors == ()
    assert smith_normal_form([[], []]).cokernel_rank == 2


@pytest.mark.parametrize("rank, torsion, message", (
    (-1, (), "rank must be nonnegative"),
    (0, (1,), "torsion divisors must be >= 2"),
    (0, (2, 3), "torsion chain violated: 2 does not divide 3"),
), ids=("negative-rank", "divisor-one", "broken-chain"))
def test_abelian_group_rejects_a_bad_invariant(rank, torsion, message):
    with pytest.raises(ValueError, match=message):
        abelian.AbelianGroup(rank, torsion)


def test_infinite_group_has_no_order():
    assert abelian.AbelianGroup(0, (2, 4)).order == 8
    with pytest.raises(ValueError, match="infinite group has no order"):
        abelian.AbelianGroup(1, (2,)).order


def test_snf_chain_condition():
    rng = random.Random(5)
    for _ in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        divisors = smith_normal_form(m).divisors
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


def test_divisor_chain_matches_the_pairwise_sweep():
    # the one-pass check skips the sweep only where the sweep changes nothing
    rng = random.Random(97)
    chains = others = 0
    for _ in range(3000):
        size = rng.randrange(0, 9)
        kind = rng.randrange(3)
        if kind == 0:  # a chain, shuffled
            values = [rng.randrange(1, 6)]
            while len(values) < size:
                values.append(values[-1] * rng.choice((1, 1, 2, 3, 5)))
            values = values[:size]
            rng.shuffle(values)
        elif kind == 1:  # two values, 2 and 2n or not, as on a cover matrix
            n = rng.randrange(2, 60)
            values = [rng.choice((2, 2 * n, n)) for _ in range(size)]
        else:
            values = [rng.randrange(1, 40) for _ in range(size)]
        pivots = dict(enumerate(values))
        assert snf._divisor_chain(pivots.values()) == pairwise_sweep(values), values
        ordered = sorted(values)
        if all(b % a == 0 for a, b in zip(ordered, ordered[1:])):
            chains += 1
        else:
            others += 1
    assert chains > 1500 and others > 800


def test_snf_matches_determinantal_divisor_oracle():
    rng = random.Random(17)
    for _ in range(120):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m).divisors == determinantal_divisors(m)


def test_snf_handles_entry_growth():
    # dense structured matrix of the kind produced by filled covers
    rng = random.Random(31)
    rows = 30
    m = [[rng.randrange(-3, 4) for _ in range(32)] for _ in range(rows)]
    f = smith_normal_form(m)
    assert len(f.divisors) <= 30
    for a, b in zip(f.divisors, f.divisors[1:]):
        assert b % a == 0


def test_sparse_matches_dense_on_random_sparse_matrices():
    rng = random.Random(59)
    cases = [[], [[]], [[0, 0, 0]], [[0], [0]], [[0] * 4 for _ in range(3)]]
    cases += [m for m, _ in LONE_COLUMN_CASES]
    for k in range(1, 7):
        cases.append([[rng.randrange(-6, 7) for _ in range(k)]])
        cases.append([[rng.randrange(-6, 7)] for _ in range(k)])
    for _ in range(300):
        rows, cols = rng.randrange(1, 13), rng.randrange(1, 13)
        cases.append(sparse_matrix(rng, rows, cols, rng.choice((0.1, 0.25, 0.5))))
    for m in cases:
        assert smith_normal_form(m).divisors == dense_smith_divisors(m), m


def appended(matrix, blocks):
    """The matrix with the columns of each block appended."""
    full = [row[:] for row in matrix]
    for block in blocks:
        for row, extra in zip(full, zip(*block)):
            row.extend(extra)
    return full


def cover_smith_forms(monkeypatch, cover_job, levels):
    """(matrix, divisors) of every Smith form the cover commands compute.

    Per level: the h1 and fill matrices, and from the sakuma chain the
    transfer quotient's [M | S] and the transfer module's [M | S | T], with
    T the chain's passive block (the transfers but the meridian's) written
    out as columns.
    """
    seen = []

    def record(matrix, passive=()):
        form = smith_normal_form(matrix, passive)
        for j, f in enumerate((form, *form.extended)):
            seen.append((appended(matrix, passive[:j]), f.divisors))
        return form

    monkeypatch.setattr(abelian, "smith_normal_form", record)
    # the job as loaded, with the empty words of a job reduce_job keeps
    job = {**cover_job, "words": {}}
    for n in levels:
        for mode in ("h1", "fill", "sakuma"):
            cli._cover_level((job, n, mode))
    return seen


def test_sparse_matches_dense_on_cover_matrices(monkeypatch, cover_job):
    # every matrix the cover, fill and sakuma commands reduce
    forms = cover_smith_forms(monkeypatch, cover_job, range(1, 16))
    assert len(forms) == 15 * 4
    for m, divisors in forms:
        assert divisors == dense_smith_divisors(m)


def test_sparse_matches_dense_on_reduced_cover_matrices(monkeypatch, cover_job):
    # the cover commands reduce the matrices of the job's reduced base
    forms = cover_smith_forms(monkeypatch, covers.reduce_job(cover_job, 15), range(1, 16))
    assert len(forms) == 15 * 4
    for m, divisors in forms:
        assert divisors == dense_smith_divisors(m)


def shuffled(rng, matrix):
    rows = [row[:] for row in matrix]
    rng.shuffle(rows)
    perm = list(range(len(matrix[0])))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in rows]


def test_cover_matrices_keep_their_divisors_under_shuffles(monkeypatch, cover_job):
    # row and column order steer the pivot path through the cached keys
    rng = random.Random(67)
    for m, _ in cover_smith_forms(monkeypatch, cover_job, range(1, 16)):
        expected = dense_smith_divisors(m)
        for _ in range(2):
            assert smith_normal_form(shuffled(rng, m)).divisors == expected


def test_sparse_matches_dense_on_larger_sparse_matrices():
    # long pivot paths, where fill-in and the cached column keys build up
    rng = random.Random(71)
    for _ in range(36):
        rows, cols = rng.randrange(20, 41), rng.randrange(20, 41)
        m = [
            [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.1 else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        assert smith_normal_form(m).divisors == dense_smith_divisors(m), m


def test_sparse_matches_dense_on_tie_heavy_matrices():
    # no unit entries and many equal |entries|: the pivot row is picked among
    # ties by row count, and every step runs the non-unit Euclid loop
    rng = random.Random(73)
    for _ in range(150):
        rows, cols = rng.randrange(2, 16), rng.randrange(2, 16)
        density = rng.choice((0.2, 0.4, 0.7))
        m = [
            [rng.choice((-6, -3, -2, 2, 3, 6)) if rng.random() < density else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        assert smith_normal_form(m).divisors == dense_smith_divisors(m), m


def test_ragged_rows_are_rejected():
    # two divisors from one column were once read off [[1], [0, 2]]
    for matrix, row in (([[1], [0, 2]], 1), ([[2, 0, 0], [0]], 1), ([[1, 2], [3, 4], [5]], 2)):
        with pytest.raises(ValueError, match=f"row {row} "):
            smith_normal_form(matrix)
        with pytest.raises(ValueError, match=f"row {row} "):
            abelian.cokernel(matrix)


def test_column_gets_its_first_unit_from_a_unit_step():
    # column 1 holds no unit; the unit step on (0, 0) turns its 2 in row 1
    # into 2 - 1 * 3 = -1, and the same one-step elimination must take it
    assert smith_normal_form([[1, 3], [1, 2]]).divisors == (1, 1)
    # the same behind a -1 pivot: row 1 += 2 * row 0 makes column 1's -7 a
    # -1, whose step leaves 4 + 2 * 4 = 12 in column 2
    m = [
        [-1, 3, 2],
        [2, -7, 0],
        [0, 2, 4],
    ]
    assert smith_normal_form(m).divisors == dense_smith_divisors(m) == (1, 1, 12)
    assert smith_normal_form(m).divisors == single_loop_smith_divisors(m)


def test_unit_step_fill_in_joins_its_row():
    # the -1 at (0, 0) adds 2 * row 0 into row 1, so the 0 at (1, 1) fills in
    # with 4; the least-entry loop then clears row 1 through that entry
    m = [
        [-1, 2, 0],
        [2, 0, 2],
        [0, 3, 0],
    ]
    assert smith_normal_form(m).divisors == dense_smith_divisors(m) == (1, 1, 6)
    assert smith_normal_form([[0, -1, 2, 2], [0, 3, 0, 1]]).divisors == (1, 1)


def test_euclid_remainders_create_units():
    # no entry is a unit, so the first step runs the least-key loop, and its
    # remainders 3 - 2 = 1 and 5 - 2 * 2 = 1 are taken as unit pivots
    assert smith_normal_form([[2, 3]]).divisors == (1,)
    assert smith_normal_form([[2, 0], [5, 3]]).divisors == (1, 6)
    rng = random.Random(79)
    for _ in range(120):
        rows, cols = rng.randrange(2, 14), rng.randrange(2, 14)
        m = [
            [rng.choice((-5, -3, -2, 2, 3, 5, 7)) if rng.random() < 0.35 else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        expected = dense_smith_divisors(m)
        assert smith_normal_form(m).divisors == expected, m
        assert single_loop_smith_divisors(m) == expected, m


def test_two_phase_matches_single_loop_on_bundled_job_matrices(monkeypatch, cover_job):
    # every h1, fill, sakuma and h_n matrix past the dense oracle's reach
    forms = cover_smith_forms(monkeypatch, cover_job, range(16, 42))
    assert len(forms) == 26 * 4
    for m, divisors in forms:
        assert divisors == single_loop_smith_divisors(m)


def test_two_phase_matches_single_loop_on_mixed_sparse_matrices():
    # units beside +-2 and +-3, with -1 pivots, so fill-in from unit steps
    # meets the least-key loop; the larger sizes leave the dense oracle behind
    rng = random.Random(83)
    with_minus_one = 0
    for _ in range(60):
        rows, cols = rng.randrange(20, 41), rng.randrange(20, 41)
        m = [
            [rng.choice((-3, -2, -1, -1, 1, 2, 3)) if rng.random() < 0.12 else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        with_minus_one += any(-1 in row for row in m)
        assert smith_normal_form(m).divisors == single_loop_smith_divisors(m), m
    assert with_minus_one == 60


def passive_cases(rng, count):
    """Sparse matrices with one or two passive blocks: units beside +-2, +-3.

    The lone-column cases come first.
    """
    yield from LONE_COLUMN_CASES
    values = (-3, -2, -1, 1, 2, 3)
    for _ in range(count):
        rows, cols = rng.randrange(1, 13), rng.randrange(0, 13)
        density = rng.choice((0.15, 0.3, 0.5))
        m = [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        blocks = [
            [[rng.choice(values) if rng.random() < density else 0 for _ in range(rows)]
             for _ in range(rng.randrange(0, 4))]
            for _ in range(rng.randrange(1, 3))
        ]
        yield m, blocks


def test_passive_blocks_match_dense_on_appended_columns():
    # [A | B1 | ... | Bj] from one elimination of A against the dense oracle,
    # and A's own form exactly that of a call without the blocks
    rng = random.Random(89)
    nonunit = 0
    for m, blocks in passive_cases(rng, 300):
        form = smith_normal_form(m, blocks)
        assert form.rows == len(m) and form.cols == len(m[0])
        plain = smith_normal_form(m)
        assert (form.rows, form.cols, form.divisors) == (plain.rows, plain.cols, plain.divisors), m
        assert plain.extended == () and plain == smith_normal_form(m, []), m
        assert form.divisors == dense_smith_divisors(m), m
        assert [f.cols for f in form.extended] == [
            len(appended(m, blocks[:j])[0]) for j in range(1, len(blocks) + 1)]
        for j, f in enumerate(form.extended, 1):
            assert f.rows == len(m)
            assert f.divisors == dense_smith_divisors(appended(m, blocks[:j])), (m, blocks, j)
        nonunit += any(d > 1 for d in form.divisors)
    assert nonunit > 100


def test_passive_residues_are_reduced_mod_their_pivot(monkeypatch):
    # the leftover holds the nonunit pivots as diagonal columns, then the
    # first block's residue, in (-p/2, p/2] in a pivot row
    leftovers = []
    engine = snf.smith_normal_form

    def spy(matrix, passive=()):
        leftovers.append(matrix)
        return engine(matrix, passive)

    monkeypatch.setattr(snf, "smith_normal_form", spy)
    rng = random.Random(97)
    checked = 0
    for m, blocks in passive_cases(rng, 300):
        leftovers.clear()
        engine(m, blocks)
        leftover = leftovers[0]
        if not leftover:
            continue
        d = len(leftover[0]) - len(blocks[0])
        for row in leftover:
            pivots = [v for v in row[:d] if v]
            assert len(pivots) <= 1 and all(p > 1 for p in pivots), leftover
            for p in pivots:
                assert all(-p < 2 * v <= p for v in row[d:]), (m, blocks, leftover)
                checked += any(row[d:])
    assert checked > 20


def test_passive_columns_must_fit_the_rows():
    with pytest.raises(ValueError, match="passive column 1 has 1 entries, not 2"):
        smith_normal_form([[1], [2]], [[[1, 0]], [[3]]])


# sha256 of the table-format stdout at single levels past the benchmark's;
# the bodies were recorded with the earlier Markowitz pivot rule
PINNED_LARGE_LEVELS = (
    (("rhs-sweep", "--n", "101"),
     "e0ea012d3072c6e07e10b98597f0aa06929ff4283db6816ff00a6a90ea75954d"),
    (("sakuma", "cover-job", "--n", "61"),
     "a5705841ce09ced4814a38099e101cc94cabea11166fa8b08b55fcff0749ac8b"),
)


@pytest.mark.parametrize(
    "argv, digest", PINNED_LARGE_LEVELS, ids=[a[0] for a, _ in PINNED_LARGE_LEVELS]
)
def test_large_level_table_body_is_pinned(capsys, argv, digest):
    assert cli.main([*argv, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_row_lattice_equality_from_smith_divisors(same_row_lattice):
    rng = random.Random(43)
    for _ in range(80):
        rows = cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        shuffled = [row[:] for row in m]
        rng.shuffle(shuffled)
        if len(shuffled) > 1:
            shuffled[0] = [a + 3 * b for a, b in zip(shuffled[0], shuffled[1])]
        assert same_row_lattice(m, shuffled)
        if det_oracle(m):
            # doubling a row doubles the index of a full-rank lattice
            assert not same_row_lattice(m, [[2 * v for v in m[0]]] + m[1:])
    assert not same_row_lattice([[2, 0]], [[1, 0]])
    # equal divisors, different lattices: only the union tells them apart
    assert not same_row_lattice([[2, 0]], [[0, 2]])
    assert same_row_lattice([[1, 1], [0, 2]], [[1, -1], [0, 2]])
