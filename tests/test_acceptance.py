"""End-to-end acceptance checks.

Every check prints one pass/fail line (visible under ``pytest -s`` or in the
captured output) and enforces a wall-clock budget.  All arithmetic is exact,
so comparisons are equalities, up to a signed-monomial unit where stated.

The factorization golden is checked in two forms.  The bare specialization
delta_L(t^k, t) equals t^-(3k-1) (t - 1)^5 nu_{k-1} nu_k nu_{k+1} exactly.
Multiplied by the boundary factor (t - 1), it equals the same product with
(t - 1)^6.  The reference value for the boundary-factor form reads (t - 1)^5;
the boundary-factor check pins it as off by exactly one factor of (t - 1),
through the exact quotient, so the discrepancy in the reference stays recorded.
"""

import random
import time
from math import gcd

from foxhom import datasets
from foxhom.abelian import AbelianGroup
from foxhom.covers import (
    CyclicQuotientMap,
    FillingSpec,
    branched_betti,
    fill,
    filled_relators,
    h1_cover,
    h_n_module,
    reidemeister_schreier,
    sakuma_quotient,
    transfer,
)
from foxhom.fox import AbelianizationMap, alexander_matrix, alexander_poly, fox_derivative, minor_polys
from foxhom.laurent import LaurentPoly, nu_poly, substitute_monomial
from foxhom.polygcd import laurent_divexact, shared_root_count
from foxhom.presentations import abelianize
from foxhom.snf import smith_normal_form
from foxhom.words import Word


def report(name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance [{name}]: {status}  ({elapsed:.2f}s of {budget}s budget)")
    assert ok, f"acceptance [{name}] failed"
    assert elapsed < budget, f"acceptance [{name}] exceeded {budget}s: {elapsed:.2f}s"


def test_01_alexander_matrix_golden(n_final, free_abelian_map, reference):
    start = time.time()
    ok = alexander_matrix(n_final, free_abelian_map) == reference["matrix"]
    report("1 matrix golden", ok, time.time() - start, 1.0)


def test_02_minors_golden(n_final, free_abelian_map, reference):
    start = time.time()
    minors = minor_polys(alexander_matrix(n_final, free_abelian_map), free_abelian_map)
    ok = minors["u"].is_zero
    for g in ("m", "m1", "m2", "s", "t"):
        ok = ok and minors[g].unit_equivalent(reference["minors"][g])
    report("2 minors golden", ok, time.time() - start, 1.0)


def test_03_delta_goldens(n_final, free_abelian_map, reference):
    start = time.time()
    delta = alexander_poly(n_final, free_abelian_map)
    ok = delta.unit_equivalent(reference["delta"])
    specialized = substitute_monomial(
        delta, {"x": (1, (2,)), "y": (1, (1,)), "z": (1, (1,))}, ("x",)
    )
    ok = ok and specialized.unit_equivalent(reference["delta_inf"])
    report("3 delta goldens", ok, time.time() - start, 1.0)


def test_04_base_homology_golden(n_final):
    start = time.time()
    ok = abelianize(n_final) == AbelianGroup(3, (2,))
    ok = ok and abelianize(datasets.load_presentation("nb")) == AbelianGroup(3)
    report("4 base homology", ok, time.time() - start, 1.0)


def test_05_factorization_golden_as_stated():
    """Boundary-factor form: (t - 1) delta_L(t^k, t) carries (t - 1)^6.

    The reference value states (t - 1)^5 for this form; the exact quotient
    pins it as off by exactly one factor of (t - 1).
    """
    start = time.time()
    delta = datasets.load_poly("delta_L")
    t = LaurentPoly.variable(("t",), "t")
    ok = True
    for k in range(2, 13):
        spec = substitute_monomial(delta, {"x": (1, (k,)), "y": (1, (1,))}, ("t",))
        lhs = (t - 1) * spec
        nus = nu_poly(k - 1) * nu_poly(k) * nu_poly(k + 1)
        rhs = ((t - 1) ** 6 * nus).shift((-(3 * k - 1),))
        stated = ((t - 1) ** 5 * nus).shift((-(3 * k - 1),))
        ok = ok and lhs == rhs and laurent_divexact(lhs, stated) == t - 1
    report("5 factorization golden (with boundary factor)", ok, time.time() - start, 1.0)


def test_05_factorization_golden_exact_identity():
    """The specialization itself equals the five-fold product, exactly."""
    start = time.time()
    delta = datasets.load_poly("delta_L")
    t = LaurentPoly.variable(("t",), "t")
    ok = True
    for k in range(2, 13):
        spec = substitute_monomial(delta, {"x": (1, (k,)), "y": (1, (1,))}, ("t",))
        rhs = ((t - 1) ** 5 * nu_poly(k - 1) * nu_poly(k) * nu_poly(k + 1)).shift(
            (-(3 * k - 1),)
        )
        ok = ok and spec == rhs
    report("5 factorization golden (exact identity)", ok, time.time() - start, 1.0)


def test_06_branched_betti_grid():
    start = time.time()
    delta = datasets.load_poly("delta_L")
    ok = True
    for n in (5, 7, 11, 13):
        for k in range(1, n):
            if gcd(k, n) != 1:
                continue
            count = branched_betti(delta, k, n)
            if k in (1, n - 1):
                ok = ok and int(count) > 0
            else:
                ok = ok and int(count) == 0
    report("6 branched betti grid", ok, time.time() - start, 5.0)


def test_07_filled_covers_are_rational_homology_spheres(cover_job):
    start = time.time()
    p = cover_job["presentation"]
    spec = FillingSpec(cover_job["fill"])
    ok = True
    for n in (3, 5, 7, 9):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
        filled = fill(cover, spec)
        sak = sakuma_quotient(cover)
        hn = h_n_module(cover)
        ok = ok and filled.rank == 0
        ok = ok and sak.rank == filled.rank
        ok = ok and hn.rank == 0
        ok = ok and sak.order % hn.order == 0
        ok = ok and 8 % (sak.order // hn.order) == 0
    report("7 filled covers", ok, time.time() - start, 30.0)


def test_08_rank_identity_two_pipelines(n_final, free_abelian_map, cover_job):
    start = time.time()
    delta = alexander_poly(n_final, free_abelian_map)
    delta_inf = substitute_monomial(
        delta, {"x": (1, (2,)), "y": (1, (1,)), "z": (1, (1,))}, ("x",)
    )
    ok = True
    for n in range(3, 16, 2):
        q = CyclicQuotientMap(n_final, n, cover_job["degrees"])
        rank = h1_cover(reidemeister_schreier(n_final, q)).rank
        count = int(shared_root_count(delta_inf, n))
        ok = ok and rank == 3 + count == 3
    report("8 rank identity across pipelines", ok, time.time() - start, 60.0)


# ---- criterion 9: property suites ------------------------------------------


def _random_word(rng, gens, max_len=6):
    return Word(
        [
            (rng.choice(gens), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randrange(max_len + 1))
        ]
    )


def _fox_property_suite():
    rng = random.Random(2024)
    gens = ("a", "b", "c")
    vars = ("x", "y")
    checked = 0
    while checked < 500:
        images = {
            g: (rng.choice([1, -1]), tuple(rng.randrange(-2, 3) for _ in vars))
            for g in gens
        }
        phi = AbelianizationMap(gens, vars, images)
        u, v = _random_word(rng, gens), _random_word(rng, gens)

        def mono(word):
            out = LaurentPoly.constant(vars, 1)
            for g, e in word.runs:
                s, exp = phi.image_monomial(g, e)
                out = out * LaurentPoly.monomial(vars, exp, s)
            return out

        for g in gens:
            lhs = fox_derivative(u * v, g, phi)
            rhs = fox_derivative(u, g, phi) + mono(u) * fox_derivative(v, g, phi)
            if lhs != rhs:
                return False
        total = LaurentPoly.zero(vars)
        for g in gens:
            total = total + fox_derivative(u, g, phi) * (mono(Word([(g, 1)])) - 1)
        if total != mono(u) - 1:
            return False
        checked += 1
    return True


def _snf_oracle_suite():
    from test_snf import determinantal_divisors

    rng = random.Random(4096)
    for _ in range(200):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        if smith_normal_form(m).divisors != determinantal_divisors(m):
            return False
    return True


def _tietze_suite():
    from test_presentations import apply_random_move, random_presentation

    rng = random.Random(8192)
    counter = 0
    for _ in range(100):
        p = random_presentation(rng)
        want = abelianize(p)
        for _ in range(rng.randrange(1, 4)):
            counter += 1
            p = apply_random_move(rng, p, counter)
        got = abelianize(p)
        if (got.rank, got.torsion) != (want.rank, want.torsion):
            return False
    return True


def _transfer_filling_suite(cover_job, same_row_lattice):
    p = cover_job["presentation"]
    for n in (1, 3, 5, 7, 9):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
        gens = cover.presentation.generators
        matrix = cover.presentation.relator_matrix()
        base_rows = [
            [matrix[i][j] for i in range(len(gens))]
            for j in range(len(matrix[0]) if matrix else 0)
        ]
        fill_rows = filled_relators(cover, FillingSpec(cover_job["fill"]))
        transfer_rows = [transfer(cover, Word([("m", 1)]))]
        for g in ("s", "t"):
            transfer_rows.append([2 * v for v in transfer(cover, Word([(g, 1)]))])
        if not same_row_lattice(base_rows + fill_rows, base_rows + transfer_rows):
            return False
    return True


def test_09_property_suites(cover_job, same_row_lattice):
    start = time.time()
    ok = _fox_property_suite()
    ok = ok and _snf_oracle_suite()
    ok = ok and _tietze_suite()
    ok = ok and _transfer_filling_suite(cover_job, same_row_lattice)
    report("9 property suites", ok, time.time() - start, 60.0)
