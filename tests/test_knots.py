"""Cyclic covers of knot complements against an order oracle at every level.

The n-fold cyclic cover X_n of a knot complement has H_1 = Z + T_n, and
when the product is nonzero |T_n| = |prod over zeta^n = 1 of delta(zeta)|,
which for a monic Alexander polynomial is |det(C^n - I)| with C its
companion matrix (the ``cover_order`` fixture), and for any delta is
|Res(delta, t^n - 1)|, which sympy gives.  That takes no Smith form, so
it checks the cover route where the Smith form changes fastest.  When some
root of delta is an n-th root of unity the product is zero, and the rank is
1 + the sum of phi(d) over d | n, d > 1, with Phi_d dividing delta.

The knots come from braid words (the ``braid_knot`` fixture), whose every
relator defines one letter as a conjugate of another: the presentations
that ``covers.reduce_job`` reduces hardest.
"""

import json
import random
from math import gcd, prod

import pytest
import sympy as sp

from foxhom import cli
from foxhom.covers import (
    CyclicQuotientMap,
    fill,
    h1_cover,
    reduce_job,
    reidemeister_schreier,
    transfer_quotients,
)
from foxhom.fox import AbelianizationMap, alexander_poly
from foxhom.laurent import LaurentPoly
from foxhom.presentations import Presentation
from foxhom.words import Word

# name -> (braid word, strands, delta from the constant term up, the d with
# Phi_d dividing delta), delta from Rolfsen's table
KNOTS = {
    "3_1": ((1, 1, 1), 2, (1, -1, 1), (6,)),
    "4_1": ((1, -2, 1, -2), 3, (1, -3, 1), ()),
    "5_1": ((1,) * 5, 2, (1, -1, 1, -1, 1), (10,)),
    "T(3,4)": ((1, 2) * 4, 3, (1, -1, 0, 1, 0, -1, 1), (6, 12)),
}
# name -> (braid word, strands, delta from the constant term up) for knots
# whose delta is not monic, so that cover_order does not serve them
NON_MONIC = {
    "5_2": ((1, 1, 1, 2, -1, 2), 3, (2, -3, 2)),
    "6_1": ((1, 1, 2, -1, -3, 2, -3), 4, (2, -5, 2)),
    "7_2": ((1, 1, 1, 2, -1, 2, 3, -2, 3), 4, (3, -5, 3)),
}
LEVELS = (*range(1, 62), 301, 499)


def totient(d):
    return sum(gcd(d, k) == 1 for k in range(1, d + 1))


@pytest.fixture(scope="module")
def knot_job(braid_knot):
    """name -> the cover job of the knot: its meridians all of degree 1."""

    def job(name):
        word, strands = {**KNOTS, **NON_MONIC}[name][:2]
        p = braid_knot(word, strands)
        return {"presentation": p, "degrees": dict.fromkeys(p.generators, 1), "fill": (), "n": 1}

    return job


def level_group(job, n):
    p = job["presentation"]
    return h1_cover(reidemeister_schreier(p, CyclicQuotientMap(p, n, job["degrees"])))


@pytest.mark.parametrize("name", sorted(KNOTS) + sorted(NON_MONIC))
def test_braid_presentation_has_the_table_polynomial(knot_job, name):
    job = knot_job(name)
    p, delta = job["presentation"], {**KNOTS, **NON_MONIC}[name][2]
    phi = AbelianizationMap(p.generators, ("t",), {g: (1, (1,)) for g in p.generators})
    table = LaurentPoly(("t",), {(i,): c for i, c in enumerate(delta) if c})
    assert alexander_poly(p, phi).unit_equivalent(table)


@pytest.mark.parametrize("name", sorted(KNOTS))
def test_knot_covers_match_the_order_oracle(knot_job, cover_order, name):
    _, _, delta, cyclotomic = KNOTS[name]
    job = reduce_job(knot_job(name), max(LEVELS))
    assert job["words"]  # the reduction has work to do on every knot
    for n in LEVELS:
        group, order = level_group(job, n), cover_order(delta, n)
        rank = 1 + sum(totient(d) for d in cyclotomic if n % d == 0)
        assert (order == 0) == (rank > 1), (n, order)
        if order:
            assert (group.rank, prod(group.torsion)) == (1, order), n
        else:
            assert group.rank == rank, n


@pytest.mark.parametrize("name", sorted(NON_MONIC))
def test_non_monic_knot_covers_match_the_resultant(knot_job, name):
    # a root of unity is an algebraic integer, and no root of these delta
    # is one (6_1's is (2t - 1)(t - 2)), so every level has rank 1 and
    # |T_n| = |Res(delta, t^n - 1)|, by sympy
    t = sp.symbols("t")
    poly = sum(c * t**i for i, c in enumerate(NON_MONIC[name][2]))
    job = reduce_job(knot_job(name), 61)
    assert job["words"]
    for n in range(1, 62):
        group, order = level_group(job, n), abs(sp.resultant(poly, t**n - 1, t))
        assert (group.rank, prod(group.torsion)) == (1, order), n


def test_figure_eight_cover_at_the_level_cap(capsys, tmp_path, knot_job, cover_order):
    # above n = 41 only sha256 pins recorded from the program's own output
    # guard the bundled job; at the highest level the cover command takes,
    # 4_1's cover must have rank 1 and |T_n| = |det(C^n - I)|, some 5 554
    # bits, from an oracle with no Smith form
    n = cli.MAX_COVER_LEVEL
    p = knot_job("4_1")["presentation"]
    (tmp_path / "4_1.json").write_text(json.dumps(p.to_json()))
    job = tmp_path / "4_1-job.json"
    degrees = dict.fromkeys(p.generators, 1)
    job.write_text(json.dumps({"presentation": "4_1.json", "degrees": degrees}))
    assert cli.main(["cover", str(job), "--n", str(n), "--format", "json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["results"]
    order = cover_order(KNOTS["4_1"][2], n)
    assert order.bit_length() > 5000
    assert (entry["n"], entry["rank"], prod(entry["torsion"])) == (n, 1, order)


def test_torus_knot_ranks_where_the_product_vanishes(knot_job, cover_order):
    # Phi_6 and Phi_12 divide the T(3,4) polynomial
    job = reduce_job(knot_job("T(3,4)"), 12)
    assert cover_order(KNOTS["T(3,4)"][2], 6) == cover_order(KNOTS["T(3,4)"][2], 12) == 0
    assert level_group(job, 6).rank == 3
    assert level_group(job, 12).rank == 7


@pytest.mark.parametrize("name", sorted(KNOTS))
def test_reduced_knot_covers_match_the_unreduced(knot_job, name):
    job = knot_job(name)
    reduced = reduce_job(job, 41)
    for n in range(1, 42):
        assert level_group(reduced, n) == level_group(job, n), n


@pytest.mark.parametrize("name", sorted(KNOTS) + sorted(NON_MONIC))
def test_trees_give_the_same_knot_groups(knot_job, base_order_cover, name):
    # H1, the meridian filled (the branched cover) and both transfer
    # quotients, with m, s and t read as meridians, through the tree of the
    # most relator letters and through the base-order one.  x1 often has the
    # most letters, so each base is also taken in reversed generator order,
    # where the base order starts from the last arc
    job = knot_job(name)
    moved = 0
    for p in (job["presentation"], reduce_job(job, 21)["presentation"]):
        for gens in (p.generators, p.generators[::-1]):
            base = Presentation(p.name, gens, p.relators)
            first, last = (Word([(g, 1)]) for g in (gens[0], gens[-1]))
            words = {"m": first, "s": last, "t": first * last}
            for n in range(1, 22):
                q = CyclicQuotientMap(base, n, job["degrees"])
                covers = reidemeister_schreier(base, q), base_order_cover(base, q)
                moved += covers[0].presentation != covers[1].presentation
                groups = [(h1_cover(c), fill(c, (first,)), transfer_quotients(c, words))
                          for c in covers]
                assert groups[0] == groups[1], (gens, n)
    assert moved >= 20, moved


def test_cover_order_oracle(cover_order):
    # 4_1 at n = 2 is the double branched cover, the lens space L(5, 2)
    assert cover_order((1, -3, 1), 2) == 5
    assert cover_order((1, -1, 1), 6) == 0  # Phi_6 vanishes at a sixth root of unity
    assert cover_order((1, -1, 1), 2) == 3  # the trefoil's double cover, L(3, 1)
    with pytest.raises(ValueError, match="monic"):
        cover_order((2, -3, 2), 3)


@pytest.mark.parametrize("name", sorted(KNOTS))
def test_cover_order_is_the_resultant(cover_order, name):
    # |Res(delta, t^n - 1)| = |prod over zeta^n = 1 of delta(zeta)|, by sympy
    t = sp.symbols("t")
    delta = KNOTS[name][2]
    poly = sum(c * t**i for i, c in enumerate(delta))
    for n in (*range(1, 31), 97):
        assert cover_order(delta, n) == abs(sp.resultant(poly, t**n - 1, t)), n


def test_random_braid_closures_match_the_fox_route(braid_knot, fox_cover_group):
    # a closure may be a link; with every meridian of degree 1 its cyclic
    # covers are still defined, and the Fox route reads the unreduced base
    rng = random.Random(41)
    eliminated = 0
    for draw in range(30):
        strands = rng.choice((2, 3, 4))
        word = [rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(rng.randrange(1, 9))]
        p = braid_knot(word, strands)
        degrees = dict.fromkeys(p.generators, 1)
        job = reduce_job({"presentation": p, "degrees": degrees, "fill": (), "n": 1}, 6)
        eliminated += len(job["words"])
        for n in (1, 2, 3, 5, 6):
            assert level_group(job, n) == fox_cover_group(p, degrees, n), (word, strands, n)
    assert eliminated > 100, eliminated
