import random
import tracemalloc
from math import gcd

import pytest

from foxhom import abelian, datasets, presentations
from foxhom import covers as covers_module
from foxhom.abelian import AbelianGroup, cokernel
from foxhom.covers import (
    CyclicQuotientMap,
    FillingSpec,
    branched_betti,
    fill,
    filled_relators,
    h1_cover,
    h_n_module,
    mutation_invariance_check,
    reduce_job,
    reidemeister_schreier,
    sakuma_quotient,
    sakuma_transfers,
    transfer,
    transfer_quotients,
)
from foxhom.laurent import LaurentPoly, parse_poly
from foxhom.presentations import Presentation, abelianize
from foxhom.snf import smith_normal_form
from foxhom.words import Word, exponent_vector, parse_word


@pytest.fixture(scope="module")
def paper_cover():
    job = datasets.standard_cover_job()
    covers = {}
    for n in (1, 3, 5, 7, 9):
        q = CyclicQuotientMap(job["presentation"], n, job["degrees"])
        covers[n] = reidemeister_schreier(job["presentation"], q)
    return job, covers


def free_presentation(*gens):
    return Presentation("free", tuple(gens), ())


# ---- quotient map validation -------------------------------------------


def test_quotient_map_validation(cover_job):
    p = cover_job["presentation"]
    with pytest.raises(ValueError):
        CyclicQuotientMap(p, 0, cover_job["degrees"])
    with pytest.raises(ValueError):
        CyclicQuotientMap(p, 4, {g: 2 for g in p.generators})  # not surjective
    with pytest.raises(ValueError):
        CyclicQuotientMap(p, 3, {g: 0 for g in p.generators})
    bad = dict(cover_job["degrees"])
    bad["m"] = 3  # relator degrees no longer vanish
    with pytest.raises(ValueError):
        CyclicQuotientMap(p, 5, bad)
    missing = dict(cover_job["degrees"])
    del missing["u"]
    with pytest.raises(ValueError):
        CyclicQuotientMap(p, 3, missing)


# ---- Reidemeister-Schreier ------------------------------------------------


def test_reidemeister_schreier_needs_a_map_of_its_presentation():
    free, other = free_presentation("a", "b"), free_presentation("a", "c")
    with pytest.raises(TypeError, match="need a CyclicQuotientMap"):
        reidemeister_schreier(free, {"a": 1, "b": 0})
    with pytest.raises(ValueError, match="quotient map built from a different presentation"):
        reidemeister_schreier(free, CyclicQuotientMap(other, 2, {"a": 1, "c": 0}))


def torus(*extra_gens):
    """<a, b | a b a^-1 b^-1>, with each extra generator c tied to c = a^-1 b."""
    gens = ("a", "b", *extra_gens)
    relators = ["a b a^-1 b^-1"] + [f"{c}^-1 a^-1 b" for c in extra_gens]
    return Presentation("torus", gens, tuple(parse_word(r, gens) for r in relators))


def test_grading_without_coprime_generator():
    # degrees (2, 3) map onto Z/6 though neither degree is coprime to 6
    free = free_presentation("a", "b")
    cover = reidemeister_schreier(free, CyclicQuotientMap(free, 6, {"a": 2, "b": 3}))
    assert [str(r) for r in cover.presentation.relators] == ["a@0", "a@2", "b@0", "b@2", "b@4"]
    assert h1_cover(cover) == AbelianGroup(7)  # Nielsen-Schreier: 6 * (2 - 1) + 1
    p = torus()
    for n in range(1, 13):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, {"a": 2, "b": 3}))
        assert h1_cover(cover) == AbelianGroup(2), n  # a finite cover of a torus


@pytest.mark.parametrize("n", [6, 12, 30])
def test_grading_without_coprime_generator_after_tietze_move(n):
    """Adding c = a^-1 b, of degree 1, changes the transversal, not the group."""
    p, wider = torus(), torus("c")
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, {"a": 2, "b": 3}))
    wide = reidemeister_schreier(wider, CyclicQuotientMap(wider, n, {"a": 2, "b": 3, "c": 1}))
    assert h1_cover(wide) == h1_cover(cover) == AbelianGroup(2)
    # with c present the tree is the chain of c, as the powers of c would give
    trivial = [str(r) for r in wide.presentation.relators[2 * n :]]
    assert trivial == [f"c@{j}" for j in range(n - 1)]


def section_rule_presentation(p, q):
    """The kernel presentation with the powers of one generator as transversal.

    The generator is, among those of degree d coprime to n, the one with the
    most relator letters, the first in base order on a tie: the Smith form
    deletes the tree rows, with every entry in them, before any arithmetic.
    Its symbols at cosets 0, d, ..., (n - 2)d are trivialized after the
    rewritten relators.
    """
    n = q.n
    letters = {g: sum(h == g for r in p.relators for h, _ in r.single_letters())
               for g in p.generators}
    coprime = [g for g in p.generators if gcd(q.degrees[g], n) == 1]
    section = max(coprime, key=letters.get)
    d = q.degrees[section]
    cover = reidemeister_schreier(p, q)
    relators = tuple(cover.rewrite(r, c) for r in p.relators for c in range(n))
    trivial = tuple(Word([(f"{section}@{j * d % n}", 1)]) for j in range(n - 1))
    gens = tuple(f"{g}@{c}" for g in p.generators for c in range(n))
    return Presentation(f"{p.name}~{n}fold", gens, relators + trivial)


@pytest.mark.parametrize("n", [*range(1, 62), 499])
def test_tree_matches_section_rule_on_bundled_job(cover_job, n):
    p = cover_job["presentation"]
    q = CyclicQuotientMap(p, n, cover_job["degrees"])
    assert reidemeister_schreier(p, q).presentation == section_rule_presentation(p, q)


def test_tree_matches_section_rule_on_random_gradings():
    # random commutators [w, h] as relators, of degree 0 at every grading:
    # the generators' letter counts differ, so the section is often not the
    # first coprime generator
    rng = random.Random(11)
    compared = moved = 0
    for _ in range(400):
        gens = tuple(f"g{i}" for i in range(rng.randrange(1, 4)))
        n = rng.randrange(1, 13)
        degrees = {g: rng.randrange(-12, 13) for g in gens}
        coprime = [g for g in gens if gcd(degrees[g], n) == 1]
        if not coprime:
            continue
        relators = []
        for _ in range(rng.randrange(0, 4)):
            w = Word((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(1, 5)))
            h = Word([(rng.choice(gens), 1)])
            relators.append(w * h * ~w * ~h)
        p = Presentation("random", gens, tuple(filter(None, relators)))
        q = CyclicQuotientMap(p, n, degrees)
        section = section_rule_presentation(p, q)
        assert reidemeister_schreier(p, q).presentation == section
        compared += 1
        moved += n > 1 and section.relators[-1].runs[0][0].rsplit("@", 1)[0] != coprime[0]
    assert compared > 200 and moved > 20, (compared, moved)


def test_trees_give_the_same_groups_on_the_bundled_job(cover_job, base_order_cover):
    # H1, the filled cokernel and both transfer quotients through the tree
    # of the most relator letters (t) and through the base-order one (m at
    # odd levels, s at even), on the unreduced and the reduced base
    moved = 0
    for job in (cover_job, reduce_job(cover_job, 41)):
        p, slopes = job["presentation"], FillingSpec(job["fill"])
        for n in range(1, 42):
            q = CyclicQuotientMap(p, n, job["degrees"])
            covers = reidemeister_schreier(p, q), base_order_cover(p, q)
            moved += covers[0].presentation != covers[1].presentation
            groups = [(h1_cover(c), fill(c, slopes), transfer_quotients(c, job.get("words")))
                      for c in covers]
            assert groups[0] == groups[1], (p.generators, n)
    assert moved == 2 * 40


def _transversal_word(cover, coset):
    """The transversal representative of a coset, walked along the tree.

    The tree edges are the last n - 1 relators, one symbol g@c each; the
    representative of c + deg g is that of c times g.
    """
    n, relators = cover.n, cover.presentation.relators
    words = {0: Word()}
    for r in relators[len(relators) - (n - 1) :]:
        ((symbol, _),) = r.runs
        g, c = symbol.rsplit("@", 1)
        words[(int(c) + cover.quotient.degrees[g]) % n] = words[int(c)] * Word([(g, 1)])
    return words[coset % n]


@pytest.mark.parametrize("degrees, n", [
    ({"a": 2, "b": 3}, 6), ({"a": 2, "b": 3}, 12), ({"a": 4, "b": 6, "c": 9}, 12),
    ({"a": 0, "b": 5, "c": 1}, 10),
])
def test_transversal_follows_tree_edges(degrees, n):
    """Each coset has a representative whose rewrite is tree symbols only."""
    p = free_presentation(*degrees)
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, degrees))
    tree = {r.runs[0][0] for r in cover.presentation.relators}
    assert len(tree) == n - 1
    for c in range(n):
        t = _transversal_word(cover, c)
        assert cover.quotient.word_degree(t) == c
        assert all(e > 0 and g in tree for g, e in cover.rewrite(t).runs)


def test_rewrite_letters_are_capped_before_rewriting(monkeypatch):
    p = Presentation("long", ("a", "b"), (parse_word("a^4 b", ("a", "b")),))
    monkeypatch.setattr(covers_module, "MAX_COVER_LETTERS", 10)
    # 2 cosets of 5 letters: at the cap
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 2, {"a": 1, "b": 0}))

    def refuse(*args):
        raise AssertionError("a word was rewritten")

    monkeypatch.setattr(covers_module, "_lifts", refuse)
    monkeypatch.setattr(covers_module, "_lifted_runs", refuse)
    with pytest.raises(ValueError, match="4 cosets of relators make 20 letters"):
        reidemeister_schreier(p, CyclicQuotientMap(p, 4, {"a": 1, "b": 0}))
    with pytest.raises(ValueError, match="2 cosets of slopes make 12 letters"):
        filled_relators(cover, FillingSpec((parse_word("a^6", ("a", "b")),)))


def test_rank_one_cover():
    p = free_presentation("a")
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 3, {"a": 1}))
    assert len(cover.presentation.generators) == 3
    assert [str(r) for r in cover.presentation.relators] == ["a@0", "a@1"]
    assert abelianize(cover.presentation) == h1_cover(cover) == AbelianGroup(1)


def test_rank_formula_two_generators():
    p = free_presentation("a", "b")
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 2, {"a": 1, "b": 0}))
    assert abelianize(cover.presentation) == AbelianGroup(3)


def test_nielsen_schreier_rank_formula_random():
    rng = random.Random(3)
    without_coprime = 0  # 5 of the 200 draws
    for _ in range(200):
        g = rng.randrange(1, 4)
        n = rng.randrange(1, 7)
        gens = tuple(f"g{i}" for i in range(g))
        degrees = {x: rng.randrange(-5, 6) for x in gens}
        if gcd(n, *degrees.values()) != 1:
            continue  # not onto Z/n
        without_coprime += all(gcd(d, n) != 1 for d in degrees.values())
        p = free_presentation(*gens)
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, degrees))
        assert len(cover.presentation.generators) == n * g
        assert len(cover.presentation.relators) == n - 1
        # the cover's presentation presents the free kernel itself
        assert abelianize(cover.presentation) == AbelianGroup(n * (g - 1) + 1)
    assert without_coprime > 0


def test_bundled_cover_bookkeeping(paper_cover):
    _, covers = paper_cover
    cover = covers[3]
    assert len(cover.presentation.generators) == 18
    # 5 base relators rewritten at 3 cosets, then 2 trivializing relators
    assert len(cover.presentation.relators) == 3 * 5 + 3 - 1 == 17
    assert abelianize(cover.presentation) == h1_cover(cover) == AbelianGroup(3, (2, 6, 6))


def test_rewrites_preserve_degree_zero(paper_cover):
    job, covers = paper_cover
    cover = covers[5]
    p = job["presentation"]
    # a rewritten relator is a genuine relator of the kernel presentation
    for r in p.relators:
        for c in range(5):
            w = cover.rewrite(r, start=c)
            assert w in cover.presentation.relators


def test_rewrite_roundtrip_inverse(paper_cover):
    job, covers = paper_cover
    cover = covers[7]
    w = parse_word("m s t^-1 u", job["presentation"].generators)
    for c in (0, 3):
        assert cover.rewrite(w, c) * cover.rewrite(~w, (c + cover.quotient.word_degree(w)) % 7) == Word()


def rewrite_letter_by_letter(q, word, start):
    """Oracle: rewriting with a fresh g@c name and run for every letter."""
    n, coset, runs = q.n, start % q.n, []
    for g, step in word.single_letters():
        if step < 0:
            coset = (coset - q.degrees[g]) % n
        runs.append((f"{g}@{coset}", step))
        if step > 0:
            coset = (coset + q.degrees[g]) % n
    return Word(runs)


def presentation_letter_by_letter(p, q):
    """The kernel presentation with every relator rewritten by the oracle."""
    n = q.n
    relators = tuple(rewrite_letter_by_letter(q, r, c) for r in p.relators for c in range(n))
    tree = reidemeister_schreier(p, q).presentation.relators[len(relators) :]
    gens = tuple(f"{g}@{c}" for g in p.generators for c in range(n))
    return Presentation(f"{p.name}~{n}fold", gens, relators + tree)


def test_shared_letters_rewrite_as_letter_by_letter(cover_job):
    p = cover_job["presentation"]
    for n in range(1, 62):
        q = CyclicQuotientMap(p, n, cover_job["degrees"])
        assert reidemeister_schreier(p, q).presentation == presentation_letter_by_letter(p, q), n
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 9, cover_job["degrees"]))
    slopes = list(cover_job["fill"])
    assert filled_relators(cover, slopes) == [
        exponent_vector(rewrite_letter_by_letter(
            cover.quotient, w ** (9 // gcd(9, cover.quotient.word_degree(w))), c),
            cover.presentation.generators)
        for w in slopes
        for c in range(gcd(9, cover.quotient.word_degree(w)))
    ]
    # u has degree 0, so its letters merge into one run at one coset
    gens = ("a", "b", "u")
    p = Presentation("p", gens, (parse_word("u^3 a b a^-1 b^-1 u^-2", gens),))
    q = CyclicQuotientMap(p, 6, {"a": 2, "b": 3, "u": 0})
    assert reidemeister_schreier(p, q).presentation == presentation_letter_by_letter(p, q)
    w = parse_word("u^3 a^4 u^-2 b^-1", gens) ** 3
    for c, ours in enumerate(covers_module._lifts(q, w, range(6))):
        assert ours == rewrite_letter_by_letter(q, w, c)
        assert (f"u@{c}", 3) in ours.runs
        # every one-letter run is the map's shared run, not a copy
        again = covers_module._lifts(q, w, (c,))[0]
        assert all(x is y for x, y in zip(ours.runs, again.runs) if abs(x[1]) == 1)


def test_lifts_equal_rewrites_from_every_coset(cover_job):
    # one walk per relator read at every coset against n walks of the oracle
    def check(p, q):
        for r in p.relators:
            lifts = covers_module._lifts(q, r, range(q.n))
            assert len(lifts) == q.n
            for c, lift in enumerate(lifts):
                assert lift == rewrite_letter_by_letter(q, r, c)
                assert lift == covers_module._lifts(q, r, (c + q.n,))[0]

    p = cover_job["presentation"]
    for n in range(1, 42):
        check(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
    t = torus()
    check(t, CyclicQuotientMap(t, 6, {"a": 2, "b": 3}))
    rng = random.Random(89)
    gens = ("a", "b", "u")
    free = Presentation("free", gens, ())
    merged = 0
    for _ in range(60):
        n = rng.randrange(1, 10)
        degrees = {"a": rng.randrange(n), "b": 1, "u": rng.randrange(n)}
        grading = CyclicQuotientMap(free, n, degrees)
        relators = []
        for _ in range(3):
            runs = [(rng.choice(gens), rng.choice((-3, -2, -1, 1, 2))) for _ in range(rng.randrange(1, 8))]
            w = Word(runs)
            relators.append(w * Word([("b", -grading.word_degree(w))]))
        p = Presentation("random", gens, tuple(relators))
        q = CyclicQuotientMap(p, n, degrees)
        check(p, q)
        # a letter of degree 0 mod n lifts its powers onto one run
        merged += sum(
            len(lift.runs) < sum(abs(e) for _, e in r.runs)
            for r in relators
            for lift in covers_module._lifts(q, r, range(q.n))
        )
    assert merged


def test_trusted_cover_equals_its_checked_rebuild(cover_job):
    # the rewrite builds its words and presentation unchecked; rebuilding
    # them through Word and Presentation must change nothing
    def check(p, q):
        kernel = reidemeister_schreier(p, q).presentation
        for r in kernel.relators:
            assert r == Word(r.runs), (q.n, r)
        assert kernel == Presentation(
            kernel.name, list(kernel.generators), [Word(r.runs) for r in kernel.relators])
        return kernel

    cases = [(cover_job["presentation"], cover_job["degrees"], n) for n in (1, 2, 3, 7)]
    cases.append((torus(), {"a": 2, "b": 3}, 6))
    rng = random.Random(101)
    gens = ("a", "b", "u")
    for n in (1, 2, 3, 6, 7) * 8:
        degrees = {"a": 2, "b": 3, "u": 0} if n == 6 else {"a": rng.randrange(n), "b": 1, "u": 0}
        relators = []
        for _ in range(3):
            runs = [(rng.choice(gens), rng.choice((-2, -1, 1, 3))) for _ in range(rng.randrange(1, 8))]
            w = Word([("u", 3)] + runs + [("u", -2)])
            d = sum(e * degrees[g] for g, e in w.runs)
            # b^-d, or a^d b^-d under the (2, 3) grading, has degree -d
            relators.append(w * Word([("a", d if n == 6 else 0), ("b", -d)]))
        cases.append((Presentation("random", gens, tuple(relators)), degrees, n))
    merged = 0
    for p, degrees, n in cases:
        kernel = check(p, CyclicQuotientMap(p, n, degrees))
        merged += any(g.startswith("u@") and abs(e) > 1 for r in kernel.relators for g, e in r.runs)
    assert merged > 30
    # outside input still meets every check
    with pytest.raises(ValueError, match=r"relator uses unknown generators \['z@0'\]"):
        Presentation(kernel.name, kernel.generators, kernel.relators + (Word([("z@0", 1)]),))
    with pytest.raises(ValueError, match="duplicate generator 'a@0'"):
        Presentation(kernel.name, kernel.generators + ("a@0",), ())
    assert Word([("u@0", 2), ("u@0", -2)]) == Word()


# ---- homology of covers -----------------------------------------------------


def test_h1_cover_level_one_matches_base(cover_job):
    p = cover_job["presentation"]
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 1, cover_job["degrees"]))
    assert h1_cover(cover) == abelianize(p) == AbelianGroup(3, (2,))


@pytest.mark.parametrize("n", [3, 5])
def test_h1_cover_rank_three(cover_job, n):
    p = cover_job["presentation"]
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
    assert h1_cover(cover).rank == 3


# ---- transfers ----------------------------------------------------------------


def test_transfer_level_one_is_identity(paper_cover):
    job, covers = paper_cover
    cover = covers[1]
    p = job["presentation"]
    w = parse_word("m s^2 t^-1", p.generators)
    assert transfer(cover, w) == exponent_vector(w, p.generators)


def test_transfer_of_generator_sums_lifts(paper_cover):
    _, covers = paper_cover
    cover = covers[3]
    vec = transfer(cover, Word([("s", 1)]))
    gens = cover.presentation.generators
    for g, v in zip(gens, vec):
        assert v == (1 if g.startswith("s@") else 0)


def _deck_shift(cover, vector, steps=1):
    """Push a chain vector on the ``g@c`` generators through c -> c + steps."""
    gens = cover.presentation.generators
    index = {g: i for i, g in enumerate(gens)}
    out = [0] * len(gens)
    for g, v in zip(gens, vector):
        name, c = g.rsplit("@", 1)
        out[index[f"{name}@{(int(c) + steps) % cover.n}"]] += v
    return out


def test_transfer_fixed_by_deck_action(paper_cover):
    job, covers = paper_cover
    cover = covers[7]
    for text in ("m", "s", "t", "u", "m s t"):
        vec = transfer(cover, parse_word(text, job["presentation"].generators))
        assert _deck_shift(cover, vec) == vec
        assert _deck_shift(cover, vec, steps=3) == vec


def test_transfer_equals_full_preimage_cycle(paper_cover):
    """The chain of the rewritten loop m^k equals the transfer vector."""
    _, covers = paper_cover
    cover = covers[3]
    k = 3  # order of deg(m) = 2 in Z/3
    loop = cover.rewrite(Word([("m", k)]), start=0)
    chain = exponent_vector(loop, cover.presentation.generators)
    assert chain == transfer(cover, Word([("m", 1)]))


def test_transfer_additive_in_homology(paper_cover):
    job, covers = paper_cover
    cover = covers[5]
    p = job["presentation"]
    u = parse_word("s t s^-1 t", p.generators)
    doubled = [2 * v for v in transfer(cover, Word([("t", 1)]))]
    assert transfer(cover, u) == doubled


# ---- fillings -------------------------------------------------------------------


def test_fill_level_one(paper_cover):
    job, covers = paper_cover
    got = fill(covers[1], FillingSpec(job["fill"]))
    assert got == AbelianGroup(0, (2, 2, 2))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_fill_is_rational_homology_sphere(paper_cover, n):
    job, covers = paper_cover
    got = fill(covers[n], FillingSpec(job["fill"]))
    assert got.rank == 0


def test_fill_rejects_empty_slope():
    with pytest.raises(ValueError):
        FillingSpec((Word(),))
    with pytest.raises(ValueError):
        FillingSpec(())


def test_filled_relator_count_and_orbits(cover_job):
    # at even level the meridian (degree 2) has two shift orbits
    p = cover_job["presentation"]
    q = CyclicQuotientMap(p, 4, cover_job["degrees"])
    cover = reidemeister_schreier(p, q)
    spec = FillingSpec((Word([("m", 1)]),))
    chains = filled_relators(cover, spec)
    assert len(chains) == 2  # gcd(4, 2) orbits
    # the chain of each filling is the partial transfer over one shift orbit
    gens = cover.presentation.generators
    for orbit, chain in zip(((0, 2), (1, 3)), chains):
        expected = [
            1 if g in {f"m@{c}" for c in orbit} else 0 for g in gens
        ]
        assert chain == expected


@pytest.mark.parametrize("n", range(1, 17))
def test_filled_relators_match_conjugated_rewrite(cover_job, n):
    """Each filling column is that of t_c w^o t_c^-1 rewritten from coset 0.

    The rewrite is the letter-by-letter oracle, not ``cover.rewrite``, which
    shares its walk with ``filled_relators``.
    """
    def check(p, degrees, slopes):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, degrees))
        gens = cover.presentation.generators
        expected = []
        for w in slopes:
            orbits = gcd(n, cover.quotient.word_degree(w))
            for c in range(orbits):
                t = _transversal_word(cover, c)
                conjugate = t * w ** (n // orbits) * ~t
                expected.append(exponent_vector(
                    rewrite_letter_by_letter(cover.quotient, conjugate, 0), gens))
        assert filled_relators(cover, FillingSpec(slopes)) == expected

    check(cover_job["presentation"], cover_job["degrees"], cover_job["fill"])
    # u has degree 0, so the slopes hold runs that lift to one merged run
    gens = ("a", "u")
    merge = Presentation("merge", gens, (parse_word("a u^2 a^-1 u^-2", gens),))
    slopes = [parse_word(text, gens) for text in ("u^-3 a^3 u^3 a", "a^-2 u^2")]
    check(merge, {"a": 1, "u": 0}, slopes)


def test_letter_outside_the_base_is_a_value_error():
    p = torus()
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 6, {"a": 2, "b": 3}))
    outside = parse_word("a b^2 x^-3 a", ("a", "b", "x"))
    with pytest.raises(ValueError, match="letter 'x' is not a generator of torus"):
        cover.rewrite(outside, 2)
    # every slope's degree is read before any column is built, so the second
    # slope's letter is named while the first is still unwalked
    with pytest.raises(ValueError, match="letter 'x' is not a generator of torus"):
        fill(cover, FillingSpec((parse_word("a b", ("a", "b")), outside)))
    with pytest.raises(ValueError, match="letter 'x' is not a generator of torus"):
        filled_relators(cover, [Word([("x", 1)])])
    with pytest.raises(ValueError, match="letter 'x' outside the given ordering"):
        transfer(cover, outside)


def test_word_degree_names_a_letter_outside_the_base():
    q = CyclicQuotientMap(Presentation("cyclic", ("a",), ()), 3, {"a": 1})
    assert q.word_degree(Word([("a", 5)])) == 2
    with pytest.raises(ValueError, match="letter 'x' is not a generator of cyclic"):
        q.word_degree(Word([("a", 1), ("x", 1)]))


def test_fill_independent_of_orbit_representative(paper_cover):
    """Conjugating the filled slope by any transversal word fixes the result."""
    job, covers = paper_cover
    cover = covers[3]
    base = fill(cover, FillingSpec(job["fill"]))
    gens = cover.presentation.generators
    for c in (1, 2):
        rows = []
        for w in job["fill"]:
            o = cover.n // gcd(cover.n, cover.quotient.word_degree(w))
            t = _transversal_word(cover, c)
            rows.append(exponent_vector(cover.rewrite(t * w**o * ~t, 0), gens))
        matrix = cover.presentation.relator_matrix()
        for row in rows:
            for i, v in enumerate(row):
                matrix[i].append(v)
        assert cokernel(matrix) == base


# ---- transfer quotients -----------------------------------------------------------


def test_sakuma_level_one(paper_cover):
    _, covers = paper_cover
    got = sakuma_quotient(covers[1])
    assert got.rank == 0 and got.order == 8


@pytest.mark.parametrize("n", [3, 5])
def test_sakuma_finite(paper_cover, n):
    assert sakuma_quotient(paper_cover[1][n]).rank == 0


def test_sakuma_name_validation():
    p = free_presentation("a", "s", "t")
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 3, {"a": 1, "s": 0, "t": 0}))
    with pytest.raises(ValueError, match="no base generator named 'm'"):
        sakuma_quotient(cover)
    with pytest.raises(ValueError, match="no base generator named 'm'"):
        transfer_quotients(cover)


def test_h_n_level_one_trivial(paper_cover):
    got = h_n_module(paper_cover[1][1])
    assert got == AbelianGroup(0)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_transfer_quotient_extension_bound(paper_cover, n):
    _, covers = paper_cover
    sak = sakuma_quotient(covers[n])
    hn = h_n_module(covers[n])
    assert hn.rank == 0
    assert sak.order % hn.order == 0
    assert 8 % (sak.order // hn.order) == 0


# ---- one relator matrix against the former column-append route --------------


def dense_quotient(cover, rows):
    """Cokernel of the kernel relator matrix with ``rows`` appended as columns."""
    matrix = cover.presentation.relator_matrix()
    for row in rows:
        for i, v in enumerate(row):
            matrix[i].append(v)
    return cokernel(matrix)


def transfer_column(cover, g, k=1):
    return [k * v for v in transfer(cover, Word([(g, 1)]))]


def test_extra_relators_match_dense_columns(cover_job):
    p = cover_job["presentation"]
    spec = FillingSpec(cover_job["fill"])
    for n in range(1, 16):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))

        def tr(g, k=1):
            return transfer_column(cover, g, k)

        fill_rows = filled_relators(cover, spec)
        assert fill(cover, spec) == dense_quotient(cover, fill_rows), n
        assert sakuma_quotient(cover) == dense_quotient(
            cover, [tr("m"), tr("s", 2), tr("t", 2)]), n
        assert h_n_module(cover) == dense_quotient(
            cover, [tr(g) for g in p.generators]), n


def test_transfer_chain_matches_separate_quotients(cover_job):
    # the transfers ride along passively in the transfer quotient's
    # elimination; both groups must be those of the column-append route and
    # of the two separate quotients
    p = cover_job["presentation"]
    for n in range(1, 42):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
        sak, hn = transfer_quotients(cover)
        sakuma_columns = [transfer_column(cover, "m")]
        sakuma_columns += [transfer_column(cover, g, 2) for g in ("s", "t")]
        assert sak == sakuma_quotient(cover), n
        assert sak == dense_quotient(cover, sakuma_columns), n
        assert hn == h_n_module(cover), n
        assert hn == dense_quotient(cover, [transfer_column(cover, g) for g in p.generators]), n


# ---- every cover group against the Fox route --------------------------------

SAKUMA = (("m", 1), ("s", 2), ("t", 2))


def check_fox_route(fox_cover_group, p, degrees, n, slopes):
    """h1_cover, fill and the transfer quotients against ``fox_cover_group``."""
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, degrees))
    at = (p.name, degrees, n)
    assert h1_cover(cover) == fox_cover_group(p, degrees, n), at
    assert fill(cover, FillingSpec(slopes)) == fox_cover_group(p, degrees, n, slopes), at
    hn = fox_cover_group(p, degrees, n, transfers=[(g, 1) for g in p.generators])
    assert h_n_module(cover) == hn, at
    if {"m", "s", "t"} <= set(p.generators):
        sak = fox_cover_group(p, degrees, n, transfers=SAKUMA)
        assert sakuma_quotient(cover) == sak, at
        assert transfer_quotients(cover) == (sak, hn), at
        return True
    return False


def random_graded_word(rng, gens, degrees, degree=0):
    """A nonempty reduced word of at most 7 letters and the given integer degree."""
    while True:
        w = Word((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(1, 8)))
        if w and sum(e * degrees[g] for g, e in w.runs) == degree:
            return w


def test_cover_groups_match_the_fox_route(cover_job, fox_cover_group):
    # The Fox route builds each group from the Fox matrix over Z[Z/n], with
    # no transversal, no tree relators and no rewritten words, so it checks
    # the Reidemeister-Schreier route and the transfer and slope columns
    p, degrees = cover_job["presentation"], cover_job["degrees"]
    for n in range(1, 42):
        check_fox_route(fox_cover_group, p, degrees, n, cover_job["fill"])
    tor, graded = torus(), {"a": 2, "b": 3}
    slopes = [parse_word("a^3 b^-2", "ab"), parse_word("a b", "ab")]
    for n in (1, 2, 3, 5, 6, 7, 12):
        check_fox_route(fox_cover_group, tor, graded, n, slopes)
    rng = random.Random(27)
    sakuma = without_coprime = 0
    gradings = [(2, 3), (3, 2, 0), (6, 10, 15), (4, 6, 9)]
    for draw in range(100):
        gens = ("m", "s", "t")[: rng.choice((2, 3))]
        if draw % 4 == 0:
            degrees = dict(zip(gens, rng.choice([d for d in gradings if len(d) == len(gens)])))
        else:
            degrees = {g: rng.randrange(-3, 4) for g in gens}
        levels = [n for n in range(1, 31) if gcd(n, *degrees.values()) == 1]  # holds 1
        relators = tuple(random_graded_word(rng, gens, degrees)
                         for _ in range(rng.randrange(0, 4)))
        p = Presentation(f"random{draw}", gens, relators)
        for n in rng.sample(levels[:12], min(2, len(levels[:12]))) + levels[-1:]:
            slopes = [random_graded_word(rng, gens, degrees),
                      random_graded_word(rng, gens, degrees, rng.choice(list(degrees.values())))]
            sakuma += check_fox_route(fox_cover_group, p, degrees, n, slopes)
            without_coprime += all(gcd(d, n) != 1 for d in degrees.values())
    assert sakuma > 100 and without_coprime > 5, (sakuma, without_coprime)


# ---- the reduced base of the cover commands ------------------------------------


def cover_groups(job, n):
    """h1_cover, fill and transfer_quotients of a job at level n."""
    p = job["presentation"]
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, job["degrees"]))
    return h1_cover(cover), fill(cover, FillingSpec(job["fill"])), transfer_quotients(
        cover, job.get("words"))


def test_reduce_job_eliminates_m1_and_m2(cover_job):
    job = reduce_job(cover_job, 500)
    assert job["presentation"].generators == ("m", "s", "t", "u")
    assert list(job["words"]) == ["m1", "m2"]
    assert job["degrees"] == {"m": 2, "s": 1, "t": 1, "u": 0}
    assert job["fill"] == cover_job["fill"]  # the slopes hold no m1 or m2
    assert job["n"] == cover_job["n"]
    # the sakuma transfers read tr(m) from m itself
    assert sakuma_transfers(job["presentation"], job["words"]) == tuple(
        (Word([(g, 1)]), k) for g, k in SAKUMA)


def test_reduced_job_matches_the_unreduced_job(cover_job):
    job = reduce_job(cover_job, 41)
    for n in range(1, 42):
        assert cover_groups(job, n) == cover_groups(cover_job, n), n


def test_fox_route_agrees_on_the_reduced_base(cover_job, fox_cover_group):
    # the Fox route never sees a transversal, so this checks the reduction
    # apart from the Reidemeister-Schreier rewrite
    job = reduce_job(cover_job, 41)
    p, degrees, slopes = job["presentation"], job["degrees"], job["fill"]
    sakuma = sakuma_transfers(p, job["words"])
    base = cover_job["presentation"], cover_job["degrees"]
    for n in range(1, 42):
        assert fox_cover_group(p, degrees, n) == fox_cover_group(*base, n), n
        assert fox_cover_group(p, degrees, n, slopes) == fox_cover_group(
            *base, n, cover_job["fill"]), n
        assert fox_cover_group(p, degrees, n, transfers=sakuma) == fox_cover_group(
            *base, n, transfers=SAKUMA), n


def test_eliminated_sakuma_generators_are_read_through_their_words(fox_cover_group):
    # m = s t s^-1 is eliminated, so tr(m) is read as tr(t)
    gens = ("m", "s", "t")
    p = Presentation("conj", gens, tuple(parse_word(r, gens) for r in (
        "m^-1 s t s^-1", "s t s^-1 t^-1 s^-1 t")))
    degrees = {"m": 1, "s": 1, "t": 1}
    job = reduce_job({"presentation": p, "degrees": degrees, "fill": (), "n": 1}, 12)
    assert job["presentation"].generators == ("s", "t")
    assert {g: str(w) for g, w in job["words"].items()} == {"m": "s t s^-1"}
    with pytest.raises(ValueError, match="no base generator named 'm'"):
        sakuma_transfers(job["presentation"])
    for n in range(1, 13):
        q = job["presentation"]
        cover = reidemeister_schreier(q, CyclicQuotientMap(q, n, job["degrees"]))
        unreduced = reidemeister_schreier(p, CyclicQuotientMap(p, n, degrees))
        assert transfer_quotients(cover, job["words"]) == transfer_quotients(unreduced), n
        assert transfer_quotients(unreduced)[0] == fox_cover_group(p, degrees, n, transfers=SAKUMA)


@pytest.mark.parametrize("change", ("relator degree", "missing degree", "empty slope"))
def test_reduce_job_keeps_a_job_its_levels_would_treat_differently(change):
    # c = a b a^-1 is a conjugate definition in every case
    gens = ("a", "b", "c")
    relators = ["c^-1 a b a^-1", "a b a^-1 b^-1"]
    degrees, fill = {"a": 1, "b": 1, "c": 1}, ["a"]
    if change == "relator degree":
        relators.append("a^2")  # degree 2: levels past 2 refuse it by its index
    elif change == "missing degree":
        del degrees["c"]
    else:
        fill = ["c a b^-1 a^-1"]  # c = a b a^-1 makes this slope nothing
    p = Presentation("keep", gens, tuple(parse_word(r, gens) for r in relators))
    job = {"presentation": p, "degrees": degrees, "n": 1,
           "fill": tuple(parse_word(w, gens) for w in fill)}
    assert reduce_job(job, 1) == {**job, "words": {}}
    if change == "relator degree":  # without it, the job reduces
        plain = Presentation("keep", gens, p.relators[:2])
        assert reduce_job({**job, "presentation": plain}, 1)["words"]


def test_reduce_job_keeps_a_base_its_top_level_could_not_rewrite(monkeypatch, cover_job):
    # the reduced n-final holds 102 relator letters, the input 62: at a cap
    # of 407, level 4 takes the input's 248 letters but not the reduced 408
    monkeypatch.setattr(covers_module, "MAX_COVER_LETTERS", 4 * 102 - 1)
    assert reduce_job(cover_job, 4) == {**cover_job, "words": {}}
    assert list(reduce_job(cover_job, 3)["words"]) == ["m1", "m2"]
    # so does a slope that m1's word (9 letters) would take past the cap,
    # here 3 * 140 letters in place of 3 * 28
    slope = Word([("m1", 1), ("s", 1)]) ** 14
    job = {**cover_job, "fill": (slope,)}
    assert reduce_job(job, 3) == {**job, "words": {}}
    assert len(reduce_job(job, 2)["fill"][0]) == 14 * 10


def test_reduce_job_builds_no_slope_past_the_cap():
    # x = u a u^-1 with |u| = 200: the slope (x b)^2000 has 4 000 letters and
    # would rewrite to 2000 * 402, past the cap at level 1
    u = Word([("a", 1), ("b", 1)]) ** 100
    p = Presentation("long", ("a", "b", "x"), (Word([("x", -1)]) * u * Word([("a", 1)]) * ~u,))
    job = {"presentation": p, "degrees": {"a": 1, "b": 0, "x": 1}, "n": 1,
           "fill": (Word([("x", 1), ("b", 1)]) ** 2000,)}
    tracemalloc.start()
    try:
        kept = reduce_job(job, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == {**job, "words": {}}
    assert peak < 1_000_000  # building the rewritten slope peaks at some 20 MB
    # half the slope fits, and is rewritten
    half = reduce_job({**job, "fill": (Word([("x", 1), ("b", 1)]) ** 1000,)}, 1)
    assert len(half["fill"][0]) == 1000 * 402


def test_reduce_job_counts_slope_letters_once_per_word(monkeypatch):
    # x = u a u^-1 with |u| = 500: each run of x in the slope (x b)^20000
    # spells 1001 letters, which are counted from the length of x's word, not
    # by spelling x's conjugate at every run (20 000 conjugated_run scans)
    u = Word([("a", 1), ("b", 1)]) ** 250
    p = Presentation("long", ("a", "b", "x"), (Word([("x", -1)]) * u * Word([("a", 1)]) * ~u,))
    job = {"presentation": p, "degrees": {"a": 1, "b": 0, "x": 1}, "n": 1,
           "fill": (Word([("x", 1), ("b", 1)]) ** 20000,)}
    scans = []
    conjugated_run = Word.conjugated_run
    monkeypatch.setattr(Word, "conjugated_run", lambda w: scans.append(w) or conjugated_run(w))
    assert reduce_job(job, 1) == {**job, "words": {}}  # 20 000 * 1002 letters
    assert len(scans) < 10, len(scans)
    # the count is the slope's length as substitute_all spells it: x^3 and
    # x^-2 spell u a^3 u^-1 and u a^-2 u^-1, 1003 and 1002 letters
    small = {**job, "fill": (Word([("x", 3), ("b", 1), ("x", -2), ("b", 1)]) ** 10,)}
    monkeypatch.setattr(covers_module, "MAX_COVER_LETTERS", 10 * 2007)
    assert len(reduce_job(small, 1)["fill"][0]) == 10 * 2007
    monkeypatch.setattr(covers_module, "MAX_COVER_LETTERS", 10 * 2007 - 1)
    assert reduce_job(small, 1) == {**small, "words": {}}


def test_planted_conjugates_keep_every_cover_group():
    # a seeded differential: random graded relators over m, s, t and planted
    # x_i = w h^+-1 w^-1, reduced and unreduced, at a few levels each
    rng = random.Random(59)
    eliminated = 0
    for draw in range(60):
        gens = ["m", "s", "t"]
        degrees = {g: rng.randrange(-3, 4) for g in gens}
        relators = [random_graded_word(rng, gens, degrees) for _ in range(rng.randrange(0, 3))]
        for i in range(rng.randrange(1, 4)):
            w = Word((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(4)))
            h, e = rng.choice(gens), rng.choice((1, -1))
            x = f"x{i}"
            gens.append(x)
            degrees[x] = e * degrees[h]
            relators.insert(rng.randrange(len(relators) + 1),
                            Word([(x, -1)]) * w * Word([(h, e)]) * ~w)
        relators.append(random_graded_word(rng, gens, degrees))
        p = Presentation(f"planted{draw}", tuple(gens), tuple(relators))
        slopes = (random_graded_word(rng, gens, degrees),)
        job = {"presentation": p, "degrees": degrees, "fill": slopes, "n": 1}
        reduced = reduce_job(job, 12)
        eliminated += len(reduced["words"])
        levels = [n for n in range(1, 13) if gcd(n, *degrees.values()) == 1]
        for n in rng.sample(levels, min(3, len(levels))):
            assert cover_groups(reduced, n) == cover_groups(job, n), (draw, n)
    assert eliminated > 60, eliminated


# ---- transfer columns against the relator-word route ---------------------------


def transfer_relator(cover, g, k=1):
    """k times the transfer of base generator g, written as a relator word."""
    vec = transfer(cover, Word([(g, 1)]))
    return Word((h, k * v) for h, v in zip(cover.presentation.generators, vec))


def word_route_matrix(cover, words):
    """Relator matrix of the kernel presentation with ``words`` appended."""
    p = cover.presentation
    return Presentation(p.name, p.generators, p.relators + tuple(words)).relator_matrix()


def test_transfer_columns_match_relator_word_route(monkeypatch, cover_job):
    # The Smith form must receive the matrix of the relator-word route, entry
    # for entry and in the same column order, so that its pivot sequence is
    # that route's.  dense_quotient appends columns the way the library does,
    # and a reordered column leaves every group unchanged
    seen = []

    def record(matrix, passive=()):
        seen.append((matrix, passive))
        return smith_normal_form(matrix, passive)

    monkeypatch.setattr(abelian, "smith_normal_form", record)
    p = cover_job["presentation"]
    for n in range(1, 42):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
        sakuma = [transfer_relator(cover, "m")]
        sakuma += [transfer_relator(cover, g, 2) for g in ("s", "t")]
        others = [transfer_relator(cover, g) for g in p.generators if g != "m"]
        seen.clear()
        transfer_quotients(cover)
        [(matrix, (block,))] = seen
        assert matrix == word_route_matrix(cover, sakuma), n
        extended = [row + [v[i] for v in block] for i, row in enumerate(matrix)]
        assert extended == word_route_matrix(cover, sakuma + others), n
        seen.clear()
        h_n_module(cover)
        [(matrix, passive)] = seen
        assert not passive
        words = [transfer_relator(cover, g) for g in p.generators]
        assert matrix == word_route_matrix(cover, words), n


def test_fill_columns_match_relator_word_route(monkeypatch, cover_job):
    # fill's Smith form must receive the augmented presentation's matrix:
    # the relators, then the letter-by-letter rewrite of w^(n/o) from each
    # orbit representative, entry for entry and in the same column order
    seen = []

    def record(matrix, passive=()):
        seen.append(matrix)
        return smith_normal_form(matrix, passive)

    monkeypatch.setattr(abelian, "smith_normal_form", record)

    def check(p, degrees, n, slopes):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, degrees))
        words = []
        for w in slopes:
            orbits = gcd(n, cover.quotient.word_degree(w))
            power = w ** (n // orbits)
            words += [rewrite_letter_by_letter(cover.quotient, power, c) for c in range(orbits)]
        seen.clear()
        fill(cover, FillingSpec(slopes))
        assert seen == [word_route_matrix(cover, words)], (p.name, n)
        return len(words)

    p = cover_job["presentation"]
    for n in range(1, 42):
        check(p, cover_job["degrees"], n, cover_job["fill"])
    # u and m u s^-2 have degree 0: one orbit per coset
    slopes = [parse_word(text, p.generators) for text in ("u", "m u s^-2")]
    assert check(p, cover_job["degrees"], 12, slopes) == 24
    gens = ("a", "b")
    torus = Presentation("torus", gens, (parse_word("a b a^-1 b^-1", gens),))
    slopes = [parse_word(text, gens) for text in ("a", "b", "a b", "a^3 b^-2")]
    assert check(torus, {"a": 2, "b": 3}, 6, slopes) == 2 + 3 + 1 + 6


def test_filling_columns_are_capped_before_they_are_built(monkeypatch):
    # u has degree 0, so its slope has one orbit per coset: 500 columns of
    # 1000 entries, some 4 MB, next to a relator matrix M that fits the cap
    p = free_presentation("a", "u")
    cover = reidemeister_schreier(p, CyclicQuotientMap(p, 500, {"a": 1, "u": 0}))
    monkeypatch.setattr(presentations, "MAX_MATRIX_CELLS", 1000 * 600)
    assert len(cover.presentation.relator_matrix()[0]) == 499
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="relator matrix of 1000 x 999 exceeds 600000 cells"):
            fill(cover, FillingSpec((Word([("u", 1)]),)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# ---- filling classes generate the same subgroup as the transfers -------------


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_transfer_filling_subgroup_equivalence(paper_cover, same_row_lattice, n):
    job, covers = paper_cover
    cover = covers[n]
    gens = cover.presentation.generators
    relator_rows = cover.presentation.relator_matrix()
    base_rows = [
        [relator_rows[i][j] for i in range(len(gens))]
        for j in range(len(relator_rows[0]) if relator_rows else 0)
    ]
    fill_rows = filled_relators(cover, FillingSpec(job["fill"]))
    transfer_rows = [transfer(cover, Word([("m", 1)]))]
    for g in ("s", "t"):
        transfer_rows.append([2 * v for v in transfer(cover, Word([(g, 1)]))])

    assert same_row_lattice(base_rows + fill_rows, base_rows + transfer_rows)
    # consequently the two quotients agree outright
    assert fill(cover, FillingSpec(job["fill"])) == sakuma_quotient(cover)


def test_filling_columns_are_the_sakuma_transfers_at_odd_levels(cover_job):
    # At odd n each slope has one shift orbit, and its filled relator is
    # column for column tr(m), 2 tr(t) and -2 tr(s): [M | fill] and [M | S]
    # are the same matrix up to a column sign, which is why verify-paper's
    # rhs item finds the filled homology equal to the transfer quotient.
    # At even n the orbits split and this does not hold.
    p = cover_job["presentation"]
    spec = FillingSpec(cover_job["fill"])
    for n in range(1, 62, 2):
        cover = reidemeister_schreier(p, CyclicQuotientMap(p, n, cover_job["degrees"]))
        fill_columns = filled_relators(cover, spec)
        expected = [transfer_column(cover, "m"), transfer_column(cover, "t", 2),
                    transfer_column(cover, "s", -2)]
        assert fill_columns == expected, n


# ---- branched covers -----------------------------------------------------------


@pytest.fixture(scope="module")
def delta_L():
    return datasets.load_poly("delta_L")


def test_branched_betti_prime_levels(delta_L):
    assert branched_betti(delta_L, 2, 5) == 0
    for k in (2, 3, 4, 5):
        assert branched_betti(delta_L, k, 7) == 0


def test_branched_betti_flagged_cases(delta_L):
    flagged = branched_betti(delta_L, 1, 5)
    assert flagged.all_roots and flagged == 4
    edge = branched_betti(delta_L, 4, 5)
    assert edge == 4 and not edge.all_roots


def test_branched_betti_composite_level(delta_L):
    # the k+1 = 6 factor is the comparison polynomial itself
    assert branched_betti(delta_L, 5, 6) == 5


def test_branched_betti_symmetry(delta_L):
    for n in (5, 7, 9):
        for k in range(2, n - 1):
            if gcd(k, n) == 1:
                assert branched_betti(delta_L, k, n) == branched_betti(
                    delta_L, n - k, n
                )


def test_branched_betti_validation(delta_L):
    with pytest.raises(ValueError):
        branched_betti(delta_L, 2, 6)
    with pytest.raises(ValueError):
        branched_betti(delta_L, 0, 5)
    with pytest.raises(ValueError):
        branched_betti(parse_poly("x", ("x",)), 1, 2)


# ---- mutation ---------------------------------------------------------------------


def test_mutation_invariance(delta_L):
    zero = LaurentPoly.zero(("x", "y"))
    assert mutation_invariance_check(delta_L, zero)  # both diagonals vanish
    assert mutation_invariance_check(delta_L, delta_L)
    a = parse_poly("x - 1", ("x", "y"))
    b = parse_poly("y - 1", ("x", "y"))
    assert mutation_invariance_check(a, b)
    assert not mutation_invariance_check(a, parse_poly("x*y - 2", ("x", "y")))


@pytest.mark.parametrize("vars", (("x",), ("x", "y", "z")), ids=("one", "three"))
def test_mutation_invariance_needs_two_variables(delta_L, vars):
    other = parse_poly("x - 1", vars)
    for pair in ((delta_L, other), (other, delta_L)):
        with pytest.raises(ValueError, match="need two-variable polynomials"):
            mutation_invariance_check(*pair)
