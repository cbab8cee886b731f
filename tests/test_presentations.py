import json
import random
import tracemalloc

import pytest

from foxhom import datasets, presentations
from foxhom.abelian import AbelianGroup
from foxhom.presentations import (
    Presentation,
    abelianize,
    tietze_add_generator,
    tietze_eliminate,
)
from foxhom.words import Word, parse_word


def P(name, gens, *relator_texts):
    gens = tuple(gens)
    return Presentation(name, gens, tuple(parse_word(t, gens) for t in relator_texts))


# ---- construction and validation --------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        Presentation("bad", ("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation("bad", ("a",), (Word([("b", 1)]),))
    with pytest.raises(ValueError):
        Presentation("bad", ("a b",), ())


def test_json_roundtrip(n_final):
    data = json.loads(json.dumps(n_final.to_json()))
    assert Presentation.from_json(data) == n_final


# ---- abelianization goldens -------------------------------------------


def test_abelianize_bundled(n_final):
    assert abelianize(n_final) == AbelianGroup(3, (2,))
    assert abelianize(datasets.load_presentation("nb")) == AbelianGroup(3)
    assert abelianize(datasets.load_presentation("rst")) == AbelianGroup(2)
    assert abelianize(datasets.load_presentation("amalgam")) == AbelianGroup(3, (2,))


def test_relator_matrix_is_capped_before_it_allocates():
    # 1000 appended columns of 1000 entries pass the cap; the columns share
    # one list, so only the matrix could take memory here
    gens = tuple(f"g{i}" for i in range(1_000))
    p = Presentation("wide", gens, ())
    columns = [[1] * len(gens)] * 1_000
    assert len(columns) * len(gens) <= presentations.MAX_MATRIX_ENTRIES
    assert 4 * len(gens) + len(columns) * len(gens) > presentations.MAX_MATRIX_ENTRIES
    for sparse in (False, True):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="relator matrix of 1000 x 1000 with up to "
                                                 "1000000 nonzeros takes 1004000 entries"):
                p.relator_matrix(columns, sparse=sparse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the matrix would take some 100 MB


def test_sparse_relator_matrix_builds_no_grid():
    # 10 001 x 1 000 cells, some 80 MB as rows, but 1 000 nonzeros
    gens = tuple(f"g{i}" for i in range(10_001))
    one_letter = tuple(Word([(g, 1)]) for g in gens[:1_000])
    p = Presentation("wide", gens, one_letter)
    tracemalloc.start()
    try:
        matrix = p.relator_matrix(sparse=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (matrix.rows, matrix.cols) == (10_001, 1_000)
    assert matrix.columns == {j: {j: 1} for j in range(1_000)}
    assert abelianize(p) == AbelianGroup(9_001)


def test_relator_matrix_cap_admits_its_bound(monkeypatch):
    # 2 rows of 4 entries and 4 + 1 + 1 relator runs
    p = P("t", "ab", "a b a^-1 b^-1", "a^2", "b^3")
    monkeypatch.setattr(presentations, "MAX_MATRIX_ENTRIES", 14)
    assert p.relator_matrix() == [[0, 2, 0], [0, 0, 3]]
    assert list(p.relator_matrix(sparse=True)) == [(0, 2, 0), (0, 0, 3)]
    monkeypatch.setattr(presentations, "MAX_MATRIX_ENTRIES", 13)
    for sparse in (False, True):
        with pytest.raises(ValueError, match="6 nonzeros takes 14 entries, more than 13"):
            p.relator_matrix(sparse=sparse)


def test_relator_matrix_appends_columns_inside_its_cap(monkeypatch):
    p = P("t", "ab", "a b a^-1 b^-1", "a^2", "b^3")
    assert p.relator_matrix([[1, -1], [0, 4]]) == [[0, 2, 0, 1, 0], [0, 0, 3, -1, 4]]
    sparse = p.relator_matrix([[1, -1], [0, 4]], sparse=True)
    assert sparse.columns == {1: {0: 2}, 2: {1: 3}, 3: {0: 1, 1: -1}, 4: {1: 4}}
    # each appended column counts one nonzero per generator
    monkeypatch.setattr(presentations, "MAX_MATRIX_ENTRIES", 16)
    assert p.relator_matrix([[5, 6]]) == [[0, 2, 0, 5], [0, 0, 3, 6]]
    assert p.relator_matrix([[0, 6]], sparse=True).columns[3] == {1: 6}
    with pytest.raises(ValueError, match="2 x 5 with up to 10 nonzeros takes 18 entries"):
        p.relator_matrix([[1, 1], [1, 1]])
    for sparse in (False, True):
        with pytest.raises(ValueError, match="appended column 0 has 1 entries, not 2"):
            p.relator_matrix([[1]], sparse=sparse)  # one entry short of the two generators


def test_abelianize_no_relators():
    assert abelianize(P("free", "abc")) == AbelianGroup(3)
    assert abelianize(Presentation("empty", (), ())) == AbelianGroup(0)


# ---- Tietze moves -------------------------------------------------------


def test_eliminate_rst():
    rst = datasets.load_presentation("rst")
    reduced = tietze_eliminate(rst, "r", 0)
    assert reduced.generators == ("s", "t")
    assert reduced.relators == ()


def test_eliminate_two_generator():
    p = P("ab", "ab", "a b")
    q = tietze_eliminate(p, "b", 0)
    assert q.generators == ("a",)
    assert q.relators == ()


def test_eliminate_amalgam_g2():
    amalgam = datasets.load_presentation("amalgam")
    # the last relator contains g2 exactly once
    reduced = tietze_eliminate(amalgam, "g2", 3)
    assert len(reduced.generators) == 4
    assert abelianize(reduced) == abelianize(amalgam)


def test_eliminate_rejects_bad_relator():
    p = P("p", "ab", "a b a")
    with pytest.raises(ValueError):
        tietze_eliminate(p, "a", 0)
    p = P("p", "ab", "a^2 b")
    with pytest.raises(ValueError):
        tietze_eliminate(p, "a", 0)
    with pytest.raises(ValueError):
        tietze_eliminate(p, "c", 0)


@pytest.mark.parametrize("rel_index", (-1, -2, 2, 3))
def test_eliminate_rejects_an_index_outside_the_relators(rel_index):
    # relator -2 is relator 0 counted from the end: it holds c once, and was
    # once solved for c and then kept, substituted, as an empty relator
    p = P("p", "abc", "c^-1 b a b^-1", "c a c^-1 a^-1")
    with pytest.raises(ValueError, match=f"no relator {rel_index} among 2"):
        tietze_eliminate(p, "c", rel_index)
    assert [str(r) for r in tietze_eliminate(p, "c", 0).relators] == [
        "b a b^-1 a b a^-1 b^-1 a^-1"
    ]


def test_add_generator():
    p = P("p", "ab", "a b")
    q = tietze_add_generator(p, "c", parse_word("a b^-1", "ab"))
    assert q.generators == ("a", "b", "c")
    assert str(q.relators[-1]) == "c^-1 a b^-1"
    assert abelianize(q).rank == abelianize(p).rank
    # the new presentation checks the name
    with pytest.raises(ValueError, match="duplicate generator 'a'"):
        tietze_add_generator(p, "a", Word())
    with pytest.raises(ValueError, match="invalid generator name 'c d'"):
        tietze_add_generator(p, "c d", Word())
    # the new presentation would accept a definition that names the new
    # generator, but that is no Tietze move
    with pytest.raises(ValueError, match=r"definition uses unknown generators \['c'\]"):
        tietze_add_generator(p, "c", parse_word("c", "c"))


def test_add_trivial_generator_keeps_homology():
    p = P("p", "ab", "a b a^-1 b^-1")
    q = tietze_add_generator(p, "x", Word())
    assert str(q.relators[-1]) == "x^-1"
    assert abelianize(q) == abelianize(p)


# ---- the published reduction chain ------------------------------------


def reduce_amalgam_to_final():
    """Replay the generator eliminations that produce the final presentation."""
    p = datasets.load_presentation("amalgam")
    p = tietze_eliminate(p, "g2", 3)
    # meridian m = g1^-1 f4 replaces g1
    p = tietze_add_generator(p, "m", parse_word("g1^-1 f4", p.generators))
    p = tietze_eliminate(p, "g1", len(p.relators) - 1)
    # the two conjugate meridians
    p = tietze_add_generator(p, "m1", parse_word("f4^-1 m f4", p.generators))
    p = tietze_add_generator(
        p, "m2", parse_word("s t^-1 s t m1 t^-1 s^-1 t s^-1", p.generators)
    )
    # u = t^-1 s^-1 f4 m^-1 has order two in homology; it replaces f4
    p = tietze_add_generator(p, "u", parse_word("t^-1 s^-1 f4 m^-1", p.generators))
    p = tietze_eliminate(p, "f4", len(p.relators) - 1)
    return p


def test_reduction_chain_reaches_final_homology(n_final):
    derived = reduce_amalgam_to_final()
    assert set(derived.generators) == set(n_final.generators)
    assert len(derived.relators) == len(n_final.relators)
    assert abelianize(derived) == abelianize(n_final) == AbelianGroup(3, (2,))


# ---- invariance under random move sequences ----------------------------


def random_presentation(rng, max_gens=4, max_relators=3):
    gens = tuple(f"g{i}" for i in range(rng.randrange(1, max_gens + 1)))
    relators = []
    for _ in range(rng.randrange(max_relators + 1)):
        runs = [
            (rng.choice(gens), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randrange(1, 6))
        ]
        w = Word(runs)
        if w:
            relators.append(w)
    return Presentation("rand", gens, tuple(relators))


def random_word_over(rng, gens):
    if not gens:
        return Word()
    return Word(
        [
            (rng.choice(gens), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randrange(4))
        ]
    )


def apply_random_move(rng, p, counter):
    """One random Tietze move; returns the new presentation."""
    if rng.random() < 0.6:
        name = f"x{counter}"
        return tietze_add_generator(p, name, random_word_over(rng, p.generators))
    # try an elimination; fall back to adding when none is legal
    candidates = []
    for idx, r in enumerate(p.relators):
        for gen in {g for g, _ in r.runs}:
            hits = [e for g, e in r.runs if g == gen]
            if len(hits) == 1 and abs(hits[0]) == 1:
                candidates.append((gen, idx))
    if candidates:
        gen, idx = candidates[rng.randrange(len(candidates))]
        return tietze_eliminate(p, gen, idx)
    name = f"x{counter}"
    return tietze_add_generator(p, name, random_word_over(rng, p.generators))


def test_tietze_moves_preserve_abelianization():
    rng = random.Random(101)
    counter = 0
    for _ in range(40):
        p = random_presentation(rng)
        reference = abelianize(p)
        for _ in range(rng.randrange(1, 5)):
            counter += 1
            p = apply_random_move(rng, p, counter)
            after = abelianize(p)
            assert (after.rank, after.torsion) == (reference.rank, reference.torsion)


# ---- conjugate elimination ----------------------------------------------------


def letters(p):
    return sum(map(len, p.relators))


def check_words(p, q, words):
    """The words of ``eliminate_conjugates(p) == (q, words)`` undo its moves.

    Each word is a conjugate of one letter of q.  Substituted back into p,
    the words turn each defining relator into the identity after free
    reduction, and every other relator into q's, in order.
    """
    assert q.generators == tuple(g for g in p.generators if g not in words)
    for w in words.values():
        assert w.generators_used() <= set(q.generators)
        assert abs(w.conjugated_run()[1]) == 1
    kept, defining = 0, 0
    for r in p.relators:
        back = r.substitute_all(words)
        if kept < len(q.relators) and back == q.relators[kept]:
            kept += 1
        else:
            assert back == Word(), r
            defining += 1
    assert (kept, defining) == (len(q.relators), len(words))


def conjugate_chain(k):
    """x_(i+1) = x_i a x_i^-1 for i < k, closed by x_k a x_k^-1 a^-1."""
    gens = ("a", *(f"x{i}" for i in range(k + 1)))
    relators = [f"x{i + 1}^-1 x{i} a x{i}^-1" for i in range(k)] + [f"x{k} a x{k}^-1 a^-1"]
    return P(f"chain{k}", gens, *relators)


def reversed_chain(k):
    """x_i = x_(i+1) a x_(i+1)^-1 for i < k: the relators shrink, the words double."""
    gens = ("a", *(f"x{i}" for i in range(k + 1)))
    return P(f"reversed{k}", gens, *(f"x{i}^-1 x{i + 1} a x{i + 1}^-1" for i in range(k)))


def test_eliminate_conjugates_on_n_final(n_final):
    # m1 by relator 0, then m2 by relator 1 (relator 2 of the input)
    q, words = presentations.eliminate_conjugates(n_final)
    assert q.generators == ("m", "s", "t", "u")
    assert list(words) == ["m1", "m2"]
    assert (letters(n_final), letters(q), len(q.relators)) == (62, 102, 3)
    assert str(words["m1"]) == "m^-1 u^-1 t^-1 s^-1 m s t u m"
    check_words(n_final, q, words)
    assert abelianize(q) == abelianize(n_final)


@pytest.mark.parametrize("chain", (conjugate_chain, reversed_chain))
def test_conjugate_chain_stops_before_twice_its_letters(chain):
    # unbounded, the chain doubles at each elimination: the forward one in
    # its relators (1 024 letters at k = 8, 16 384 at k = 12, and k = 16 does
    # not finish in a minute), the reversed one in the word of x_0 (2^(k+1)
    # - 1 letters, about 2 * 10^12 at k = 40)
    for k in (8, 12, 16, 30, 40):
        p = chain(k)
        q, words = presentations.eliminate_conjugates(p)
        assert letters(q) <= 2 * letters(p), k
        assert sum(map(len, words.values())) <= 2 * letters(p), k
        assert 0 < len(words) < k
        # the bound stopped it: a conjugate definition is left
        assert any(presentations._conjugate_definition(r) for r in q.relators), k
        check_words(p, q, words)
        assert abelianize(q) == abelianize(p)


def test_huge_exponents_cost_nothing_to_eliminate(monkeypatch):
    # a^30000000 b solves b to a power, not a conjugate of a letter
    p = P("long", "ab", "a^30000000 b")
    assert presentations.eliminate_conjugates(p) == (p, {})
    # 30 000 005 letters pass the reading budget before the first step
    p = P("power", "abc", "c^-1 b a b^-1", "c^30000000 a")
    assert presentations.eliminate_conjugates(p) == (p, {})
    # past it, c = b a b^-1 substitutes into c^30000000 as one run
    monkeypatch.setattr(presentations, "MAX_TIETZE_LETTERS", 10**9)
    q, words = presentations.eliminate_conjugates(p)
    assert [str(r) for r in q.relators] == ["b a^30000000 b^-1 a"]
    check_words(p, q, words)


def test_elimination_stops_at_its_reading_budget(monkeypatch):
    # every x_i = b a b^-1 is substituted into the long first relator, which
    # the reduction reads again at each step
    gens = ("a", "b", *(f"x{i}" for i in range(10)))
    long = " ".join(f"x{i}" for i in range(10)) + " a b" * 100
    p = P("budget", gens, long, *(f"x{i}^-1 b a b^-1" for i in range(10)))
    q, words = presentations.eliminate_conjugates(p)
    assert len(words) == 10
    check_words(p, q, words)
    monkeypatch.setattr(presentations, "MAX_TIETZE_LETTERS", 4 * letters(p))
    q, words = presentations.eliminate_conjugates(p)
    assert 0 < len(words) < 10
    check_words(p, q, words)


def planted_presentation(rng, draw):
    """Random relators over a, b, c and planted x_i = w h^+-1 w^-1, with w and
    h over the letters before x_i, and the x_i used in the random relators."""
    gens = ["a", "b", "c"]
    relators = []
    for i in range(rng.randrange(1, 5)):
        w = random_word_over(rng, gens)
        h = Word([(rng.choice(gens), rng.choice((1, -1)))])
        gens.append(f"x{i}")
        relators.insert(rng.randrange(len(relators) + 1), Word([(gens[-1], -1)]) * w * h * ~w)
    for _ in range(rng.randrange(0, 4)):
        relators.insert(rng.randrange(len(relators) + 1), random_word_over(rng, gens))
    return Presentation(f"planted{draw}", tuple(gens), tuple(relators))


def test_planted_conjugates_are_eliminated_soundly():
    rng = random.Random(31)
    eliminated = 0
    for draw in range(200):
        p = planted_presentation(rng, draw)
        q, words = presentations.eliminate_conjugates(p)
        check_words(p, q, words)
        assert letters(q) <= 2 * letters(p)
        assert abelianize(q) == abelianize(p)
        eliminated += len(words)
    assert eliminated > 300
