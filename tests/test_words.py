import random
import re

import pytest

from foxhom.words import ParseError, Word, exponent_vector, parse_word

ABC = ("a", "b", "c")


def random_word(rng, alphabet=ABC, max_runs=8):
    runs = []
    for _ in range(rng.randrange(max_runs + 1)):
        runs.append((rng.choice(alphabet), rng.choice([-3, -2, -1, 1, 2, 3])))
    return Word(runs)


def test_parse_examples():
    w = parse_word("s t s^-1 t", ["s", "t"])
    assert w.runs == (("s", 1), ("t", 1), ("s", -1), ("t", 1))
    assert parse_word("s s^-1", ["s"]) == Word()
    assert parse_word("m^2 m^-1", ["m"]).runs == (("m", 1),)
    assert parse_word("", ["s"]) == Word()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("q", ["s"])
    with pytest.raises(ParseError):
        parse_word("s^x", ["s"])
    with pytest.raises(ParseError):
        parse_word("s^0", ["s"])
    # an exponent is an optional sign and ASCII digits, not all int() takes
    assert parse_word("s^+2 s^-1", ["s"]).runs == (("s", 1),)
    for tail in ("1_0", "\u0663", "2.0", "+", "--1"):
        with pytest.raises(ParseError, match=re.escape(f"malformed exponent {tail!r}")):
            parse_word(f"s^{tail}", ["s"])
    with pytest.raises(ParseError, match=r"token 0: empty generator name in '\^2'"):
        parse_word("^2", ["s"])
    err = None
    try:
        parse_word("s t^bad", ["s", "t"])
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 1


def test_reduction_cascades():
    w = Word([("a", 1), ("b", 1), ("b", -1), ("a", -1)])
    assert not w
    w = Word([("a", 2), ("b", 1), ("b", -1), ("a", -1)])
    assert w.runs == (("a", 1),)


def test_runs_are_kept_or_made_tuples():
    # a tuple run that survives reduction is kept as it is, not copied
    run = ("b", 2)
    assert Word([("a", 1), run, ("c", 0)]).runs[1] is run
    w = Word([["a", 1], ["b", 2], ["b", 1]])
    assert w.runs == (("a", 1), ("b", 3)) and all(type(r) is tuple for r in w.runs)
    assert hash(w) == hash(Word([("a", 1), ("b", 3)]))


def test_words_are_immutable():
    w = Word([("a", 1)])
    with pytest.raises(AttributeError, match="Word is immutable"):
        w.runs = ()
    with pytest.raises(AttributeError, match="Word is immutable"):
        del w.runs
    assert w.runs == (("a", 1),)


def test_inverse_and_concat():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng)
        assert ~(~w) == w
        assert not (w * ~w)
        assert not (~w * w)


def test_parse_print_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng)
        assert parse_word(str(w), ABC) == w


def test_power():
    w = parse_word("a b", ABC)
    assert w**0 == Word()
    assert w**2 == parse_word("a b a b", ABC)
    assert w**-1 == ~w
    assert parse_word("a", ABC) ** 3 == Word([("a", 3)])
    # not cyclically reduced: the seams cancel
    assert parse_word("a b a^-1", ABC) ** 3 == parse_word("a b^3 a^-1", ABC)
    # seeded differential against repeated multiplication
    rng = random.Random(11)
    words = [parse_word(text, ABC) for text in ("a b a^-1", "a^-2 b c^2 b^-1 a^2", "a b a")]
    words += [random_word(rng) for _ in range(300)]
    for w in words:
        for n in range(-6, 13):
            base = w if n >= 0 else ~w
            want = Word()
            for _ in range(abs(n)):
                want = want * base
            assert w**n == want, (w, n)


def test_conjugated_run():
    assert parse_word("a b^-2 a^-1", ABC).conjugated_run() == ("b", -2)
    assert parse_word("c", ABC).conjugated_run() == ("c", 1)
    for text in ("", "a b", "a b a", "a b c a^-1", "a b a^-2"):
        assert parse_word(text, ABC).conjugated_run() is None, text


def test_power_of_a_conjugate_is_one_run_long():
    # 3 * 10^7 copies of its runs would take gigabytes
    w = parse_word("a c b^2 c^-1 a^-1", ABC)
    assert w**30_000_000 == parse_word("a c b^60000000 c^-1 a^-1", ABC)
    assert w**-30_000_000 == parse_word("a c b^-60000000 c^-1 a^-1", ABC)


def test_substitute():
    w = parse_word("a b a^-1", ABC)
    assert w.substitute("a", parse_word("b c", ABC)) == parse_word(
        "b c b c^-1 b^-1", ABC
    )
    assert w.substitute("b", Word()) == Word()  # a a^-1 cancels


def test_substitute_all_matches_run_by_run_products():
    rng = random.Random(23)
    for _ in range(300):
        w = random_word(rng)
        words = {g: random_word(rng, ABC, 3) for g in rng.sample(ABC, rng.randrange(4))}
        want = Word()
        for g, e in w.runs:
            want = want * (words[g] ** e if g in words else Word([(g, e)]))
        assert w.substitute_all(words) == want


def test_exponent_vector_examples():
    order = ("m", "s", "t", "u")
    assert exponent_vector(parse_word("s t s^-1 t", order), order) == [0, 0, 2, 0]
    assert exponent_vector(parse_word("t^-1 s^-1 t s^-1", order), order) == [0, -2, 0, 0]
    assert exponent_vector(Word(), order) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        exponent_vector(parse_word("a", ABC), ["b"])


def test_exponent_vector_additive():
    rng = random.Random(13)
    for _ in range(200):
        u, v = random_word(rng), random_word(rng)
        uv = exponent_vector(u * v, ABC)
        added = [
            a + b
            for a, b in zip(exponent_vector(u, ABC), exponent_vector(v, ABC))
        ]
        assert uv == added
