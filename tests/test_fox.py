import random

import pytest

from foxhom import datasets, fox
from foxhom.fox import (
    AbelianizationMap,
    MissingImages,
    alexander_matrix,
    alexander_poly,
    codim_one_minors,
    fox_derivative,
    minor_polys,
)
from foxhom.laurent import LaurentPoly, parse_poly, substitute_monomial
from foxhom.polygcd import laurent_divexact, laurent_gcd
from foxhom.presentations import Presentation
from foxhom.words import Word, parse_word

XY = ("x", "y")


def simple_map(gens=("a", "b"), vars=XY):
    images = {}
    for g, i in zip(gens, range(len(vars))):
        exp = [0] * len(vars)
        exp[i] = 1
        images[g] = (1, tuple(exp))
    return AbelianizationMap(tuple(gens), tuple(vars), images)


# ---- axioms -----------------------------------------------------------


def test_fox_axioms_on_letters():
    phi = simple_map()
    a = parse_word("a", "ab")
    assert fox_derivative(a, "a", phi) == parse_poly("1", XY)
    assert fox_derivative(a, "b", phi).is_zero
    a_inv = parse_word("a^-1", "ab")
    assert fox_derivative(a_inv, "a", phi) == parse_poly("-x^-1", XY)


def test_fox_commutator():
    phi = simple_map()
    w = parse_word("a b a^-1 b^-1", "ab")
    assert fox_derivative(w, "a", phi) == parse_poly("1 - y", XY)
    assert fox_derivative(w, "b", phi) == parse_poly("x - 1", XY)


def random_word(rng, gens, max_len=6):
    return Word(
        [
            (rng.choice(gens), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randrange(max_len + 1))
        ]
    )


def random_map(rng, gens, vars=("x", "y")):
    images = {}
    for g in gens:
        images[g] = (
            rng.choice([1, -1]),
            tuple(rng.randrange(-2, 3) for _ in vars),
        )
    return AbelianizationMap(tuple(gens), tuple(vars), images)


def monomial_of(phi, word):
    """The image of a word: the product of its runs' signed monomials."""
    out = LaurentPoly.constant(phi.vars, 1)
    for g, e in word.runs:
        s, exp = phi.image_monomial(g, e)
        out = out * LaurentPoly.monomial(phi.vars, exp, s)
    return out


def test_fox_product_rule_random():
    rng = random.Random(7)
    gens = ("a", "b", "c")
    for _ in range(150):
        phi = random_map(rng, gens)
        u, v = random_word(rng, gens), random_word(rng, gens)
        for g in gens:
            lhs = fox_derivative(u * v, g, phi)
            rhs = fox_derivative(u, g, phi) + monomial_of(phi, u) * fox_derivative(
                v, g, phi
            )
            assert lhs == rhs


def test_fox_fundamental_identity_random():
    rng = random.Random(11)
    gens = ("a", "b", "c")
    one = parse_poly("1", XY)
    for _ in range(150):
        phi = random_map(rng, gens)
        w = random_word(rng, gens)
        total = LaurentPoly.zero(XY)
        for g in gens:
            total = total + fox_derivative(w, g, phi) * (monomial_of(phi, Word([(g, 1)])) - 1)
        assert total == monomial_of(phi, w) - one


def test_unknown_generator():
    phi = simple_map()
    with pytest.raises(ValueError):
        fox_derivative(parse_word("a", "ab"), "z", phi)


def test_word_letter_without_an_image_is_a_value_error():
    phi = AbelianizationMap(("a",), ("x",), {"a": (1, (1,))})
    with pytest.raises(ValueError, match="letter 'b' has no image under the map"):
        fox_derivative(parse_word("a b", "ab"), "a", phi)
    # a letter after the one taken is named too, before any term is summed
    with pytest.raises(ValueError, match="letter 'b' has no image under the map"):
        fox_derivative(parse_word("a^-1 b^3 a", "ab"), "a", phi)


# ---- the bundled matrix -------------------------------------------------


def test_matrix_matches_reference_entrywise(n_final, free_abelian_map, reference):
    grid = alexander_matrix(n_final, free_abelian_map)
    assert grid.row_labels == n_final.generators
    assert grid == reference["matrix"]


def test_matrix_first_entry(n_final, free_abelian_map):
    grid = alexander_matrix(n_final, free_abelian_map)
    expected = parse_poly("x^-1 - x^-2 + x^-2*y^-1*z^-1", ("x", "y", "z"))
    assert grid.row_labels[0] == "m" and grid.col_labels[0] == "r1"
    assert grid.entries[0][0] == expected


def test_relator_columns_satisfy_fundamental_identity(n_final, free_abelian_map):
    grid = alexander_matrix(n_final, free_abelian_map)
    vars = free_abelian_map.vars
    for j in range(len(grid.col_labels)):
        total = LaurentPoly.zero(vars)
        for i, g in enumerate(grid.row_labels):
            sign, exp = free_abelian_map.images[g]
            img = LaurentPoly.monomial(vars, exp, sign)
            total = total + grid.entries[i][j] * (img - 1)
        assert total.is_zero


def test_one_relator_example():
    p = Presentation("a-a", ("a",), (parse_word("a", ("a",)),))
    phi = AbelianizationMap(("a",), ("x",), {"a": (1, (1,))})
    grid = alexander_matrix(p, phi)
    assert grid.shape == (1, 1)
    assert grid.entries[0][0] == parse_poly("1", ("x",))


def test_map_validation():
    with pytest.raises(MissingImages, match="no image for generator 'a'$"):
        AbelianizationMap(("a",), ("x",), {})
    with pytest.raises(MissingImages, match="no image for generators 'a', 'c'$"):
        AbelianizationMap(("a", "b", "c"), ("x",), {"b": (1, (1,))})
    with pytest.raises(ValueError) as bad_sign:
        AbelianizationMap(("a", "b"), ("x",), {"a": (2, (1,))})
    # a bad image is the map's own fault, whatever else it lacks
    assert not isinstance(bad_sign.value, MissingImages)
    p = Presentation("p", ("a", "b"), ())
    with pytest.raises(ValueError):
        alexander_matrix(p, simple_map(gens=("a",), vars=("x",)))


def test_relator_letters_are_capped_before_any_derivative(monkeypatch):
    p = Presentation("long", ("a", "b"), (parse_word("a^9 b", ("a", "b")),))
    monkeypatch.setattr(fox, "MAX_FOX_LETTERS", 10)
    assert alexander_matrix(p, simple_map()).shape == (2, 1)  # 10 letters: at the cap

    def refuse(*args):
        raise AssertionError("a Fox derivative was taken")

    monkeypatch.setattr(fox, "fox_derivative", refuse)
    p = Presentation("long", ("a", "b"), (parse_word("a^10 b", ("a", "b")),))
    with pytest.raises(ValueError, match="relators of 11 letters exceed 10"):
        alexander_matrix(p, simple_map())


# ---- minors ---------------------------------------------------------------


def test_minors_match_reference(n_final, free_abelian_map, reference):
    minors = minor_polys(alexander_matrix(n_final, free_abelian_map), free_abelian_map)
    for g in n_final.generators:
        expected = reference["minors"][g]
        if expected.is_zero:
            assert minors[g].is_zero
        else:
            assert minors[g] == expected.normal_form()


def test_minor_of_u_row_is_zero(n_final, free_abelian_map):
    minors = minor_polys(alexander_matrix(n_final, free_abelian_map), free_abelian_map)
    assert minors["u"].is_zero


def test_minors_two_by_one():
    # deleting row a leaves the b-derivative and vice versa, in normal form
    p = Presentation("p", ("a", "b"), (parse_word("a b a^-1 b^-1", ("a", "b")),))
    phi = simple_map()
    minors = minor_polys(alexander_matrix(p, phi), phi)
    assert minors["a"] == parse_poly("x - 1", XY)  # the b-derivative
    assert minors["b"] == parse_poly("y - 1", XY)  # the a-derivative, sign fixed
    p = Presentation("p", ("a", "b"), (parse_word("a b", ("a", "b")),))
    phi = AbelianizationMap(("a", "b"), XY, {"a": (1, (1, 0)), "b": (1, (-1, 0))})
    minors = minor_polys(alexander_matrix(p, phi), phi)
    assert minors["a"] == parse_poly("1", XY)  # normal form of the monomial x
    assert minors["b"] == parse_poly("1", XY)
    # a -> x, b -> y sends the relator a b to x*y, not 1: no map of the group
    with pytest.raises(ValueError, match="not the Fox matrix of the map"):
        minor_polys(alexander_matrix(p, simple_map()), simple_map())


def test_minors_shape_error(n_final, free_abelian_map):
    p = Presentation("free2", ("a", "b"), ())
    with pytest.raises(ValueError):
        minor_polys(alexander_matrix(p, simple_map()), simple_map())


def test_minors_refuse_the_grid_of_another_map(monkeypatch, n_final, free_abelian_map):
    images = dict(free_abelian_map.images)
    images["s"], images["t"] = images["t"], images["s"]
    swapped = AbelianizationMap(n_final.generators, free_abelian_map.vars, images)
    grid = alexander_matrix(n_final, free_abelian_map)

    def refuse(*args):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(fox, "determinant", refuse)
    with pytest.raises(ValueError, match="the grid is not the Fox matrix of the map"):
        minor_polys(grid, swapped)


def test_minors_refuse_a_map_that_lacks_a_row(monkeypatch, n_final, free_abelian_map):
    # a map on fewer generators than the grid's rows is refused before the
    # fundamental-formula check reads a missing image
    images = dict(free_abelian_map.images)
    del images["u"]
    partial = AbelianizationMap(n_final.generators[:-1], free_abelian_map.vars, images)
    grid = alexander_matrix(n_final, free_abelian_map)
    monkeypatch.setattr(fox, "determinant", lambda *args: pytest.fail("a determinant was taken"))
    with pytest.raises(ValueError, match="the grid is not the Fox matrix of the map"):
        codim_one_minors(grid, partial)


def random_deficiency_one(rng):
    """2-4 generators, one relator fewer, and a map to signed monomials.

    Each relator is a product of one or two commutators, and the map is over
    1-3 variables.
    Every commutator goes to 1 under any such map.  A quarter of the draws
    send one generator to +1, and one in ten sends every generator there.
    """
    gens = tuple(f"a{i}" for i in range(rng.randint(2, 4)))

    def word():
        return Word([(rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                     for _ in range(rng.randint(1, 3))])

    def commutator():
        u, w = word(), word()
        return u * w * ~u * ~w

    relators = [commutator() for _ in gens[1:]]
    relators = [r * commutator() if rng.random() < 0.5 else r for r in relators]
    vars = ("x", "y", "z")[: rng.randint(1, 3)]
    images = {
        g: (rng.choice((1, -1)), tuple(rng.randint(-2, 2) for _ in vars)) for g in gens
    }
    draw = rng.random()
    if draw < 0.1:
        images = dict.fromkeys(gens, (1, (0,) * len(vars)))
    elif draw < 0.35:
        images[rng.choice(gens)] = (1, (0,) * len(vars))
    return Presentation("draw", gens, relators), AbelianizationMap(gens, vars, images)


def test_minors_match_every_determinant(monkeypatch, all_minors):
    # one determinant and exact divisions give what a determinant per
    # row deletion gives, sign and monomial included, and so does the gcd;
    # maps with every image +1 take a determinant per minor
    rng = random.Random(20061)
    dets = []
    real = fox.determinant
    monkeypatch.setattr(fox, "determinant", lambda m: dets.append(m) or real(m))
    nonzero = trivial = 0
    for _ in range(240):
        p, phi = random_deficiency_one(rng)
        grid = alexander_matrix(p, phi)
        oracle = all_minors(grid)
        dets.clear()
        assert minor_polys(grid, phi) == {g: m.normal_form() for g, m in oracle.items()}
        moving = any(phi.image_monomial(g) != (1, (0,) * len(phi.vars)) for g in p.generators)
        assert len(dets) == (1 if moving else len(p.generators))
        assert codim_one_minors(grid, phi) == list(reversed(oracle.values()))
        assert alexander_poly(p, phi) == laurent_gcd(oracle.values())
        nonzero += any(oracle.values())
        trivial += not moving
    assert nonzero >= 100 and trivial >= 10


# ---- the gcd of minors -----------------------------------------------------


def test_alexander_poly_matches_reference(n_final, free_abelian_map, reference):
    delta = alexander_poly(n_final, free_abelian_map)
    assert delta.unit_equivalent(reference["delta"])


def test_alexander_poly_specialization(n_final, free_abelian_map, infinite_cyclic_map, reference):
    """The specialized gcd and the gcd of the specialized matrix differ by x - 1.

    The three-variable gcd substituted along m -> x^2, s, t -> x equals the
    reference univariate polynomial; the gcd computed directly from the
    specialized matrix picks up one extra factor of x - 1 (gcd collapse),
    which is pinned here exactly.
    """
    delta = alexander_poly(n_final, free_abelian_map)
    substituted = substitute_monomial(
        delta, {"x": (1, (2,)), "y": (1, (1,)), "z": (1, (1,))}, ("x",)
    )
    assert substituted.unit_equivalent(reference["delta_inf"])

    direct = alexander_poly(n_final, infinite_cyclic_map)
    quotient = laurent_divexact(direct.normal_form(), substituted.normal_form())
    assert quotient.unit_equivalent(parse_poly("x - 1", ("x",)))


def test_alexander_poly_free_rank_one():
    p = Presentation("free1", ("a",), ())
    phi = AbelianizationMap(("a",), ("x",), {"a": (1, (1,))})
    assert alexander_poly(p, phi) == parse_poly("1", ("x",))


def test_alexander_poly_rst():
    rst = datasets.load_presentation("rst")
    phi = AbelianizationMap(
        rst.generators,
        ("x", "y"),
        {"r": (1, (-1, -1)), "s": (1, (1, 0)), "t": (1, (0, 1))},
    )
    assert alexander_poly(rst, phi) == parse_poly("1", XY)


def test_alexander_poly_all_zero_columns():
    # an empty relator has all Fox derivatives zero, so every minor vanishes
    p = Presentation("degenerate", ("a", "b"), (Word(),))
    phi = simple_map()
    assert alexander_poly(p, phi).is_zero


# ---- invariance of the gcd under the published reduction chain -----------


def test_reduction_chain_gives_same_alexander_polynomial(reference):
    from test_presentations import reduce_amalgam_to_final

    derived = reduce_amalgam_to_final()
    images = {
        "m": (1, (1, 0, 0)),
        "m1": (1, (1, 0, 0)),
        "m2": (1, (1, 0, 0)),
        "s": (1, (0, 1, 0)),
        "t": (1, (0, 0, 1)),
        "u": (1, (0, 0, 0)),
    }
    phi = AbelianizationMap(derived.generators, ("x", "y", "z"), images)
    delta = alexander_poly(derived, phi)
    assert delta.unit_equivalent(reference["delta"])
