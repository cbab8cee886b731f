import json
import random
import time
from functools import reduce
from math import gcd, lcm

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from foxhom import datasets, polygcd, polymat
from foxhom.covers import branched_betti
from foxhom.fox import alexander_matrix, codim_one_minors
from foxhom.laurent import LaurentPoly, nu_poly, parse_poly, substitute_monomial
from foxhom.polygcd import (
    ExactDivisionError,
    RootCount,
    laurent_divexact,
    laurent_gcd,
    poly_divexact,
    poly_gcd,
    shared_root_count,
)
from foxhom.polymat import LaurentMatrix, determinant

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly(text, vars=XY):
    return parse_poly(text, vars)


def random_poly(rng, vars, max_terms=5, span=3, coef=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = tuple(rng.randrange(-span, span + 1) for _ in vars)
        terms[exp] = rng.randrange(-coef, coef + 1)
    return LaurentPoly(vars, terms)


def to_sympy(p):
    syms = sp.symbols(p.vars)
    if len(p.vars) == 1:
        syms = (syms[0],) if not isinstance(syms, tuple) else syms
    out = sp.Integer(0)
    for exp, c in p.terms.items():
        term = sp.Integer(c)
        for s, e in zip(syms, exp):
            term *= s**e
        out += term
    return sp.expand(out)


# ---- arithmetic ---------------------------------------------------------


def test_basic_products():
    x = LaurentPoly.variable(("x",), "x")
    assert (x - 1) * (x + 1) == x**2 - 1
    p = poly("2*x*y - x + 3")
    assert (p + (-p)).is_zero


def test_variable_mismatch():
    with pytest.raises(ValueError):
        poly("x", ("x",)) + poly("x", ("x", "y"))


def test_published_product_matches_bundled_polynomial():
    delta = datasets.load_poly("delta_L")
    factors = poly("x - 1") * poly("x*y - 1") * poly("y - 1") ** 2 * poly("x - y")
    assert factors == delta.shift((3, 0))


def test_pow_of_unit():
    u = LaurentPoly.monomial(XY, (1, -2), -1)
    assert u**-3 == LaurentPoly.monomial(XY, (-3, 6), -1)
    assert u**-2 == LaurentPoly.monomial(XY, (-2, 4), 1)
    with pytest.raises(ValueError):
        poly("x + 1") ** -1


# ---- arithmetic against sympy ----------------------------------------------
#
# The in-package oracles below (the cofactor determinant, the division by
# whole polynomials) are built from the same *, + and - as the code under
# test; these compare that arithmetic with sympy's.


def same_as_sympy(p, expr):
    """p equals the sympy expression and stores no zero coefficient."""
    return 0 not in p.terms.values() and sp.expand(to_sympy(p) - expr) == 0


def flip_signs(rng, p):
    """p with some terms negated: p * flip_signs(p) cancels cross terms."""
    return LaurentPoly(p.vars, {e: c * rng.choice((-1, 1)) for e, c in p.terms.items()})


def test_products_and_differences_against_sympy():
    rng = random.Random(53)
    cancelled = 0
    for trial in range(100):
        p = random_poly(rng, XYZ, max_terms=6, span=2, coef=3)
        q = random_poly(rng, XYZ, max_terms=6, span=2, coef=3)
        if trial % 2:
            q = flip_signs(rng, p)
        product = p * q
        assert same_as_sympy(product, to_sympy(p) * to_sympy(q))
        assert same_as_sympy(p - q, to_sympy(p) - to_sympy(q))
        assert same_as_sympy(p - 3, to_sympy(p) - 3)
        assert (p - p).is_zero and (p * LaurentPoly.zero(XYZ)).is_zero
        sums = {tuple(a + b for a, b in zip(e, f)) for e in p.terms for f in q.terms}
        cancelled += len(product.terms) < len(sums)
    # products whose coefficients cancel to zero are exercised
    assert cancelled > 25


def test_shift_against_sympy():
    rng = random.Random(59)
    syms = sp.symbols(XYZ)
    for _ in range(100):
        p = random_poly(rng, XYZ, max_terms=5, span=3, coef=5)
        exp = tuple(rng.randrange(-4, 5) for _ in XYZ)
        coef = rng.choice((-3, -1, 1, 2))
        monomial = sp.Mul(*(s**e for s, e in zip(syms, exp)))
        assert same_as_sympy(p.shift(exp) * coef, to_sympy(p) * coef * monomial)


def test_results_that_cannot_hold_zero_skip_the_filter():
    # negation, a shift, a product with a nonzero int and an exact quotient
    # build their terms without the zero filter
    rng = random.Random(61)
    for _ in range(100):
        p = random_poly(rng, XYZ, max_terms=6, span=3, coef=5)
        b = random_poly(rng, XYZ, max_terms=4, span=2, coef=5).normal_form()
        k = rng.choice((-7, -1, 1, 3))
        exp = tuple(rng.randrange(-4, 5) for _ in XYZ)
        results = [-p, p.shift(exp), p * k, k * p]
        if b:
            results.append(poly_divexact(p.normal_form() * b, b))
        for r in results:
            assert r == LaurentPoly(r.vars, dict(r.terms)) and 0 not in r.terms.values()
        assert (p.shift(exp) * 0).is_zero and (p * 0).is_zero and (0 * p).is_zero


def sympy_normal_form(p):
    """The canonical associate by sympy: divide out the monomial gcd of p
    times a monomial that clears its denominators, then fix the sign of the
    graded-lex leading coefficient."""
    syms = sp.symbols(p.vars)
    clear = sp.Mul(*(s ** -min(0, *(e[i] for e in p.terms)) for i, s in enumerate(syms)))
    _, poly = sp.Poly(sp.expand(to_sympy(p) * clear), *syms).terms_gcd()
    if poly.LC(order="grlex") < 0:
        poly = -poly
    return {m: int(c) for m, c in poly.terms()}


def test_normal_form_against_sympy():
    rng = random.Random(61)
    checked = 0
    for trial in range(150):
        p = random_poly(rng, XYZ, max_terms=5, span=3, coef=5)
        if trial % 3 == 0:
            p = p * flip_signs(rng, p)
        if p.is_zero:
            assert p.normal_form().is_zero
            continue
        assert p.normal_form().terms == sympy_normal_form(p)
        checked += 1
    assert checked > 100


# ---- normal form and unit equivalence ----------------------------------


def test_normal_form_idempotent_and_canonical():
    rng = random.Random(3)
    for _ in range(200):
        p = random_poly(rng, XY)
        n = p.normal_form()
        assert n.normal_form() == n
        if p.is_zero:
            continue
        assert n.min_exponents() == (0, 0)
        assert n.lead()[1] > 0


def test_unit_equivalence_random():
    rng = random.Random(5)
    for _ in range(150):
        p = random_poly(rng, XY)
        if p.is_zero:
            continue
        unit = LaurentPoly.monomial(
            XY, (rng.randrange(-3, 4), rng.randrange(-3, 4)), rng.choice([-1, 1])
        )
        assert p.unit_equivalent(p * unit)
        q = p + poly("1")
        assert not p.unit_equivalent(q) or (p * 1).terms != q.terms


# ---- text and JSON -------------------------------------------------------


def test_parse_str_roundtrip():
    rng = random.Random(7)
    for _ in range(150):
        p = random_poly(rng, XY)
        assert parse_poly(str(p), XY) == p


@pytest.mark.parametrize("text, terms", (
    ("-x", {(1, 0): -1}),
    ("+x", {(1, 0): 1}),
    ("x^-2*y - 3", {(-2, 1): 1, (0, 0): -3}),
    ("2*3*x", {(1, 0): 6}),
    ("", {}),
    ("0", {}),
    ("x\t+ 1\n", {(1, 0): 1, (0, 0): 1}),
    ("x^ +2 *\u00a0y", {(2, 1): 1}),
), ids=("minus", "plus", "negative-exponent", "product", "empty", "zero", "tab-newline",
        "signed-exponent-nbsp"))
def test_parse_accepts(text, terms):
    assert parse_poly(text, XY) == LaurentPoly(XY, terms)


@pytest.mark.parametrize("text, message", (
    ("x +", "dangling sign in 'x +'"),
    ("x ++ y", "dangling sign in 'x ++ y'"),
    ("x +- y", "dangling sign in 'x +- y'"),
    ("x -", "dangling sign in 'x -'"),
    ("2**x", "empty factor in term '2**x'"),
    ("x + z^2", "unknown variable 'z' in 'z^2'"),
    ("x^", "bad exponent '' in 'x^'"),
    ("^2", "unknown variable '' in '^2'"),
    ("x + q", "unknown factor 'q' in 'q'"),
    ("x^a", "bad exponent 'a' in 'x^a'"),
    # an integer is an optional sign and ASCII digits, not all int() takes
    ("1_000*x", "unknown factor '1_000' in '1_000*x'"),
    ("x^1_0", "bad exponent '1_0' in 'x^1_0'"),
    ("\u0663*x", "unknown factor '\u0663' in '\u0663*x'"),
    ("x^\u0663", "bad exponent '\u0663' in 'x^\u0663'"),
), ids=(
    "trailing-plus", "doubled-plus", "plus-minus", "trailing-minus", "empty-factor",
    "unknown-variable", "empty-exponent", "no-variable", "unknown-factor", "bad-exponent",
    "underscore-coefficient", "underscore-exponent", "arabic-indic-coefficient",
    "arabic-indic-exponent",
))
def test_parse_errors(text, message):
    # every term is a sign and a nonempty product, so no term is dropped
    with pytest.raises(ValueError) as err:
        parse_poly(text, XY)
    assert str(err.value) == message


def test_protocol_edges():
    x, _ = LaurentPoly.variables(XY)
    assert poly("3") == 3 and x != 3
    assert LaurentPoly.zero(XY).lead() is None
    assert 1 - x == poly("1 - x")
    assert repr(x - 1) == "LaurentPoly(('x', 'y'), 'x - 1')"
    with pytest.raises(AttributeError, match="LaurentPoly is immutable"):
        x.terms = {}
    with pytest.raises(AttributeError, match="LaurentPoly is immutable"):
        del x.terms
    assert x == poly("x")


@pytest.mark.parametrize("c", (0, 1, -3))
def test_constant_hashes_as_its_int(c):
    # a constant polynomial equals its int, so dicts and sets must agree too
    p = parse_poly(str(c), ("x",))
    assert p == c and hash(p) == hash(c)
    assert {c: "a"}[p] == "a" and p in {c}


def test_json_roundtrip():
    rng = random.Random(9)
    for _ in range(80):
        p = random_poly(rng, XYZ)
        data = json.loads(json.dumps(p.to_json()))
        assert LaurentPoly.from_json(data) == p


def test_from_json_checks_exponent_length():
    data = poly("x*y - 1").to_json()
    data["terms"][0]["exp"].append(0)
    with pytest.raises(ValueError, match="exponent vector length"):
        LaurentPoly.from_json(data)


# ---- substitution ---------------------------------------------------------


def test_substitute_identity():
    p = poly("x^2*y - 3*y^-1 + 2")
    image = {"x": (1, (1, 0)), "y": (1, (0, 1))}
    assert substitute_monomial(p, image, XY) == p


def test_substitute_is_multiplicative():
    rng = random.Random(11)
    images = {"x": (1, (2,)), "y": (-1, (1,))}
    for _ in range(100):
        p, q = random_poly(rng, XY), random_poly(rng, XY)
        lhs = substitute_monomial(p * q, images, ("t",))
        rhs = substitute_monomial(p, images, ("t",)) * substitute_monomial(
            q, images, ("t",)
        )
        assert lhs == rhs


def test_substitute_rejects_image_of_wrong_length():
    p = poly("x*y - 1")
    with pytest.raises(ValueError, match="image of 'x' has 0 exponents, expected 1"):
        substitute_monomial(p, {"x": (1, ()), "y": (1, (1,))}, ("t",))
    with pytest.raises(ValueError, match="image of 'y' has 2 exponents, expected 1"):
        substitute_monomial(p, {"x": (1, (1,)), "y": (1, (1, 0))}, ("t",))


@pytest.mark.parametrize("images, message", (
    ({"x": (1, (1,))}, "no image given for variable 'y'"),
    ({"x": (1, (1,)), "y": (2, (1,))}, r"image sign must be \+1 or -1"),
), ids=("missing-image", "sign-two"))
def test_substitute_monomial_rejects_bad_images(images, message):
    with pytest.raises(ValueError, match=message):
        substitute_monomial(poly("x*y - 1"), images, ("t",))


def test_factorization_of_bundled_specializations():
    """The k-fold specialization factors exactly through all-ones polynomials."""
    delta = datasets.load_poly("delta_L")
    t = LaurentPoly.variable(("t",), "t")
    for k in range(2, 13):
        spec = substitute_monomial(delta, {"x": (1, (k,)), "y": (1, (1,))}, ("t",))
        product = (t - 1) ** 5 * nu_poly(k - 1) * nu_poly(k) * nu_poly(k + 1)
        assert spec == product.shift((-(3 * k - 1),))


def test_specialization_k1_vanishes():
    delta = datasets.load_poly("delta_L")
    spec = substitute_monomial(delta, {"x": (1, (1,)), "y": (1, (1,))}, ("t",))
    assert spec.is_zero


# ---- nu polynomials -------------------------------------------------------


def test_nu_examples():
    assert str(nu_poly(3)) == "t^2 + t + 1"
    assert nu_poly(1) == LaurentPoly.constant(("t",), 1)
    assert nu_poly(0).is_zero
    t = LaurentPoly.variable(("t",), "t")
    for n in (2, 5, 9):
        assert (t - 1) * nu_poly(n) == t**n - 1
    with pytest.raises(ValueError):
        nu_poly(-1)


# ---- division and gcd -----------------------------------------------------


def test_divexact():
    f = poly("x^2 - y^2")
    g = poly("x - y")
    assert poly_divexact(f, g) == poly("x + y")
    with pytest.raises(ExactDivisionError):
        poly_divexact(poly("x^2 - y^2 + 1"), g)
    assert laurent_divexact(f.shift((-1, 2)), g.shift((4, 0))) == poly("x + y").shift(
        (-5, 2)
    )


def test_laurent_divexact_zero_rules_are_poly_divexacts():
    # laurent_divexact shifts both operands and leaves the zero cases to poly_divexact
    g = poly("x^-1 - y^2")
    zero = LaurentPoly.zero(XY)
    with pytest.raises(ExactDivisionError, match="division by zero polynomial"):
        laurent_divexact(g, zero)
    quotient = laurent_divexact(zero, g)
    assert quotient.is_zero and quotient.vars == g.vars


def _divexact_by_polynomials(f, g):
    """Oracle: the division loop that subtracts whole polynomials c * x^e * g."""
    if g.is_zero:
        raise ExactDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    quotient = {}
    g_lead_exp, g_lead_coef = g.lead()
    rem = f
    while rem:
        r_exp, r_coef = rem.lead()
        exp = tuple(a - b for a, b in zip(r_exp, g_lead_exp))
        if any(e < 0 for e in exp) or r_coef % g_lead_coef:
            raise ExactDivisionError("not exactly divisible")
        c = r_coef // g_lead_coef
        quotient[exp] = quotient.get(exp, 0) + c
        rem = rem - g.shift(exp) * c
    return LaurentPoly(f.vars, quotient)


def _both_divisions(f, g):
    """Both routes' quotients, or "raises" for each route that raises."""
    out = []
    for divide in (poly_divexact, _divexact_by_polynomials):
        try:
            out.append(divide(f, g))
        except ExactDivisionError:
            out.append("raises")
    return out


def test_divexact_of_products_against_oracle():
    rng = random.Random(31)
    for vars in (("x",), XY, XYZ):
        for _ in range(60):
            a = random_poly(rng, vars, max_terms=5, span=2, coef=6).normal_form()
            b = random_poly(rng, vars, max_terms=4, span=2, coef=6).normal_form()
            if b.is_zero:
                continue
            assert _both_divisions(a * b, b) == [a, a]


@pytest.mark.parametrize("f, g", (
    ("3*x^2 + x", "2*x + 1"),  # lead coefficient does not divide
    ("x^2 + y", "x*y + 1"),  # leading exponent goes negative
    ("x^2 + 1", "x + 1"),  # remainder 2 left over
    ("x^2*y - y^2 + 3", "x - y"),
), ids=("coefficient", "exponent", "remainder", "mixed"))
def test_divexact_rejects_non_divisors(f, g):
    assert _both_divisions(poly(f), poly(g)) == ["raises", "raises"]


def test_divexact_of_perturbed_products_against_oracle():
    rng = random.Random(32)
    raised = divided = 0
    for vars in (("x",), XY, XYZ):
        for _ in range(60):
            a = random_poly(rng, vars, max_terms=4, span=2, coef=4).normal_form()
            b = random_poly(rng, vars, max_terms=3, span=2, coef=4).normal_form()
            r = random_poly(rng, vars, max_terms=2, span=1, coef=3).normal_form()
            if b.is_zero:
                continue
            ours, oracle = _both_divisions(a * b + r, b)
            assert ours == oracle
            raised += ours == "raises"
            divided += ours != "raises"
    # both outcomes are exercised
    assert raised > 40 and divided > 40


def test_divexact_of_bareiss_size_against_oracle():
    # quotients of about 40 terms in three variables, as in the 5 x 5 minors
    rng = random.Random(67)
    for _ in range(12):
        a = LaurentPoly(XYZ, {
            tuple(rng.randrange(4) for _ in XYZ): rng.choice((-1, 1)) * rng.randint(1, 9)
            for _ in range(60)
        })
        b = random_poly(rng, XYZ, max_terms=6, span=1, coef=4).normal_form()
        r = random_poly(rng, XYZ, max_terms=2, span=1, coef=3).normal_form()
        if b.is_zero:
            continue
        assert len(a.terms) >= 30
        assert _both_divisions(a * b, b) == [a, a]
        ours, oracle = _both_divisions(a * b + r, b)
        assert ours == oracle


def test_divexact_of_reference_minors_against_oracle(monkeypatch, reference, all_minors):
    # every division the six Bareiss minors of the reference matrix make
    divisions = []
    real = polymat.poly_divexact

    def recorded(f, g):
        divisions.append((f, g))
        return real(f, g)

    monkeypatch.setattr(polymat, "poly_divexact", recorded)
    all_minors(reference["matrix"])
    assert len(divisions) == 6 * 14
    quotients = [_divexact_by_polynomials(f, g) for f, g in divisions]
    assert max(len(q.terms) for q in quotients) >= 30
    assert [real(f, g) for f, g in divisions] == quotients


def test_divexact_when_a_cancelled_term_reappears(monkeypatch):
    # the x^2 term of f cancels at the first step and comes back at the
    # second, so the remainder's heap holds its key twice
    pushed = []
    real = polygcd.heappush

    def recorded(heap, item):
        pushed.append(item)
        real(heap, item)

    monkeypatch.setattr(polygcd, "heappush", recorded)
    f, g = poly("x^4 - 3*x^3 + x^2 - 2", ("x",)), poly("x^2 - x + 1", ("x",))
    assert _both_divisions(f, g) == [poly("x^2 - 2*x - 2", ("x",))] * 2
    assert (-2, (-2,)) in pushed
    assert _both_divisions(f + poly("x^2", ("x",)), g) == ["raises", "raises"]


def test_divexact_in_zero_variable_ring():
    def c(value):
        return LaurentPoly.constant((), value)

    assert _both_divisions(c(12), c(-4)) == [c(-3), c(-3)]
    assert _both_divisions(c(7), c(3)) == ["raises", "raises"]
    assert poly_divexact(c(0), c(5)).is_zero
    with pytest.raises(ExactDivisionError):
        poly_divexact(c(5), c(0))


def test_gcd_examples():
    x2 = poly("x^2 - 1", ("x",))
    sq = poly("x^2 - 2*x + 1", ("x",))
    assert laurent_gcd([x2, sq]) == poly("x - 1", ("x",))
    p = poly("2*x*y - 4*y^2")
    assert laurent_gcd([p, p]) == p.normal_form()
    with pytest.raises(ValueError):
        laurent_gcd([])
    # zero is the identity of the gcd, so zeros alone give zero of their ring
    for vars in (("t",), XY, XYZ):
        got = laurent_gcd([LaurentPoly.zero(vars)] * 3)
        assert got.is_zero and got.vars == vars


def parent_laurent_gcd(ps):
    """``laurent_gcd`` as it was when all-zero input raised."""
    ps = list(ps)
    if not ps:
        raise ValueError("gcd of an empty list")
    nonzero = [p.normal_form() for p in ps if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd of all-zero inputs")
    acc = nonzero[0]
    for p in nonzero[1:]:
        if not polygcd._poly_divides(acc, p):
            acc = poly_gcd(acc, p)
            if acc.is_unit():
                break
    return acc.normal_form()


def parent_delta_from_minors(minors):
    """The former rule from minors to delta: the gcd of the nonzero minors,
    or the first minor when every one is zero."""
    minors = list(minors)
    nonzero = [m for m in minors if not m.is_zero]
    return parent_laurent_gcd(nonzero) if nonzero else minors[0]


def test_laurent_gcd_with_zeros_matches_the_former_minor_rule():
    rng = random.Random(191)
    placements = 0
    for vars in (("t",), XY, XYZ):
        zero = LaurentPoly.zero(vars)
        for _ in range(25):
            common = random_poly(rng, vars, max_terms=3, span=2, coef=3) or poly("1", vars)
            ps = [
                common * random_poly(rng, vars, max_terms=3, span=2, coef=3)
                for _ in range(rng.randrange(1, 4))
            ]
            k = rng.randrange(1, 4)
            i = rng.randrange(len(ps) + 1)
            for case in (
                [zero] + ps,  # first
                ps + [zero],  # last
                ps[:i] + [zero] + ps[i:],  # somewhere between
                [zero],  # alone
                [zero] * k,  # throughout
                [x for p in ps for x in (zero, p)] + [zero],  # around every entry
            ):
                want = parent_delta_from_minors(case)
                got = laurent_gcd(case)
                assert got == want and got.vars == want.vars, (vars, case)
                assert got.is_zero == all(p.is_zero for p in case)
                placements += 1
    assert placements == 3 * 25 * 6


@pytest.mark.parametrize("f, g, vars, common", (
    ("x^-1*y + 1", "x^-1*y^2 - 1", XY, "1"),
    ("t^-1 + 1", "t^-2 - 1", ("t",), "t + 1"),
))
def test_poly_gcd_refuses_negative_exponents(f, g, vars, common):
    # poly_gcd read these as x^-1 and as an IndexError; the Laurent gcd,
    # which shifts both to polynomials first, is the one that serves them
    f, g = poly(f, vars), poly(g, vars)
    for pair in ((f, g), (g, f), (f, LaurentPoly.zero(vars))):
        with pytest.raises(ValueError, match="nonnegative exponents"):
            poly_gcd(*pair)
    assert laurent_gcd([f, g]) == poly(common, vars)


def test_gcd_divides_inputs():
    rng = random.Random(13)
    for _ in range(60):
        ps = [random_poly(rng, XY, max_terms=3, span=2, coef=3) for _ in range(2)]
        ps = [p for p in ps if not p.is_zero]
        if not ps:
            continue
        g = laurent_gcd(ps)
        for p in ps:
            assert laurent_divexact(p, g) * g == p


def sympy_gcd(p, q):
    """The gcd of p and q by sympy, in normal form up to sign."""
    vars = p.vars
    sym = sp.gcd(to_sympy(p.normal_form()), to_sympy(q.normal_form()))
    sym_poly = sp.Poly(sp.expand(sym), *sp.symbols(vars))
    terms = {tuple(int(v) for v in mon): int(c) for mon, c in sym_poly.terms()}
    return LaurentPoly(vars, terms).normal_form()


def same_gcd_as_sympy(ours, p, q):
    # compare up to unit: sympy may normalize differently
    theirs = sympy_gcd(p, q)
    return ours == theirs or ours == (-1 * theirs).normal_form()


def shared_factor_draws():
    """Pairs shared * a, shared * b in two and three variables, not both zero."""
    rng = random.Random(17)
    for vars in (XY, XYZ):
        for _ in range(40):
            shared = random_poly(rng, vars, max_terms=3, span=1, coef=2)
            a = random_poly(rng, vars, max_terms=3, span=1, coef=2)
            b = random_poly(rng, vars, max_terms=3, span=1, coef=2)
            p, q = shared * a, shared * b
            if not (p.is_zero and q.is_zero):
                yield p, q


def test_gcd_against_sympy_oracle():
    for p, q in shared_factor_draws():
        assert same_gcd_as_sympy(laurent_gcd([p, q]), p, q)


def test_multivariate_gcd_of_random_products_is_fast():
    # at the remainder sequence alone, 43 of these 400 draws took more than
    # a second, and draw 59 of seed 2 more than two minutes
    slowest = 0.0
    start = time.perf_counter()
    for seed in (2, 4):
        rng = random.Random(seed)
        for _ in range(200):
            a, b, c, d = (random_poly(rng, XYZ, 4, 2, 4) for _ in range(4))
            p, q = a * b, c * d
            if p.is_zero and q.is_zero:
                continue
            t = time.perf_counter()
            ours = laurent_gcd([p, q])
            slowest = max(slowest, time.perf_counter() - t)
            assert same_gcd_as_sympy(ours, p, q)
    assert slowest < 1.0
    assert time.perf_counter() - start < 30.0


def n_final_minors(n_final, free_abelian_map):
    minors = codim_one_minors(alexander_matrix(n_final, free_abelian_map), free_abelian_map)
    return [m.normal_form() for m in minors if m]


def test_multivariate_heuristic_off_agrees(monkeypatch, n_final, free_abelian_map):
    minors = n_final_minors(n_final, free_abelian_map)
    cases = [(p.normal_form(), q.normal_form()) for p, q in shared_factor_draws()]
    cases += [(f, g) for i, f in enumerate(minors) for g in minors[i + 1 :]]
    fast = [poly_gcd(p, q) for p, q in cases]
    monkeypatch.setattr(polygcd, "_mv_heu_gcd", lambda f, g, i: None)
    assert [poly_gcd(p, q) for p, q in cases] == fast


def test_multivariate_heuristic_rejects_unlucky_points(monkeypatch):
    # with cofactors y + 1 and y + 1 + k, the values at y = xi share the
    # factor gcd(xi + 1, k), and the digits read (y + 1)(x + y), which does
    # not divide the second input: k = 32 spoils the first of the six
    # points, the lcm of all six values of xi + 1 spoils every one, and then
    # the remainder sequence decides
    points, answers = [], []
    evaluate, heuristic = polygcd._evaluate, polygcd._mv_heu_gcd
    monkeypatch.setattr(polygcd, "_evaluate", lambda p, i, xi: points.append(xi) or evaluate(p, i, xi))
    monkeypatch.setattr(
        polygcd, "_mv_heu_gcd", lambda f, g, i: answers.append(heuristic(f, g, i)) or answers[-1]
    )
    shared = poly("x + y")
    for k, tried in ((32, [31, 84]), (lcm(32, 85, 230, 626, 1708, 4664), [31, 84, 229, 625, 1707, 4663])):
        points.clear()
        answers.clear()
        assert poly_gcd(shared * poly("y + 1"), shared * poly(f"y + {1 + k}")) == shared
        assert points[::2] == points[1::2] == tried
        assert answers == [shared if len(tried) < 6 else None]


def test_minors_of_n_final_make_one_gcd(monkeypatch, n_final, free_abelian_map):
    # the minors are delta times x - 1, x - 1, x - 1, y - 1 and z - 1: one
    # gcd finds delta, and exact division settles the other three
    minors = n_final_minors(n_final, free_abelian_map)
    delta = laurent_gcd(minors)
    calls = []
    real = polygcd.poly_gcd

    def outermost(f, g):
        calls.append((f, g))
        monkeypatch.setattr(polygcd, "poly_gcd", real)  # recursion is not counted
        try:
            return real(f, g)
        finally:
            monkeypatch.setattr(polygcd, "poly_gcd", outermost)

    monkeypatch.setattr(polygcd, "poly_gcd", outermost)
    assert laurent_gcd(minors) == delta
    assert len(calls) == 1
    x, y, z = LaurentPoly.variables(XYZ)
    assert sorted(map(str, (laurent_divexact(m, delta) for m in minors))) == sorted(
        map(str, (x - 1, x - 1, x - 1, y - 1, z - 1))
    )


def test_poly_gcd_lead_is_positive(monkeypatch):
    x2 = poly("x^2 - 1", ("x",))
    sq = poly("x^2 - 2*x + 1", ("x",))
    assert poly_gcd(sq, x2) == poly("x - 1", ("x",))
    assert poly_gcd(poly("x*y - y"), poly("x^2*y - y")) == poly("x*y - y")
    # the remainder sequence alone, as when the heuristic gives up
    monkeypatch.setattr(polygcd, "_heu_gcd", lambda a, b: None)
    assert poly_gcd(sq, x2) == poly("x - 1", ("x",))
    rng = random.Random(41)
    for _ in range(40):
        shared, a, b = (random_factor(rng, 5) for _ in range(3))
        assert poly_gcd(-(shared * a), shared * b).lead()[1] > 0


# ---- GCDHEU and the primitive PRS against the subresultant sequence ---------


def primitive(m):
    k = 0
    for c in m.values():
        k = gcd(k, c)
    return {d: c // k for d, c in m.items()}


def _subresultant_prs(a, b):
    """Reference gcd: last nonzero remainder of the subresultant PRS of two maps."""
    if max(a) < max(b):
        a, b = b, a
    g_, h = 1, 1
    while b:
        delta = max(a) - max(b)
        r = polygcd._prem(a, b)
        a, b = b, {d: v // (g_ * h**delta) for d, v in r.items()}
        if b:
            g_ = a[max(a)]
            h = g_**delta // h ** (delta - 1) if delta > 0 else h
    return a


def primitive_maps(p, q):
    """The primitive parts of p and q in t, as {degree: int} maps."""
    return tuple(primitive({e[0]: c for e, c in f.terms.items()}) for f in (p, q))


def heuristic_and_oracle(p, q):
    """GCDHEU and the subresultant sequence on the primitive parts of p, q in t."""
    a, b = primitive_maps(p, q)
    return polygcd._heu_gcd(a, b), primitive(_subresultant_prs(a, b))


def same_up_to_sign(h, oracle):
    return h == oracle or h == {d: -c for d, c in oracle.items()}


def delta_specialization(delta, k, n):
    spec = substitute_monomial(delta, {"x": (1, (k,)), "y": (1, (1,))}, ("t",))
    return (spec * poly("t - 1", ("t",))).normal_form()


def test_heuristic_gcd_on_branched_cells():
    # the coprime (n, k) cells of delta_L for n = 5..61, every third k past
    # n = 31 so that the subresultant oracle stays near a second; k = 1 is
    # the zero specialization, which never reaches a gcd
    delta = datasets.load_poly("delta_L")
    for n in range(5, 62):
        for k in range(2, n, 1 if n <= 31 else 3):
            if gcd(k, n) == 1:
                h, oracle = heuristic_and_oracle(delta_specialization(delta, k, n), nu_poly(n))
                assert h is not None and same_up_to_sign(h, oracle), (n, k)


def cyclotomic(d):
    coeffs = sp.Poly(sp.cyclotomic_poly(d, sp.Symbol("t"))).all_coeffs()
    return LaurentPoly(("t",), {(len(coeffs) - 1 - i,): int(c) for i, c in enumerate(coeffs)})


def cyclotomic_product(rng):
    out = poly("1", ("t",))
    for _ in range(rng.randrange(1, 5)):
        out = out * cyclotomic(rng.randrange(2, 40))
    return out


def random_factor(rng, coef):
    """A polynomial in t of degree 1..6 with a nonzero constant term."""
    degree = rng.randrange(1, 7)
    terms = {(d,): rng.randint(-coef, coef) for d in range(1, degree)}
    terms[(0,)] = rng.choice((-1, 1)) * rng.randint(1, coef)
    terms[(degree,)] = rng.choice((-1, 1)) * rng.randint(1, coef)
    return LaurentPoly(("t",), terms)


def random_products():
    """120 pairs shared * a, shared * b with a common factor, alternating kinds."""
    rng = random.Random(43)
    for trial in range(120):
        if trial % 2:
            # coefficients up to 10^6 in absolute value
            shared, a, b = (random_factor(rng, 10**6) for _ in range(3))
        else:
            # products of cyclotomic polynomials, many roots on the unit circle
            shared, a, b = (cyclotomic_product(rng) for _ in range(3))
        yield shared * a, shared * b


def test_heuristic_gcd_on_random_products():
    accepted = 0
    for p, q in random_products():
        h, oracle = heuristic_and_oracle(p, q)
        if h is not None:  # None is a fallback to the remainder sequence
            assert same_up_to_sign(h, oracle)
            accepted += 1
    assert accepted >= 110


def test_primitive_prs_against_subresultant():
    for p, q in random_products():
        a, b = primitive_maps(p, q)
        g = polygcd._prs(a, b, primitive)
        assert g == primitive(g)
        assert same_up_to_sign(g, primitive(_subresultant_prs(a, b)))


def test_poly_gcd_without_heuristic_agrees(monkeypatch):
    rng = random.Random(47)
    cases = []
    for _ in range(30):
        shared = cyclotomic_product(rng)
        a, b = random_factor(rng, 10**6), nu_poly(rng.randrange(2, 30))
        cases.append((shared * a, shared * b))
    fast = [poly_gcd(p, q) for p, q in cases]
    monkeypatch.setattr(polygcd, "_heu_gcd", lambda a, b: None)
    assert [poly_gcd(p, q) for p, q in cases] == fast


def spy(monkeypatch, name):
    """Every call's arguments of polygcd.<name>, which still does its work."""
    calls, real = [], getattr(polygcd, name)
    monkeypatch.setattr(polygcd, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_constant_heuristic_gcd_skips_the_division_check(monkeypatch):
    calls = spy(monkeypatch, "_divides")
    a, b = primitive_maps(nu_poly(7), poly("t - 1", ("t",)))
    assert polygcd._heu_gcd(a, b) == {0: 1}
    assert calls == []
    # a nonconstant candidate is still checked against both inputs
    a, b = primitive_maps(poly("t^2 + t - 2", ("t",)), poly("t^2 + 2*t - 3", ("t",)))
    assert polygcd._heu_gcd(a, b) == {1: 1, 0: -1}
    assert [q for q, _ in calls] == [{1: 1, 0: -1}] * 2
    # every branched cell of delta_L at n = 7 is coprime to nu_7
    calls.clear()
    delta = datasets.load_poly("delta_L")
    assert [int(branched_betti(delta, k, 7)) for k in range(2, 6)] == [0] * 4
    assert calls == []


def test_constant_multivariate_candidate_skips_the_division_check(monkeypatch):
    rng = random.Random(53)
    pairs = []
    while len(pairs) < 100:
        f, g = (random_poly(rng, XY, 4, 2, 5).normal_form() for _ in range(2))
        if all(any(e[1] for e in p.terms) for p in (f, g)):  # both reach y
            pairs.append((f, g))
    with monkeypatch.context() as m:
        m.setattr(polygcd, "_heu_gcd", lambda a, b: None)
        m.setattr(polygcd, "_mv_heu_gcd", lambda f, g, i: None)
        oracle = [poly_gcd(f, g) for f, g in pairs]
    calls = spy(monkeypatch, "_poly_divides")
    constant = 0
    for (f, g), want in zip(pairs, oracle):
        calls.clear()
        got = polygcd._mv_heu_gcd(f, g, 1)
        assert got is None or got == want or got == -want
        # only a nonconstant candidate is divided into the inputs
        assert all(any(map(any, q.terms)) for q, _ in calls)
        if got is not None and not any(map(any, want.terms)):
            constant += 1
            assert calls == []
    assert constant >= 90
    # a nonconstant gcd is still checked against both inputs
    shared = poly("x + y")
    assert polygcd._mv_heu_gcd(shared * poly("y + 1"), shared * poly("x*y + 2"), 1) == shared
    assert [q for q, _ in calls] == [shared] * 2


@pytest.mark.parametrize("values, content", (
    ((6, 10, 15), 1),  # 1 first appears at the last entry
    ((4, 6, 3, 12, 8), 1),
    ((-4, -6), 2),
    ((-9, 12, -15), 3),
    ((0, -7), 7),
    ((), 0),
))
def test_content_examples(values, content):
    assert polygcd._cont(dict(enumerate(values))) == content


def test_content_against_reduce():
    rng = random.Random(59)
    for _ in range(300):
        values = [rng.choice((-1, 1)) * rng.randrange(12) * rng.choice((1, 6))
                  for _ in range(rng.randrange(7))]
        assert polygcd._cont(dict(enumerate(values))) == reduce(gcd, values, 0)


# ---- shared roots ----------------------------------------------------------


def test_shared_root_count_examples():
    x = LaurentPoly.variable(("x",), "x")
    delta_inf = 2 * x * (x - 1) ** 3 * (x + 1) ** 3
    assert shared_root_count(delta_inf, 7) == 0
    assert shared_root_count(nu_poly(3), 3) == 2
    flagged = shared_root_count(LaurentPoly.zero(("t",)), 5)
    assert flagged == 4 and flagged.all_roots
    for n in range(2, 61):
        # gcd(0, nu_n) = nu_n: all n - 1 roots shared, and only zero is flagged
        assert repr(shared_root_count(LaurentPoly.zero(("t",)), n)) == (
            f"RootCount({n - 1}, all_roots=True)"
        )
        # folds to zero, but is not the zero polynomial
        assert repr(shared_root_count(poly(f"t^{n} - 1", ("t",)), n)) == (
            f"RootCount({n - 1}, all_roots=False)"
        )
    assert isinstance(flagged, RootCount)
    with pytest.raises(ValueError):
        shared_root_count(poly("x*y"), 3)
    # a ring of two variables is rejected even when only one of them occurs
    with pytest.raises(ValueError, match="one variable"):
        shared_root_count(poly("x - 1"), 3)
    with pytest.raises(ValueError):
        shared_root_count(x, 1)



def test_shared_root_count_against_sympy():
    rng = random.Random(19)
    t = sp.Symbol("t")
    for _ in range(40):
        p = random_poly(rng, ("t",), max_terms=4, span=4, coef=4)
        if p.is_zero:
            continue
        n = rng.randrange(2, 9)
        ours = shared_root_count(p, n)
        nu = sum(t**i for i in range(n))
        g = sp.gcd(sp.Poly(to_sympy(p.normal_form()), t), sp.Poly(nu, t))
        assert int(ours) == sp.Poly(g, t).degree()
    delta = datasets.load_poly("delta_L")
    for n, k in ((31, 7), (37, 36), (45, 2), (53, 20), (61, 60)):
        p = delta_specialization(delta, k, n)
        nu = sum(t**i for i in range(n))
        g = sp.gcd(sp.Poly(to_sympy(p), t), sp.Poly(nu, t))
        assert int(shared_root_count(p, n)) == sp.Poly(g, t).degree()


def unfolded_root_count(p, n):
    """The shared-root count with p's exponents as they are: gcd(normal_form(p), nu_n)."""
    if p.is_zero:
        return RootCount(n - 1, all_roots=True)
    g = poly_gcd(p.normal_form(), nu_poly(n, p.vars[0]))
    return RootCount(max(g.terms)[0])


def same_count(a, b):
    return (int(a), a.all_roots) == (int(b), b.all_roots)


def test_shared_root_count_folds_like_unfolded():
    rng = random.Random(23)
    for n in range(2, 41):
        for _ in range(6):
            p = random_poly(rng, ("t",), max_terms=5, span=3 * n, coef=4)
            assert same_count(shared_root_count(p, n), unfolded_root_count(p, n)), (n, p)
        # multiples of t^n - 1 fold to zero but are not zero
        p = random_poly(rng, ("t",), max_terms=3, span=n, coef=4) or poly("1", ("t",))
        p = p * (poly(f"t^{n} - 1", ("t",)))
        assert same_count(shared_root_count(p, n), unfolded_root_count(p, n)), (n, p)


def test_nu_cache_is_order_blind(monkeypatch):
    # six levels against a cache of fewer entries: the interleaved orders
    # evict an entry at nearly every cell, the grouped one at each new level
    delta = datasets.load_poly("delta_L")
    levels = (7, 11, 13, 17, 19, 23)
    grouped = [(n, k) for n in levels for k in range(1, n)]
    interleaved = sorted(grouped, key=lambda c: (c[1], c[0]))  # n = 7, 11, 13, ..., 7, 11, ...
    orders = (grouped, interleaved, random.Random(61).sample(grouped, len(grouped)))
    with monkeypatch.context() as m:
        m.setattr(polygcd, "_nu_poly", nu_poly)
        want = {(n, k): branched_betti(delta, k, n) for n, k in grouped}
    for order in orders:
        polygcd._nu_poly.cache_clear()
        assert {(n, k): branched_betti(delta, k, n) for n, k in order} == want
    assert polygcd._nu_poly.cache_info().maxsize < len(levels)
    # no gcd changed a cached nu_n in place
    assert all(polygcd._nu_poly(n, "t") == nu_poly(n) for n in levels)


def test_branched_betti_against_unfolded_boundary_product():
    """Without (t - 1) and with folded exponents, every count and flag stays."""
    delta = datasets.load_poly("delta_L")
    for n in range(2, 62):
        for k in range(1, n):
            if gcd(k, n) == 1:
                old = unfolded_root_count(delta_specialization(delta, k, n), n)
                assert same_count(branched_betti(delta, k, n), old), (n, k)


# ---- determinants -----------------------------------------------------------


def lmat(rows, vars=XY):
    n, m = len(rows), len(rows[0])
    return LaurentMatrix(
        vars,
        tuple(f"r{i}" for i in range(n)),
        tuple(f"c{j}" for j in range(m)),
        tuple(tuple(parse_poly(e, vars) for e in row) for row in rows),
    )


def test_determinant_examples():
    ident = lmat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert determinant(ident) == poly("1")
    zero_row = lmat([["x", "y"], ["0", "0"]])
    assert determinant(zero_row).is_zero
    with pytest.raises(ValueError):
        determinant(lmat([["x", "y"]]))
    assert determinant(LaurentMatrix(XY, (), (), ())) == poly("1")  # the empty product


def test_determinant_of_reference_submatrix(reference):
    # deleting the s row of the transcribed matrix gives the printed minor,
    # exactly, including its sign and unit
    m = reference["matrix"]
    for g in ("s", "u"):
        keep = [i for i, label in enumerate(m.row_labels) if label != g]
        sub = LaurentMatrix(
            m.vars,
            [m.row_labels[i] for i in keep],
            m.col_labels,
            [m.entries[i] for i in keep],
        )
        assert determinant(sub) == reference["minors"][g]


def test_determinant_alternating_multilinear():
    rng = random.Random(23)
    for _ in range(40):
        rows = [
            [random_poly(rng, XY, max_terms=2, span=1, coef=3) for _ in range(3)]
            for _ in range(3)
        ]
        labels = ("a", "b", "c")
        m = LaurentMatrix(XY, labels, labels, tuple(tuple(r) for r in rows))
        d = determinant(m)
        swapped = LaurentMatrix(
            XY, labels, labels, (tuple(rows[1]), tuple(rows[0]), tuple(rows[2]))
        )
        assert determinant(swapped) == -1 * d
        doubled = LaurentMatrix(
            XY,
            labels,
            labels,
            (tuple(rows[0]), tuple(rows[0]), tuple(rows[2])),
        )
        assert determinant(doubled).is_zero
        scaled = LaurentMatrix(
            XY,
            labels,
            labels,
            (tuple(3 * e for e in rows[0]), tuple(rows[1]), tuple(rows[2])),
        )
        assert determinant(scaled) == 3 * d


def _product(a, b):
    n = len(a.row_labels)
    rows = [
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(n)), poly("0"))
         for j in range(n)]
        for i in range(n)
    ]
    return LaurentMatrix(a.vars, a.row_labels, b.col_labels, rows)


def test_determinant_multiplicative():
    rng = random.Random(29)
    for _ in range(30):
        a = lmat_random(rng, 2)
        b = lmat_random(rng, 2)
        assert determinant(_product(a, b)) == determinant(a) * determinant(b)
    for _ in range(8):
        a = lmat_random(rng, 3)
        b = lmat_random(rng, 3)
        assert determinant(_product(a, b)) == determinant(a) * determinant(b)


def lmat_random(rng, n):
    labels = tuple(f"i{k}" for k in range(n))
    return LaurentMatrix(
        XY,
        labels,
        labels,
        tuple(
            tuple(random_poly(rng, XY, max_terms=2, span=1, coef=2) for _ in range(n))
            for _ in range(n)
        ),
    )


def _det_cofactor(rows, vars):
    """Reference determinant by expansion along the first row."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.constant(vars, 1)
    acc = LaurentPoly.zero(vars)
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor, vars)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_bareiss_agrees_with_cofactor():
    rng = random.Random(31)
    for n in range(1, 6):
        for _ in range(10):
            m = lmat_random(rng, n)
            assert determinant(m) == _det_cofactor(m.entries, m.vars)


def test_matrix_validation():
    with pytest.raises(ValueError):
        LaurentMatrix(XY, ("a",), ("b",), ((poly("x"), poly("y")),))
    with pytest.raises(ValueError):
        LaurentMatrix(XY, ("a",), ("b", "c"), ((poly("x"), poly("x", ("x",))),))
    with pytest.raises(ValueError):
        LaurentMatrix(("x",), ("a",), ("b",), ((poly("x"),),))
    with pytest.raises(ValueError, match="row count does not match row labels"):
        LaurentMatrix(XY, ("a", "b"), ("c",), ((poly("x"),),))
    with pytest.raises(ValueError, match="listed twice"):
        LaurentMatrix.from_json(
            {"vars": ["x", "x"], "row_labels": ["a"], "col_labels": [], "entries": [[]]}
        )


def test_matrix_table_and_json(reference):
    m = reference["matrix"]
    text = m.table()
    assert "r1" in text and "m1" in text
    # a grid with no entries keeps its ring through JSON
    for m in (m, LaurentMatrix(XY, ("a", "b"), (), ((), ()))):
        again = LaurentMatrix.from_json(json.loads(json.dumps(m.to_json())))
        assert again == m


def sympy_determinant(rows, vars):
    """Oracle: sympy's determinant over Z[vars] of the matrix times the
    monomial (x y z ...)^s that clears every entry's denominators, divided
    back by (x y z ...)^(n s)."""
    n = len(rows)
    s = max([0] + [-e for p in sum(rows, []) for exp in p.terms for e in exp])
    ring, *_ = sp.ring(",".join(vars), sp.ZZ)
    grid = [
        [ring({tuple(a + s for a in e): c for e, c in p.terms.items()}) for p in row]
        for row in rows
    ]
    det = DomainMatrix(grid, (n, n), ring.to_domain()).det()
    return LaurentPoly(vars, {tuple(a - n * s for a in e): int(c) for e, c in det.terms()})


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("swap", (None, 0, 1))
def test_determinant_against_sympy(n, swap):
    rng = random.Random(71 + 10 * n + (swap or 0))
    labels = tuple(f"i{k}" for k in range(n))
    for _ in range(4):
        rows = [
            [random_poly(rng, XYZ, max_terms=3, span=2, coef=4) for _ in range(n)]
            for _ in range(n)
        ]
        if swap == 0:
            # a zero pivot at k = 0
            rows[0][0] = LaurentPoly.zero(XYZ)
        elif swap == 1:
            # row 1 starts as a multiple of row 0, so the pivot at k = 1 is 0
            rows[0][0] = rows[0][0] + 7
            a = random_poly(rng, XYZ, max_terms=2, span=1, coef=3) + 5
            rows[1][:2] = [a * rows[0][0], a * rows[0][1]]
        m = LaurentMatrix(XYZ, labels, labels, tuple(map(tuple, rows)))
        assert determinant(m) == sympy_determinant(rows, XYZ)


def test_bareiss_divides_only_after_the_first_step(monkeypatch):
    calls = []
    real = polymat.poly_divexact

    def counted(f, g):
        calls.append(g)
        return real(f, g)

    monkeypatch.setattr(polymat, "poly_divexact", counted)
    rng = random.Random(73)
    labels = tuple(f"i{k}" for k in range(5))
    rows = [
        [random_poly(rng, XYZ, max_terms=3, span=1, coef=4) + 7 for _ in range(5)]
        for _ in range(5)
    ]
    m = LaurentMatrix(XYZ, labels, labels, tuple(map(tuple, rows)))
    assert determinant(m) == sympy_determinant(rows, XYZ)
    assert len(calls) == 9 + 4 + 1
