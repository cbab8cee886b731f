"""Exact polynomial division and gcd over the integers, plus shared-root counts.

Division and gcd never touch floating point.  Gcd over the rationals is the
primitive-part gcd over Z.  The multivariate gcd reduces to univariate by
recursive content/primitive-part extraction with a primitive remainder
sequence in the main variable; the univariate base case is the subresultant
polynomial remainder sequence.  Both sequences take their pseudo-remainders
from one routine over {degree: coefficient} maps, with polynomial
coefficients in the first and integer ones in the second.
"""

from __future__ import annotations

from functools import reduce
from math import gcd

from .laurent import LaurentPoly, nu_poly


class ExactDivisionError(ArithmeticError):
    pass


def poly_divexact(f, g):
    """Exact division of polynomials with nonnegative exponents.

    Raises ExactDivisionError when g does not divide f.
    """
    if g.is_zero:
        raise ExactDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    vars = f.vars
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
        rem = rem - g.shift(exp, c)
    return LaurentPoly(vars, quotient)


def laurent_divexact(f, g):
    """Exact division in the Laurent ring (monomials are units)."""
    if g.is_zero:
        raise ExactDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    mf = f.min_exponents()
    mg = g.min_exponents()
    q = poly_divexact(f.shift(tuple(-m for m in mf)), g.shift(tuple(-m for m in mg)))
    return q.shift(tuple(a - b for a, b in zip(mf, mg)))


def laurent_divides(g, f):
    """Whether g divides f with a Laurent-polynomial quotient."""
    try:
        laurent_divexact(f, g)
        return True
    except ExactDivisionError:
        return False


# ---- a polynomial as univariate in one position ------------------------


def _deg_in(p, i):
    if p.is_zero:
        return -1
    return max(e[i] for e in p.terms)


def _prem(p, q):
    """Pseudo-remainder lc(q)^(deg p - deg q + 1) * p mod q.

    Both are {degree: nonzero coefficient} maps.  Coefficients need only
    ``*``, ``-`` and a truth test, so ints and polynomials in the other
    variables serve alike.
    """
    dq = max(q)
    lq = q[dq]
    r = dict(p)
    steps = max(p) - dq + 1
    while r and max(r) >= dq:
        dr = max(r)
        lr = r[dr]
        new = {d: v * lq for d, v in r.items()}
        for d, v in q.items():
            k = d + dr - dq
            new[k] = new[k] - v * lr if k in new else -(v * lr)
        r = {d: v for d, v in new.items() if v}
        steps -= 1
    if steps > 0 and r:
        scale = lq**steps
        r = {d: v * scale for d, v in r.items()}
    return r


def _int_coeffs(p, i):
    out = {}
    for exp, coef in p.terms.items():
        out[exp[i]] = coef
    return out


def _uni_subresultant_gcd(f, g, i):
    """Subresultant PRS gcd for genuinely univariate integer polynomials."""
    a = _int_coeffs(f, i)
    b = _int_coeffs(g, i)

    def cont(p):
        c = 0
        for v in p.values():
            c = gcd(c, v)
        return c

    def divc(p, c):
        return {d: v // c for d, v in p.items()}

    ca, cb = cont(a), cont(b)
    a, b = divc(a, ca), divc(b, cb)
    if max(a) < max(b):
        a, b = b, a
    g_, h = 1, 1
    while b:
        delta = max(a) - max(b)
        r = _prem(a, b)
        a, b = b, (divc(r, g_ * h**delta) if r else {})
        if b:
            g_ = a[max(a)]
            h = g_**delta // h ** (delta - 1) if delta > 0 else h
    c, k = gcd(ca, cb), cont(a)
    exp = [0] * len(f.vars)
    terms = {}
    for d, v in a.items():
        exp[i] = d
        terms[tuple(exp)] = v // k * c
    return LaurentPoly(f.vars, terms)


def _poly_coeffs(p, i):
    """p as {degree in x_i: coefficient}, each coefficient free of x_i."""
    out = {}
    for exp, coef in p.terms.items():
        out.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1 :]] = coef
    return {d: LaurentPoly(p.vars, terms) for d, terms in out.items()}


def _primitive(coeffs):
    """(content, primitive part) of a {degree: polynomial} map."""
    cont = reduce(poly_gcd, (coeffs[d] for d in sorted(coeffs)))
    return cont, {d: poly_divexact(v, cont) for d, v in coeffs.items()}


def poly_gcd(f, g):
    """Gcd of two polynomials with nonnegative exponents, over Z.

    The result has a positive graded-lex leading coefficient.
    """
    if f.is_zero and g.is_zero:
        return f
    if f.is_zero:
        return g if g.lead()[1] > 0 else -g
    if g.is_zero:
        return f if f.lead()[1] > 0 else -f
    f._check_same_ring(g)
    used = [
        i
        for i in range(len(f.vars))
        if any(e[i] for e in f.terms) or any(e[i] for e in g.terms)
    ]
    if not used:
        c = gcd(next(iter(f.terms.values())), next(iter(g.terms.values())))
        return LaurentPoly.constant(f.vars, c)
    if len(used) == 1:
        return _uni_subresultant_gcd(f, g, used[0])

    i = used[-1]
    cf, a = _primitive(_poly_coeffs(f, i))
    cg, b = _primitive(_poly_coeffs(g, i))
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, (_primitive(r)[1] if r else {})
    terms = {}
    for d, c in a.items():  # primitive: every remainder kept was made so
        for exp, coef in c.terms.items():
            terms[exp[:i] + (d,) + exp[i + 1 :]] = coef
    result = poly_gcd(cf, cg) * LaurentPoly(f.vars, terms)
    if result.lead()[1] < 0:
        result = -result
    return result


def laurent_gcd(ps):
    """Gcd of Laurent polynomials, up to unit, in normal form.

    Zero entries are ignored; the list must not be empty or all zero.

    >>> from .laurent import parse_poly
    >>> x2 = parse_poly("x^2 - 1", ("x",))
    >>> sq = parse_poly("x^2 - 2*x + 1", ("x",))
    >>> print(laurent_gcd([x2, sq]))
    x - 1
    """
    ps = list(ps)
    if not ps:
        raise ValueError("gcd of an empty list")
    nonzero = [p.normal_form() for p in ps if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd of all-zero inputs")
    acc = nonzero[0]
    for p in nonzero[1:]:
        acc = poly_gcd(acc, p)
        if acc.is_unit():
            break
    return acc.normal_form()


class RootCount(int):
    """An integer count that remembers the degenerate all-roots case.

    ``all_roots`` is True exactly when the polynomial was identically zero,
    in which case the count is a guaranteed lower bound (every root of the
    comparison polynomial is shared).
    """

    def __new__(cls, value, all_roots=False):
        self = super().__new__(cls, value)
        self.all_roots = all_roots
        return self

    def __repr__(self):
        return f"RootCount({int(self)}, all_roots={self.all_roots})"


def _as_univariate(p, var):
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    name = used[0] if used else var
    i = p.vars.index(name) if name in p.vars else None
    terms = {}
    for exp, coef in p.terms.items():
        d = exp[i] if i is not None else 0
        terms[(d,)] = terms.get((d,), 0) + coef
    return LaurentPoly((name,), terms)


def shared_root_count(p, n, var="t"):
    """Number of distinct complex roots shared by p and nu_n = t^(n-1)+...+1.

    Computed as the degree of gcd(normal_form(p), nu_n) over the rationals;
    nu_n is squarefree, so this is exactly the distinct shared-root count.
    The zero polynomial returns the flagged value n - 1 (all roots shared).

    >>> shared_root_count(nu_poly(3), 3)
    RootCount(2, all_roots=False)
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if p.is_zero:
        return RootCount(n - 1, all_roots=True)
    q = _as_univariate(p, var).normal_form()
    nu = nu_poly(n, q.vars[0])
    g = poly_gcd(q, nu)
    return RootCount(_deg_in(g, 0))
