"""Exact polynomial division and gcd over the integers, plus shared-root counts.

Division and gcd never touch floating point.  Gcd over the rationals is the
primitive-part gcd over Z.  Every gcd tries the heuristic gcd first:
GCDHEU (Char, Geddes and Gonnet, JSC 1989) sets the main variable to an
integer xi, takes the gcd of the two evaluations, reads its symmetric
xi-adic digits back as powers of that variable, and keeps the result only if
it divides both inputs; a constant candidate divides everything, so it is
returned at once, unchecked.  With one variable the evaluations are
integers; with several they are polynomials in one variable fewer, whose
gcd is this same gcd (Geddes, Czapor and Labahn, "Algorithms for Computer
Algebra", 1992, section 7.7).  When six evaluation points fail, a primitive remainder
sequence in the main variable decides (Brown, "On Euclid's algorithm and
the computation of polynomial greatest common divisors", JACM 1971): with
integer coefficients over one variable, and over several with polynomial
coefficients and recursive content/primitive-part extraction.  So every
answer is exact.  ``laurent_gcd`` skips the gcd of a polynomial that its
running gcd already divides.  Zero is the identity of every gcd here:
gcd(0, g) = g, and the gcd of zeros alone is zero.

``poly_divexact`` is long division on one remainder map whose graded-lex
order is kept in a heap of exponent keys, so a step finds the lead term
without scanning the map.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, neg, sub

from .laurent import LaurentPoly, nu_poly


class ExactDivisionError(ArithmeticError):
    pass


def poly_divexact(f, g):
    """Exact division of polynomials with nonnegative exponents.

    Raises ExactDivisionError when g does not divide f.  Each step takes
    c * x^e * g from one remainder map in place; its graded-lex lead falls.
    A heap of ``(-degree, negated exponent)`` keys holds the remainder's
    graded-lex order: a key is pushed when its exponent enters the map, and
    a popped key whose exponent has since cancelled out is skipped.  The
    lead terms come off in the same order as a fresh scan of the map would
    give, so the quotient and the inputs that raise are those of long
    division (Monagan and Pearce, "Sparse polynomial division using a
    heap", JSC 2011, keep the quotient's products in a heap instead).
    """
    if g.is_zero:
        raise ExactDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    f._check_same_ring(g)
    quotient = {}
    g_lead_exp, g_lead_coef = g.lead()
    g_terms = g.terms.items()
    rem = dict(f.terms)
    heap = [(-sum(e), tuple(map(neg, e))) for e in rem]
    heapify(heap)
    while rem:
        r_exp = tuple(map(neg, heappop(heap)[1]))
        r_coef = rem.get(r_exp)
        if r_coef is None:  # cancelled since its key was pushed
            continue
        exp = tuple(map(sub, r_exp, g_lead_exp))
        if min(exp, default=0) < 0 or r_coef % g_lead_coef:
            raise ExactDivisionError("not exactly divisible")
        c = r_coef // g_lead_coef
        quotient[exp] = c
        for e, v in g_terms:
            k = tuple(map(add, e, exp))
            old = rem.get(k)
            if old is None:
                rem[k] = -c * v
                heappush(heap, (-sum(k), tuple(map(neg, k))))
                continue
            v = old - c * v
            if v:
                rem[k] = v
            else:
                del rem[k]
    return LaurentPoly._of(f.vars, quotient)


def laurent_divexact(f, g):
    """Exact division in the Laurent ring (monomials are units)."""
    mf = f.min_exponents()
    mg = g.min_exponents()
    q = poly_divexact(f.shift(tuple(-m for m in mf)), g.shift(tuple(-m for m in mg)))
    return q.shift(tuple(a - b for a, b in zip(mf, mg)))


# ---- a polynomial as univariate in one position ------------------------


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


def _cont(p):
    c = 0
    for v in p.values():
        c = gcd(c, v)
        if c == 1:  # no later gcd can change it
            break
    return c


def _divc(p, c):
    """p with every coefficient divided by c; p itself when c is 1 (most
    contents are), which is safe as no caller changes the map it gets."""
    return p if c == 1 else {d: v // c for d, v in p.items()}


def _divides(q, p):
    """Whether q divides p over Z, by long division of {degree: int} maps."""
    dq, dp = max(q), max(p)
    if dp < dq:
        return False
    lq = q[dq]
    lower = [(dq - d, v) for d, v in q.items() if d != dq]
    r = [0] * (dp + 1)
    for d, v in p.items():
        r[d] = v
    for top in range(dp, dq - 1, -1):
        if r[top]:
            c, m = divmod(r[top], lq)
            if m:
                return False
            for off, v in lower:
                r[top - off] -= c * v
    return not any(r[:dq])


def _horner(p, x):
    v = 0
    for d in range(max(p), -1, -1):
        v = v * x + p.get(d, 0)
    return v


def _digits(v, xi):
    """{position: nonzero digit} of the symmetric xi-adic expansion of v."""
    out = {}
    d, half = 0, xi // 2
    while v:
        c = v % xi
        if c > half:
            c -= xi
        if c:
            out[d] = c
        v = (v - c) // xi
        d += 1
    return out


def _points(a, b):
    """The six GCDHEU evaluation points of two coefficient maps.

    The first is 2 * min(|a|, |b|) + 29, with |p| the largest absolute
    coefficient of p, and each next one grows by about 2.73, as in Char,
    Geddes and Gonnet (JSC 1989).
    """
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        yield xi
        xi = xi * 73794 // 27011


def _heu_gcd(a, b):
    """Gcd of two primitive {degree: int} maps by GCDHEU, or None.

    The one-variable level of GCDHEU; ``_mv_heu_gcd`` is the same step over
    several variables.  Evaluate both at an integer xi, take the integer gcd
    and read its symmetric xi-adic digits back as a polynomial.  Char,
    Geddes and Gonnet ("GCDHEU: heuristic polynomial GCD algorithm based on
    integer GCD computation", JSC 1989) prove that once
    xi >= 2 * min(|a|, |b|) + 2, with |p| the largest absolute coefficient
    of p, a primitive part that divides both a and b is their gcd; a
    constant one divides them trivially and is returned unchecked.  None
    after six rejected evaluation points leaves the gcd to the remainder
    sequence.
    """
    for xi in _points(a, b):
        cand = _digits(gcd(_horner(a, xi), _horner(b, xi)), xi)
        if cand:
            cand = _divc(cand, _cont(cand))
            # a constant divides both at once; any other candidate read off
            # at such a xi is the gcd once it divides both (Char, Geddes and
            # Gonnet 1989), so this test makes the answer exact
            if cand.keys() == {0} or (_divides(cand, a) and _divides(cand, b)):
                return cand
    return None


def _uni_gcd(f, g, i):
    """Gcd of genuinely univariate integer polynomials: GCDHEU, else the PRS."""
    a = _int_coeffs(f, i)
    b = _int_coeffs(g, i)
    ca, cb = _cont(a), _cont(b)
    a, b = _divc(a, ca), _divc(b, cb)
    a = _heu_gcd(a, b) or _prs(a, b, lambda r: _divc(r, _cont(r)))
    c = gcd(ca, cb)
    exp = [0] * len(f.vars)
    terms = {}
    for d, v in a.items():
        exp[i] = d
        terms[tuple(exp)] = v * c
    return LaurentPoly(f.vars, terms)


def _prs(a, b, primitive):
    """Last nonzero remainder of the primitive PRS of two primitive maps.

    Each pseudo-remainder is replaced by ``primitive(r)``, its primitive
    part, so the result is primitive too.
    """
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, (primitive(r) if r else {})
    return a


def _poly_divides(g, f):
    """Whether g divides f, by exact division."""
    try:
        poly_divexact(f, g)
    except ExactDivisionError:
        return False
    return True


def _evaluate(p, i, xi):
    """p with x_i set to the integer xi, over the same ring."""
    powers = {}
    out = {}
    for exp, coef in p.terms.items():
        d = exp[i]
        if d not in powers:
            powers[d] = xi**d
        key = exp[:i] + (0,) + exp[i + 1 :]
        out[key] = out.get(key, 0) + coef * powers[d]
    return LaurentPoly(p.vars, out)


def _mv_heu_gcd(f, g, i):
    """Gcd of two nonzero polynomials by GCDHEU on x_i, up to sign, or None.

    The multivariate step of GCDHEU (Geddes, Czapor and Labahn, "Algorithms
    for Computer Algebra", 1992, section 7.7): with the integer contents
    removed, set x_i to an integer xi, take the exact ``poly_gcd`` of the
    two evaluations, which have one variable fewer, and read the symmetric
    xi-adic digits of each of its coefficients back as powers of x_i, at
    the points of ``_heu_gcd``.  A primitive part that divides both inputs
    is their gcd, and a constant one is returned unchecked; None after six
    rejected points leaves the gcd to the remainder sequence.
    """
    cf, cg = _cont(f.terms), _cont(g.terms)
    a = LaurentPoly._of(f.vars, _divc(f.terms, cf))
    b = LaurentPoly._of(g.vars, _divc(g.terms, cg))
    for xi in _points(a.terms, b.terms):
        gamma = poly_gcd(_evaluate(a, i, xi), _evaluate(b, i, xi))
        cand = {
            exp[:i] + (d,) + exp[i + 1 :]: c
            for exp, v in gamma.terms.items()
            for d, c in _digits(v, xi).items()
        }
        cand = LaurentPoly._of(f.vars, _divc(cand, _cont(cand)))
        # a constant divides both at once, as in _heu_gcd
        if cand.terms.keys() == {(0,) * len(f.vars)} or (
            _poly_divides(cand, a) and _poly_divides(cand, b)
        ):
            return cand * gcd(cf, cg)
    return None


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

    The result has a positive graded-lex leading coefficient.  A negative
    exponent raises ValueError; ``laurent_gcd`` serves Laurent polynomials.
    """
    if min(f.min_exponents() + g.min_exponents(), default=0) < 0:
        raise ValueError("poly_gcd needs nonnegative exponents; use laurent_gcd")
    if g.is_zero:
        result = f
    elif f.is_zero:
        result = g
    else:
        f._check_same_ring(g)
        result = _nonzero_gcd(f, g)
    if result and result.lead()[1] < 0:
        result = -result
    return result


def _nonzero_gcd(f, g):
    """Gcd of two nonzero polynomials, up to sign."""
    used = [
        i
        for i in range(len(f.vars))
        if any(e[i] for e in f.terms) or any(e[i] for e in g.terms)
    ]
    if not used:
        c = gcd(next(iter(f.terms.values())), next(iter(g.terms.values())))
        return LaurentPoly.constant(f.vars, c)
    if len(used) == 1:
        return _uni_gcd(f, g, used[0])

    i = used[-1]
    heuristic = _mv_heu_gcd(f, g, i)
    if heuristic is not None:
        return heuristic
    cf, a = _primitive(_poly_coeffs(f, i))
    cg, b = _primitive(_poly_coeffs(g, i))
    a = _prs(a, b, lambda r: _primitive(r)[1])
    terms = {}
    for d, c in a.items():
        for exp, coef in c.terms.items():
            terms[exp[:i] + (d,) + exp[i + 1 :]] = coef
    return poly_gcd(cf, cg) * LaurentPoly(f.vars, terms)


def laurent_gcd(ps):
    """Gcd of Laurent polynomials, up to unit, in normal form.

    Zero entries are skipped, so all-zero input gives zero (zero is the
    identity, as in ``poly_gcd``); an empty list has no ring and raises.

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
        return LaurentPoly.zero(ps[0].vars)
    acc = nonzero[0]
    for p in nonzero[1:]:
        # normal forms have no monomial factor, so acc divides p in the
        # Laurent ring exactly when it divides p as a polynomial; then the
        # gcd is acc itself, positive lead and all
        if not _poly_divides(acc, p):
            acc = poly_gcd(acc, p)
            if acc.is_unit():
                break
    return acc.normal_form()


# nu_n by (n, var); sweeps visit their cells level by level, so a few
# entries serve every k of a level and the cache stays small
_nu_poly = lru_cache(maxsize=4)(nu_poly)


class RootCount(int):
    """An integer count that remembers the degenerate all-roots case.

    ``all_roots`` is True exactly when the polynomial was identically zero:
    gcd(0, nu_n) = nu_n, so the count is a guaranteed lower bound (every
    root of the comparison polynomial is shared).
    """

    def __new__(cls, value, all_roots=False):
        self = super().__new__(cls, value)
        self.all_roots = all_roots
        return self

    def __repr__(self):
        return f"RootCount({int(self)}, all_roots={self.all_roots})"


def shared_root_count(p, n):
    """Number of distinct complex roots shared by p and nu_n = t^(n-1)+...+1.

    p is a polynomial over a ring of one variable; any other ring raises
    ValueError.  Computed as the degree of gcd(f, nu_n) over the rationals,
    where f folds p's exponents mod n: nu_n divides t^n - 1 and t is a unit
    modulo it, so f and p share the same roots of nu_n, and the gcd costs
    no more than degree n whatever p's exponents are.  nu_n is squarefree,
    so the degree is exactly the distinct shared-root count.  Zero is the
    gcd's identity, so the zero polynomial gives n - 1 flagged (all roots
    shared); a nonzero p that folds to zero gives n - 1 unflagged.

    >>> shared_root_count(nu_poly(3), 3)
    RootCount(2, all_roots=False)
    >>> shared_root_count(LaurentPoly(("t",), {(10**9,): 1, (0,): -1}), 5)
    RootCount(4, all_roots=False)
    """
    if len(p.vars) != 1:
        raise ValueError(f"need a polynomial in one variable, not over {p.vars}")
    if n < 2:
        raise ValueError("modulus must be at least 2")
    folded = {}
    for (e,), c in p.terms.items():
        key = (e % n,)
        folded[key] = folded.get(key, 0) + c
    g = poly_gcd(LaurentPoly(p.vars, folded), _nu_poly(n, p.vars[0]))
    return RootCount(max(g.terms)[0], all_roots=p.is_zero)
