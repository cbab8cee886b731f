"""Multivariable integer Laurent polynomials with exact arithmetic.

Terms live in a map from integer exponent vectors to nonzero coefficients.
Units of the ring are the signed monomials +-x^a; ``normal_form`` picks the
canonical associate (minimal exponents shifted to 0, positive leading
coefficient in graded-lex order), so two polynomials agree up to a unit
exactly when their normal forms are equal.

Text format: a sum of terms ``c*x^a*y^b`` (exponent 1 may be omitted), e.g.
``"2*x^2*y - x + 1"``.  JSON format::

    {"vars": [...], "terms": [{"exp": [ints], "coef": int}]}
"""

from __future__ import annotations

import re
from operator import add, neg


def _grlex_key(exp):
    return (sum(exp), exp)


class LaurentPoly:
    """An exact Laurent polynomial over a fixed ordered variable list.

    The constructor trusts its input: exponents are tuples of ``len(vars)``
    ints and coefficients are ints.  ``from_json`` checks file data.

    >>> x, y = LaurentPoly.variables(("x", "y"))
    >>> print((x - 1) * (x + 1))
    x^2 - 1
    >>> print((x * y**-1 + 1).normal_form())
    x + y
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", {e: c for e, c in (terms or {}).items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.vars, self.terms)

    @classmethod
    def _of(cls, vars, terms):
        """A polynomial over the tuple ``vars`` from a map that holds no zero.

        Skips the constructor's zero filter, for results that cannot hold a
        zero coefficient.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, c):
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def monomial(cls, vars, exp, coef=1):
        return cls(vars, {tuple(exp): coef})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): 1})

    @classmethod
    def variables(cls, vars):
        """All generators of the ring at once, in order."""
        return tuple(cls.variable(vars, v) for v in vars)

    # ---- basic structure ----------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check_same_ring(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def lead(self):
        """(exponent, coefficient) of the graded-lex leading term, or None."""
        if not self.terms:
            return None
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def min_exponents(self):
        if not self.terms:
            return (0,) * len(self.vars)
        if len(self.vars) == 1:  # the least 1-tuple; twice as fast as the columns
            return min(self.terms)
        return tuple(map(min, zip(*self.terms)))

    def is_unit(self):
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    # ---- arithmetic ----------------------------------------------------

    def _merge(self, other, sign):
        """self + sign * other, for an int or a polynomial other and sign +-1."""
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        self._check_same_ring(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0) + sign * coef
        return LaurentPoly(self.vars, out)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return (LaurentPoly._of if other else LaurentPoly)(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check_same_ring(other)
        out = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return LaurentPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative power of a non-unit")
            exp, coef = next(iter(self.terms.items()))
            new_coef = coef if n % 2 else 1
            return LaurentPoly.monomial(self.vars, tuple(n * e for e in exp), new_coef)
        out = LaurentPoly.constant(self.vars, 1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, exp):
        """Multiply by the monomial x^exp."""
        exp = tuple(exp)
        # a shift maps distinct exponents to distinct ones, so it makes no zeros
        return LaurentPoly._of(
            self.vars, {tuple(map(add, e, exp)): c for e, c in self.terms.items()}
        )

    # ---- normalization --------------------------------------------------

    def normal_form(self):
        """Canonical associate: minimal exponents 0, positive graded-lex lead."""
        if not self.terms:
            return self
        shifted = self.shift(map(neg, self.min_exponents()))
        if shifted.lead()[1] < 0:
            shifted = -shifted
        return shifted

    def unit_equivalent(self, other):
        """Equality up to multiplication by a signed monomial."""
        self._check_same_ring(other)
        return self.normal_form() == other.normal_form()

    # ---- text and JSON ----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for i, (exp, coef) in enumerate(self.sorted_terms()):
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e:
                    factors.append(f"{v}^{e}")
            mag = abs(coef)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if i == 0:
                chunks.append(body if coef > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"LaurentPoly({self.vars!r}, {str(self)!r})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": c}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        vars = json_vars(data["vars"])
        pairs = [(json_ints(t["exp"]), json_int(t["coef"])) for t in json_list(data["terms"])]
        terms = dict(pairs)
        if any(len(exp) != len(vars) for exp in terms):
            raise ValueError("exponent vector length does not match variables")
        if len(terms) != len(pairs):
            raise ValueError("an exponent vector is listed twice")
        return cls(vars, terms)


def json_list(value):
    """``value`` if it is a JSON list; TypeError for a string or anything else.

    The decoders here are the only check that file data holds exact
    integers; constructors such as ``LaurentPoly`` trust the ints they get.
    """
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def json_int(value):
    """``value`` if it is a JSON integer; TypeError for a float, a bool or other."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# an optional sign and ASCII digits, the one integer syntax of text input;
# int() alone also takes "1_0", other scripts' digits and padding whitespace
_TEXT_INT = re.compile(r"[+-]?[0-9]+")


def text_int(text):
    """The integer ``text`` spells as an optional sign and ASCII digits.

    Raises ``ValueError`` for anything else, such as ``"1_0"`` or ``"٣"``.
    """
    if not _TEXT_INT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def json_ints(values):
    """A JSON list of integers, as a tuple."""
    return tuple(json_int(v) for v in json_list(values))


def json_vars(value):
    """A JSON list of variable names, as a tuple; ValueError if one repeats."""
    vars = tuple(json_list(value))
    if len(set(vars)) != len(vars):
        raise ValueError("a variable is listed twice")
    return vars


def parse_poly(text, vars):
    """Parse the ``c*x^a*y^b`` sum syntax.

    A term is an optional sign and a nonempty ``*``-product of integers,
    ``var`` and ``var^int``; a sign with no product after it is an error.
    Integers are ASCII digits (``text_int``), exponents with an optional
    sign, and every whitespace character is ignored.

    >>> print(parse_poly("2*x^2*y - x + 1", ("x", "y")))
    2*x^2*y - x + 1
    """
    vars = tuple(vars)
    index = {v: i for i, v in enumerate(vars)}
    stripped = "".join(text.split())
    out = {}
    # a term starts at each sign that is not an exponent's (after ^)
    for term in re.split(r"(?<=[^^])(?=[+-])", stripped) if stripped else ():
        raw = term[1:] if term[0] in "+-" else term
        if not raw:
            raise ValueError(f"dangling sign in {text!r}")
        coef = -1 if term[0] == "-" else 1
        exp = [0] * len(vars)
        for factor in raw.split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {raw!r}")
            name, caret, tail = factor.partition("^")
            if name in index:
                e = 1
                if caret:
                    try:
                        e = text_int(tail)
                    except ValueError:
                        raise ValueError(f"bad exponent {tail!r} in {raw!r}") from None
                exp[index[name]] += e
            else:
                if caret:
                    raise ValueError(f"unknown variable {name!r} in {raw!r}")
                try:
                    coef *= text_int(factor)
                except ValueError:
                    raise ValueError(f"unknown factor {factor!r} in {raw!r}") from None
        exp = tuple(exp)
        out[exp] = out.get(exp, 0) + coef
    return LaurentPoly(vars, out)


def substitute_monomial(p, images, new_vars):
    """Apply the ring map sending each variable to a signed monomial.

    ``images`` maps every variable of ``p`` to ``(sign, exponent_vector)``
    over ``new_vars`` with sign +-1.  Substitution is a ring homomorphism,
    so it is checked against nothing and composes freely.

    >>> p = parse_poly("x*y - 1", ("x", "y"))
    >>> print(substitute_monomial(p, {"x": (1, (2,)), "y": (1, (1,))}, ("t",)))
    t^3 - 1
    """
    new_vars = tuple(new_vars)
    table = {}
    for i, v in enumerate(p.vars):
        if v not in images:
            raise ValueError(f"no image given for variable {v!r}")
        if images[v][0] not in (1, -1):
            raise ValueError("image sign must be +1 or -1")
        if len(images[v][1]) != len(new_vars):
            raise ValueError(
                f"image of {v!r} has {len(images[v][1])} exponents, "
                f"expected {len(new_vars)}"
            )
        table[i] = images[v]
    out = {}
    for exp, coef in p.terms.items():
        new_exp = [0] * len(new_vars)
        sign = 1
        for i, e in enumerate(exp):
            if not e:
                continue
            s, image_exp = table[i]
            if s < 0 and e % 2:
                sign = -sign
            for j, ie in enumerate(image_exp):
                new_exp[j] += e * ie
        key = tuple(new_exp)
        out[key] = out.get(key, 0) + sign * coef
    return LaurentPoly(new_vars, out)


def nu_poly(k, var="t"):
    """The all-ones polynomial t^(k-1) + ... + t + 1; nu_0 = 0, nu_1 = 1.

    Satisfies (t - 1) * nu_k = t^k - 1.

    >>> print(nu_poly(3))
    t^2 + t + 1
    """
    if k < 0:
        raise ValueError("nu_poly needs k >= 0")
    return LaurentPoly((var,), {(i,): 1 for i in range(k)})
