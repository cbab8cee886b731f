"""Words in a free group, stored as freely reduced runs of (generator, exponent).

A word is the universal currency of this package: relators, boundary slopes,
rewriting rules and transfer inputs are all words.  Storage is run-length,
so ``t^-2 s t^3`` is three runs, and reduction is eager: a ``Word`` is freely
reduced from the moment it exists.
"""

from __future__ import annotations

from .laurent import text_int


class ParseError(ValueError):
    """Raised on malformed word text; carries the offending token position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


def _reduce(runs):
    # a tuple run that survives is kept as it is, not copied; the rewriting
    # of covers shares one run per letter through ``Word._of``, not here
    stack = []
    for run in runs:
        gen, exp = run
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((gen, merged))
        else:
            stack.append(tuple(run))
    return tuple(stack)


class Word:
    """A freely reduced word.

    >>> w = Word([("s", 1), ("t", 1), ("s", -1), ("t", 1)])
    >>> str(w)
    's t s^-1 t'
    >>> str(w * ~w)
    ''
    >>> Word([("m", 2), ("m", -1)]).runs
    (('m', 1),)
    """

    __slots__ = ("runs",)

    def __init__(self, runs=()):
        object.__setattr__(self, "runs", _reduce(runs))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _of(cls, runs):
        """A word from a tuple of runs that is already reduced and maximal.

        Skips the reduction, for words built run by run that can hold no
        zero exponent and no two adjacent runs of one generator.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "runs", runs)
        return self

    def __reduce__(self):
        return Word, (self.runs,)

    def __eq__(self, other):
        return isinstance(other, Word) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __bool__(self):
        return bool(self.runs)

    def __len__(self):
        """Letter length, counting exponents with multiplicity."""
        return sum(abs(e) for _, e in self.runs)

    def __mul__(self, other):
        return Word(self.runs + other.runs)

    def __invert__(self):
        return Word(tuple((g, -e) for g, e in reversed(self.runs)))

    def __pow__(self, n):
        base = self if n >= 0 else ~self
        middle = base.conjugated_run()
        if middle is not None and n:
            # (u h^e u^-1)^n = u h^(e n) u^-1, no longer than the word itself
            k = len(base.runs) // 2
            g, e = middle
            return Word._of(base.runs[:k] + ((g, e * abs(n)),) + base.runs[k + 1 :])
        # the reduction stack cancels across every seam of the concatenation
        return Word(base.runs * abs(n))

    def __repr__(self):
        return f"Word({str(self)!r})"

    def __str__(self):
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.runs)

    def conjugated_run(self):
        """The middle run (h, e) when the word is u h^e u^-1, else None.

        >>> Word([("s", 1), ("m", -1), ("s", -1)]).conjugated_run()
        ('m', -1)
        >>> Word([("s", 1), ("m", 1)]).conjugated_run() is None
        True
        """
        runs = self.runs
        k = len(runs) // 2
        if len(runs) % 2 and all(runs[i] == (runs[-1 - i][0], -runs[-1 - i][1]) for i in range(k)):
            return runs[k]
        return None

    def generators_used(self):
        return {g for g, _ in self.runs}

    def single_letters(self):
        """Yield (generator, +1 or -1) one letter at a time."""
        for g, e in self.runs:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, step

    def substitute(self, gen, replacement):
        """Replace every occurrence of ``gen`` by ``replacement`` (a Word)."""
        return self.substitute_all({gen: replacement})

    def substitute_all(self, words):
        """Replace each generator g in the dict ``words`` by the Word words[g].

        The runs are joined first and reduced once, so the cost is linear in
        the length of the result.
        """
        runs = []
        for g, e in self.runs:
            if g in words:
                runs.extend((words[g] ** e).runs)
            else:
                runs.append((g, e))
        return Word(runs)


def parse_word(text, alphabet):
    """Parse whitespace-separated tokens ``name`` or ``name^int`` into a Word.

    The exponent is an optional sign and ASCII digits (``text_int``).

    >>> str(parse_word("s t s^-1 t", ["s", "t"]))
    's t s^-1 t'
    >>> parse_word("s s^-1", ["s"])
    Word('')
    >>> parse_word("m^2 m^-1", ["m"]).runs
    (('m', 1),)
    """
    known = set(alphabet)
    runs = []
    for pos, token in enumerate(text.split()):
        name, caret, tail = token.partition("^")
        if not name:
            raise ParseError(f"token {pos}: empty generator name in {token!r}", pos)
        if name not in known:
            raise ParseError(f"token {pos}: unknown generator {name!r}", pos)
        if caret:
            try:
                exp = text_int(tail)
            except ValueError:
                raise ParseError(
                    f"token {pos}: malformed exponent {tail!r} in {token!r}", pos
                ) from None
            if exp == 0:
                raise ParseError(f"token {pos}: exponent 0 in {token!r}", pos)
        else:
            exp = 1
        runs.append((name, exp))
    return Word(runs)


def exponent_vector(word, ordering):
    """Exponent sum of each generator of ``ordering`` in ``word``.

    >>> exponent_vector(parse_word("s t s^-1 t", ["s", "t"]), ["m", "s", "t", "u"])
    [0, 0, 2, 0]
    """
    index = {g: i for i, g in enumerate(ordering)}
    out = [0] * len(ordering)
    for g, e in word.runs:
        if g not in index:
            raise ValueError(f"letter {g!r} outside the given ordering")
        out[index[g]] += e
    return out
