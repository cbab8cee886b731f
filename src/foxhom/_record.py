"""The base of foxhom's immutable values, kept in a module that imports nothing.

A record names its fields in ``_fields``.  Its ``__init__`` normalises its
inputs, stores them with ``Record.__init__`` and checks them; ``_of`` stores
values that are known good and checks nothing.  The base gives equality,
hashing and repr over the field tuple and refuses to set or delete a field.
It imports nothing, so loading foxhom does not import ``inspect`` and the
modules behind it: a fresh process reaches its first computation sooner.

``Word`` and ``LaurentPoly`` are records too, but keep their own slotted
``__init__``, ``_of`` and ``__reduce__``, which set their fields directly.
They are built in the inner loops of the rewrite and of every polynomial
product.  On the generic constructor a ``LaurentPoly(...)`` took 1.46
against 0.79 us and a ``_of`` 1.12 against 0.43 us (Python 3.11.7, 2-CPU
Xeon), and branched-grid wall_ref was 5-6 % worse in 4 of 4 pairs.
"""


class Record:
    """Immutable fields compared, hashed and shown as one tuple.

    Records of different classes are never equal.  The hash is that of the
    field tuple, so a record holding a dict is unhashable.  The base's
    ``__slots__`` is empty; a subclass without its own keeps a ``__dict__``,
    which pickling copies and a ``functools.cached_property`` caches in.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for field, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, field, value)

    @classmethod
    def _of(cls, *values):
        """A record from values that are known good: no normalising, no checks."""
        self = object.__new__(cls)
        Record.__init__(self, *values)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
