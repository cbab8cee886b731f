"""The base of foxhom's frozen records, kept in a module that imports nothing.

A record names its fields in ``_fields``; its ``__init__`` sets each one
with ``object.__setattr__`` and checks them, as ``Word`` and ``LaurentPoly``
do.  The base gives equality, hashing and repr over the field tuple and
imports nothing, so loading foxhom does not import ``inspect`` and the
modules behind it: a fresh process reaches its first computation sooner.
"""


class Record:
    """Immutable fields compared, hashed and shown as one tuple.

    Records of different classes are never equal.  The hash is that of the
    field tuple, so a record holding a dict is unhashable.  Instances keep a
    ``__dict__``: pickling copies it, and a ``functools.cached_property``
    caches in it.
    """

    _fields = ()

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
