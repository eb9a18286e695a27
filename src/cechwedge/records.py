"""Plain value records: equality, hash and repr over a field tuple.

A record class names its fields in `_fields`, each a slot of the class.
The shared constructor takes one positional value per field, in that
order, and stores each through its slot descriptor, looked up once per
class; a class that validates or canonicalizes its arguments writes
its own `__init__` and ends it with `super().__init__(...)`.  Two
records are equal when they have the same class and equal fields, and
repr reads `Name(field=value, ...)`.  A `Frozen` record also hashes its
fields and refuses attribute assignment; a plain `Record` is mutable
and unhashable.
"""

from __future__ import annotations

from operator import attrgetter


def _tuple_getter(fields: tuple[str, ...]):
    """A function from a record to the tuple of its field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        one = attrgetter(fields[0])
        return lambda self: (one(self),)
    return lambda self: ()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls):
        cls._values = staticmethod(_tuple_getter(cls._fields))
        # each field's slot descriptor sets it around Frozen.__setattr__,
        # which refuses assignment
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            fields = self._fields
            raise TypeError("%s takes %d values (%s), got %d" % (
                self.__class__.__qualname__, len(fields), ", ".join(fields),
                len(values)))
        for set_field, v in zip(setters, values):
            set_field(self, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
