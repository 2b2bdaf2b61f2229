"""Read-only value objects.

A subclass names its fields in ``__slots__`` and sets each one once in
``__init__`` through ``object.__setattr__``; after that every assignment or
deletion raises.  Two instances of the same class are equal, and hash
equal, when their fields are.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
