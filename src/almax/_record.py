"""The base of the package's small value classes."""

from operator import attrgetter


class Record:
    """A slotted class with field-wise ``==`` and ``repr``; frozen ones also hash and are read-only.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    stores them in ``__init__`` (a frozen one with ``object.__setattr__``).
    A slot whose name starts with ``_`` holds derived state, neither
    compared nor shown; ``_unshown`` names fields left out of the repr.
    ``class C(Record, frozen=False)`` makes a mutable, unhashable record.

    This replaces ``dataclasses``, whose import (with ``inspect``) and
    per-class code generation with ``exec`` cost about a third of
    ``import almax.cli``.
    """

    __slots__ = ()
    _unshown = ()

    def __init_subclass__(cls, frozen=True):
        cls._fields = cls.__match_args__ = fields = tuple(
            name for name in cls.__slots__ if not name.startswith("_")
        )
        get = attrgetter(*fields)  # a tuple only for two or more names
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the fields in order
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
