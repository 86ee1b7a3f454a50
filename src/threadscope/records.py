"""Record classes for the modules every CLI process imports.

Each stage runs as its own process, so start-up is paid once per stage.
``import dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, and each
``@dataclass`` generates and execs the source of its methods at import.
So a record on the CLI import path is a ``typing.NamedTuple`` when it is
immutable and built a few times per run, and otherwise a ``__slots__``
class with a hand-written ``__init__`` on one of the bases below, which
give it the field-wise methods a dataclass would.  A class's ``_fields``
is the one list of what it holds: the bases compare, hash and print by
it, ``FrozenRecord._freeze`` sets it, and ``Record._asdict`` hands it to
a JSON writer as ``NamedTuple._asdict`` does.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """``__repr__`` and ``__eq__`` over the attributes named in the
    class's ``_fields``, in order, as a dataclass writes them.  Defining
    ``__eq__`` leaves the class unhashable, as a dataclass that is not
    frozen is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # a record's field values, read in C: a tuple for two or more
            # fields.  Not a method, so ``self._key`` is not bound.
            cls._key = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def _asdict(self) -> dict:
        """Field name -> value, in ``_fields`` order."""
        return {name: getattr(self, name) for name in self._fields}


class FrozenRecord(Record):
    """A record whose ``__init__`` sets each slot once, through
    ``_freeze``.  Later assignment or deletion raises AttributeError, and
    the record hashes by its fields."""

    __slots__ = ()

    def _freeze(self, *values: object) -> None:
        """Set the class's slots, its ``_fields`` and then any value
        derived from them, to ``values`` in order."""
        names = type(self).__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} slot values")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key(self))
