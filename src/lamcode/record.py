"""Immutable tuple-backed records, checked once.

A record's public constructor validates every field. Code whose fields
are in range by construction builds the record unchecked, with
``tuple.__new__(cls, fields)``, so a per-element path pays for a tuple
and nothing more. Records compare equal only to records of their own
class, as frozen dataclasses do: a record never equals a plain tuple.
Like frozen dataclasses, records do not order: ``<``, ``<=``, ``>`` and
``>=`` raise TypeError, against a tuple or a record alike. Records still
iterate, unpack and take ``len`` as tuples do.
"""

from __future__ import annotations

from operator import itemgetter


class Record(tuple):
    """Base of ``class Name(Record, fields=(...))``; each subclass sets ``__slots__ = ()``
    and checks its fields in ``__new__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = fields
        for index, name in enumerate(fields):
            setattr(cls, name, property(itemgetter(index)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        # Raised, not NotImplemented: the reflected tuple comparison would
        # otherwise order a record against a plain tuple.
        raise TypeError(f"{type(self).__qualname__} records do not order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    del _unordered

    def __getnewargs__(self) -> tuple:
        """Copies and pickles go back through the checked constructor."""
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"
