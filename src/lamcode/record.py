"""Immutable tuple-backed records: the package's one value type.

A record class declares its fields as annotations, in order, with
optional defaults. Its constructor binds arguments as a call does (a
missing, unknown or duplicate one raises TypeError), then runs ``_check``;
code whose fields are in range by construction builds it unchecked with
``tuple.__new__(cls, fields)``. Setting or deleting an attribute raises
AttributeError, so derived values are ``cached_property``s. A record
equals only a record of its own class, never a plain tuple, and does not
order (``<`` and the rest raise TypeError). Copies and pickles call the
constructor; the repr names every field; records iterate, unpack and take
``len`` as tuples do.
"""

from __future__ import annotations

from operator import index, itemgetter

from .errors import RangeError


class Record(tuple):
    """Base of every record class; see the module docstring for the contract."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        cls._fields = cls.__match_args__ = names
        for position, name in enumerate(names):
            setattr(cls, name, property(itemgetter(position)))

    def __new__(cls, *args, **kwargs):
        names = cls._fields
        if kwargs or len(args) != len(names):  # bind as a function binds its parameters
            bound = {**cls._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or len(bound) != len(names) or not kwargs.keys() <= set(names[len(args):]):
                raise TypeError(f"{cls.__qualname__}() takes {names}: missing, unknown or duplicate arguments")
            args = [bound[name] for name in names]
        record = tuple.__new__(cls, args)
        record._check()
        return record

    def _check(self) -> None:
        """Refuse out-of-range fields; a class without a rule checks nothing."""

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__qualname__} records are immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

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

    def __reduce__(self):
        """Copies and pickles call the checked constructor; cached values are rebuilt."""
        return type(self), tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


def integer(name: str, value) -> int:
    """The value as an int; RangeError if it is not an integer (bools and numpy integers are)."""
    try:
        return index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, not {type(value).__name__}") from None
