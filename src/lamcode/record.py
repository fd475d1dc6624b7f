"""Immutable tuple-backed records: the package's one value type.

A record class declares its fields as annotations, defaults last, no name
starting with an underscore. A ``collections.namedtuple`` of the fields
binds arguments (TypeError for a missing, unknown or duplicate one) and
reads fields. The constructor checks each field's shape from its
annotation, evaluated or a string naming classes of the defining module:
an ``int`` or ``int | None`` field passes ``integer`` and stores a value
that is not an int (a numpy integer) as one, a record-class one holds an
instance, and a ``tuple[...]`` one holds exactly a tuple, of the fixed
length if any, whose int and record-class items are checked so.
Then ``_check`` runs the class's value rules. Records in range by
construction are built unchecked by ``tuple.__new__(cls, fields)``;
``CodePoint``, ``NativeSample`` and ``ForcedSample`` check their fields
in their own ``__new__``. Attributes cannot be set or deleted, so derived
values are ``cached_property``s. A record equals only records of its own
class and does not order. Copies and pickles call the constructor; the
repr names every field; records act as tuples otherwise.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from operator import index

from .errors import RangeError


class Record(tuple):
    """Base of every record class; see the module docstring for the contract."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        names = tuple(annotations)
        defaults = [cls.__dict__[name] for name in names if name in cls.__dict__]
        if any(name in cls.__dict__ for name in names[: len(names) - len(defaults)]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
        layout = namedtuple(cls.__name__, names, defaults=defaults, module=cls.__module__)
        cls._bind, cls._defaults = layout.__new__, layout._field_defaults
        cls._fields = cls.__match_args__ = names
        optional = {"int": False, "int | None": True, int: False, int | None: True}  # integer fields: None allowed?
        kinds = tuple(enumerate(annotations.items()))
        cls._integers = tuple((at, name, optional[kind]) for at, (name, kind) in kinds if kind in optional)
        scope = vars(sys.modules[cls.__module__])
        shapes = ((at, name, _shape(kind, scope)) for at, (name, kind) in kinds if kind not in optional)
        cls._shapes = tuple(rule for rule in shapes if rule[2])
        for name in names:
            setattr(cls, name, layout.__dict__[name])  # the namedtuple's C field getter

    def __new__(cls, *args, **kwargs):
        record = cls._bind(cls, *args, **kwargs)
        for at, name, optional in cls._integers:
            if record[at].__class__ is not int and not (optional and record[at] is None):
                value = integer(name, record[at])
                if not isinstance(record[at], int):  # stored as an int: 1 << np.int64(64) wraps
                    record = tuple.__new__(cls, (*record[:at], value, *record[at + 1 :]))
        for at, name, shape in cls._shapes:
            _conform(name, record[at], shape)
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


def _shape(kind, scope: dict):
    """What a value annotated `kind` is checked for: int, a record class, (length, item shapes)
    of a tuple (length None: any number of items, each of shapes[0]), or None, unchecked."""
    if isinstance(kind, str):  # postponed: names resolve in the defining module
        kind = eval(kind, scope) if kind.startswith("tuple[") else scope.get(kind)
    if getattr(kind, "__origin__", None) is tuple:
        items = tuple(_shape(item, scope) for item in kind.__args__)
        return (None, items[:1] if items[0] else ()) if kind.__args__[-1:] == (...,) else (len(items), items)
    return kind if kind is int or isinstance(kind, type) and issubclass(kind, Record) else None


def _conform(name: str, value, shape) -> None:
    """Refuse a value off its shape (see `_shape`); item i of a tuple is named name[i]."""
    if shape is int:
        integer(name, value)
    elif shape.__class__ is not tuple:
        if not isinstance(value, shape):
            raise RangeError(f"{name} must be a {shape.__name__}, not {type(value).__name__}")
    elif value.__class__ is not tuple:
        raise RangeError(f"{name} must be a tuple, not {type(value).__name__}")
    elif shape[0] not in (None, len(value)):
        raise RangeError(f"{name} must hold {shape[0]} items, not {len(value)}")
    elif shape[1]:  # some items are checked
        for at, (item, kind) in enumerate(zip(value, shape[1] * len(value) if shape[0] is None else shape[1])):
            if kind and item.__class__ is not kind:  # a plain int or an exact record passes here
                _conform(f"{name}[{at}]", item, kind)
