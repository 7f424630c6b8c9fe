"""Immutable value types, without ``dataclasses``.

:func:`value_type` gives a class what a frozen dataclass has, from the names
of its fields and without compiling any code; importing ``dataclasses`` (and
with it ``inspect``) and compiling those methods for every class cost a cold
``import hextorus`` about 15 ms on a 2-vCPU x86-64 host with Python 3.11.
A class writes an ``__init__`` only to check or normalise its arguments,
storing them with ``self.__dict__.update``; the others take their fields
positionally or by name. Either way an instance's dict holds its fields and
nothing else.
"""

from operator import attrgetter
from reprlib import recursive_repr


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    try:
        return self.__dict__ == other.__dict__  # the dicts hold the fields alone
    except ValueError:  # an array's truth value: arrays compare by shape and values
        return all(_same(v, other.__dict__[k]) for k, v in self.__dict__.items())


def _same(a, b) -> bool:
    if a.__class__ is tuple is b.__class__:  # Mesh3.polylines
        return len(a) == len(b) and all(map(_same, a, b))
    return a.shape == b.shape and bool((a == b).all()) if hasattr(a, "ndim") else a == b


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value_type(*fields: str):
    """Class decorator for a value type with the given fields, in order.

    Instances equal the instances of the same class whose fields are equal
    (arrays by shape and values), hash as the tuple of their fields (a
    TypeError if one is unhashable), show as ``Name(field=value, ...)`` and
    refuse the assignment and the deletion of any attribute. A class without
    an ``__init__`` of its own gets one taking each field once, by position or name.
    """
    get = attrgetter(*fields)
    names = frozenset(fields)
    key = get if len(fields) > 1 else lambda self: (get(self),)

    def __hash__(self):
        return hash(key(self))

    @recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __init__(self, /, *args, **kwargs):
        self.__dict__.update(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or self.__dict__.keys() != names:
            raise TypeError(
                f"{self.__class__.__qualname__}() takes the fields {fields} once each, "
                f"got {len(args)} by position and {list(kwargs)} by name"
            )

    def decorate(cls):
        cls.__eq__, cls.__hash__, cls.__repr__ = _eq, __hash__, __repr__
        cls.__setattr__, cls.__delattr__ = _setattr, _delattr
        cls.__match_args__ = fields
        if "__init__" not in cls.__dict__:
            cls.__init__ = __init__
        return cls

    return decorate
