"""Immutable records: the small value classes of the library.

A subclass of ``Record`` lists its fields as class annotations, in order,
with an optional default as the class attribute. It gets a constructor
taking the fields positionally or by keyword (then ``__post_init__``, for
validation), equality between instances of the same class over the
compared fields, the hash of those fields, ``Name(field=value, ...)`` as
its repr, and ``FrozenInstanceError`` on assignment. Fields named in the
class keyword ``uncompared`` stay out of equality and hashing.

All of it is shared code: nothing is generated per class, and importing
the library does not import ``dataclasses`` (with ``inspect``, ``ast`` and
``dis``), the largest start-up cost of the CLI that the library controls.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to a field of a record."""


class Record:
    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {
            name: cls.__dict__[name] for name in cls._fields
            if name in cls.__dict__
        }
        cls._key = attrgetter(
            *(name for name in cls._fields if name not in uncompared)
        )

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments, {len(args)} given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}() got an unexpected "
                                f"or repeated argument {name!r}")
            values[name] = value
        for name in names[len(args):]:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__}() missing "
                                    f"argument {name!r}")
                values[name] = self._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
