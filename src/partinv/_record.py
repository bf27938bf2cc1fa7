"""Frozen value records, built from plain methods.

A subclass of :class:`Record` lists its fields as class annotations and
behaves as ``@dataclass(frozen=True)`` would make it: construction by
position or keyword, a class attribute as a field's default, then
``__post_init__``; equality only with an instance of the same class,
comparing the fields in order; ``hash`` of the field tuple; the repr
``Name(field=value, ...)``; assignment and deletion refused with
:class:`AttributeError`.  There is no ordering; a record that orders
defines its own comparisons.  Instances keep a ``__dict__``, so a
``functools.cached_property`` can store what it derives there, outside
equality, hash and repr.

``dataclasses`` is not used: importing it loads ``inspect``, and each
dataclass compiles its generated methods, both at the start of every CLI
process.  A record built in a hot loop defines its own ``__init__``, which
stores its fields in ``__dict__`` with no argument binding.
"""

from operator import attrgetter


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Own annotations only (Python 3.10+), after the inherited fields.
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        # The one field, or the tuple of fields: either compares as the tuple.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        # Every field given, by position and then by keyword in field order.
        if len(args) <= len(fields) and tuple(kwargs) == fields[len(args) :]:
            values = (*args, *kwargs.values())
        else:
            values = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, values))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in field order, from a call's arguments, refused
        with :class:`TypeError` as a function with the fields as parameters
        would refuse them."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and not hasattr(type(self), f)]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] if f in values else getattr(type(self), f) for f in fields]

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        value = self._key(self)
        return (value,) if len(self._fields) == 1 else value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

