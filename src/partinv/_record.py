"""Frozen value records, built from plain methods.

A subclass of :class:`Record` lists its fields as class annotations and
behaves as ``@dataclass(frozen=True)`` would make it, built one way only:
every field given, by position and then by keyword in field order, any
other call refused with a :class:`TypeError` naming the fields in order;
equality only with an instance of the same class, comparing the fields in
order; ``hash`` of the field tuple; the repr ``Name(field=value, ...)``;
assignment and deletion refused with :class:`AttributeError`.  There is no
ordering, field default or validation hook: a record that has one defines
its own comparisons or its own ``__init__``, which stores its fields in
``__dict__``.  Instances keep a ``__dict__``, so a
``functools.cached_property`` can store what it derives there, outside
equality, hash and repr.

``dataclasses`` is not used: importing it loads ``inspect``, and each
dataclass compiles its generated methods, both at the start of every CLI
process.
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
        if len(args) > len(fields) or tuple(kwargs) != fields[len(args) :]:
            raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}, in order")
        self.__dict__.update(zip(fields, (*args, *kwargs.values())))

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

