"""Value semantics for the package's record classes.

A record class writes out its own `__init__` and names its fields in a
class attribute; the two bases here supply `==`, hash and repr from it:

- `_fields`: the fields repr shows, in declaration order, as
  `Class(name=value!r, ...)`. A field left out of `_fields` (only
  `InstanceSpec.behavior`) is out of repr and `==` alike.
- `==` compares, and the hash hashes, the fields of `_fields` in order,
  except a field named `pos`: source positions never take part in
  equality, so two parses of equivalent text compare equal.

Rules:

- `a == b` holds when both are instances of the same class and their
  compared fields are equal as tuples; against any other class it returns
  NotImplemented.
- A `Value` is mutable and unhashable (`__hash__ = None`).
- A `Frozen` value hashes the tuple of its compared fields. Assigning to
  or deleting any attribute raises `FrozenInstanceError`, an
  `AttributeError`, so its `__init__` sets each field with `set_field`.
  Memos kept outside the fields (`Record.render`, the `ComponentTypeDef`
  indexes, `MessageTypeDef.field_types`) write the instance `__dict__`
  directly; they are in no field, so `==`, hash and repr do not see them.
- Both bases declare empty `__slots__`, so a subclass has slots exactly
  when it declares them itself.

The methods are written here once and compiled into the `.pyc`; nothing
is generated when a record class is defined.
"""

from __future__ import annotations

from operator import attrgetter

# Sets a field of a Frozen value from its __init__.
set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    pass


def _no_fields(obj: object) -> tuple:
    return ()


def _key_getter(names: tuple[str, ...]):
    """Return obj -> tuple of the named attributes."""
    if not names:
        return _no_fields
    get = attrgetter(*names)
    if len(names) > 1:
        return get
    return lambda obj: (get(obj),)


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        compare = tuple(name for name in cls._fields if name != "pos")
        cls._key = staticmethod(_key_getter(compare))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class Frozen(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
