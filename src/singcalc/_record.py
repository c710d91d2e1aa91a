"""Records: classes whose instances compare, hash and print by their fields.

A record class subclasses `FrozenRecord`, lists its fields in
``__slots__`` and sets each in its own ``__init__`` with `setfield`, since
a record refuses assignment.  Instances of one class are equal when their
fields are, in the order of ``__slots__``, hash as the tuple of their
fields, print as ``Name(field=value, ...)``, and copy and pickle.  These
are the methods ``@dataclass(frozen=True)`` would generate per class,
written once: defining a record class runs no generated code.
"""

__all__ = ["FrozenRecord", "setfield"]

setfield = object.__setattr__


class FrozenRecord:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # what copy and pickle restore: (None, {field: value}) of object.__getstate__
        for name, value in state[1].items():
            setfield(self, name, value)
