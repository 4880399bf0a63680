"""The base class of the record types: equality, hashing and repr by compared fields.

A record class names the fields that identify it, in order, in
``_compared``; the others (source spans, caches) are left out of equality,
hashing and repr.  A record equals only a record of its own class.  A
record that may change after it is built sets ``__hash__ = None``.  Each
record class has ``__slots__`` and its own ``__init__``, so that importing
one generates no code: README.md's design notes say why.
"""


class Record:
    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"
