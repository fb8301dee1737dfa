"""Immutable value records, the base of the package's plain data classes.

A subclass names its fields in _fields, in constructor order, and its
__init__ sets each once through object.__setattr__, usually with _set.  The
base makes every assignment raise AttributeError and gives equality, hash,
repr and pickling over the fields.  Nothing here generates code, so
importing the package stays cheap: every CLI run pays for that import
before any work.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        """Set the fields, in _fields order; only for __init__."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
