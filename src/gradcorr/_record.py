"""The base class of the package's records.

A record names its fields in ``__slots__`` and sets each once, in its
``__init__``, through ``_fill`` or ``object.__setattr__``; afterwards
assigning or deleting an attribute raises.  The base gives every record
what a frozen dataclass gives, equality, a hash and a repr over the
fields in order, but writes those methods once here instead of
generating them per class at import: on a shared 2-vCPU Xeon a frozen
dataclass takes 0.6-1.4 ms to build, a slotted class about 10 us, and
the modules of ``gradcorr test`` define a dozen records.  A slot whose
name starts with an underscore is private state, outside equality, the
hash and the repr.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _names: tuple = ()      # the public fields, in order
    _setters: tuple = ()    # their slots' setters, which skip __setattr__

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._names = cls._names + tuple(
            name for name in cls.__dict__.get("__slots__", ())
            if not name.startswith("_"))
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls._names)

    def _fill(self, *values, start: int = 0) -> None:
        """Set the public fields from the start-th on, in order, to values."""
        for setter, value in zip(self._setters[start:], values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{type(self).__qualname__}({fields})"
