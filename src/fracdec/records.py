"""The base class of the package's frozen records.

A record keeps its attributes in `__slots__`. The fields named in
`_fields` alone make up its equality, hash and repr, in that order, as a
frozen dataclass's would, and a record equals only records of its very
class. Any further slot holds a value `__init__` derives from them and
stays out of all three. Once built, a record refuses to set or delete an
attribute (AttributeError), so `__init__` stores values with `_set`;
`copy` and `pickle` restore the slots as they were.

These are plain classes rather than dataclasses because creating a
dataclass compiles its generated methods at import, which every fresh
process pays again.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        self._set(**state[1])

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))
