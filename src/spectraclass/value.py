"""The one base of the package's value classes: field-wise equality, repr and pickling.

Each value class is a plain class that names its fields, in constructor
order, in ``_fields`` and sets and checks them in its own ``__init__``.
Defining one generates no code and imports nothing, which keeps the
start-up of every CLI run short.
"""


class Value:
    """Field-wise ``==`` and repr. Unhashable, since its fields may be reassigned.

    (Defining ``__eq__`` without ``__hash__`` sets ``__hash__`` to None.) Pickling and copying rebuild an instance by calling its class with its
    field values, so a copy is checked by ``__init__`` as the original was.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Value):
    """A Value whose fields cannot be assigned or deleted once ``__init__`` has set them.

    ``__init__`` sets each field with ``object.__setattr__``, or in the
    instance ``__dict__`` of a class without slots. Hashable by its fields.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
