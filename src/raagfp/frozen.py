"""Immutable value types without ``dataclasses``.

``dataclasses`` and the ``inspect`` module it imports take longer to
load than raagfp's own modules, and the value types need only set-once
fields, value equality and a hash.
"""


class Frozen:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__`` and sets each one once
    in ``__init__`` with ``object.__setattr__``; assigning or deleting
    an attribute afterwards raises AttributeError.  A slot whose name
    starts with ``_`` holds a cache or data derived from the fields:
    equality, hash, repr and pickling ignore it.  Instances are equal when their classes are the same and
    their fields are equal, in the manner of a frozen dataclass, and
    pickling or copying rebuilds them through ``__init__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__
                     if not f.startswith("_"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__
                          if not f.startswith("_"))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


def _read_only(self, *args, **kwargs):
    raise TypeError("a Shared block is read-only")


class Shared(dict):
    """A read-only report block that a report may hold in several places.

    ``coabelian.fpn_coabelian`` builds each link row and decomposition
    block that recurs across its zero patterns once, as a Shared, and
    every pattern holding it holds that one object; ``cli.render_json``
    renders it once per indentation.  Like a graph's ``_homology``
    entries it must not be modified: the dict methods that would change
    it raise TypeError, and the lists inside it must be left as they
    are.  It is a dict for everything else, ``==``, ``json``, copying
    and pickling included.
    """

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return Shared, (dict(self),)
