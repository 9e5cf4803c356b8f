"""Exception types raised across the package, the record base class of
its value types, and the one intern table of its hash-consed nodes."""

from __future__ import annotations

import functools
import weakref
from operator import attrgetter


# The `__init__` of a record class with up to five fields and no
# `__init__` of its own, made from its slot setters: it sets the fields
# with no loop (a setter returns None, so `or` calls every one).
_INITS = (
    lambda: lambda self, /: None,
    lambda p: lambda self, a, /: p(self, a),
    lambda p, q: lambda self, a, b, /: p(self, a) or q(self, b),
    lambda p, q, r: lambda self, a, b, c, /: (
        p(self, a) or q(self, b) or r(self, c)),
    lambda p, q, r, s: lambda self, a, b, c, d, /: (
        p(self, a) or q(self, b) or r(self, c) or s(self, d)),
    lambda p, q, r, s, t: lambda self, a, b, c, d, e, /: (
        p(self, a) or q(self, b) or r(self, c) or s(self, d) or t(self, e)),
)


class Record:
    """An immutable slots object that compares and hashes by type and
    fields, so a record never equals one of another type.

    `_fields` are the constructor arguments, in order: the `__slots__`
    unless a class says otherwise.  Only the `_compared` fields (all by
    default) take part in `==` and the hash; a class that sets `__hash__ =
    None` is unhashable.  `repr`, `copy` and `pickle` go through the fields
    and the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = cls.__dict__
        fields = cls._fields = own.get("_fields", own["__slots__"])
        # each field's slot setter, which bypasses `__setattr__`
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        compared = own.get("_compared", fields)
        # a record without compared fields is equal to any of its type
        cls._key = attrgetter(*compared) if compared \
            else staticmethod(lambda record: ())
        if "__init__" not in own and cls.__init__ is not object.__init__ \
                and len(fields) < len(_INITS):
            init = cls.__init__ = _INITS[len(fields)](*cls._setters)
            init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __init__(self, *args):
        """The fields, positionally: the constructor of a record with more
        than five fields, and what a record's own `__init__` calls."""
        setters = self._setters
        if len(args) != len(setters):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(self._fields)}")
        for put, value in zip(setters, args):
            put(self, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


# --- hash-consing ----------------------------------------------------------------
#
# Expressions, objects and arrows are hash-consed (Filliâtre & Conchon,
# "Type-safe modular hash-consing", 2006) in one table.  Key: the node's
# class and its children, which are themselves interned and compare by
# identity (sorts, operations and variables compare by value).  Value: a
# weak reference whose callback, `dict.pop(key, ref)`, removes the entry
# when the node dies.  Nodes are acyclic, so reference counting frees a node
# the moment its last reference goes and the callback runs right then: a
# key never maps to a dead node when a constructor looks it up.  The table
# takes no lock, so nodes are built from one thread at a time.

INTERNED: dict[tuple, weakref.ref] = {}


def interned(key: tuple):
    """The live node stored under `key`, or None."""
    ref = INTERNED.get(key)
    return ref and ref()


def intern(key: tuple, node):
    """Store the new `node` under `key`, and return it."""
    INTERNED[key] = weakref.ref(node, functools.partial(INTERNED.pop, key))
    return node


class Node(Record):
    """An interned record: `__new__` returns the canonical node, so `==`
    and `hash` are identity, and copies and unpickled nodes are that
    node too."""

    __slots__ = ("__weakref__",)
    _fields = ()
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class TermcatError(Exception):
    """Base class for every error this package raises on bad input; the
    CLI exits with 2 on one that is not a `DeductionError`."""


class SignatureError(TermcatError):
    """A malformed operation declaration, or a `DuplicateSort`; `index` is
    the 0-based position of the offending entry in the operation list, or
    in the sort list."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DuplicateSort(SignatureError):
    """A sort declared twice."""


class EndpointMismatch(TermcatError):
    """Two arrows whose endpoints do not fit together."""


class DeductionError(TermcatError):
    """A deduction step failed to check; maps to exit code 1 in the CLI.
    `step` is the index of the failing step, where the producer sets it."""

    step: int | None = None


class DslError(TermcatError):
    """Parse-time error carrying a (line, column) location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
