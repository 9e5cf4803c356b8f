"""Exception types raised across the package, and the record base class
of its value types."""

from __future__ import annotations

from operator import attrgetter


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

    def __init__(self, *args):
        """The fields, positionally."""
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


class TermcatError(Exception):
    """Base class for every error this package raises on bad input."""


# --- signature validation ---------------------------------------------------

class SignatureError(TermcatError):
    """A malformed signature; `index` is the 0-based position of the
    offending entry in the sort list (DuplicateSort) or in the operation
    list (the others)."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DuplicateSort(SignatureError):
    pass


class DuplicateOperation(SignatureError):
    pass


class UnknownSortInArity(SignatureError):
    pass


# --- expressions, terms, equations ------------------------------------------

class ArityMismatch(TermcatError):
    pass


class SortMismatch(TermcatError):
    """A sort disagreement; `position` is the 1-based argument slot if any."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class MissingVariables(TermcatError):
    def __init__(self, message: str, variables=()):
        super().__init__(message)
        self.variables = tuple(variables)


class TypeDisagrees(TermcatError):
    pass


# --- arrows -------------------------------------------------------------------

class EndpointMismatch(TermcatError):
    pass


# --- deduction ----------------------------------------------------------------

class DeductionError(TermcatError):
    """A deduction step failed to check; maps to exit code 1 in the CLI.
    `step` is the index of the failing step, where the producer sets it."""

    step: int | None = None


class SideConditionViolated(DeductionError):
    pass


class MiddleTermMismatch(DeductionError):
    pass


class UnknownHypothesis(DeductionError):
    def __init__(self, index: int):
        super().__init__(f"no hypothesis with index {index}")
        self.index = index


class InterfaceMismatch(DeductionError):
    pass


class LevelledBudgetExceeded(TermcatError):
    """A deduction's levelled form would hold more than MAX_LEVELLED
    entries."""


class UninhabitedFill(DeductionError):
    """A retyping map needed a global element of an empty sort."""

    def __init__(self, sort):
        super().__init__(f"sort {sort} is empty; no closed filler exists")
        self.sort = sort


# --- finite models --------------------------------------------------------------

class CarrierOutOfRange(TermcatError):
    pass


class ModelBudgetExceeded(TermcatError):
    """A counterexample search visited MAX_MODELS models and more remain."""


# --- DSL front end ---------------------------------------------------------------

class DslError(TermcatError):
    """Parse-time error carrying a (line, column) location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class NameResolutionError(DslError):
    pass
