"""Exception types raised across the package."""

from __future__ import annotations


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
    """A deduction step failed to check; maps to exit code 1 in the CLI."""


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
