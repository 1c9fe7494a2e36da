"""Exception taxonomy shared across the package.

Every error raised on purpose derives from TuttepolyError so callers (and the
CLI) can distinguish expected failures from bugs.
"""


class TuttepolyError(Exception):
    """Base class for all deliberate errors in this package."""


class ParseError(TuttepolyError):
    """Malformed input file or command-line value."""


class NonExactDivision(TuttepolyError):
    """Polynomial division left a remainder where exactness was required."""


class ElementOutOfRange(TuttepolyError):
    """A referenced element is not in the ground set 0..n-1."""


class InvalidRank(TuttepolyError):
    """Rank parameter outside the feasible range."""


class InvalidSize(TuttepolyError):
    """Size parameter outside the feasible range."""


class InvalidParameters(TuttepolyError):
    """Parameter combination violates a documented precondition."""


class InvalidPartition(TuttepolyError):
    """Blocks do not partition the ground set as required."""


class NotCircuitHyperplane(TuttepolyError):
    """The set asked to be relaxed is not a circuit-hyperplane."""


class PreconditionViolated(TuttepolyError):
    """A structural precondition of a construction does not hold."""


class BudgetExceeded(TuttepolyError):
    """Input beyond a documented limit or budget (CLI exit code 3)."""


class GroundSetTooLarge(BudgetExceeded):
    """Ground set exceeds the hard limit of an exhaustive routine."""


class GraphTooLarge(BudgetExceeded):
    """Graph exceeds the hard limit of an exhaustive routine."""


class ResourceBudgetExceeded(BudgetExceeded):
    """A recursion expanded more nodes than its budget allows."""


class SizeBudgetExceeded(BudgetExceeded):
    """An enumeration would produce more objects than its budget allows."""


class UnsupportedWidth(BudgetExceeded):
    """Transfer-matrix grid width outside the supported range."""


class NotPrimePower(TuttepolyError):
    """Field order is not a prime power (or not a supported prime)."""


class UnknownSystem(TuttepolyError):
    """Requested design parameters name no built-in Steiner system."""


class UnknownEntry(TuttepolyError):
    """Catalog lookup for a name that is not present."""
