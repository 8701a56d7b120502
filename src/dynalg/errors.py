"""Exception types shared across the toolkit."""


class DynalgError(Exception):
    """Base class for all toolkit errors."""


class StructureError(DynalgError):
    """A group or action axiom fails; the message names the axiom and indices."""


class SystemMismatch(DynalgError):
    """Operands live over different dynamical systems."""


class RadicalAdditionMismatch(DynalgError):
    """Exact sum of two scalars with different radicands is not representable."""


class ExactnessError(DynalgError):
    """A requested value (square root, partition key) leaves the exact carrier."""


class NotPositive(DynalgError):
    """A positivity precondition fails."""


class NotFree(DynalgError):
    """An operation requires a free action."""


class NotRational(DynalgError):
    """An operation requires rational-valued functions."""


class HypothesisViolated(DynalgError):
    """An orthogonality hypothesis fails; the message names the failing pair."""


class IndexOutOfRange(DynalgError):
    """A witness refers to a point, group element, or target out of range."""


class ResourceBound(DynalgError):
    """An enumeration exceeded its configured budget."""


class InvalidWitness(DynalgError):
    """Witness data does not certify the requested subequivalence."""


class PreconditionFailed(DynalgError):
    """A stated precondition fails; the message names the failing check."""


class EmptyShape(DynalgError):
    """A shape-invariance query on an empty set."""


class InvalidCastle(DynalgError):
    """Castle levels are not pairwise disjoint or a shape is malformed."""


class InvalidCastleData(DynalgError):
    """Castle weights or phases violate their constraints."""


class NotNormalizerPreserving(DynalgError):
    """A map sends some matrix unit outside the normalizers."""


class NotOrderZero(DynalgError):
    """A map fails the exact order-zero relations."""


class ParseError(DynalgError):
    """An input file or literal cannot be parsed; the message locates the issue."""


class InvariantViolation(DynalgError):
    """An internal postcondition fails; this is a bug, not an input error."""
