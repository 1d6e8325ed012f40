"""Typed errors shared across the engine.

Every failure mode a caller is expected to handle gets its own class so
tests can pin exact behaviour; all inherit from OrderError.
"""


class OrderError(Exception):
    pass


# -- construction / validation -------------------------------------------

class CyclicRelation(OrderError):
    """The input relation contains a directed cycle (antisymmetry fails)."""


class IndexOutOfRange(OrderError):
    pass


class ArityMismatch(OrderError):
    pass


class UnsupportedParams(OrderError):
    pass


class UnsupportedOrdinal(OrderError):
    pass


# -- structure requirements ----------------------------------------------

class NotJoinSemilattice(OrderError):
    pass


class NoLeastElement(OrderError):
    pass


class StructureMismatch(OrderError):
    """An operation needs join/meet/lattice structure the input lacks."""


class NotDistributive(OrderError):
    pass


class NotSurjective(OrderError):
    pass


class NotAntichain(OrderError):
    pass


class NotSeparating(OrderError):
    pass


class BaseHypothesisViolated(OrderError):
    """f(i,j) != f(i,w) meet f(j,w) somewhere, so the report is undefined."""


# -- resource limits and construction outcomes ----------------------------

class BudgetExceeded(OrderError):
    """A search or enumeration hit its node/element budget.

    Budgets are expressed in produced elements or visited nodes; exceeding
    one raises instead of silently truncating.
    """


class ConstructionStalled(OrderError):
    """A constructive extraction could not take the next step.

    Carries the partial certificate built so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DepthUnreachable(OrderError):
    """Requested extraction depth exceeds what the input chain can support."""


class NoMonochromaticSubset(OrderError):
    pass


class IndependenceTooSmall(OrderError):
    pass


class UnknownSuite(OrderError):
    pass
