"""Exception types shared across the package."""


class LiftlabError(Exception):
    """Base class for errors raised by liftlab."""


class NonRegularError(LiftlabError):
    """The base graph is not regular."""


class SelfLoopError(LiftlabError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(LiftlabError):
    """The same edge appears twice in a base graph."""


class DimensionMismatchError(LiftlabError):
    """A vector's shape does not match the lift it is used with."""


class TooLargeError(LiftlabError):
    """An operation would exceed its size guard."""


class FibresNotDistinctError(LiftlabError):
    """A set of fibres that must be distinct contains repeats."""


class FibresNotAdjacentError(LiftlabError):
    """Chosen fibres are not pairwise adjacent in the base graph."""


class NormTooLargeError(LiftlabError):
    """An input vector exceeds the norm bound required by the operation."""


class NotSignCompatibleError(LiftlabError):
    """Two rounded vectors do not share signs and dyadic brackets entrywise."""


class EmptyVectorError(LiftlabError):
    """The operation needs a vector with at least one nonzero entry."""


class NotBandVectorError(LiftlabError):
    """Entries are not dyadic multiples of the scale, or violate band/norm limits."""


class InvalidPatternError(LiftlabError):
    """Class counts or edge counts violate the pattern constraints."""


class DeviationDomainError(LiftlabError, ValueError):
    """Argument below -1 passed to the deviation rate function."""


class InvalidMarginalsError(LiftlabError):
    """Matching-spec block sizes and edge counts are inconsistent."""


class BadHalfSizesError(LiftlabError):
    """A bipartition does not split every fibre into equal halves."""


class SubgraphTooLargeError(LiftlabError):
    """An embedded subgraph exceeds the size cap for the balancing correction."""


class DenseGuardError(TooLargeError):
    """A dense-matrix path was requested above the dense size guard."""


class WitnessMismatchError(LiftlabError):
    """Claimed witness sets do not realize the pattern in the lift."""


class NotConvergedError(LiftlabError):
    """An iterative eigensolve stopped before reaching its tolerance."""


class ConfigError(LiftlabError):
    """A configuration, base graph or command-line value is invalid."""
