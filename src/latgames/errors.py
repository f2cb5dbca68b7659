"""Exception types shared across the package."""


class LatGamesError(Exception):
    """Base class for every structured error raised by latgames."""


class BadLabel(LatGamesError):
    pass


class DuplicateLabel(LatGamesError):
    pass


class UnknownLabel(LatGamesError):
    pass


class CycleDetected(LatGamesError):
    """The reflexive-transitive closure of the covers violates antisymmetry."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"order cycle through {pair[0]!r} and {pair[1]!r}")


class EmptyCarrier(LatGamesError):
    pass


class NotALattice(LatGamesError):
    """A pair of elements has no least upper bound or greatest lower bound.

    ``pair`` is the offending pair of labels, ``missing`` is ``"lub"`` or
    ``"glb"``.
    """

    def __init__(self, pair, missing):
        self.pair = pair
        self.missing = missing
        super().__init__(f"pair {pair} has no {missing}")


class EmptySubset(LatGamesError):
    pass


class EmptyFactorList(LatGamesError):
    pass


class CarrierMismatch(LatGamesError):
    pass


class LabeledCodomainUnsupported(LatGamesError):
    """The operation needs additive value arithmetic, which labeled chains lack."""


class NotAProductDomain(LatGamesError):
    pass


class NotStrictlyIncreasing(LatGamesError):
    pass


class DomainMismatch(LatGamesError):
    pass


class EmptyValue(LatGamesError):
    pass


class NoGreatestElement(LatGamesError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"value set at index {key!r} has no greatest element")


class StructuralError(LatGamesError):
    pass


class StateSpaceTooLarge(LatGamesError):
    pass


class NotValidated(LatGamesError):
    """Refusal to iterate best responses on a game that failed validation."""


class ParseError(LatGamesError):
    pass


class InvariantViolation(LatGamesError):
    pass


class CapExceeded(LatGamesError):
    pass


class RejectionBudgetExhausted(LatGamesError):
    pass


class ExpectationMismatch(LatGamesError):
    def __init__(self, entry, diff):
        self.entry = entry
        self.diff = diff
        super().__init__(f"corpus entry {entry!r} no longer matches its frozen expectation:\n{diff}")


class TheoremFalsified(LatGamesError):
    """An exhaustively checked structural guarantee failed; this is a bug either
    in the implementation or in the guarantee itself, and is never swallowed."""
