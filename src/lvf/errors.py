"""Exception types shared across the package."""


class LvfError(Exception):
    """Base class for all package errors."""


class InternalError(LvfError):
    """An internal invariant failed: a bug, not a property of the input."""

    def __init__(self, message):
        super().__init__(f"internal error: {message}")


class DimensionMismatch(LvfError):
    pass


class UnassignedParameter(LvfError):
    pass


class ParameterizedInput(LvfError):
    """An operation that requires parameter-free input got parameters."""


class ParseError(LvfError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownIdentifier(ParseError):
    pass


class SingularMap(LvfError):
    pass


class NotInSpan(LvfError):
    pass


class DependentBasis(LvfError):
    pass


class NotFiniteDimensionalWithinBound(LvfError):
    def __init__(self, max_dim):
        super().__init__(f"bracket closure exceeds dimension bound {max_dim}")
        self.max_dim = max_dim


class AnsatzExplosion(LvfError):
    def __init__(self, size, bound):
        super().__init__(f"derived target space has {size} basis elements (bound {bound})")
        self.size = size
        self.bound = bound


class CartanRelationViolated(LvfError):
    pass


class NonRootBracketNonzero(LvfError):
    pass


class ZeroRootVector(LvfError):
    pass


class InconclusiveAtDegree(LvfError):
    def __init__(self, degree, detail=""):
        msg = f"no contradiction found at degree {degree}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.degree = degree


class CatalogError(LvfError):
    pass
