"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all package errors."""


class DomainError(LatticeError):
    """Input outside the declared domain (bad family/n, point outside compact set)."""


class ResourceError(LatticeError):
    """Requested enumeration exceeds the configured desk-scale budget."""


class ConstructionError(LatticeError):
    """A geometric construction failed an internal precondition."""


class InternalCheckError(LatticeError):
    """A cross-check between two independent computation routes failed."""
