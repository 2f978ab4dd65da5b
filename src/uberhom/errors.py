"""Shared exception types, and the one vertex-count size guard."""


class SizeGuardExceeded(RuntimeError):
    """Input exceeds the configured vertex guard for an exponential enumeration."""


def check_vertex_guard(vertex_count: int, max_vertices: int) -> None:
    """Refuse an exponential enumeration over more than ``max_vertices`` vertices."""
    if vertex_count > max_vertices:
        raise SizeGuardExceeded(f"{vertex_count} vertices exceeds the guard of {max_vertices}")


class StandardSimplexError(ValueError):
    """The anti-star construction degenerates on a standard simplex."""


class NotConnectedError(ValueError):
    """Raised by operations whose input must be connected."""


class SolveFailure(RuntimeError):
    """A vector expected to lie in a span (e.g. a cycle image) failed to reduce."""


class LiftFailure(RuntimeError):
    """Internal page-turning inconsistency; impossible on valid input."""
