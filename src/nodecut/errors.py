"""Exception types shared across the package."""


class NodeCutError(Exception):
    """Base class for all package-specific errors."""


class EdgeListError(NodeCutError):
    """Rejected edge-list input; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ZeroInternalDegree(NodeCutError):
    """The node set has no internal links, so the normalised node cut is undefined."""


class NotANeighbor(NodeCutError):
    """Node is not an external neighbor of the current subgraph."""


class NotAMember(NodeCutError):
    """Node is not a member of the current subgraph."""


class TooLarge(NodeCutError):
    """Graph exceeds the exhaustive-enumeration cap."""


class ReportError(NodeCutError):
    """A run report file is missing required structure."""
