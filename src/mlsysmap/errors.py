"""Exception types shared across the package.

Every error that carries source positions (parser diagnostics) exposes
1-based ``line`` and ``col`` attributes.
"""


class MsmError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# map construction / validation

class MapBuildError(MsmError):
    """Base class for structural map validation failures."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}, col {self.col}: {base}"
        return base


class DuplicateNode(MapBuildError):
    pass


class CycleError(MapBuildError):
    def __init__(self, message, cycle, **kw):
        super().__init__(message, **kw)
        self.cycle = tuple(cycle)


class KindViolation(MapBuildError):
    def __init__(self, message, edge=None, **kw):
        super().__init__(message, **kw)
        self.edge = edge


class ViewViolation(MapBuildError):
    def __init__(self, message, node=None, **kw):
        super().__init__(message, **kw)
        self.node = node


class MappingViolation(MapBuildError):
    def __init__(self, message, nodes=(), **kw):
        super().__init__(message, **kw)
        self.nodes = tuple(nodes)


class TerminalViolation(MapBuildError):
    def __init__(self, message, view=None, **kw):
        super().__init__(message, **kw)
        self.view = view


class UnknownNode(MsmError):
    pass


class UnknownView(MsmError):
    pass


class NoRoute(MsmError):
    pass


# ---------------------------------------------------------------------------
# text format

class ParseError(MsmError):
    """Grammar or resolution error in a map file, with source position."""

    def __init__(self, message, line, col):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        return f"line {self.line}, col {self.col}: {super().__str__()}"


# ---------------------------------------------------------------------------
# dataset

class DatasetError(MsmError):
    pass


class MissingWindowColumn(DatasetError):
    pass


class DuplicateEquivalenceColumn(DatasetError):
    pass


class BadWindowLabel(DatasetError):
    pass


class RaggedRow(DatasetError):
    pass


class EmptyWindow(DatasetError):
    pass


class NoDataForView(DatasetError):
    pass


# ---------------------------------------------------------------------------
# mechanisms / inference

class EmptyTable(MsmError):
    pass


class LengthMismatch(MsmError):
    pass


class NotNormalized(MsmError):
    pass


class StateSpaceTooLarge(MsmError):
    pass


class InsufficientData(MsmError):
    pass


# ---------------------------------------------------------------------------
# attribution / traversal

class TooManyPlayers(MsmError):
    pass


class ViewMismatch(MsmError):
    pass


class UnknownAlert(MsmError):
    pass


# ---------------------------------------------------------------------------
# simulator

class UnknownScenario(MsmError):
    pass
