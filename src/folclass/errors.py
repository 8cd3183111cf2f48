"""Exception types shared across the package."""


class FolclassError(Exception):
    """Base class for all folclass-specific errors."""


class FieldMismatchError(FolclassError):
    """Operands belong to distinct fields."""


class EmbeddingError(FolclassError):
    """No embedding exists between the requested fields."""


class ParseError(FolclassError):
    """A literal failed to parse; carries the offending position."""

    def __init__(self, message, text, position):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.message = message
        self.text = text
        self.position = position

    # rebuilt from its own arguments, so that it survives a pool worker's pickle
    def __reduce__(self):
        return type(self), (self.message, self.text, self.position)


class InvalidParameterError(FolclassError):
    """A family parameter assignment violates its constraints."""

    def __init__(self, family, clause):
        super().__init__(f"invalid parameters for family {family}: {clause}")
        self.family = family
        self.clause = clause

    def __reduce__(self):
        return type(self), (self.family, self.clause)


class NotAFoliationError(FolclassError):
    """classify() was handed a triple that fails C1, C2 or C3."""


class ConsistencyError(FolclassError):
    """An internal cross-check failed; this signals a bug, not bad input."""
