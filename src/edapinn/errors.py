"""Exception types shared across the package."""


class EdaPinnError(Exception):
    """Base class for all package errors."""


class ContractError(EdaPinnError):
    """A caller violated an operation's precondition (shape mismatch, empty input, ...)."""


class NumericError(EdaPinnError):
    """A numeric-domain failure: non-finite values, singular systems. Carries
    the index of the offending model of a stack when known."""

    def __init__(self, message: str, model: int | None = None):
        super().__init__(message)
        self.model = model


class ConfigError(EdaPinnError):
    """Invalid configuration value or config-file structure. Carries the
    field at fault when a config dataclass refuses one of its values, so
    that the config reader can name the key."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DataFormatError(EdaPinnError):
    """Malformed tabular data. Carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row

