"""Exception types shared across the toolkit."""


class DiarkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(DiarkitError):
    """Unreadable file, or malformed content (WAV header, weight file, RTTM line)."""


class LineError(FormatError):
    """Malformed content on one line of a text input: `line <n>: <reason>`,
    or `<path>:<n>: <reason>` once the reader of the file sets `path`."""

    def __init__(self, lineno: int, reason: str, path=None):
        super().__init__(lineno, reason)
        self.lineno, self.reason, self.path = lineno, reason, path

    def __str__(self) -> str:
        where = f"line {self.lineno}" if self.path is None else f"{self.path}:{self.lineno}"
        return f"{where}: {self.reason}"


class UnsupportedFormatError(DiarkitError):
    """Well-formed file in an encoding we deliberately do not handle."""


class ParameterError(DiarkitError):
    """Invalid parameter value (bad window sizes, even median taps, ...)."""


class ShapeError(DiarkitError):
    """Tensor or matrix shape mismatch."""


class EmptyInputError(DiarkitError):
    """Input too short or empty for the requested operation."""


class NumericError(DiarkitError):
    """Non-finite values or numerically degenerate input (zero vectors)."""


class InsufficientSpeechError(DiarkitError):
    """A speaker has too little speech to build a target embedding."""


class DegenerateGraphError(DiarkitError):
    """Similarity graph has an isolated node; Laplacian undefined."""


class DivergenceError(DiarkitError):
    """Training produced a non-finite loss."""


class InputError(DiarkitError):
    """Inconsistent inputs to an evaluation (id or length mismatch)."""


class ConfigError(DiarkitError):
    """Bad pipeline configuration (unknown key, missing weights)."""
