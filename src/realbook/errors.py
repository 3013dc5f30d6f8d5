"""The exceptions the CLI maps to exit codes.

This module imports nothing, so the CLI can name them without loading
the modules that raise them.  Each is re-exported from the module that
raises it (``openbook.StabilizationError is errors.StabilizationError``).
"""


class SchemaError(ValueError):
    """Malformed book JSON; the message carries the offending path."""


class StabilizationError(ValueError):
    """Site incompatible with the type or with the real structure."""


class BookInvalid(ValueError):
    """A book fails a check of the validate subcommand, so the query
    subcommands refuse it before they compute anything (CLI exit 1)."""


class BookNotReal(ValueError):
    """The book is NotReal, so it has no real splitting: the input
    breaks the contract of heegaard_data and real_part, as a NotReal
    verdict does for the reality check (CLI exit 1)."""


class RealPartUnavailable(RuntimeError):
    """The opposite page's fixed set is not tracked for this book."""


class ContactModelError(ValueError):
    """The numerical model could not be built or verified."""
