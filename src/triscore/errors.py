"""Exception hierarchy shared by all triscore modules.

Two families matter to callers: :class:`SchemaError` (malformed input
files, exit code 2 in the CLI) and :class:`DomainError` (mathematically
invalid values or requests, exit code 3).  Both are
:class:`TriscoreError`s, and the message says what went wrong; callers
catch a family and read the message.
"""


class TriscoreError(Exception):
    """Base class for all errors raised by this package.

    ``location``, if given, is put in front of the message as
    ``"<location>: <message>"``: a CSV row (``row 3``, counting the header
    as row 1) or a JSON path such as ``records[3].pB``.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")


class DomainError(TriscoreError):
    """A value is outside the mathematical domain of an operation."""


class SchemaError(TriscoreError):
    """Malformed dataset input."""
