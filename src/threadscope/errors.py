"""Exception hierarchy shared across the toolkit.

Every data-level failure raised by this package derives from
:class:`ThreadscopeError` so the CLI can map them to a single exit code.
Subclasses that carry a position (line number, token index) expose it as an
attribute for programmatic use.
"""

from __future__ import annotations


class ThreadscopeError(Exception):
    """Base class for all data errors raised by threadscope."""


class DumpParseError(ThreadscopeError):
    """A dump line could not be parsed under the declared schema."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnknownSchemaError(ThreadscopeError):
    """The requested dump schema id is not registered."""


class EmptyResultError(ThreadscopeError):
    """An extraction produced no data where at least one item is required."""


class OverlappingSpansError(ThreadscopeError):
    """Two entity spans in one sentence overlap."""


class SpanOutOfBoundsError(ThreadscopeError):
    """An entity span lies outside the token sequence."""


class InvalidBilouError(ThreadscopeError):
    """A tag sequence violates the BILOU scheme (strict mode)."""

    def __init__(self, position: int, message: str = ""):
        detail = message or "invalid tag sequence"
        super().__init__(f"position {position}: {detail}")
        self.position = position


class FormatError(ThreadscopeError):
    """A structured input file is malformed."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ModelFormatError(ThreadscopeError):
    """A saved tagger model file is missing fields or has mistyped ones."""


class ManifestError(ThreadscopeError):
    """A run manifest file is missing fields or unreadable."""


class OutputLocationError(ThreadscopeError):
    """An output location that a run must not replace."""


class EmptyTrainingSetError(ThreadscopeError):
    """Tagger training was asked to run on zero sentences."""


class EmptyVocabularyError(ThreadscopeError):
    """No term survived the document-frequency thresholds."""


class EmptyCorpusError(ThreadscopeError):
    """Topic model training was asked to run on zero documents."""
