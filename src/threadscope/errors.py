"""The errors that some caller in the package tells apart from others.

Every other bad input raises a plain ValueError.  The CLI maps
ValueError, OSError, OverflowError and MemoryError to exit code 2, so
each class here is a ValueError too.  A class that carries a position
(line number, token index) exposes it as an attribute.
"""

from __future__ import annotations


class FormatError(ValueError):
    """A structured input file is malformed at one line."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class InvalidBilouError(ValueError):
    """A tag sequence violates the BILOU scheme at one token position."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"position {position}: {reason}")
        self.position = position
        self.reason = reason


class EmptyVocabularyError(ValueError):
    """No term survived the document-frequency thresholds."""
