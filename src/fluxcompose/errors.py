"""Shared error types, and the line reader of the line-format input files.

Position-carrying errors render as ``name:line:col: message`` so the CLI can
print file context uniformly.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator


class FluxError(Exception):
    """Base class for every domain-level failure raised by this package."""


class ParseError(FluxError):
    """Syntax error in any of the textual input formats.

    Positions are 1-based and point into the source text.
    """

    def __init__(self, line: int, column: int, expected: str, found: str,
                 source_name: str = "<string>"):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        self.source_name = source_name
        super().__init__(
            f"{source_name}:{line}:{column}: expected {expected}, found {found}"
        )


def numbered_lines(text: str, inline_comments: bool) -> tuple[Iterator[tuple[int, str]], int]:
    """The stripped non-blank lines of text, numbered from 1, and the number of
    the line after the last. A line ends at "\\n" only, as in dsl._tokenize and
    the event log. inline_comments cuts a "#" comment anywhere on a line."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty piece after a final "\n"
    if inline_comments:
        lines = [line.split("#", 1)[0] for line in lines]
    return filter(itemgetter(1), enumerate(map(str.strip, lines), start=1)), len(lines) + 1
