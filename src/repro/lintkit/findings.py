"""Finding records and ``# lint-ok:`` waivers."""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Collection, Dict, List, Tuple

#: Text that opens an inline waiver comment.
WAIVER_MARKER = "lint-ok:"

#: Checker id of the findings the engine raises against waivers themselves.
WAIVER_ID = "waiver"

_WAIVER_WORD = re.compile(r"[\s,]*([\w-]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        checker: checker id, e.g. ``"nondeterministic-call"``.
        path: path of the offending file relative to the linted root
            (POSIX separators, stable across platforms).
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        message: human-readable description of the violation.
        snippet: the stripped source line, for the JSON report.
    """

    checker: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.checker, self.message)

    def render(self) -> str:
        """``path:line:col [checker] message`` — one line per finding."""
        return f"{self.path}:{self.line}:{self.col} [{self.checker}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass(frozen=True)
class Waiver:
    """One ``# lint-ok: id[, id...] reason`` comment.

    Attributes:
        line: 1-based line of the comment; it waives findings on that line.
        col: 0-based column of the comment.
        ids: the leading registered checker ids, possibly none.
        reason: the rest of the comment (an unknown first id lands here).
    """

    line: int
    col: int
    ids: Tuple[str, ...]
    reason: str


def source_line(lines: List[str], lineno: int) -> str:
    """The stripped source line ``lineno`` (1-based), or ``""``."""
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


def parse_waivers(text: str, known: Collection[str]) -> Dict[int, Waiver]:
    """The waiver comments of a module's source ``text``, by line.

    Only real comments count (found with :mod:`tokenize`, and only in
    files that contain the marker), so a docstring that quotes the
    syntax is no waiver.  The id list ends at the first token that is
    not in ``known``; everything after it is the reason.
    """
    if WAIVER_MARKER not in text:
        return {}
    waivers: Dict[int, Waiver] = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        start = token.string.find(WAIVER_MARKER)
        if token.type != tokenize.COMMENT or start < 0:
            continue
        rest = token.string[start + len(WAIVER_MARKER):]
        ids: List[str] = []
        word = _WAIVER_WORD.match(rest)
        while word is not None and word.group(1) in known:
            ids.append(word.group(1))
            rest = rest[word.end():]
            word = _WAIVER_WORD.match(rest)
        line, col = token.start
        waivers[line] = Waiver(line=line, col=col, ids=tuple(ids),
                               reason=rest.strip(" ,"))
    return waivers
