"""A small ``cloc``-style line counter (paper Figs 2-3 measure LoC).

The paper measured its three kernel code bases with ``cloc v1.82``, not
counting empty lines and comments.  This module applies the same rules to
Python sources: blank lines and comment-only lines are excluded, docstrings
are treated as comments (they document, they do not compute), and everything
else counts as code.
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union


@dataclass(frozen=True)
class LineCount:
    """Counts for one source file or an aggregate of files."""

    code: int = 0
    comment: int = 0
    blank: int = 0

    @property
    def total(self) -> int:
        return self.code + self.comment + self.blank

    def __add__(self, other: "LineCount") -> "LineCount":
        return LineCount(
            code=self.code + other.code,
            comment=self.comment + other.comment,
            blank=self.blank + other.blank,
        )


def count_source(text: str) -> LineCount:
    """Count code/comment/blank lines of Python source text.

    Docstrings (any string expression statement) and ``#`` comments count as
    comment lines; lines that contain both code and a trailing comment count
    as code.
    """
    lines = text.splitlines()
    n_lines = len(lines)
    comment_lines: set[int] = set()
    code_lines: set[int] = set()

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Fall back to a purely textual count on broken source.
        blank = sum(1 for ln in lines if not ln.strip())
        comment = sum(1 for ln in lines if ln.strip().startswith("#"))
        return LineCount(code=n_lines - blank - comment, comment=comment, blank=blank)

    prev_significant = None
    for tok in tokens:
        kind = tok.type
        start_line, end_line = tok.start[0], tok.end[0]
        if kind == tokenize.COMMENT:
            comment_lines.update(range(start_line, end_line + 1))
        elif kind == tokenize.STRING:
            # A string token is a docstring when it starts a logical line
            # (no significant token since the last NEWLINE).
            if prev_significant in (None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                comment_lines.update(range(start_line, end_line + 1))
            else:
                code_lines.update(range(start_line, end_line + 1))
            prev_significant = kind
        elif kind in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            if kind in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                prev_significant = kind
        else:
            code_lines.update(range(start_line, end_line + 1))
            prev_significant = kind

    code = 0
    comment = 0
    blank = 0
    for i, raw in enumerate(lines, start=1):
        if not raw.strip():
            blank += 1
        elif i in code_lines:
            code += 1
        elif i in comment_lines:
            comment += 1
        else:
            # Continuation lines of multi-line statements end up here when the
            # tokenizer attributed the whole token to its start line.
            code += 1
    # The two counting passes must agree on the number of lines.
    assert code + comment + blank == n_lines
    return LineCount(code=code, comment=comment, blank=blank)


def count_file(path: Union[str, Path]) -> LineCount:
    """Count one file on disk."""
    return count_source(Path(path).read_text())


def count_tree(root: Union[str, Path], pattern: str = "*.py") -> Dict[str, LineCount]:
    """Count every file under ``root`` matching ``pattern``.

    Returns a mapping of path (relative to root) to :class:`LineCount`.
    """
    root = Path(root)
    out: Dict[str, LineCount] = {}
    for p in sorted(root.rglob(pattern)):
        if p.is_file():
            out[str(p.relative_to(root))] = count_file(p)
    return out
