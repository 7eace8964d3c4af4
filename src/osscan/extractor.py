"""C/C++ function extraction and text normalization.

The scanner is a regex/brace-balance pass over a masked copy of each file,
so it needs no external parser.  It captures definitions of the shape

    name ( parameter-list ) decl-suffix { body }

where the declaration suffix may contain parenthesised groups (constructor
initialiser lists, ``noexcept(...)``, attributes) but no ``;``, ``=`` or
stray brace at the top level.  Consequences of that rule, pinned by the
fixture suite:

* prototypes, ``#define`` macros and K&R-style definitions (parameter
  declarations between ``)`` and ``{``) are skipped;
* member functions defined inline inside a class/struct body are captured;
* operator overloads without an identifier directly before ``(`` (such as
  ``operator=``) are skipped;
* a function nested inside a captured body (lambda, local class) is
  swallowed by the enclosing definition.

Normalization removes comments and the whitespace bytes space/tab/CR/LF.
Comment openers are recognised ignoring any whitespace between their two
characters ("/ /" counts as "//"), and a backslash escaping a whitespace
byte inside a literal is dropped together with it; both rules exist so
that normalization is idempotent.  Contents of string and character
literals are otherwise preserved verbatim.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

DEFAULT_EXTENSIONS = frozenset({".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp"})

_WS = frozenset(b" \t\r\n")
_SLASH, _STAR, _DQUOTE, _SQUOTE, _BACKSLASH = 0x2F, 0x2A, 0x22, 0x27, 0x5C
_LF, _CR = 0x0A, 0x0D


@dataclass(frozen=True)
class RawFunction:
    """One function definition as found in a source tree."""

    file_path: str  # repo-relative, '/'-separated
    name: str
    body: bytes  # raw definition text, return type through closing brace
    line_span: tuple[int, int]  # 1-based inclusive


def normalize(body: bytes) -> bytes:
    """Strip comments and whitespace from C/C++ source text.

    Bytes >= 0x80 pass through unchanged.  Unterminated block comments are
    stripped to end of input; an unterminated literal keeps the remainder
    as literal content.  Idempotent: normalize(normalize(x)) == normalize(x).
    """
    out = bytearray()
    n = len(body)
    i = 0
    while i < n:
        c = body[i]
        if c == _SLASH:
            j = i + 1
            while j < n and body[j] in _WS:
                j += 1
            if j < n and body[j] == _SLASH:  # line comment, runs to end of line
                i = j + 1
                while i < n and body[i] not in (_LF, _CR):
                    i += 1
                continue
            if j < n and body[j] == _STAR:  # block comment
                end = body.find(b"*/", j + 1)
                i = n if end < 0 else end + 2
                continue
            out.append(c)
            i += 1
            continue
        if c in _WS:
            i += 1
            continue
        if c == _DQUOTE or c == _SQUOTE:
            quote = c
            out.append(c)
            i += 1
            while i < n:
                ch = body[i]
                if ch == _BACKSLASH:
                    if i + 1 < n:
                        nxt = body[i + 1]
                        if nxt in _WS:
                            i += 2  # escaped whitespace: drop the pair
                        else:
                            out.append(ch)
                            out.append(nxt)
                            i += 2
                        continue
                    out.append(ch)
                    i += 1
                    continue
                if ch in _WS:
                    i += 1
                    continue
                out.append(ch)
                i += 1
                if ch == quote:
                    break
            continue
        out.append(c)
        i += 1
    return bytes(out)


def _mask_structure(data: bytes) -> bytearray:
    """Blank comments and literal contents, keeping offsets and newlines."""
    masked = bytearray(data)
    n = len(data)
    i = 0
    while i < n:
        c = data[i]
        if c == _SLASH and i + 1 < n:
            nxt = data[i + 1]
            if nxt == _SLASH:
                j = i
                while j < n and data[j] not in (_LF, _CR):
                    masked[j] = 0x20
                    j += 1
                i = j
                continue
            if nxt == _STAR:
                end = data.find(b"*/", i + 2)
                stop = n if end < 0 else end + 2
                for j in range(i, stop):
                    if data[j] not in (_LF, _CR):
                        masked[j] = 0x20
                i = stop
                continue
        if c == _DQUOTE or c == _SQUOTE:
            quote = c
            i += 1
            while i < n:
                ch = data[i]
                if ch == _BACKSLASH and i + 1 < n:
                    masked[i] = 0x20
                    if data[i + 1] not in (_LF, _CR):
                        masked[i + 1] = 0x20
                    i += 2
                    continue
                if ch == quote:
                    i += 1
                    break
                if ch not in (_LF, _CR):
                    masked[i] = 0x20
                i += 1
            continue
        i += 1
    return masked


def _mask_directives(masked: bytearray) -> bytearray:
    """Blank preprocessor lines (with backslash continuations)."""
    out = bytearray(masked)
    lines = bytes(masked).split(b"\n")
    offset = 0
    in_continuation = False
    for line in lines:
        stripped = line.lstrip()
        blank = in_continuation or stripped.startswith(b"#")
        if blank:
            for j in range(offset, offset + len(line)):
                if out[j] != _CR:
                    out[j] = 0x20
            in_continuation = line.rstrip().endswith(b"\\")
        else:
            in_continuation = False
        offset += len(line) + 1
    return out


_CANDIDATE_RE = re.compile(rb"([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_BLOCKED_NAMES = frozenset(
    b"if for while switch catch return sizeof alignof _Alignof decltype noexcept "
    b"defined typeof __typeof__ static_assert _Static_assert throw new delete".split()
)
_ACCESS_LABEL_RE = re.compile(rb"\A(?:(?:public|protected|private|signals|slots)\s*:\s*)+")


def _match_paren(masked: bytes, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(masked)):
        c = masked[i]
        if c == 0x28:  # (
            depth += 1
        elif c == 0x29:  # )
            depth -= 1
            if depth == 0:
                return i
    return -1


def _find_body_open(masked: bytes, start: int) -> int:
    """Locate '{' after the parameter list; -1 when this is no definition."""
    depth = 0
    for i in range(start, len(masked)):
        c = masked[i]
        if c == 0x28:
            depth += 1
        elif c == 0x29:
            depth -= 1
            if depth < 0:
                return -1
        elif depth == 0:
            if c == 0x7B:  # {
                return i
            if c in (0x3B, 0x3D, 0x7D):  # ; = }
                return -1
    return -1


def _match_brace(masked: bytes, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(masked)):
        c = masked[i]
        if c == 0x7B:
            depth += 1
        elif c == 0x7D:
            depth -= 1
            if depth == 0:
                return i
    return -1


def _decl_start(masked: bytes, name_start: int) -> int:
    i = name_start - 1
    while i >= 0 and masked[i] not in (0x3B, 0x7B, 0x7D):  # ; { }
        i -= 1
    start = i + 1
    while start < name_start and masked[start] in _WS:
        start += 1
    label = _ACCESS_LABEL_RE.match(masked[start:name_start])
    if label:
        start += label.end()
    return start


def extract_from_source(file_path: str, data: bytes) -> list[RawFunction]:
    """Extract function definitions from one file's bytes."""
    structure = _mask_structure(data)
    masked = bytes(_mask_directives(structure))
    results: list[RawFunction] = []
    pos = 0
    while True:
        match = _CANDIDATE_RE.search(masked, pos)
        if match is None:
            break
        name = match.group(1)
        if name in _BLOCKED_NAMES:
            pos = match.end()
            continue
        close = _match_paren(masked, match.end() - 1)
        if close < 0:
            pos = match.end()
            continue
        body_open = _find_body_open(masked, close + 1)
        if body_open < 0:
            pos = match.end()
            continue
        body_close = _match_brace(masked, body_open)
        if body_close < 0:
            pos = match.end()
            continue
        if body_close - body_open - 1 < 1:  # empty body
            pos = body_close + 1
            continue
        start = _decl_start(masked, match.start())
        body = data[start : body_close + 1]
        start_line = data.count(b"\n", 0, start) + 1
        end_line = data.count(b"\n", 0, body_close) + 1
        results.append(
            RawFunction(
                file_path=file_path,
                name=name.decode("ascii", errors="replace"),
                body=body,
                line_span=(start_line, end_line),
            )
        )
        pos = body_close + 1
    return results


def list_source_files(root: Path) -> list[Path]:
    files = [
        p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in DEFAULT_EXTENSIONS
    ]
    files.sort(key=lambda p: p.relative_to(root).as_posix())
    return files


def extract_functions(source_tree_root: str | Path) -> list[RawFunction]:
    """Extract every function definition under a directory tree.

    Files are visited in lexicographic order of their repo-relative path,
    so output is deterministic for identical tree bytes.  Unreadable files
    are skipped with a warning; files containing NUL are skipped as binary.
    """
    root = Path(source_tree_root)
    if not root.is_dir():
        raise NotADirectoryError(f"source tree not found: {root}")
    results: list[RawFunction] = []
    for path in list_source_files(root):
        rel = path.relative_to(root).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", rel, exc)
            continue
        if b"\x00" in data:
            continue
        results.extend(extract_from_source(rel, data))
    return results
