"""C/C++ function extraction and text normalization.

Each file is lexed without an external parser, in linear time.  Two regex
substitutions build a masked copy of the same length: the first blanks
comments and the contents of string, raw-string and character literals,
the second blanks preprocessor lines with their backslash continuations.
Only CR and LF survive blanking, so offsets and line numbers carry over.
One pass over the masked brackets then pairs each ``(`` with its ``)``
and each ``{`` with its ``}``.  The scanner captures definitions of the
shape

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
import os
import re
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

DEFAULT_EXTENSIONS = frozenset({".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp"})

_WS_BYTES = b" \t\r\n"
_WS = frozenset(_WS_BYTES)

# Literals are written unrolled ("[^"\\]*(?:\\.[^"\\]*)*"): the alternation
# form (?:\\.|[^"\\])* keeps a backtracking frame per byte (120 MB for one
# 1 MB literal), the unrolled one only per escape.  normalize matches
# comments and literals only; one `bytes.translate` then deletes whitespace,
# so no Python code runs per whitespace run.
_NORMALIZE_RE = re.compile(
    rb"""/[ \t\r\n]*(?:/[^\r\n]*|\*.*?(?:\*/|\Z))  # comment, opener may be split
    |("[^"\\]*(?:\\.[^"\\]*)*"?|'[^'\\]*(?:\\.[^'\\]*)*'?)""",
    re.S | re.X,
)
# each escape of a literal, in the lexer's pairing; one escaping a whitespace
# byte is dropped with it
_ESCAPE_RE = re.compile(rb"(\\[^ \t\r\n])|\\[ \t\r\n]")
# The mask also ends a literal at a line end no backslash escapes, as a
# compiler does, so a stray quote ("#error don't") cannot hide the rest of
# the file.  normalize keeps literals open: its idempotence needs that.
# A C++ raw string R"delim(...)delim" spans lines and has no escapes; an
# unterminated one runs to end of input.  Its R follows u8, u, U, L or no
# identifier byte, checked looking back from the R: a leading assertion
# would make the engine try the pattern at every byte (8x slower).
_MASK_RE = re.compile(
    rb"""//[^\r\n]*|/\*.*?(?:\*/|\Z)
    |R(?:(?<![A-Za-z0-9_]R)|(?<=(?<![A-Za-z0-9_])[uUL]R)|(?<=(?<![A-Za-z0-9_])u8R))
     "([^ ()\\\t\v\f\r\n]{0,16})\((.*?)(?:\)\1"|\Z)
    |"([^"\\\r\n]*(?:\\(?:\r\n|.)[^"\\\r\n]*)*\\?)"?
    |'([^'\\\r\n]*(?:\\(?:\r\n|.)[^'\\\r\n]*)*\\?)'?""",
    re.S | re.X,
)
# A '#' line and the lines that backslashes before trailing spaces continue
# it into; only LF ends a line.
_DIRECTIVE_RE = re.compile(rb"^[ \t\r\v\f]*#(?:[^\n]*\\[ \t\r\v\f]*\n)*[^\n]*", re.M)
_BRACKET_RE = re.compile(rb"[(){}]")
_STOP_RE = re.compile(rb"[(){};=]")
# every byte but CR and LF becomes a space, so offsets and line ends survive
_BLANK = bytes(c if c in b"\r\n" else 0x20 for c in range(256))


@dataclass(frozen=True)
class RawFunction:
    """One function definition as found in a source tree."""

    file_path: str  # repo-relative, '/'-separated
    name: str
    body: bytes  # raw definition text, return type through closing brace
    line_span: tuple[int, int]  # 1-based inclusive


def _normalize_token(match: re.Match) -> bytes:
    literal = match[1]
    if literal is None:
        return b""
    return _ESCAPE_RE.sub(rb"\1", literal) if b"\\" in literal else literal


def normalize(body: bytes) -> bytes:
    """Strip comments and whitespace from C/C++ source text.

    Bytes >= 0x80 pass through unchanged.  Unterminated block comments are
    stripped to end of input; an unterminated literal keeps the remainder
    as literal content.  Idempotent: normalize(normalize(x)) == normalize(x).
    """
    return _NORMALIZE_RE.sub(_normalize_token, body).translate(None, _WS_BYTES)


def _blank(match: re.Match) -> bytes:
    return match[0].translate(_BLANK)


def _mask_token(match: re.Match) -> bytes:
    """Blank a comment whole and a literal between its delimiters."""
    if match.lastindex is None:
        return _blank(match)
    text, at = match[0], match.start()
    start, end = match.span(match.lastindex)
    return text[: start - at] + text[start - at : end - at].translate(_BLANK) + text[end - at :]


def _mask(data: bytes) -> bytes:
    """Blank comments, literal contents and preprocessor lines."""
    return _DIRECTIVE_RE.sub(_blank, _MASK_RE.sub(_mask_token, data))


def _bracket_table(masked: bytes) -> dict[int, int]:
    """Offset of each closed '(' or '{' -> offset of its closer; the kinds nest apart."""
    table: dict[int, int] = {}
    parens: list[int] = []
    braces: list[int] = []
    for match in _BRACKET_RE.finditer(masked):
        pos = match.start()
        c = masked[pos]
        if c == 0x28:  # (
            parens.append(pos)
        elif c == 0x7B:  # {
            braces.append(pos)
        else:
            stack = parens if c == 0x29 else braces
            if stack:
                table[stack.pop()] = pos
    return table


_CANDIDATE_RE = re.compile(rb"([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_BLOCKED_NAMES = frozenset(
    b"if for while switch catch return sizeof alignof _Alignof decltype noexcept "
    b"defined typeof __typeof__ static_assert _Static_assert throw new delete".split()
)
_ACCESS_LABEL_RE = re.compile(rb"\A(?:(?:public|protected|private|signals|slots)\s*:\s*)+")


def _find_body_open(
    masked: bytes, start: int, closer: dict[int, int], found: dict[int, int]
) -> int:
    """Locate '{' after the parameter list; -1 when this is no definition.

    The walk visits the stop bytes at paren depth 0, jumping each closed '('
    past its closer; any stop but '{' ends it with -1.  `found` (one per
    file) keeps the answer of every stop visited, so a later walk ends at
    the first of those it meets."""
    visited: list[int] = []
    pos = start
    while (match := _STOP_RE.search(masked, pos)) and match.start() not in found:
        stop = match.start()
        visited.append(stop)
        if masked[stop] != 0x28 or stop not in closer:  # all but a closed (
            found[stop] = stop if masked[stop] == 0x7B else -1  # {
            break
        pos = closer[stop] + 1
    result = found[match.start()] if match else -1
    for stop in visited:
        found[stop] = result
    return result


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
    masked = _mask(data)
    closer = _bracket_table(masked)
    found: dict[int, int] = {}
    results: list[RawFunction] = []
    pos = 0
    line, line_pos = 1, 0  # line number at offset line_pos; definitions come in order
    while True:
        match = _CANDIDATE_RE.search(masked, pos)
        if match is None:
            break
        name = match.group(1)
        close = None if name in _BLOCKED_NAMES else closer.get(match.end() - 1)
        body_open = -1 if close is None else _find_body_open(masked, close + 1, closer, found)
        body_close = closer.get(body_open)
        if body_close is None:
            pos = match.end()
            continue
        if body_close - body_open - 1 < 1:  # empty body
            pos = body_close + 1
            continue
        start = _decl_start(masked, match.start())
        start_line = line + data.count(b"\n", line_pos, start)
        line = start_line + data.count(b"\n", start, body_close)
        line_pos = body_close
        results.append(
            RawFunction(
                file_path=file_path,
                name=name.decode("ascii", errors="replace"),
                body=data[start : body_close + 1],
                line_span=(start_line, line),
            )
        )
        pos = body_close + 1
    return results


def _is_source_name(name: str) -> bool:
    """A name with a source suffix, in any case; as with `Path.suffix`, a
    leading dot does not start a suffix (".c" has none)."""
    dot = name.rfind(".")
    return 0 < dot < len(name) - 1 and name[dot:].lower() in DEFAULT_EXTENSIONS


def list_source_files(root: Path) -> list[tuple[str, Path]]:
    """(repo-relative POSIX path, path) of every source file under `root`,
    sorted by the relative path.  A symlink to a file is listed; a
    symlinked directory is not entered, nor is one that cannot be read."""
    found: list[tuple[str, str]] = []
    pending = [("", str(root))]
    while pending:
        prefix, directory = pending.pop()
        try:
            with os.scandir(directory) as it:
                entries = list(it)
        except OSError:
            continue
        for entry in entries:
            rel = prefix + entry.name
            try:
                if entry.is_dir(follow_symlinks=False):
                    pending.append((rel + "/", entry.path))
                elif _is_source_name(entry.name) and entry.is_file():
                    found.append((rel, entry.path))
            except OSError:
                continue
    found.sort()
    return [(rel, Path(path)) for rel, path in found]


def extract_functions(
    source_tree_root: str | Path, seen: dict[bytes, list[RawFunction]] | None = None
) -> list[RawFunction]:
    """Extract every function definition under a directory tree.

    Files are visited in lexicographic order of their repo-relative path,
    so output is deterministic for identical tree bytes.  Unreadable files
    are skipped with a warning; files containing NUL are skipped as binary.
    `seen` maps file bytes to the functions extracted from them (one map
    per call when not given): a file whose bytes are in it is not
    extracted again, and its functions are those, at its own path.
    """
    root = Path(source_tree_root)
    if not root.is_dir():
        raise NotADirectoryError(f"source tree not found: {root}")
    seen = {} if seen is None else seen
    results: list[RawFunction] = []
    for rel, path in list_source_files(root):
        try:
            data = path.read_bytes()
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", rel, exc)
            continue
        if b"\x00" in data:
            continue
        functions = seen.get(data)
        if functions is None:
            functions = seen[data] = extract_from_source(rel, data)
        results.extend(
            f if f.file_path == rel else RawFunction(rel, f.name, f.body, f.line_span)
            for f in functions
        )
    return results
