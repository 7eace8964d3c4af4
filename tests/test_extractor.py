from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osscan.extractor import (
    RawFunction,
    extract_from_source,
    extract_functions,
    normalize,
)

from conftest import write_tree


# --- normalize ---------------------------------------------------------


def test_normalize_strips_comments_and_whitespace():
    src = b"int add (int a,\n int b) { return a+b; } // sum"
    assert normalize(src) == b"intadd(inta,intb){returna+b;}"


def test_normalize_preserves_literal_contents():
    assert normalize(b'x="a /*not comment*/ b";') == b'x="a/*notcomment*/b";'


def test_normalize_empty_identity():
    assert normalize(b"") == b""


def test_normalize_block_comment_and_line_comment():
    assert normalize(b"a /* x\n y */ b // tail\nc") == b"abc"


def test_normalize_unterminated_block_comment():
    assert normalize(b"a /* never closed") == b"a"


def test_normalize_unterminated_string():
    assert normalize(b'x = "abc // not comment') == b'x="abc//notcomment'


def test_normalize_split_comment_opener_is_recognised():
    # "/ /" collapses to a line-comment opener after whitespace removal;
    # treating it as one keeps normalization idempotent.
    assert normalize(b"a = b / /c;\nd;") == b"a=bd;"


def test_normalize_escaped_quote_stays_inside_literal():
    assert normalize(b's = "he said \\"hi\\" /*x*/";') == b's="hesaid\\"hi\\"/*x*/";'


def test_normalize_high_bytes_pass_through():
    data = bytes([0x80, 0xFF, 0x41, 0x20, 0xC3])
    assert normalize(data) == bytes([0x80, 0xFF, 0x41, 0xC3])


def test_normalize_char_literal():
    assert normalize(b"c = '/'; d = ' ';") == b"c='/';d='';"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(list(b'/*"\'\\ \t\r\nabc{};=')), max_size=80).map(bytes)
)
def test_normalize_idempotent(data: bytes):
    once = normalize(data)
    assert normalize(once) == once


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=120))
def test_normalize_idempotent_arbitrary_bytes(data: bytes):
    once = normalize(data)
    assert normalize(once) == once
    assert not set(once) & {0x20, 0x09, 0x0A, 0x0D}


# --- extract_from_source ----------------------------------------------


def test_extract_single_definition():
    funcs = extract_from_source("a.c", b"int f(void){return 0;}")
    assert len(funcs) == 1
    f = funcs[0]
    assert f == RawFunction(
        file_path="a.c", name="f", body=b"int f(void){return 0;}", line_span=(1, 1)
    )


def test_prototype_not_captured():
    assert extract_from_source("a.c", b"int f(void);\n") == []


def test_empty_body_excluded_one_byte_body_kept():
    funcs = extract_from_source("a.c", b"int a(void) {}\nint b(void) { }\n")
    assert [f.name for f in funcs] == ["b"]


def test_control_flow_keywords_not_captured():
    src = b"""int f(int n) {
    while (n) { n--; }
    if (n) { n++; }
    return n;
}
"""
    assert [f.name for f in extract_from_source("a.c", src)] == ["f"]


def test_string_brace_does_not_break_balance():
    src = b'const char *g(void) { return "closing } brace"; }\nint h(void) { return 1; }\n'
    assert [f.name for f in extract_from_source("a.c", src)] == ["g", "h"]


def test_directive_inside_body_kept_in_raw_bytes():
    src = b"""int guarded(int x) {
#ifdef FAST
    return x << 1;
#else
    return x + x;
#endif
}
"""
    funcs = extract_from_source("a.c", src)
    assert len(funcs) == 1
    assert b"#ifdef FAST" in funcs[0].body
    assert normalize(funcs[0].body).startswith(b"intguarded(intx){#ifdefFAST")


def test_macro_definition_not_captured():
    src = b"#define WRAP(x) { (x) + 1 }\n#define LONG(x) \\\n    { (x) }\n"
    assert extract_from_source("a.c", src) == []


def test_initializer_not_captured():
    src = b"int table[] = { 1, 2, 3 };\nint x = f(1);\n"
    assert extract_from_source("a.c", src) == []


def test_constructor_initializer_list_captured():
    src = b"Widget::Widget(int n) : count_(n), cap_(n * 2) { init(); }\n"
    funcs = extract_from_source("w.cpp", src)
    assert [f.name for f in funcs] == ["Widget"]
    assert funcs[0].body.startswith(b"Widget::Widget")


def test_access_label_stripped_from_body():
    src = b"class C {\npublic:\n    int bump() { return ++n; }\n    int n;\n};\n"
    funcs = extract_from_source("c.hpp", src)
    assert len(funcs) == 1
    assert funcs[0].name == "bump"
    assert funcs[0].body == b"int bump() { return ++n; }"


def test_line_spans_multiline():
    src = b"""static int first(int a)
{
    return a;
}

int second(void) { return 2; }
"""
    funcs = extract_from_source("a.c", src)
    assert [(f.name, f.line_span) for f in funcs] == [
        ("first", (1, 4)),
        ("second", (6, 6)),
    ]


FIXTURE_A = b"""#include <stdio.h>

/* comment with int fake(void) { } inside */
int add(int a, int b) { return a + b; }

static long nested_braces(int n) {
    if (n > 0) { while (n--) { n += 1; } }
    return n;
}

unsigned flags(void) { return 0u; }

int proto_only(int x);
"""

FIXTURE_B = b"""#define WRAP(x) { (x) + 1 }

class Counter {
public:
    int bump() { return ++n_; }
private:
    int n_;
};

int knr_style(a, b)
int a; int b;
{ return a + b; }

const char *render(const char *msg) {
    return "{" ;
}
"""

FIXTURE_C = b"""static inline unsigned hash_mix(unsigned v) {
    v ^= v >> 16; /* fold */
    return v * 0x45d9f3bU;
}

struct point { int x; int y; };

int tiny_body(void) { }

typedef int (*callback)(int);
"""


def test_synthetic_tree_exact_enumeration(tmp_path: Path):
    # Oracle: manual enumeration of the three fixture files.  K&R-style
    # definitions are skipped per the documented scanner rule; the inline
    # member function counts; nested braces span one definition.
    write_tree(tmp_path, {"a.c": FIXTURE_A, "b.cpp": FIXTURE_B, "c.h": FIXTURE_C})
    funcs = extract_functions(tmp_path)
    observed = [(f.file_path, f.name) for f in funcs]
    assert observed == [
        ("a.c", "add"),
        ("a.c", "nested_braces"),
        ("a.c", "flags"),
        ("b.cpp", "bump"),
        ("b.cpp", "render"),
        ("c.h", "hash_mix"),
        ("c.h", "tiny_body"),
    ]
    spans = {f.name: f.line_span for f in funcs}
    assert spans["add"] == (4, 4)
    assert spans["nested_braces"] == (6, 9)
    assert spans["hash_mix"] == (1, 4)


def test_extraction_deterministic(tmp_path: Path):
    write_tree(tmp_path, {"a.c": FIXTURE_A, "b.cpp": FIXTURE_B, "c.h": FIXTURE_C})
    first = extract_functions(tmp_path)
    second = extract_functions(tmp_path)
    assert first == second
    normalized = [(f.file_path, normalize(f.body)) for f in first]
    assert normalized == [(f.file_path, normalize(f.body)) for f in second]


def test_language_filter_and_binary_skip(tmp_path: Path):
    write_tree(
        tmp_path,
        {
            "keep.c": b"int f(void){return 1;}",
            "skip.py": b"def g(): pass",
            "binary.c": b"int h(void){return 2;}\x00junk",
        },
    )
    funcs = extract_functions(tmp_path)
    assert [f.file_path for f in funcs] == ["keep.c"]


def test_unreadable_file_warns_and_skips(tmp_path: Path, caplog, monkeypatch):
    write_tree(
        tmp_path,
        {"ok.c": b"int f(void){return 1;}", "broken.c": b"int g(void){return 2;}"},
    )
    real_read = Path.read_bytes

    def flaky_read(self):
        if self.name == "broken.c":
            raise OSError("simulated I/O error")
        return real_read(self)

    monkeypatch.setattr(Path, "read_bytes", flaky_read)
    with caplog.at_level("WARNING"):
        funcs = extract_functions(tmp_path)
    assert [f.name for f in funcs] == ["f"]
    assert any("broken.c" in record.getMessage() for record in caplog.records)


def test_missing_root_raises(tmp_path: Path):
    with pytest.raises(NotADirectoryError):
        extract_functions(tmp_path / "nope")


def test_paths_are_posix_relative(tmp_path: Path):
    write_tree(tmp_path, {"deep/dir/x.c": b"int f(void){return 1;}"})
    funcs = extract_functions(tmp_path)
    assert funcs[0].file_path == "deep/dir/x.c"
    assert not funcs[0].file_path.startswith("/")


# --- lexer edge rules ----------------------------------------------------


def test_lone_backslash_ends_unterminated_literal():
    assert normalize(b'x = "a b\\') == b'x="ab\\'
    src = b'int f(void) { return 1; }\nconst char *s = "{ \\'
    assert [f.name for f in extract_from_source("a.c", src)] == ["f"]


def test_escaped_whitespace_in_literal():
    assert normalize(b's = "\\ ";') == b's="";'
    assert normalize(b's = "\\\\ x";') == b's="\\\\x";'  # escaped backslash, then a space
    src = b'const char *s = "\\ ";\nint f(void) { return 1; }\n'
    assert [(f.name, f.line_span) for f in extract_from_source("a.c", src)] == [("f", (2, 2))]


def test_split_comment_opener_only_in_normalize():
    assert normalize(b"a /\n/ b\nc") == b"ac"
    # the extractor's mask does not join "/" and "/" across whitespace
    src = b"int a = 4 /\n/ 2;\nint f(void) { return 1; }\n"
    assert [f.name for f in extract_from_source("a.c", src)] == ["f"]


def test_block_comment_cannot_close_on_its_own_opener():
    assert normalize(b"a /*/ b") == b"a"
    assert normalize(b"a /*/ b */ c") == b"ac"
    src = b"int f(void) { return 1; }\n/*/ int g(void) { return 2; }\n"
    assert [f.name for f in extract_from_source("a.c", src)] == ["f"]
    src = b"/*/ x */ int g(void) { return 2; }\n"
    assert [f.name for f in extract_from_source("a.c", src)] == ["g"]


def test_vertical_tab_and_form_feed_before_directive():
    src = b"\x0b#define F(x) { return x; }\n\x0c #define G(y) { return y; }\n"
    assert extract_from_source("a.c", src) == []


def test_cr_only_line_ends():
    assert normalize(b"a // c\rb") == b"ab"
    src = b"// note\rint f(void)\r{\r    return 1;\r}\r"
    funcs = extract_from_source("a.c", src)
    assert [(f.name, f.line_span) for f in funcs] == [("f", (1, 1))]  # only LF counts lines
    assert funcs[0].body == b"int f(void)\r{\r    return 1;\r}"


def test_directive_continued_over_three_lines():
    src = b"#define F(x) \\\n    { \\ \t\n    return x; }\nint f(void) { return 1; }\n"
    assert [(f.name, f.line_span) for f in extract_from_source("a.c", src)] == [("f", (4, 4))]


def test_stray_quote_ends_at_line_end():
    src = b"#error don't\nint f(void) { return 1; }\n"
    assert [f.name for f in extract_from_source("a.c", src)] == ["f"]
    src = b"#if 0\nit's { here\n#endif\nint g(void) { return 2; }\n"
    assert [f.name for f in extract_from_source("a.c", src)] == ["g"]
    # an escaped line end continues the literal, also after CR LF
    for eol in (b"\n", b"\r\n"):
        src = b'const char *s = "a \\' + eol + b' { b";\nint h(void) { return 3; }\n'
        assert [f.name for f in extract_from_source("a.c", src)] == ["h"]
    # normalize keeps a literal open across lines
    assert normalize(b"x = 'it\n// s") == b"x='it//s"


def test_raw_string_spans_lines():
    src = b'const char *s = R"(\n  } {\n)";\nint f(void) { return 1; }\n'
    funcs = extract_from_source("a.c", src)
    assert [(f.name, f.body, f.line_span) for f in funcs] == [
        ("f", b"int f(void) { return 1; }", (4, 4))
    ]


def test_raw_string_with_prefix_delimiter_quote_and_backslash():
    src = (
        b'const char *s = u8R"xy(say "}" \\\n  )" } {\n)xy";\n'
        b"int g(int a) { return a; }\n"
    )
    funcs = extract_from_source("a.c", src)
    assert [(f.name, f.line_span) for f in funcs] == [("g", (4, 4))]
    # R ending a longer identifier opens no raw string: "(" is a plain literal
    src = b'const char *s = XR"(";\nint h(void) { return 1; }\n'
    assert [f.name for f in extract_from_source("a.c", src)] == ["h"]


_LEXER_BYTES = st.lists(
    st.sampled_from(
        [b"/", b"*", b'"', b"'", b"\\", b" ", b"\r", b"\n", b"\x0b", b"#", b"(", b")",
         b"{", b"}", b";", b"=", b"f", b"int", b"if", b"public:", b"x", b"\x80"]
    ),
    max_size=60,
).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), _LEXER_BYTES))
def test_extract_never_raises_and_bodies_are_slices(data: bytes):
    cursor = 0
    for f in extract_from_source("a.c", data):
        at = data.index(f.body, cursor)
        cursor = at + len(f.body)
        assert f.body.endswith(b"}")
        assert f.name.encode() in f.body
        assert 1 <= f.line_span[0] <= f.line_span[1]
        assert f.line_span[1] - f.line_span[0] == f.body.count(b"\n")


def test_unclosed_parens_cost_linear_time():
    start = time.perf_counter()
    assert extract_from_source("a.c", b"f(" * 8000) == []
    assert time.perf_counter() - start < 1.0


def test_empty_calls_cost_linear_time():
    start = time.perf_counter()
    assert extract_from_source("a.c", b"f()" * 8000) == []
    assert time.perf_counter() - start < 1.0


def test_many_functions_in_one_file_cost_linear_time():
    src = b"".join(
        b"static int fn%d(int a, int b)\n{\n    return a * %d + b;\n}\n\n" % (i, i)
        for i in range(16000)
    )
    start = time.perf_counter()
    funcs = extract_from_source("big.c", src)
    assert time.perf_counter() - start < 5.0
    assert len(funcs) == 16000
    assert funcs[-1].name == "fn15999"
    assert funcs[-1].line_span == (5 * 15999 + 1, 5 * 15999 + 4)


def test_unterminated_literal_memory_is_bounded():
    for opener in (b'"', b'R"('):  # a plain literal, a raw string
        data = b"int f(void) { return 1; }\n" + opener + b"x" * 1_000_000
        tracemalloc.start()
        try:
            funcs = extract_from_source("a.c", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f.name for f in funcs] == ["f"]
        assert peak < 16 * 1024 * 1024
