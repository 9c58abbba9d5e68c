"""Mini-C lexer behaviour."""

import re

import pytest

from repro.errors import ParseError
from repro.frontend.lexer import tokenize


def _kinds(src):
    return [(t.kind, t.value) for t in tokenize(src) if t.kind != "eof"]


def test_idents_and_keywords():
    toks = _kinds("int foo while bar")
    assert toks == [
        ("keyword", "int"),
        ("ident", "foo"),
        ("keyword", "while"),
        ("ident", "bar"),
    ]


def test_numbers():
    toks = _kinds("42 0x1F 3.5 1e3 2.5e-2")
    values = [v for _, v in toks]
    assert values == [42, 31, 3.5, 1000.0, 0.025]


def test_integer_suffixes():
    toks = _kinds("42u 7L 1.0f 3f")
    values = [v for _, v in toks]
    assert values == [42, 7, 1.0, 3.0]


def test_punctuation_longest_match():
    toks = _kinds("a <<= b << c <= d < e")
    puncts = [v for k, v in toks if k == "punct"]
    assert puncts == ["<<=", "<<", "<=", "<"]


def test_comments_skipped():
    toks = _kinds("a // line comment\n b /* block\n comment */ c")
    assert [v for _, v in toks] == ["a", "b", "c"]


def test_unterminated_block_comment():
    with pytest.raises(ParseError, match="unterminated"):
        tokenize("/* nope")


def test_pragma_token():
    toks = tokenize("#pragma phloem\nint x;")
    assert toks[0].kind == "pragma"
    assert toks[0].value == "phloem"


def test_includes_ignored():
    toks = _kinds("#include <limits.h>\nint x;")
    assert toks[0] == ("keyword", "int")


def test_unknown_preprocessor_rejected():
    with pytest.raises(ParseError, match="unsupported preprocessor"):
        tokenize("#ifdef FOO")


def test_unexpected_char():
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize("int $x;")


@pytest.mark.parametrize(
    "src, literal, col",
    [("a[0] = 0x;", "0x", 8), ("x = 1e+;", "1e+", 5), ("x = 2.5e-", "2.5e-", 5), ("y = \u00b2;", "\u00b2", 5)],
)
def test_malformed_number_is_a_parse_error_at_the_literal(src, literal, col):
    with pytest.raises(ParseError, match=re.escape("malformed number %r" % literal)) as info:
        tokenize("int k;\n" + src)
    assert (info.value.line, info.value.col) == (2, col)


def test_line_numbers():
    toks = tokenize("a\nb\n  c")
    a, b, c = toks[0], toks[1], toks[2]
    assert (a.line, b.line, c.line) == (1, 2, 3)
    assert c.col == 3


def _stream(src):
    # repr keeps 3 and 3.0 apart: a pin on the value's type as well.
    return [(t.kind, repr(t.value), t.line, t.col) for t in tokenize(src)]


#: (source, every token as (kind, repr(value), line, col), eof included).
PINS = [
    ("1.e5", [("number", "100000.0", 1, 1), ("eof", "None", 1, 5)]),
    (".5", [("number", "0.5", 1, 1), ("eof", "None", 1, 3)]),
    ("1..2", [("number", "1.0", 1, 1), ("number", "0.2", 1, 3), ("eof", "None", 1, 5)]),
    ("08", [("number", "8", 1, 1), ("eof", "None", 1, 3)]),
    ("3fF", [("number", "3.0", 1, 1), ("eof", "None", 1, 4)]),
    ("1.5f", [("number", "1.5", 1, 1), ("eof", "None", 1, 5)]),
    ("42uL", [("number", "42", 1, 1), ("eof", "None", 1, 5)]),
    ("0x1uf 0x1fu", [("number", "1.0", 1, 1), ("number", "31", 1, 7), ("eof", "None", 1, 12)]),
    (
        "1e5e3 1ee 1e-5.3",
        [
            ("number", "100000.0", 1, 1),
            ("ident", "'e3'", 1, 4),
            ("number", "1", 1, 7),
            ("ident", "'ee'", 1, 8),
            ("number", "1e-05", 1, 11),
            ("number", "0.3", 1, 15),
            ("eof", "None", 1, 17),
        ],
    ),
    (
        "a+++b",
        [
            ("ident", "'a'", 1, 1),
            ("punct", "'++'", 1, 2),
            ("punct", "'+'", 1, 4),
            ("ident", "'b'", 1, 5),
            ("eof", "None", 1, 6),
        ],
    ),
    (
        "p->x",
        [("ident", "'p'", 1, 1), ("punct", "'->'", 1, 2), ("ident", "'x'", 1, 4), ("eof", "None", 1, 5)],
    ),
    (
        "a<<=b",
        [("ident", "'a'", 1, 1), ("punct", "'<<='", 1, 2), ("ident", "'b'", 1, 5), ("eof", "None", 1, 6)],
    ),
    # A tab is one column.
    ("x;\n\tfoo", [("ident", "'x'", 1, 1), ("punct", "';'", 1, 2), ("ident", "'foo'", 2, 2), ("eof", "None", 2, 5)]),
    # A block comment's newlines count; its last line's columns too.
    ("/* a\n b\n */ x", [("ident", "'x'", 3, 5), ("eof", "None", 3, 6)]),
    # \r is a column, \n the line break.
    (
        "a\r\nb\r\n  c",
        [("ident", "'a'", 1, 1), ("ident", "'b'", 2, 1), ("ident", "'c'", 3, 3), ("eof", "None", 3, 4)],
    ),
    # A directive or line comment that ends the source leaves eof at its start.
    (
        "x;\n#pragma phloem",
        [("ident", "'x'", 1, 1), ("punct", "';'", 1, 2), ("pragma", "'phloem'", 2, 1), ("eof", "None", 2, 1)],
    ),
    ("x // trailing", [("ident", "'x'", 1, 1), ("eof", "None", 1, 3)]),
]


@pytest.mark.parametrize("src, expected", PINS, ids=[repr(src) for src, _ in PINS])
def test_token_stream_pins(src, expected):
    assert _stream(src) == expected


#: sha256 over the (kind, repr(value), line, col) stream of the ten shipped
#: workloads and the four Taco kernels, in that order.
SHIPPED_STREAM_SHA256 = "ada74b480e0e6b948be1eea6372c0150c14a5653492e44e73c8e824d1d5644d9"


def test_shipped_sources_token_stream_is_pinned():
    import hashlib

    from repro.taco import kernels
    from repro.workloads import ALL_BENCHMARKS

    sources = [module.SOURCE for _, module in sorted(ALL_BENCHMARKS.items())]
    for make in (kernels.spmv_kernel, kernels.residual_kernel, kernels.mtmul_kernel, kernels.sddmm_kernel):
        sources.append(make().source)
    digest = hashlib.sha256()
    for src in sources:
        for token in tokenize(src):
            digest.update(repr((token.kind, token.value, token.line, token.col)).encode())
    assert len(sources) == 14
    assert digest.hexdigest() == SHIPPED_STREAM_SHA256
