"""Lexer for the mini-C frontend.

Tokenizes the C subset Phloem's kernels use. ``#pragma`` lines become single
PRAGMA tokens (carrying the rest of the line), matching how the paper's
annotations (Table II) ride on top of plain C.
"""

import re

from ..errors import ParseError

KEYWORDS = frozenset(
    [
        "void",
        "int",
        "long",
        "float",
        "double",
        "unsigned",
        "const",
        "restrict",
        "if",
        "else",
        "while",
        "for",
        "break",
        "continue",
        "return",
        "true",
        "false",
    ]
)

# Longest-match-first punctuation table.
_PUNCT = [
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]


class Token:
    """A lexical token with source position for error reporting."""

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # 'ident', 'number', 'punct', 'keyword', 'pragma', 'eof'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


#: Hex digits, for splitting a hex literal from its suffix.
_HEX_DIGITS = "0123456789abcdefABCDEF"

#: One master pattern. Group 1 skips blanks and comments (a ``//`` comment
#: only with its newline); then exactly one named group matches, tried in
#: order: a letter or ``_`` starts an identifier, a digit or ``.digit`` a
#: number (hex, or decimal with one ``.`` before an optional exponent, then
#: C suffixes), ``_PUNCT`` keeps its longest-match order, and ``word`` is a
#: word that starts with any other character (a non-ASCII letter, or a digit
#: ``int`` cannot read). ``eof`` and the one-character ``bad`` catch-all make
#: every position match, so matches are contiguous.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*\n|/\*.*?\*/)*)(?:"
    r"(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<number>0[xX][0-9a-fA-F]*[uUlLfF]*|(?:\d+\.?\d*|\.\d+)(?:[eE](?:[+-]\d*|\d+))?[uUlLfF]*)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCT) + r")"
    r"|(?P<directive>\#[^\n]*)"
    r"|(?P<word>\w+)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)


def _number(text, line, col):
    """The value of a number literal: C suffixes dropped, ``f`` makes a float."""
    if text[:2] in ("0x", "0X"):
        suffix = text[2:].lstrip(_HEX_DIGITS)
        body = text[: len(text) - len(suffix)]
        base = 16
    else:
        body = text.rstrip("uUlLfF")
        suffix = text[len(body) :]
        base = 10
    try:
        if base == 10 and ("." in body or "e" in body or "E" in body):
            return float(body)
        value = int(body, base)
    except ValueError:
        raise ParseError("malformed number %r" % text, line, col) from None
    return float(value) if "f" in suffix or "F" in suffix else value


def tokenize(source):
    """Tokenize ``source`` into a list of Tokens ending with an 'eof' token."""
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    pos = 0  # offset of the current match: matches are contiguous
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        skipped, text = match.group(1, kind)
        if skipped:
            if "\n" in skipped:
                line += skipped.count("\n")
                line_start = pos + skipped.rindex("\n") + 1
            pos += len(skipped)
        col = pos - line_start + 1
        pos += len(text)
        if kind == "punct":
            append(Token("punct", text, line, col))
        elif kind == "ident":
            append(Token("keyword" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "number":
            append(Token("number", _number(text, line, col), line, col))
        elif kind == "eof":
            break
        elif kind == "directive":
            text = text.strip()
            if text.startswith("#pragma"):
                append(Token("pragma", text[len("#pragma") :].strip(), line, col))
            elif not (text.startswith("#include") or text.startswith("#define")):
                raise ParseError("unsupported preprocessor directive %r" % text, line, col)
            # else tolerated and ignored: kernels may carry headers
            if pos == len(source):
                break  # a directive ending the source leaves eof at its start
        elif kind == "line_comment":
            break  # only matches at the end: with a newline it is skipped
        elif kind == "open_comment":
            raise ParseError("unterminated block comment", line, col)
        elif kind == "word" and text[0].isalpha():
            append(Token("ident", text, line, col))
        elif kind == "word" and text[0].isdigit():
            raise ParseError("malformed number %r" % text, line, col)
        else:
            raise ParseError("unexpected character %r" % text[0], line, col)
    append(Token("eof", None, line, col))
    return tokens
