"""`scan` against the character loop it replaced.

`reference_scan` is that loop, kept as the oracle; it also reports where each
token starts. The two agree on every token's kind and text. A token's line is
1 + the newlines before its start; the loop agrees with that except after a
backslash-newline inside a literal, which it skipped without counting.
"""

from __future__ import annotations

import random

import pytest

import clone_fixtures
from crec.clone_detector import KEYWORDS, LITERAL_WORDS, Token, extract_blocks, scan

_OPS3 = (">>>", ">>=", "<<=")
_OPS2 = ("->", "::", "++", "--", "&&", "||", "==", "!=", "<=", ">=",
         "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>")


def reference_scan(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, start offset) of each token, by the character loop."""
    out = []
    i, line, n = 0, 1, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif c == "/" and source[i + 1 : i + 2] == "/":
            while i < n and source[i] != "\n":
                i += 1
        elif c == "/" and source[i + 1 : i + 2] == "*":
            i += 2
            while i < n and source[i : i + 2] != "*/":
                if source[i] == "\n":
                    line += 1
                i += 1
            i += 2
        elif c in "\"'":
            j = i + 1
            while j < n and source[j] not in (c, "\n"):
                if source[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n) if j < n and source[j] == c else j
            out.append(("literal", source[i:j], line, i))
            i = j
        elif c.isdigit() or (c == "." and source[i + 1 : i + 2].isdigit()):
            j = i + 1
            while j < n and (
                source[j].isalnum()
                or source[j] in "._"
                or (source[j] in "+-" and source[j - 1] in "eEpP")
            ):
                j += 1
            out.append(("literal", source[i:j], line, i))
            i = j
        elif c.isalpha() or c in "_$":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            if text in KEYWORDS:
                kind = "keyword"
            elif text in LITERAL_WORDS:
                kind = "literal"
            else:
                kind = "identifier"
            out.append((kind, text, line, i))
            i = j
        else:
            for ops, width in ((_OPS3, 3), (_OPS2, 2)):
                if source[i : i + width] in ops:
                    out.append(("punct", source[i : i + width], line, i))
                    i += width
                    break
            else:
                out.append(("punct", c, line, i))
                i += 1
    return out


def assert_matches_reference(source: str) -> None:
    expected = reference_scan(source)
    tokens = scan(source)
    assert [(t.kind, t.text) for t in tokens] == [(k, text) for k, text, _, _ in expected], source
    for token, (_, _, line, start) in zip(tokens, expected):
        assert token.line == 1 + source.count("\n", 0, start), source
        assert token.line == line or "\\\n" in source[:start], source


def _fixture_blobs() -> list[str]:
    corpora = [
        clone_fixtures.end_to_end_corpora(),
        clone_fixtures.planted_exact(),
        clone_fixtures.planted_partial(),
        clone_fixtures.planted_loose(),
        clone_fixtures.control_consistent_edit(),
        clone_fixtures.control_unrelated_call(),
    ]
    return sorted({text for versions in corpora for version in versions for text in version.values()})


def test_fixture_corpora_lex_as_the_reference():
    blobs = _fixture_blobs()
    assert len(blobs) > 10
    for text in blobs:
        assert_matches_reference(text)


# quotes, escapes, comment marks, odd whitespace, exponents, operators, words,
# and characters outside ASCII whose str.isdigit/isalpha/isalnum answers differ
_PIECES = (
    '"', "'", "\\", "//", "/*", "*/", "\n", "\r", "\f", "\v", " ", "\t",
    "e+", "p-", "E-", "P+", "e", "0", "1", "9", ".", "a", "x", "_", "$", "if", "true",
    ">>>", ">>=", "<<=", "->", ">", "<", "=", "+", "-", "*", "/", "&", "|", "^", "%", "!",
    ":", "(", ")", "{", "}", ";", ",", "#", "\x00",
)
_UNICODE = ("é", "²", "٣", "½", "五", "\xa0", "\u2028")


@pytest.mark.parametrize("alphabet", ["ascii", "unicode"])
def test_random_strings_lex_as_the_reference(alphabet):
    pieces = _PIECES + (_UNICODE if alphabet == "unicode" else ())
    rng = random.Random(20181)
    for _ in range(60_000):
        assert_matches_reference("".join(rng.choices(pieces, k=rng.randrange(25))))


@pytest.mark.parametrize(
    "source",
    [
        "é1 ²x ٣ ½ 五a", "x.²+1é", "a\xa0b", "1e+五", "ifé trueé", '"é"é', "é//c\n.5é",
        ".٣e+1", ".é", "a.½", "٣e+=1", "é++", "$é_1", "1é.5", "'五'",
    ],
)
def test_characters_outside_ascii(source):
    assert_matches_reference(source)


def test_escaped_newline_in_a_literal_is_counted():
    source = 'class A {\n  String s = "a\\\nb";\n  void f() {\n    g();\n  }\n}\n'
    assert next(t.line for t in scan(source) if t.text == "void") == 4
    spans = {(b.start_line, b.end_line) for b in extract_blocks(scan(source), "A.java")}
    assert spans == {(1, 7), (4, 6)}


def test_token_is_an_immutable_value_with_interned_text():
    token = scan("int x;")[1]
    assert token == Token("identifier", "x", 1)
    assert (token.kind, token.text, token.line) == ("identifier", "x", 1)
    with pytest.raises(AttributeError):
        token.line = 2
    first, second = scan("alpha beta"), scan("beta\nalpha")
    assert first[0].text is second[1].text
