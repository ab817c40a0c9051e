"""`scan` against the character loop it replaced.

`reference_scan` is that loop, kept as the oracle; it also reports where each
token starts. The two agree on every token's kind and text. A token's line is
1 + the newlines before its start; the loop agrees with that except after a
backslash-newline inside a literal, which it skipped without counting.

`scan` takes each line's tokens from a memo, and lexes the lines that a
comment or literal joins as one piece, so every check runs both with a fresh
memo and with one memo shared across all the sources of a test.
"""

from __future__ import annotations

import random
import time

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


def assert_matches_reference(source: str, memo: dict | None = None) -> None:
    expected = reference_scan(source)
    tokens = scan(source, memo)
    assert [(t.kind, t.text) for t in tokens] == [(k, text) for k, text, _, _ in expected], source
    assert len(tokens.lines) == len(tokens), source
    for token_line, (_, _, line, start) in zip(tokens.lines, expected):
        assert token_line == 1 + source.count("\n", 0, start), source
        assert token_line == line or "\\\n" in source[:start], source


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
    memo: dict = {}
    for text in blobs:
        assert_matches_reference(text)
        assert_matches_reference(text, memo)


# quotes, escapes, comment marks, odd whitespace, exponents, operators, words,
# and characters outside ASCII whose str.isdigit/isalpha/isalnum answers differ
_PIECES = (
    '"', "'", "\\", "//", "/*", "*/", "\n", "\r", "\f", "\v", " ", "\t",
    "e+", "p-", "E-", "P+", "e", "0", "1", "9", ".", "a", "x", "_", "$", "if", "true",
    ">>>", ">>=", "<<=", "->", ">", "<", "=", "+", "-", "*", "/", "&", "|", "^", "%", "!",
    ":", "(", ")", "{", "}", ";", ",", "#", "\x00",
)
_UNICODE = ("é", "²", "٣", "½", "五", "\xa0", "\u2028")


def _random_strings(alphabet: str) -> list[str]:
    pieces = _PIECES + (_UNICODE if alphabet == "unicode" else ())
    rng = random.Random(20181)
    return ["".join(rng.choices(pieces, k=rng.randrange(25))) for _ in range(60_000)]


@pytest.mark.parametrize("alphabet", ["ascii", "unicode"])
def test_random_strings_lex_as_the_reference(alphabet):
    for source in _random_strings(alphabet):
        assert_matches_reference(source)


@pytest.mark.parametrize("alphabet", ["ascii", "unicode"])
def test_random_strings_lex_as_the_reference_through_one_memo(alphabet):
    memo: dict = {}
    for source in _random_strings(alphabet):
        assert_matches_reference(source, memo)
    assert len(memo) > 10_000


def test_long_random_strings_with_many_lines():
    # hundreds of pieces and many newlines each, so that comments and
    # literals join lines that other strings hold on their own
    pieces = _PIECES + _UNICODE + ("\n",) * 12 + ("int x; ", "*/ ", "/* ", "\\\n", "\r\n")
    rng = random.Random(20182)
    memo: dict = {}
    for _ in range(2_000):
        source = "".join(rng.choices(pieces, k=rng.randrange(100, 600)))
        assert_matches_reference(source)
        assert_matches_reference(source, memo)
    assert any("\n" in key for key in memo)


_SHARED_LINES = [
    # "int x; */" inside a block comment and as code
    "int x; */\n/* a\nint x; */\nint x; */\n",
    "/* a\nint x; */ int y;\nint x; */ int y;\n",
    # a literal continued by a backslash-newline, and its lines on their own
    'String s = "a\\\nb";\nb";\nString s = "a\\\n',
    "char c = '\\\n'; int z;\n'; int z;\n",
    # a comment left open to the end, after its first line as code
    "int x; /* open\nint x; /* open",
    "/* open\nint q;\nint q;\n/* open\nint q;",
    # CRLF lines, inside a comment and outside
    "int x;\r\n/* c\r\nint x;\r\n*/\r\nint x;\r\n",
    "a /* b */ c /* d\ne */ f \"g\\\nh\" i\nj\n",
    # block comments that only whitespace parts: one piece, which _TOKEN skips
    # in one match; their lines recur alone and after code
    "/* a\n*/ /* b\n*/\n\n\t/* c */\n/* d\n*/\nint x;\n/* a\n*/\n",
    "int x; /* a\n*/\n  \n/* b\n*/ int y; /* c\n*/\f/* d\n*/",
    "/* a\n*/\n/* open\n",
    "",
    "\n\n",
    "x\\",
    '"x\\',
]


@pytest.mark.parametrize("shared", [False, True], ids=["fresh_memo", "shared_memo"])
def test_lines_that_occur_both_joined_and_alone(shared):
    memo: dict | None = {} if shared else None
    for _ in range(2):  # the second round is answered from the memo
        for source in _SHARED_LINES + list(reversed(_SHARED_LINES)):
            assert_matches_reference(source, memo)


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
    lex = scan(source)
    assert lex.lines[[t.text for t in lex].index("void")] == 4
    spans = {(b.start_line, b.end_line) for b in extract_blocks(scan(source), "A.java")}
    assert spans == {(1, 7), (4, 6)}


def test_token_is_an_immutable_value_with_interned_text():
    lex = scan("int x;")
    token = lex[1]
    assert token == Token("identifier", "x")
    assert (token.kind, token.text, lex.lines[1]) == ("identifier", "x", 1)
    with pytest.raises(AttributeError):
        token.text = "y"
    first, second = scan("alpha beta"), scan("beta\nalpha")
    assert first[0].text is second[1].text


def test_a_memo_shares_each_line_tokens():
    memo: dict = {}
    first = scan("int x;\nint y;\n", memo)
    second = scan("int y;\nint x;\nint x;", memo)
    assert second.lines == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert all(a is b for a, b in zip(first[:3], second[3:6]))
    assert all(a is b for a, b in zip(second[3:6], second[6:]))
    assert memo["int x;"] == tuple(first[:3])


def test_a_run_of_block_comments_is_one_piece():
    run = "/* a\n   b */\n\n  /* c\n d */ \t/* e */\r\n/* f\n*/"
    pieces = {  # source -> the one piece its lines form
        run: run,
        f"int x;\n{run}\nint y;\n": run,
        f"int x; {run} int y;": f"int x; {run} int y;",
    }
    for source, piece in pieces.items():
        memo: dict = {}
        assert_matches_reference(source, memo)
        assert [unit for unit in memo if "\n" in unit] == [piece]
    memo = {}
    many = "".join(f"/* note {i}\n   end {i} */\n" for i in range(10_000))
    assert scan(many, memo) == []
    assert [unit for unit in memo if "\n" in unit] == [many[:-1]]


def _best_scan_times(*sources: str) -> list[float]:
    """The least of five timed scans of each source, taken in turns."""
    best = [float("inf")] * len(sources)
    for _ in range(5):
        for i, source in enumerate(sources):
            start = time.perf_counter()
            scan(source)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "unit",
    ["/* note {i}\n   end {i} */\n", "    int v{i} = f{i}(a{i}, {i});\n"],
    ids=["two_line_comments", "distinct_lines"],
)
def test_scan_time_is_linear(unit):
    # each joined piece's lines are counted from where the last piece ended;
    # counting them from the start of the source would be quadratic
    n = 2_500
    small, large = ("".join(unit.format(i=i) for i in range(k)) for k in (n, 4 * n))
    assert scan(large).lines[-1:] in ([], [4 * n])
    small_s, large_s = _best_scan_times(small, large)
    ratio = large_s / small_s
    assert ratio <= 6, f"4x the input took {ratio:.1f}x the time"
