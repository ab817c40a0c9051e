"""Lexing, block extraction, and near-miss clone detection over token bags.

The lexical grammar is C-family/Java-like. Public tokens are keywords,
identifiers, and literals only. A token is a ``(kind, text)`` pair, and a
file's token list keeps the line of each token in its ``lines`` list. Tokens
are lexed per line through a memo that the caller may share across files, so
that a line seen before reuses its tokens. A block is a span over its file's
token list, punctuation included, because several downstream heuristics need
source adjacency (call sites, operators, declaration patterns).
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from .config import DEFAULTS

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try var void volatile while""".split()
)
LITERAL_WORDS = frozenset({"true", "false", "null"})

# longest-match operator tables; anything else is a single punct character
_OPS3 = (">>>", ">>=", "<<=")
_OPS2 = ("->", "::", "++", "--", "&&", "||", "==", "!=", "<=", ">=",
         "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>")


class Token(NamedTuple):
    kind: str  # keyword | identifier | literal | punct
    text: str


class TokenList(list):
    """A file's tokens as ``scan`` returns them; ``lines[i]`` is the line of token ``i``."""

    __slots__ = ("lines",)


class CodeBlock:
    """The span ``lex[first:stop]`` of its file's tokens; *size* counts the non-punctuation.

    ``lex[brace]`` is its own ``{``. *method* is the body block of the
    innermost method around it, named *enclosing_method_name*: the block
    itself for a body, None outside any method. The token bag is counted when
    first read, so only the blocks that are compared pay for one. Blocks
    compare by identity, since two spans can share their lines
    (``{ { a(); } }``); across versions, a block is named by its path and
    ``brace``.
    """

    def __init__(self, path: str, start_line: int, end_line: int, lex: TokenList, first: int,
                 brace: int, stop: int, size: int, enclosing_method_name: str | None = None):
        self.path, self.start_line, self.end_line = path, start_line, end_line
        self.lex, self.first, self.brace, self.stop, self.size = lex, first, brace, stop, size
        self.enclosing_method_name = enclosing_method_name
        self.method: CodeBlock | None = None

    @cached_property
    def token_bag(self) -> Counter:
        return Counter(t.text for t in self.raw_tokens if t.kind != "punct")

    @property
    def raw_tokens(self) -> Sequence[Token]:
        return self.lex[self.first : self.stop]

    @property
    def tokens(self) -> list[Token]:
        return [t for t in self.raw_tokens if t.kind != "punct"]

    def contains(self, other: CodeBlock) -> bool:
        """Whether *other* is another span of this path's token list inside this one."""
        if other is self or other.path != self.path or other.lex is not self.lex:
            return False
        return self.first <= other.first and other.stop <= self.stop

    @property
    def line_span(self) -> int:
        return self.end_line - self.start_line + 1


class CloneGroup(NamedTuple):
    version: int
    members: tuple[CodeBlock, ...]  # sorted by (path, brace)
    group_id: str


# One match of _TOKEN: the whitespace and comments skipped (group 1), then one
# token led by an ASCII character, absent at the end or before a token led by
# any other character: a word (group 2), or else (group 3) a string or char
# literal, a number, or an operator (longest match) or other single character.
# A word or number goes on over the characters that str.isalnum admits, as \w
# does; a "." before a non-ASCII character is left to `_unicode_token`, since
# it starts a number when that character is a digit (".²").
_BLOCK_COMMENT = r"/\*(?:[\s\S]*?\*/|[\s\S]*)"
_COMMENT = r"//[^\n]*|" + _BLOCK_COMMENT
_LITERAL = r""""(?:[^"\n\\]+|\\[\s\S]?)*"?|'(?:[^'\n\\]+|\\[\s\S]?)*'?"""
_TOKEN = re.compile(
    r"([ \t\n\r\f\v]*(?:(?:" + _COMMENT + r")[ \t\n\r\f\v]*)*)"
    r"(?:([A-Za-z_$][\w$]*)"
    r"|(" + _LITERAL +
    r"|\.?[0-9](?:[\w.]|(?<=[eEpP])[+-])*"
    r"|" + "|".join(map(re.escape, _OPS3 + _OPS2)) + r"|(?!\.[^\x00-\x7f])[\x00-\x7f]))?"
)
_WORD_KINDS = {**dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys(LITERAL_WORDS, "literal")}
# group 3 texts that are punctuation; the others are literals
_PUNCT = frozenset(_OPS3 + _OPS2) | {
    c for c in map(chr, range(128)) if not (c.isalnum() or c in "_$\"' \t\n\r\f\v")
}


# The comments and literals of a source, in order, as _TOKEN meets them, with
# block comments that only whitespace parts taken as one, as _TOKEN's group 1
# skips them in one match; one that holds a newline joins the lines it spans
# into one piece for `scan`.
_SPANNING = re.compile(
    _BLOCK_COMMENT + r"(?:[ \t\n\r\f\v]*" + _BLOCK_COMMENT + r")*|" + _COMMENT + "|" + _LITERAL
)


def scan(source: str, memo: dict[str, tuple] | None = None) -> TokenList:
    """Total lexical scan; emits punctuation too. Never raises.

    ``lines[i]`` of the result is the line of token ``i``: 1 + the number of
    newlines before it. The source is lexed as a sequence of lines, except
    that the lines spanned by a block comment, or by a string or char literal
    with an escaped newline, form one piece. *memo* maps each line to its
    tuple of tokens, and each piece to its tokens and the line of each
    counted from the piece's first. Only lines and pieces missing from *memo*
    are lexed, all in one pass over their texts joined by newlines, so
    passing one memo to many sources lexes each distinct line once, and every
    occurrence of a line shares its tokens. Token texts are interned, so
    equal texts across files share one string.
    """
    if memo is None:
        memo = {}
    units: list[str] = []
    pos = 0
    for start, stop in _joined(source):
        if start > pos:
            units += source[pos : start - 1].split("\n")
        units.append(source[start:stop])
        pos = stop + 1
    if pos <= len(source):
        units += source[pos:].split("\n")

    # Every unit but the source's last ends between tokens, and the last one
    # comes last among the missing unless its text occurs earlier (and so ends
    # between tokens too), so joining them with newlines changes no token.
    missing = [u for u in dict.fromkeys(units) if u not in memo]
    if missing:
        tokens, breaks = _lex("\n".join(missing))
        bounds = (0, *breaks, len(tokens))  # tokens before each line of the joined text
        k = 0
        for unit in missing:
            first, inner = k, unit.count("\n")  # `unit` is lines first..first + inner
            k += inner + 1
            if not inner:
                memo[unit] = tokens[bounds[first] : bounds[k]]
            elif bounds[first] == bounds[k]:
                memo[unit] = ((), ())
            else:  # a piece with tokens, and the line of each counted from its first
                offsets: list[int] = []
                for r in range(inner + 1):
                    offsets += [r] * (bounds[first + r + 1] - bounds[first + r])
                memo[unit] = (tokens[bounds[first] : bounds[k]], tuple(offsets))

    out = TokenList()
    lines = out.lines = []
    extend, extend_lines = out.extend, lines.extend
    line = 1
    for unit in units:
        entry = memo[unit]
        if "\n" in unit:
            piece, offsets = entry
            if piece:
                extend(piece)
                extend_lines([line + r for r in offsets])
            line += unit.count("\n") + 1
        else:
            if entry:
                extend(entry)
                extend_lines([line] * len(entry))
            line += 1
    return out


def _joined(source: str) -> list[list[int]]:
    """[start, stop) of each run of whole lines that comments and literals
    holding a newline join, in order; *stop* is the offset of the newline
    that ends the run, or the source's length. Runs that share a line are one
    run."""
    runs: list[list[int]] = []
    if "/*" not in source and "\\\n" not in source:
        return runs
    find, n = source.find, len(source)
    stop = -1
    for m in _SPANNING.finditer(source):
        start, end = m.span()
        if find("\n", start, end) < 0:
            continue
        if start > stop:
            runs.append([source.rfind("\n", 0, start) + 1, n])
        stop = find("\n", end)
        if stop < 0:
            stop = n
        runs[-1][1] = stop
    return runs


def _lex(source: str) -> tuple[tuple[Token, ...], tuple[int, ...]]:
    """The tokens of *source* by the _TOKEN match loop, and for each newline the
    number of tokens before it."""
    out: list[Token] = []
    breaks: list[int] = []
    append, new, intern, match = out.append, tuple.__new__, sys.intern, _TOKEN.match
    word_kinds, punct = _WORD_KINDS, _PUNCT
    n, pos = len(source), 0
    while True:
        m = match(source, pos)
        skipped, word, text = m.groups()
        pos = m.end()
        if skipped and "\n" in skipped:
            breaks += [len(out)] * skipped.count("\n")
        if word:
            append(new(Token, (word_kinds.get(word, "identifier"), intern(word))))
        elif text:
            append(new(Token, ("punct" if text in punct else "literal", intern(text))))
            if "\n" in text:  # a literal with an escaped newline
                breaks += [len(out)] * text.count("\n")
        elif pos == n:
            return tuple(out), tuple(breaks)
        else:  # a token led by a non-ASCII character, or a "." before one
            kind, end = _unicode_token(source, pos)
            append(new(Token, (kind, intern(source[pos:end]))))
            pos = end


def _unicode_token(source: str, i: int) -> tuple[str, int]:
    """Kind and end of the token at *i*, which a non-ASCII character leads (or a
    "." before one), by the ``str.isdigit``, ``isalpha`` and ``isalnum`` rules,
    which admit characters such as ``é``, ``²`` and ``٣``."""
    n, c, j = len(source), source[i], i + 1
    if c.isdigit() or (c == "." and source[j : j + 1].isdigit()):
        while j < n and (
            source[j].isalnum()
            or source[j] in "._"
            or (source[j] in "+-" and source[j - 1] in "eEpP")
        ):
            j += 1
        return "literal", j
    if c.isalpha():
        while j < n and (source[j].isalnum() or source[j] in "_$"):
            j += 1
        return _WORD_KINDS.get(source[i:j], "identifier"), j
    return "punct", j


def _match_paren_back(lex: list[Token], close_idx: int) -> int:
    depth = 1
    j = close_idx - 1
    while j >= 0 and depth > 0:
        if lex[j].kind == "punct":
            if lex[j].text == ")":
                depth += 1
            elif lex[j].text == "(":
                depth -= 1
        if depth == 0:
            return j
        j -= 1
    return j + 1 if depth == 0 else 0


def _header_start(lex: list[Token], open_idx: int) -> int:
    """Scan back from a '{' to the start of the construct owning it."""
    j = open_idx - 1
    while j >= 0:
        t = lex[j]
        if t.kind == "punct" and t.text == ")":
            j = _match_paren_back(lex, j) - 1
            continue
        if t.kind == "punct" and t.text in (";", "{", "}"):
            break
        j -= 1
    return j + 1


def _method_name(lex: list[Token], open_idx: int, header_start: int) -> str | None:
    """Name of the method whose body opens at '{', if the header looks like one."""
    j = open_idx - 1
    jj = j
    while jj >= header_start and (lex[jj].kind == "identifier" or lex[jj].text in (",", ".")):
        jj -= 1
    if jj >= header_start and lex[jj].kind == "keyword" and lex[jj].text == "throws":
        j = jj - 1
    if j < header_start or lex[j].kind != "punct" or lex[j].text != ")":
        return None
    p = _match_paren_back(lex, j)
    if p - 1 < header_start or lex[p - 1].kind != "identifier":
        return None
    if p - 2 >= header_start and lex[p - 2].text == "new":
        return None
    return lex[p - 1].text


def extract_blocks(
    lex: TokenList, path: str, diagnostics: list[str] | None = None
) -> list[CodeBlock]:
    """One block per balanced brace region of *lex* (``scan`` of the file at
    *path*), header tokens included, in the order of their ``{``.

    Unbalanced braces are reported into *diagnostics* (when given) and the
    balanced portion is still emitted.
    """
    lines = lex.lines
    stack: list[tuple[int, int]] = []  # (index, non-punctuation before it) of each open "{"
    pairs: list[tuple[int, int, int]] = []  # "{", "}", non-punctuation between them
    count = 0
    for idx, t in enumerate(lex):
        if t.kind != "punct":
            count += 1
        elif t.text == "{":
            stack.append((idx, count))
        elif t.text == "}":
            if not stack:
                if diagnostics is not None:
                    diagnostics.append(f"{path}:{lines[idx]}: unmatched closing brace")
                continue
            o, before = stack.pop()
            pairs.append((o, idx, count - before))
    for idx, _ in stack:
        if diagnostics is not None:
            diagnostics.append(f"{path}:{lines[idx]}: unclosed brace")
    pairs.sort()

    # Brace pairs nest or are disjoint, so in opening order the method bodies
    # still open at `o` form a stack whose top is the innermost enclosing one.
    blocks = []
    methods: list[CodeBlock] = []  # the open method bodies
    for o, c, inside in pairs:
        header = _header_start(lex, o)
        name = _method_name(lex, o, header)
        while methods and methods[-1].stop <= o:
            methods.pop()
        size = inside + sum(1 for t in lex[header:o] if t.kind != "punct")
        if not size:  # never a method body: its name is a token of its header
            continue
        # a header starts at or before its "{", so its line is the block's first
        block = CodeBlock(path, lines[header], lines[c], lex, header, o, c + 1, size, name)
        if name is not None:
            methods.append(block)
        if methods:
            block.method = methods[-1]
            block.enclosing_method_name = block.method.enclosing_method_name
        blocks.append(block)
    return blocks


def overlap(bag_a: Counter, bag_b: Counter) -> float:
    """Overlap coefficient of two token multisets: the shared count over the
    larger size, 0.0 when both are empty. Sums the minimum counts over the
    smaller bag, which equals ``sum((bag_a & bag_b).values())`` for positive
    counts."""
    denom = max(sum(bag_a.values()), sum(bag_b.values()))
    if denom == 0:
        return 0.0
    if len(bag_a) > len(bag_b):
        bag_a, bag_b = bag_b, bag_a
    shared = 0
    for token, count in bag_a.items():
        other = bag_b.get(token, 0)
        shared += count if count < other else other
    return shared / denom


def similarity(a: CodeBlock, b: CodeBlock) -> float:
    """Overlap coefficient over the blocks' token multisets."""
    return overlap(a.token_bag, b.token_bag)


def detect_clones(
    blocks: list[CodeBlock],
    min_tokens: int = DEFAULTS.min_tokens,
    min_lines: int = DEFAULTS.min_lines,
    theta: float = DEFAULTS.theta,
    version: int = 0,
    conjunctive: bool = False,
) -> list[CloneGroup]:
    """Group near-miss clones as connected components of pairwise similarity.

    Size thresholds are disjunctive by default (tokens OR lines); pass
    conjunctive=True for the AND reading. When a block and a block nested
    inside it land in the same group, only the outermost is kept.

    Candidate pairs come from an inverted index with the prefix filter of
    SourcererCC (Sajnani et al., ICSE 2016). A bag is read as the set of
    ``(token, k)`` for k = 1..count, ordered by the token's document frequency
    over the qualified blocks, rarest first; the intersection of two such sets
    has the size of their shared count. A pair that shares at least t
    elements has a common element within the first ``size - t + 1`` of each,
    and t = ceil(theta * size) - 1, at least 1, is never above the smallest
    shared count that passes ``similarity >= theta`` in floating point. A
    prefix that holds ``(token, k)`` holds ``(token, 1)``, so the index maps
    each token to the blocks whose prefix holds it. Each candidate that also
    passes the size filter is confirmed with ``similarity``, so the groups are
    those of checking every pair; a pair where one block's span holds the
    other's is confirmed by the ratio of their sizes, which is the value
    ``similarity`` returns for it, since the inner bag is a sub-multiset of
    the outer one.
    """
    from _sha1 import sha1  # only `detect` names groups; the later stages read their ids

    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if conjunctive:
        qualified = [b for b in blocks if b.size >= min_tokens and b.line_span >= min_lines]
    else:
        qualified = [b for b in blocks if b.size >= min_tokens or b.line_span >= min_lines]
    qualified.sort(key=lambda b: (b.path, b.brace))

    parent = list(range(len(qualified)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    df: Counter = Counter()
    for b in qualified:
        df.update(b.token_bag.keys())
    rank = {token: r for r, token in enumerate(sorted(df, key=lambda t: (df[t], t)))}.__getitem__
    index: dict[str, list[int]] = {}
    for i, block in enumerate(qualified):
        bag, size = block.token_bag, block.size
        left = size - max(1, math.ceil(theta * size) - 1) + 1  # prefix length
        candidates: set[int] = set()
        for token in sorted(bag, key=rank):
            if left <= 0:
                break
            postings = index.setdefault(token, [])
            candidates.update(postings)
            postings.append(i)
            left -= bag[token]
        for j in candidates:
            other = qualified[j]
            low, high = (size, other.size) if size < other.size else (other.size, size)
            if low < theta * high:
                continue  # overlap cannot reach theta
            if other.contains(block) or block.contains(other):
                hit = low / high >= theta  # the inner bag is a sub-multiset of the outer
            else:
                hit = similarity(other, block) >= theta
            if hit:
                parent[find(i)] = find(j)

    components: dict[int, list[CodeBlock]] = {}
    for i, block in enumerate(qualified):
        components.setdefault(find(i), []).append(block)

    groups = []
    for members in components.values():
        members = _drop_nested(members)
        if len(members) < 2:
            continue
        members.sort(key=lambda b: (b.path, b.brace))
        names = [str(version)] + [f"{b.path}:{b.brace}" for b in members]
        digest = sha1("|".join(names).encode()).hexdigest()[:12]
        groups.append(CloneGroup(version=version, members=tuple(members), group_id=digest))
    groups.sort(key=lambda g: (g.members[0].path, g.members[0].brace))
    return groups


def _drop_nested(members: list[CodeBlock]) -> list[CodeBlock]:
    return [b for b in members if not any(o.contains(b) for o in members)]


def invoked_names(raw_tokens: Sequence[Token]) -> Counter:
    """Identifiers immediately followed by '(' in the lexeme stream."""
    calls: Counter = Counter()
    for t, nxt in zip(raw_tokens, raw_tokens[1:]):
        if t.kind == "identifier" and nxt.kind == "punct" and nxt.text == "(":
            calls[t.text] += 1
    return calls
