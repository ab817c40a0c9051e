"""Lexing, block extraction, and near-miss clone detection over token bags.

The lexical grammar is C-family/Java-like. Public tokens are keywords,
identifiers, and literals only; the full lexeme stream (with punctuation) is
kept on each block because several downstream heuristics need source
adjacency (call sites, operators, declaration patterns).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

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


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # keyword | identifier | literal | punct
    text: str
    line: int


@dataclass(eq=False)
class CodeBlock:
    path: str
    start_line: int
    end_line: int
    tokens: tuple[Token, ...]
    token_bag: Counter
    enclosing_method_name: str | None = None
    enclosing_method_line_count: int | None = None
    enclosing_method_start: int | None = None
    raw_tokens: tuple[Token, ...] = field(default=(), repr=False)

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.path, self.start_line, self.end_line)

    @property
    def line_span(self) -> int:
        return self.end_line - self.start_line + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, CodeBlock) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True)
class CloneGroup:
    version: int
    members: tuple[CodeBlock, ...]  # sorted by (path, start_line, end_line)
    group_id: str


def scan(source: str) -> list[Token]:
    """Total lexical scan; emits punctuation too. Never raises."""
    out: list[Token] = []
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
            out.append(Token("literal", source[i:j], line))
            i = j
        elif c.isdigit() or (c == "." and source[i + 1 : i + 2].isdigit()):
            j = i + 1
            while j < n and (
                source[j].isalnum()
                or source[j] in "._"
                or (source[j] in "+-" and source[j - 1] in "eEpP")
            ):
                j += 1
            out.append(Token("literal", source[i:j], line))
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
            out.append(Token(kind, text, line))
            i = j
        else:
            for ops, width in ((_OPS3, 3), (_OPS2, 2)):
                if source[i : i + width] in ops:
                    out.append(Token("punct", source[i : i + width], line))
                    i += width
                    break
            else:
                out.append(Token("punct", c, line))
                i += 1
    return out


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
    lex: list[Token], path: str, diagnostics: list[str] | None = None
) -> list[CodeBlock]:
    """One block per balanced brace region of *lex* (``scan`` of the file at
    *path*), header tokens included.

    Unbalanced braces are reported into *diagnostics* (when given) and the
    balanced portion is still emitted.
    """
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for idx, t in enumerate(lex):
        if t.kind != "punct":
            continue
        if t.text == "{":
            stack.append(idx)
        elif t.text == "}":
            if not stack:
                if diagnostics is not None:
                    diagnostics.append(f"{path}:{t.line}: unmatched closing brace")
                continue
            pairs.append((stack.pop(), idx))
    for idx in stack:
        if diagnostics is not None:
            diagnostics.append(f"{path}:{lex[idx].line}: unclosed brace")
    pairs.sort()

    headers = {o: _header_start(lex, o) for o, _ in pairs}
    names = {o: _method_name(lex, o, headers[o]) for o, _ in pairs}
    spans = {
        o: (lex[headers[o]].line if headers[o] < o else lex[o].line, lex[c].line)
        for o, c in pairs
    }

    blocks = []
    for o, c in pairs:
        method_open = None
        if names[o] is not None:
            method_open = o
        else:
            for po, pc in pairs:  # innermost enclosing method body
                if po < o and pc > c and names[po] is not None:
                    if method_open is None or po > method_open:
                        method_open = po
        start, end = spans[o]
        toks = tuple(t for t in lex[headers[o] : c + 1] if t.kind != "punct")
        if not toks:
            continue
        if method_open is not None:
            m_start, m_end = spans[method_open]
            m_name, m_count = names[method_open], m_end - m_start + 1
        else:
            m_start = m_name = m_count = None
        blocks.append(
            CodeBlock(
                path=path,
                start_line=start,
                end_line=end,
                tokens=toks,
                token_bag=Counter(t.text for t in toks),
                enclosing_method_name=m_name,
                enclosing_method_line_count=m_count,
                enclosing_method_start=m_start,
                raw_tokens=tuple(lex[headers[o] : c + 1]),
            )
        )
    blocks.sort(key=lambda b: b.key)
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
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if conjunctive:
        qualified = [b for b in blocks if len(b.tokens) >= min_tokens and b.line_span >= min_lines]
    else:
        qualified = [b for b in blocks if len(b.tokens) >= min_tokens or b.line_span >= min_lines]
    qualified.sort(key=lambda b: b.key)

    parent = list(range(len(qualified)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(qualified)):
        size_i = len(qualified[i].tokens)
        for j in range(i + 1, len(qualified)):
            size_j = len(qualified[j].tokens)
            if min(size_i, size_j) < theta * max(size_i, size_j):
                continue  # overlap cannot reach theta
            if similarity(qualified[i], qualified[j]) >= theta:
                parent[find(i)] = find(j)

    components: dict[int, list[CodeBlock]] = {}
    for i, block in enumerate(qualified):
        components.setdefault(find(i), []).append(block)

    groups = []
    for members in components.values():
        members = _drop_nested(members)
        if len(members) < 2:
            continue
        members.sort(key=lambda b: b.key)
        digest = hashlib.sha1(
            "|".join(
                [str(version)] + [f"{b.path}:{b.start_line}-{b.end_line}" for b in members]
            ).encode()
        ).hexdigest()[:12]
        groups.append(CloneGroup(version=version, members=tuple(members), group_id=digest))
    groups.sort(key=lambda g: g.members[0].key)
    return groups


def _drop_nested(members: list[CodeBlock]) -> list[CodeBlock]:
    kept = []
    for b in members:
        contained = any(
            o.path == b.path
            and o.start_line <= b.start_line
            and o.end_line >= b.end_line
            and o.key != b.key
            for o in members
        )
        if not contained:
            kept.append(b)
    return kept


def invoked_names(raw_tokens: tuple[Token, ...]) -> Counter:
    """Identifiers immediately followed by '(' in the lexeme stream."""
    calls: Counter = Counter()
    for t, nxt in zip(raw_tokens, raw_tokens[1:]):
        if t.kind == "identifier" and nxt.kind == "punct" and nxt.text == "(":
            calls[t.text] += 1
    return calls
