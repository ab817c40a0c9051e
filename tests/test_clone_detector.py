"""Lexer, block extraction, similarity, and clone grouping."""

from __future__ import annotations

import _sha1
import gc
import hashlib
import random
import time
import tracemalloc
from collections import Counter
from typing import NamedTuple

import pytest

from clone_fixtures import CONTROLS, PLANTED, end_to_end_corpora
from conftest import span_block
from crec import clone_detector
from crec.clone_detector import (
    CloneGroup,
    CodeBlock,
    Token,
    detect_clones,
    extract_blocks,
    _drop_nested,
    _header_start,
    _method_name,
    invoked_names,
    overlap,
    scan,
    similarity,
)


def tokenize(source: str) -> list[Token]:
    """The tokens blocks are compared on: scan() without punctuation."""
    return [t for t in scan(source) if t.kind != "punct"]


class TestTokenize:
    def test_statement_with_line_comment(self):
        tokens = tokenize("int x = 0; // c")
        assert [(t.kind, t.text) for t in tokens] == [
            ("keyword", "int"),
            ("identifier", "x"),
            ("literal", "0"),
        ]

    def test_empty_source(self):
        assert tokenize("") == []

    def test_punctuation_dropped(self):
        assert [t.text for t in tokenize("a.b(c)")] == ["a", "b", "c"]

    def test_block_comment_stripped_and_lines_tracked(self):
        source = "int a;\n/* two\nlines */\nfoo();\n"
        tokens = tokenize(source)
        assert [t.text for t in tokens] == ["int", "a", "foo"]
        assert scan(source).lines == [1, 1, 1, 4, 4, 4, 4]

    def test_string_is_single_literal(self):
        tokens = tokenize('log("a + b; // not code");')
        assert [t.text for t in tokens] == ["log", '"a + b; // not code"']

    def test_escaped_quote_inside_string(self):
        tokens = tokenize(r'x = "he said \"hi\"";')
        assert tokens[1].text == r'"he said \"hi\""'

    def test_numeric_literals_single_tokens(self):
        tokens = tokenize("a = 0x1F + 2.5e-3 + 100L;")
        assert [t.text for t in tokens] == ["a", "0x1F", "2.5e-3", "100L"]

    def test_true_false_null_are_literals(self):
        assert [t.kind for t in tokenize("true false null")] == ["literal"] * 3

    def test_lexing_is_total_on_odd_characters(self):
        assert [t.text for t in tokenize("a # ` b")] == ["a", "b"]


METHOD_WITH_LOOP = """\
int sum(int n) {
    int total = 0;
    int bonus = 1;
    for (int i = 0; i < n; i++) {
        total = total + i;
        total = total * bonus;
        bonus = bonus + 1;
        report(total);
    }
    return total;
}
"""


class TestExtractBlocks:
    def test_method_and_loop_body(self):
        blocks = extract_blocks(scan(METHOD_WITH_LOOP), "A.java")
        assert len(blocks) == 2
        method, loop = blocks
        assert (method.start_line, method.end_line) == (1, 11)
        assert (loop.start_line, loop.end_line) == (4, 9)
        assert method.enclosing_method_name == "sum"
        assert loop.enclosing_method_name == "sum"
        assert method.method is method and loop.method is method
        assert loop.method.line_span == 11
        assert [method.lex[b.brace].text for b in blocks] == ["{", "{"]
        assert loop.tokens[0].text == "for"

    def test_empty_file(self):
        assert extract_blocks(scan(""), "A.java") == []

    def test_class_body_without_methods(self):
        blocks = extract_blocks(scan("class Holder {\n    int x;\n    int y;\n}\n"), "A.java")
        assert len(blocks) == 1
        assert blocks[0].enclosing_method_name is None
        assert blocks[0].method is None
        assert blocks[0].tokens[0].text == "class"

    def test_token_bag_matches_tokens(self):
        for b in extract_blocks(scan(METHOD_WITH_LOOP), "A.java"):
            assert b.token_bag == Counter(t.text for t in b.tokens)

    def test_unbalanced_braces_flagged(self):
        diags = []
        blocks = extract_blocks(scan("void f() {\n  a();\n"), "A.java", diags)
        assert blocks == []
        assert any("unclosed" in d for d in diags)
        diags = []
        blocks = extract_blocks(scan("}\nvoid f() {\n  a();\n}\n"), "A.java", diags)
        assert len(blocks) == 1
        assert any("unmatched" in d for d in diags)

    def test_throws_clause_still_a_method(self):
        source = "void f() throws IOException, FooError {\n  a();\n}\n"
        blocks = extract_blocks(scan(source), "A.java")
        assert blocks[0].enclosing_method_name == "f"

    def test_anonymous_class_is_not_a_method(self):
        source = "Runnable r = new Runnable() {\n  int x;\n};\n"
        blocks = extract_blocks(scan(source), "A.java")
        assert blocks[0].enclosing_method_name is None

    def test_nested_blocks_on_one_line_are_two_blocks(self):
        outer, inner = extract_blocks(scan("{ { a(); } }"), "A.java")
        assert (outer.start_line, outer.end_line) == (inner.start_line, inner.end_line)
        assert outer.contains(inner)
        assert len({outer, inner}) == 2  # blocks compare by identity, not location


def _enclosing_by_all_pairs(lex) -> list[tuple]:
    """For each block `extract_blocks` keeps, in its order: the span, the index
    of its `{`, and the innermost enclosing method's name and body span
    `(first, stop)`, found as the block lookup did before the stack of open
    method bodies, by checking every brace pair."""
    stack, pairs = [], []
    for idx, t in enumerate(lex):
        if t.kind == "punct" and t.text == "{":
            stack.append(idx)
        elif t.kind == "punct" and t.text == "}" and stack:
            pairs.append((stack.pop(), idx))
    pairs.sort()
    headers = {o: _header_start(lex, o) for o, _ in pairs}
    names = {o: _method_name(lex, o, headers[o]) for o, _ in pairs}
    closes = dict(pairs)
    spans = {
        o: (lex.lines[headers[o]] if headers[o] < o else lex.lines[o], lex.lines[c])
        for o, c in pairs
    }
    rows = []
    for o, c in pairs:
        method_open = None
        if names[o] is not None:
            method_open = o
        else:
            for po, pc in pairs:
                if po < o and pc > c and names[po] is not None:
                    if method_open is None or po > method_open:
                        method_open = po
        if not any(t.kind != "punct" for t in lex[headers[o] : c + 1]):
            continue
        m = (None, None, None)
        if method_open is not None:
            m = (names[method_open], headers[method_open], closes[method_open] + 1)
        rows.append((*spans[o], o, *m))
    return rows


def _methods_file(n_methods: int) -> str:
    body = "".join(
        f"  int m{i}(int x) throws E {{\n"
        f"    if (x > {i}) {{ x = x - 1; }} else {{ x = x + 1; }}\n"
        f"    return x;\n  }}\n"
        for i in range(n_methods)
    )
    return "class Big {\n" + body + "}\n"


class TestEnclosingMethod:
    def test_matches_all_pairs_lookup_on_random_streams(self):
        pieces = ["{", "}", "(", ")", ";", "f", "g(x)", "new", "throws E", "x", ",",
                  ".", "int", "\n", "\n", "f() {", "if (x) {", "new R() {"]
        rng = random.Random(41)
        for _ in range(400):
            source = " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 120)))
            lex = scan(source)
            got = [
                (b.start_line, b.end_line, b.brace, b.enclosing_method_name,
                 *((b.method.first, b.method.stop) if b.method else (None, None)))
                for b in extract_blocks(lex, "A.java")
            ]
            assert got == _enclosing_by_all_pairs(lex), source

    def test_linear_in_brace_pairs(self):
        lex = scan(_methods_file(5000))
        assert lex.lines[-1] == 20002
        start = time.perf_counter()
        blocks = extract_blocks(lex, "Big.java")
        elapsed = time.perf_counter() - start
        assert len(blocks) == 3 * 5000 + 1
        assert blocks[-1].enclosing_method_name == "m4999"
        assert elapsed < 2.0, f"extract_blocks took {elapsed:.2f}s on 20,000 lines"


class BlockViews(NamedTuple):
    """What a block shows its readers, as `copying_extract_blocks` built it."""

    location: tuple  # (path, start line, end line)
    tokens: tuple
    raw_tokens: tuple
    token_bag: Counter
    size: int
    brace: int
    enclosing_method_name: str | None
    method_span: tuple[int, int] | None  # (first, stop) of the enclosing method's body


def _views(b: CodeBlock) -> BlockViews:
    return BlockViews(
        (b.path, b.start_line, b.end_line), tuple(b.tokens), tuple(b.raw_tokens), b.token_bag,
        b.size, b.brace,
        b.enclosing_method_name, (b.method.first, b.method.stop) if b.method else None,
    )


def copying_extract_blocks(lex, path, diagnostics=None) -> list[BlockViews]:
    """`extract_blocks` as it was before blocks were spans, kept as the oracle:
    each block copies its tokens, with and without punctuation, into tuples."""
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
                    diagnostics.append(f"{path}:{lex.lines[idx]}: unmatched closing brace")
                continue
            pairs.append((stack.pop(), idx))
    for idx in stack:
        if diagnostics is not None:
            diagnostics.append(f"{path}:{lex.lines[idx]}: unclosed brace")
    pairs.sort()

    headers = {o: _header_start(lex, o) for o, _ in pairs}
    names = {o: _method_name(lex, o, headers[o]) for o, _ in pairs}
    spans = {
        o: (lex.lines[headers[o]] if headers[o] < o else lex.lines[o], lex.lines[c])
        for o, c in pairs
    }
    blocks = []
    methods: list[tuple[int, int]] = []
    for o, c in pairs:
        while methods and methods[-1][1] < o:
            methods.pop()
        if names[o] is not None:
            methods.append((o, c))
        start, end = spans[o]
        toks = tuple(t for t in lex[headers[o] : c + 1] if t.kind != "punct")
        if not toks:
            continue
        if methods:
            m_open, m_close = methods[-1]
            m_name, m_span = names[m_open], (headers[m_open], m_close + 1)
        else:
            m_name = m_span = None
        blocks.append(BlockViews(
            (path, start, end), toks, tuple(lex[headers[o] : c + 1]),
            Counter(t.text for t in toks), len(toks), o, m_name, m_span,
        ))
    return blocks


def _nested_ifs(depth: int) -> str:
    """A method whose body holds *depth* nested `if` blocks; 14 tokens a level."""
    return (
        "class Deep {\n    int f(int x) {\n"
        + "        if (x > 0) { x = x + 1;\n" * depth
        + "        }\n" * depth
        + "    }\n}\n"
    )


NESTED_METHOD = (
    "int sum(int[] values) {\n"
    "    int total = 0;\n"
    "    if (values.length > 0) {\n"
    + "".join(f"        total = total + values[{i}];\n" for i in range(10))
    + "    }\n"
    "    return total;\n"
    "}\n"
)

_STATEMENTS = " ".join(f"total = total + values[{i}];" for i in range(8))
SIBLINGS = (
    "class A {\n"
    f"  int f(int[] values) {{ int total = 0;\n {_STATEMENTS}\n return total; }}"
    f" int g(int[] values) {{ int total = 0; {_STATEMENTS} return total; }}\n"
    "}\n"
)


class TestSpanExtractorOracle:
    @staticmethod
    def _check(source: str, path: str = "A.java") -> int:
        lex = scan(source)
        diags, expected_diags = [], []
        got = [_views(b) for b in extract_blocks(lex, path, diags)]
        assert got == copying_extract_blocks(lex, path, expected_diags), source
        assert diags == expected_diags
        return len(got)

    def test_every_blob_of_the_fixture_corpora(self):
        corpora = [fn() for fn in (*PLANTED.values(), *CONTROLS.values())]
        corpora.append(end_to_end_corpora())
        assert len(corpora) == 6
        blobs = {text for versions in corpora for version in versions for text in version.values()}
        assert sum(self._check(text) for text in sorted(blobs)) > 0

    def test_generated_nested_files(self):
        for depth in (1, 2, 7, 60, 250):
            assert self._check(_nested_ifs(depth), "Deep.java") == depth + 2
        assert self._check(_methods_file(40)) == 3 * 40 + 1
        assert self._check(NESTED_METHOD) == 2

    def test_one_line_file_with_many_methods(self):
        methods = " ".join(
            f"int m{i}(int x) {{ if (x > {i}) {{ x = x - 1; }} return x; }}" for i in range(30)
        )
        assert self._check(f"class One {{ {methods} }}") == 61
        assert self._check(SIBLINGS) == 3

    def test_unbalanced_braces(self):
        for source in ("void f() {\n  a();\n", "}\nvoid f() {\n  a();\n}\n",
                       "{ { a(); }", "} } { a(); } }", "if (x) { {\n} b(); }\n}"):
            self._check(source)
        pieces = ["{", "}", "(", ")", ";", "f", "g(x)", "new", "x", "int", "\n", "f() {"]
        rng = random.Random(43)
        for _ in range(300):
            self._check(" ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 120))))


def _peak(lex) -> int:
    """The tracemalloc peak of one `extract_blocks` call."""
    tracemalloc.start()
    try:
        blocks = extract_blocks(lex, "Deep.java")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == sum(1 for t in lex if t.text == "{")
    return peak


def test_deep_nesting_in_linear_time_and_memory():
    # blocks are spans whose sizes come from one running count, and whose bags
    # are counted only when read, so neither grows with depth x file size
    small, large = scan(_nested_ifs(250)), scan(_nested_ifs(1000))
    assert (len(small), len(large)) == (3512, 14012)  # the large file is 3.99x the small
    # the least of 15 calls each, taken in turns with the collector off, as timeit does
    best = [float("inf")] * 2
    gc.disable()
    try:
        for _ in range(15):
            for i, lex in enumerate((small, large)):
                start = time.perf_counter()
                extract_blocks(lex, "Deep.java")
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    small_peak, large_peak = _peak(small), _peak(large)
    # 4x the time and memory of the small file, with room for the timer's noise
    # and for the line and index ints above 256 that CPython does not share
    assert best[1] <= 4.5 * best[0], f"{best[1] / best[0]:.2f}x the time"
    assert large_peak <= 4.5 * small_peak, f"{large_peak / small_peak:.2f}x the memory"
    assert large_peak < 1_000_000


def _oracle_similarity(a: CodeBlock, b: CodeBlock) -> float:
    xs = sorted(t.text for t in a.tokens)
    ys = sorted(t.text for t in b.tokens)
    i = j = inter = 0
    while i < len(xs) and j < len(ys):
        if xs[i] == ys[j]:
            inter += 1
            i += 1
            j += 1
        elif xs[i] < ys[j]:
            i += 1
        else:
            j += 1
    return inter / max(len(xs), len(ys))


class TestSimilarity:
    def test_identical_blocks(self):
        a = span_block(["x"] * 10)
        assert similarity(a, a) == 1.0

    def test_disjoint_bags(self):
        assert similarity(span_block(["a", "b"]), span_block(["c", "d"])) == 0.0

    def test_three_quarters_overlap(self):
        a = span_block(["a", "b", "c", "d"])
        b = span_block(["a", "b", "c", "e"])
        assert similarity(a, b) == 0.75

    def test_multiset_not_set_semantics(self):
        a = span_block(["x", "x", "y"])
        b = span_block(["x", "y", "y"])
        assert similarity(a, b) == pytest.approx(2 / 3)

    def test_symmetric_and_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            a = span_block([rng.choice("abcdef") for _ in range(rng.randrange(1, 20))])
            b = span_block([rng.choice("abcdef") for _ in range(rng.randrange(1, 20))])
            assert similarity(a, b) == similarity(b, a)
            assert similarity(a, b) == pytest.approx(_oracle_similarity(a, b))


class TestOverlap:
    def test_matches_counter_intersection_on_random_bags(self):
        # the min-sum over the smaller bag against the Counter & it replaced
        rng = random.Random(17)
        for _ in range(500):
            a, b = (
                Counter(rng.choice("abcdefghij") for _ in range(rng.randrange(0, 40)))
                for _ in range(2)
            )
            size = max(sum(a.values()), sum(b.values()))
            expected = sum((a & b).values()) / size if size else 0.0
            assert overlap(a, b) == expected
            assert overlap(b, a) == expected


def _oracle_groups(blocks, min_tokens=30, min_lines=6, theta=0.8):
    qualified = [
        b for b in blocks if len(b.tokens) >= min_tokens or b.line_span >= min_lines
    ]
    adjacency = {b: set() for b in qualified}
    for i, a in enumerate(qualified):
        for b in qualified[i + 1 :]:
            if _oracle_similarity(a, b) >= theta:
                adjacency[a].add(b)
                adjacency[b].add(a)
    seen: set = set()
    components = []
    for b in qualified:
        if b in seen:
            continue
        stack, comp = [b], set()
        while stack:
            k = stack.pop()
            if k in comp:
                continue
            comp.add(k)
            stack.extend(adjacency[k])
        seen |= comp
        if len(comp) >= 2:
            components.append(frozenset(comp))
    return set(components)


def _random_corpus(rng: random.Random, n_blocks: int) -> list[CodeBlock]:
    """Non-overlapping random blocks; shared vocabulary drives near-threshold sims."""
    vocab = [f"tok{i}" for i in range(12)]
    blocks = []
    for i in range(n_blocks):
        size = rng.randrange(20, 45)
        span = rng.choice([4, 5, 6, 8, 10])
        texts = [rng.choice(vocab) for _ in range(size)]
        blocks.append(
            span_block(texts, path=f"f{i % 7}.java", start=1 + 100 * i, span=span)
        )
    return blocks


class TestDetectClones:
    def test_identical_pair_above_thresholds(self):
        a = span_block([f"t{i}" for i in range(40)], start=1, span=8)
        b = span_block([f"t{i}" for i in range(40)], start=101, span=8)
        groups = detect_clones([a, b])
        assert len(groups) == 1
        assert set(groups[0].members) == {a, b}

    def test_small_pair_excluded_by_thresholds(self):
        a = span_block([f"t{i}" for i in range(20)], start=1, span=4)
        b = span_block([f"t{i}" for i in range(20)], start=101, span=4)
        assert detect_clones([a, b]) == []

    def test_disjunctive_thresholds(self):
        # 20 tokens but 6 lines: qualifies via the line arm
        a = span_block([f"t{i}" for i in range(20)], start=1, span=6)
        b = span_block([f"t{i}" for i in range(20)], start=101, span=6)
        assert len(detect_clones([a, b])) == 1
        assert detect_clones([a, b], conjunctive=True) == []

    def test_transitive_grouping(self):
        w = [f"w{i}" for i in range(100)]
        bs = [f"b{i}" for i in range(15)]
        cs = [f"c{i}" for i in range(18)]
        a = span_block(w, start=1)
        b = span_block(w[:85] + bs, start=101)
        c = span_block(w[:70] + bs[:12] + cs, start=201)
        assert similarity(a, b) == 0.85
        assert similarity(b, c) == 0.82
        assert similarity(a, c) == 0.70
        groups = detect_clones([a, b, c])
        assert len(groups) == 1
        assert set(groups[0].members) == {a, b, c}

    def test_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            corpus = _random_corpus(rng, 60)
            got = {frozenset(g.members) for g in detect_clones(corpus)}
            assert got == _oracle_groups(corpus)

    def test_invariant_under_input_reordering(self):
        rng = random.Random(23)
        corpus = _random_corpus(rng, 40)
        baseline = detect_clones(corpus)
        for _ in range(5):
            shuffled = corpus[:]
            rng.shuffle(shuffled)
            groups = detect_clones(shuffled)
            assert [g.group_id for g in groups] == [g.group_id for g in baseline]
            assert [g.members for g in groups] == [g.members for g in baseline]

    def test_no_member_violates_threshold_disjunction(self):
        rng = random.Random(29)
        corpus = _random_corpus(rng, 80)
        for g in detect_clones(corpus):
            for m in g.members:
                assert len(m.tokens) >= 30 or m.line_span >= 6

    def test_nested_block_suppressed(self):
        outer, inner = extract_blocks(scan(NESTED_METHOD), "A.java")
        other, other_inner = extract_blocks(scan(NESTED_METHOD), "B.java")
        assert outer.contains(inner) and not inner.contains(outer)
        assert not outer.contains(other_inner)
        assert similarity(outer, inner) >= 0.8  # the inner block joins the group
        groups = detect_clones([outer, inner, other, other_inner])
        assert len(groups) == 1
        assert set(groups[0].members) == {outer, other}

    def test_method_starting_on_its_clones_last_line_is_kept(self):
        # g starts on the line where f ends; neither span holds the other
        blocks = extract_blocks(scan(SIBLINGS), "A.java")
        f, g = blocks[1:]
        assert [(b.start_line, b.end_line) for b in (f, g)] == [(2, 4), (4, 4)]
        groups = detect_clones(blocks)
        assert [group.members for group in groups] == [(f, g)]

    def test_one_blob_at_two_paths_is_a_pair(self):
        # both paths' blocks are spans over the one token list of their blob
        lex = scan(NESTED_METHOD)
        a, b = extract_blocks(lex, "A.java"), extract_blocks(lex, "B.java")
        assert a[0].lex is b[0].lex
        groups = detect_clones(a + b)
        assert [g.members for g in groups] == [(a[0], b[0])]

    def test_groups_on_one_line_have_their_own_ids(self):
        # every block of a one-line class spans line 1, so only the `{` tells them apart
        pair = ("int f{0}(int x) {{ int y = x * 2; return y + x; }}",
                "int g{0}(int[] v) {{ for (int i : v) {{ use(i, v); }} return 0; }}")
        members = " ".join(template.format(n) for n in range(2) for template in pair)
        groups = detect_clones(extract_blocks(scan(f"class A {{ {members} }}"), "A.java"),
                               min_tokens=8, min_lines=2)
        assert [[m.enclosing_method_name for m in g.members] for g in groups] == [
            ["f0", "f1"], ["g0", "g1"]
        ]
        assert len({g.group_id for g in groups}) == 2

    def test_group_ids_stable_across_runs(self):
        corpus = _random_corpus(random.Random(31), 30)
        first = [g.group_id for g in detect_clones(corpus)]
        second = [g.group_id for g in detect_clones(corpus)]
        assert first == second


def all_pairs_detect_clones(
    blocks, min_tokens=30, min_lines=6, theta=0.8, version=0, conjunctive=False
):
    """`detect_clones` as it was before the prefix-filtered index, kept as the
    oracle: every pair of qualified blocks that passes the size filter is
    checked. Returns the groups and the block pairs found at or above theta."""
    if conjunctive:
        qualified = [b for b in blocks if len(b.tokens) >= min_tokens and b.line_span >= min_lines]
    else:
        qualified = [b for b in blocks if len(b.tokens) >= min_tokens or b.line_span >= min_lines]
    qualified.sort(key=lambda b: (b.path, b.brace))

    parent = list(range(len(qualified)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sizes = [len(b.tokens) for b in qualified]
    edges = set()
    for i in range(len(qualified)):
        size_i = sizes[i]
        for j in range(i + 1, len(qualified)):
            size_j = sizes[j]
            if min(size_i, size_j) < theta * max(size_i, size_j):
                continue
            if similarity(qualified[i], qualified[j]) >= theta:
                parent[find(i)] = find(j)
                edges.add(frozenset((qualified[i], qualified[j])))

    components: dict[int, list[CodeBlock]] = {}
    for i, block in enumerate(qualified):
        components.setdefault(find(i), []).append(block)

    groups = []
    for members in components.values():
        members = _drop_nested(members)
        if len(members) < 2:
            continue
        members.sort(key=lambda b: (b.path, b.brace))
        digest = hashlib.sha1(
            "|".join([str(version)] + [f"{b.path}:{b.brace}" for b in members]).encode()
        ).hexdigest()[:12]
        groups.append(CloneGroup(version=version, members=tuple(members), group_id=digest))
    groups.sort(key=lambda g: (g.members[0].path, g.members[0].brace))
    return groups, edges


def _hit_pairs(monkeypatch, blocks, **kwargs) -> tuple[list[CloneGroup], set]:
    """Groups of `detect_clones` and the block pairs it confirmed at theta
    through `similarity`; a nested pair is confirmed by its sizes instead."""
    theta, hits = kwargs["theta"], set()

    def recording(a, b):
        value = overlap(a.token_bag, b.token_bag)
        if value >= theta:
            hits.add(frozenset((a, b)))
        return value

    monkeypatch.setattr(clone_detector, "similarity", recording)
    return detect_clones(blocks, **kwargs), hits


def _family_corpus(rng: random.Random, n_blocks: int) -> list[CodeBlock]:
    """Blocks drawn as edited copies of a few base bags over a vocabulary of 3 to
    300 tokens, some with one token repeated dozens of times, sized 1 to 200,
    with line ranges that overlap inside a file; about one in five is a span
    inside an earlier block's token list."""
    vocab = [f"v{i}" for i in range(rng.randrange(3, 301))]
    bases = []
    for _ in range(rng.randrange(1, 8)):
        texts = [rng.choice(vocab) for _ in range(rng.choice([1, 2, 5, 20, 60, 200]))]
        if rng.random() < 0.4:
            texts += [vocab[0]] * rng.randrange(12, 60)
        bases.append(texts)
    blocks = []
    for i in range(n_blocks):
        texts = list(rng.choice(bases))
        for _ in range(rng.choice([0, 0, 1, 2, 4, 10])):
            edit = rng.random()
            if edit < 0.4 and len(texts) > 1:
                texts.pop(rng.randrange(len(texts)))
            elif edit < 0.7:
                texts.append(rng.choice(vocab))
            else:
                texts[rng.randrange(len(texts))] = rng.choice(vocab)
        rng.shuffle(texts)
        block = span_block(
            texts[:200], path=f"f{i % 3}.java", start=1 + 4 * i, span=rng.randrange(1, 14)
        )
        if i >= 3 and rng.random() < 0.2:  # nested in the file's block before
            outer = blocks[i - 3]
            first = rng.randrange(outer.first, outer.stop)
            stop = rng.randrange(first + 1, outer.stop + 1)
            block = CodeBlock(
                block.path,
                block.start_line,
                block.end_line,
                lex=outer.lex,
                first=first,
                brace=block.brace,
                stop=stop,
                size=stop - first,
            )
            assert outer.contains(block)
        blocks.append(block)
    return blocks


def _nested(a: CodeBlock, b: CodeBlock) -> bool:
    return a.contains(b) or b.contains(a)


class TestFilteredDetectorOracle:
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("conjunctive", [False, True])
    def test_matches_all_pairs_detector(self, monkeypatch, theta, conjunctive):
        rng = random.Random(int(theta * 10) + 100 * conjunctive)
        found = nested = 0
        for _ in range(12):
            corpus = _family_corpus(rng, rng.randrange(2, 90))
            kwargs = dict(
                min_tokens=rng.choice([1, 5, 30]),
                min_lines=rng.choice([1, 4, 6]),
                theta=theta,
                conjunctive=conjunctive,
                version=rng.randrange(5),
            )
            expected, edges = all_pairs_detect_clones(corpus, **kwargs)
            groups, hits = _hit_pairs(monkeypatch, corpus, **kwargs)
            nested_edges = {e for e in edges if _nested(*e)}
            assert hits == edges - nested_edges
            assert [(g.group_id, g.members) for g in groups] == [
                (g.group_id, g.members) for g in expected
            ]
            for i, a in enumerate(corpus):
                for b in corpus[i + 1 :]:
                    if _nested(a, b):
                        low, high = sorted((a.size, b.size))
                        assert low / high == similarity(a, b)
                        nested += 1
            found += len(groups)
        assert found > 0 and nested > 0

    @pytest.mark.parametrize("depth", [50, 200, 600])
    def test_deep_nesting_matches_all_pairs_detector(self, depth):
        varied = min(depth, 60)  # a literal of its own on each level, so bags are wide
        files = {
            "Deep.java": _nested_ifs(depth),
            "Copy.java": _nested_ifs(depth),
            "Varied.java": "".join(
                line.replace("x + 1;", f"x + {i};")
                for i, line in enumerate(_nested_ifs(varied).splitlines(True))
            ),
            "Other.java": _nested_ifs(varied),
        }
        blocks = [b for path, text in files.items() for b in extract_blocks(scan(text), path)]
        assert len(blocks) == 2 * (depth + 2) + 2 * (varied + 2)
        expected, _ = all_pairs_detect_clones(blocks, version=depth)
        groups = detect_clones(blocks, version=depth)
        assert [(g.group_id, g.members) for g in groups] == [
            (g.group_id, g.members) for g in expected
        ]
        assert groups

    def test_pair_sharing_only_the_most_frequent_token(self):
        # "hot" is in every block, so it sorts last; the pair shares nothing else
        others = [span_block(["hot", f"u{i}", f"w{i}"], path="B.java", start=1 + 10 * i)
                  for i in range(20)]
        a = span_block(["hot"] * 9 + ["a"], path="A.java", start=1)
        b = span_block(["hot"] * 9 + ["b"], path="A.java", start=101)
        assert similarity(a, b) == 0.9
        groups = detect_clones([a, b, *others], min_tokens=1, min_lines=1, theta=0.9)
        assert [g.members for g in groups] == [(a, b)]


class TestDetectThresholdBoundaries:
    @staticmethod
    def _grouped(a_texts, b_texts, theta) -> bool:
        a = span_block(a_texts, start=1)
        b = span_block(b_texts, start=101)
        return len(detect_clones([a, b], theta=theta)) == 1

    def test_shared_count_at_theta_0_8(self):
        base = [f"t{i}" for i in range(30)]
        assert 24 / 30 >= 0.8 and 23 / 30 < 0.8
        assert self._grouped(base, base[:24] + [f"x{i}" for i in range(6)], 0.8)
        assert not self._grouped(base, base[:23] + [f"x{i}" for i in range(7)], 0.8)
        assert self._grouped(base[:5], base[:4] + ["x"], 0.8)

    def test_shared_count_below_a_rounded_up_bound(self):
        # 0.28 * 25 rounds up past 7, yet 7 shared of 25 passes; the shared
        # tokens sort after the 18 each block holds alone
        assert 0.28 * 25 > 7 and 7 / 25 >= 0.28
        shared = [f"s{i}" for i in range(7)]
        a = [f"a{i}" for i in range(18)] + shared
        b = [f"b{i}" for i in range(18)] + shared
        assert self._grouped(a, b, 0.28)

    def test_identical_bags_only_at_theta_1(self):
        bag = ["a", "a", "a", "b", "c"]
        assert self._grouped(bag, list(reversed(bag)), 1.0)
        assert not self._grouped(bag, bag + ["c"], 1.0)
        assert not self._grouped(bag, ["a", "a", "b", "b", "c"], 1.0)

    def test_one_token_twin_at_theta_0_3(self):
        assert self._grouped(["x"], ["x"], 0.3)
        assert not self._grouped(["x"], ["y"], 0.3)


def test_builtin_sha1_names_groups_as_hashlib_does():
    for text in ("0|A.java:1-8|B.java:101-108", "12|p/é.java:3-40", ""):
        data = text.encode()
        assert _sha1.sha1(data).hexdigest() == hashlib.sha1(data).hexdigest()


class TestInvokedNames:
    def test_counts_call_sites(self):
        raw = tuple(scan("a(); b.c(1); d = e;"))
        calls = invoked_names(raw)
        assert calls == Counter({"a": 1, "c": 1})
