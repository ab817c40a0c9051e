"""Lexer, block extraction, similarity, and clone grouping."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from crec.clone_detector import (
    CodeBlock,
    Token,
    detect_clones,
    extract_blocks,
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
        assert tokens[-1].line == 4

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
        assert loop.enclosing_method_line_count == 11
        assert loop.tokens[0].text == "for"

    def test_empty_file(self):
        assert extract_blocks(scan(""), "A.java") == []

    def test_class_body_without_methods(self):
        blocks = extract_blocks(scan("class Holder {\n    int x;\n    int y;\n}\n"), "A.java")
        assert len(blocks) == 1
        assert blocks[0].enclosing_method_name is None
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


def _block(texts, path="A.java", start=1, span=8) -> CodeBlock:
    tokens = tuple(Token("identifier", t, start) for t in texts)
    return CodeBlock(
        path=path,
        start_line=start,
        end_line=start + span - 1,
        tokens=tokens,
        token_bag=Counter(texts),
        raw_tokens=tokens,
    )


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
        a = _block(["x"] * 10)
        assert similarity(a, a) == 1.0

    def test_disjoint_bags(self):
        assert similarity(_block(["a", "b"]), _block(["c", "d"])) == 0.0

    def test_three_quarters_overlap(self):
        a = _block(["a", "b", "c", "d"])
        b = _block(["a", "b", "c", "e"])
        assert similarity(a, b) == 0.75

    def test_multiset_not_set_semantics(self):
        a = _block(["x", "x", "y"])
        b = _block(["x", "y", "y"])
        assert similarity(a, b) == pytest.approx(2 / 3)

    def test_symmetric_and_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            a = _block([rng.choice("abcdef") for _ in range(rng.randrange(1, 20))])
            b = _block([rng.choice("abcdef") for _ in range(rng.randrange(1, 20))])
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
    adjacency = {b.key: set() for b in qualified}
    for i, a in enumerate(qualified):
        for b in qualified[i + 1 :]:
            if _oracle_similarity(a, b) >= theta:
                adjacency[a.key].add(b.key)
                adjacency[b.key].add(a.key)
    seen: set = set()
    components = []
    for b in qualified:
        if b.key in seen:
            continue
        stack, comp = [b.key], set()
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
            _block(texts, path=f"f{i % 7}.java", start=1 + 100 * i, span=span)
        )
    return blocks


class TestDetectClones:
    def test_identical_pair_above_thresholds(self):
        a = _block([f"t{i}" for i in range(40)], start=1, span=8)
        b = _block([f"t{i}" for i in range(40)], start=101, span=8)
        groups = detect_clones([a, b])
        assert len(groups) == 1
        assert {m.key for m in groups[0].members} == {a.key, b.key}

    def test_small_pair_excluded_by_thresholds(self):
        a = _block([f"t{i}" for i in range(20)], start=1, span=4)
        b = _block([f"t{i}" for i in range(20)], start=101, span=4)
        assert detect_clones([a, b]) == []

    def test_disjunctive_thresholds(self):
        # 20 tokens but 6 lines: qualifies via the line arm
        a = _block([f"t{i}" for i in range(20)], start=1, span=6)
        b = _block([f"t{i}" for i in range(20)], start=101, span=6)
        assert len(detect_clones([a, b])) == 1
        assert detect_clones([a, b], conjunctive=True) == []

    def test_transitive_grouping(self):
        w = [f"w{i}" for i in range(100)]
        bs = [f"b{i}" for i in range(15)]
        cs = [f"c{i}" for i in range(18)]
        a = _block(w, start=1)
        b = _block(w[:85] + bs, start=101)
        c = _block(w[:70] + bs[:12] + cs, start=201)
        assert similarity(a, b) == 0.85
        assert similarity(b, c) == 0.82
        assert similarity(a, c) == 0.70
        groups = detect_clones([a, b, c])
        assert len(groups) == 1
        assert {m.key for m in groups[0].members} == {a.key, b.key, c.key}

    def test_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            corpus = _random_corpus(rng, 60)
            got = {
                frozenset(m.key for m in g.members) for g in detect_clones(corpus)
            }
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
            assert [[m.key for m in g.members] for g in groups] == [
                [m.key for m in g.members] for g in baseline
            ]

    def test_no_member_violates_threshold_disjunction(self):
        rng = random.Random(29)
        corpus = _random_corpus(rng, 80)
        for g in detect_clones(corpus):
            for m in g.members:
                assert len(m.tokens) >= 30 or m.line_span >= 6

    def test_nested_block_suppressed(self):
        texts = [f"t{i}" for i in range(40)]
        outer = _block(texts, path="A.java", start=10, span=12)
        inner = _block(texts, path="A.java", start=12, span=8)
        other = _block(texts, path="B.java", start=1, span=12)
        groups = detect_clones([outer, inner, other])
        assert len(groups) == 1
        assert {m.key for m in groups[0].members} == {outer.key, other.key}

    def test_group_ids_stable_across_runs(self):
        corpus = _random_corpus(random.Random(31), 30)
        first = [g.group_id for g in detect_clones(corpus)]
        second = [g.group_id for g in detect_clones(corpus)]
        assert first == second


class TestInvokedNames:
    def test_counts_call_sites(self):
        raw = tuple(scan("a(); b.c(1); d = e;"))
        calls = invoked_names(raw)
        assert calls == Counter({"a": 1, "c": 1})
