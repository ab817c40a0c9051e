"""R/NR labeling: the three step criteria and the planted-refactoring fixtures."""

from __future__ import annotations

from collections import Counter

import pytest

from clone_fixtures import CONTROLS, PLANTED
from conftest import span_block
from crec.clone_detector import detect_clones, extract_blocks, overlap, scan
from crec.genealogy import CloneLink, build_genealogies
from crec.labeler import (
    LabelContext,
    label_lineage,
    method_body_tokens,
    new_invocations,
    reduced_clones,
    sweep,
)


def _link(src_texts, dst_texts, path="A.java"):
    return CloneLink(
        span_block(src_texts, path=path, start=1),
        span_block(dst_texts, path=path, start=1),
        score=1.0,
    )


class TestReducedClones:
    def test_unchanged_clones_give_empty(self):
        links = [_link(["a"] * 10, ["a"] * 10), _link(["b"] * 10, ["b"] * 10)]
        assert reduced_clones(links) == []

    def test_two_of_three_shrink(self):
        links = [
            _link(["a"] * 60, ["a"] * 30),
            _link(["b"] * 60, ["b"] * 30, path="B.java"),
            _link(["c"] * 60, ["c"] * 60, path="C.java"),
        ]
        shrunk = reduced_clones(links)
        assert len(shrunk) == 2
        assert all(len(l.target.tokens) < len(l.source.tokens) for l in shrunk)

    def test_single_shrinker_insufficient(self):
        links = [
            _link(["a"] * 60, ["a"] * 30),
            _link(["b"] * 60, ["b"] * 60, path="B.java"),
        ]
        assert reduced_clones(links) == []


def _source_pair(before_call: str, after_call: str):
    before = f"void f(int a) {{\n    int b = a;\n    {before_call}\n}}\n"
    after = f"void f(int a) {{\n    int b = a;\n    {after_call}\n}}\n"
    return before, after


def _raw_link(before: str, after: str, path="A.java"):
    src = extract_blocks(scan(before), path)[0]
    dst = extract_blocks(scan(after), path)[0]
    return CloneLink(src, dst, score=1.0)


def _candidate(name="extracted", path="Helper.java"):
    """The body block of a method *name* declared in *path*."""
    (method,) = extract_blocks(scan(f"\n\nvoid {name}(int a) {{\n    int b = a;\n    b++;\n}}\n"), path)
    return method


class TestNewInvocations:
    def test_two_clones_adding_same_call(self):
        b1, a1 = _source_pair("use(b);", "extracted(b);")
        b2, a2 = _source_pair("use(b);", "extracted(b);")
        links = [_raw_link(b1, a1, "X.java"), _raw_link(b2, a2, "Y.java")]
        cand = _candidate()
        result = new_invocations(links, {"extracted": [cand]})
        assert [(method, len(calling)) for method, calling in result] == [(cand, 2)]

    def test_no_new_calls(self):
        b1, a1 = _source_pair("use(b);", "use(b);")
        b2, a2 = _source_pair("use(b);", "use(b);")
        links = [_raw_link(b1, a1, "X.java"), _raw_link(b2, a2, "Y.java")]
        assert new_invocations(links, {"extracted": [_candidate()]}) == []

    def test_calls_to_different_methods_disqualified(self):
        b1, a1 = _source_pair("use(b);", "first(b);")
        b2, a2 = _source_pair("use(b);", "second(b);")
        links = [_raw_link(b1, a1, "X.java"), _raw_link(b2, a2, "Y.java")]
        methods = {"first": [_candidate("first")], "second": [_candidate("second")]}
        assert new_invocations(links, methods) == []

    def test_unresolvable_name_disqualified(self):
        b1, a1 = _source_pair("use(b);", "ghost(b);")
        b2, a2 = _source_pair("use(b);", "ghost(b);")
        links = [_raw_link(b1, a1, "X.java"), _raw_link(b2, a2, "Y.java")]
        assert new_invocations(links, {}) == []


class TestRemovedCodeSimilarity:
    def test_identical_multisets(self):
        bag = Counter({"a": 3, "b": 2})
        assert overlap(bag, Counter(bag)) == 1.0

    def test_disjoint(self):
        assert overlap(Counter({"a": 5}), Counter({"b": 5})) == 0.0

    def test_empty_side_is_zero(self):
        assert overlap(Counter(), Counter({"a": 1})) == 0.0

    def test_point_four_boundary(self):
        removed = Counter({f"shared{i}": 1 for i in range(10)})
        removed.update({f"gone{i}": 1 for i in range(10)})  # 20 total
        body = Counter({f"shared{i}": 1 for i in range(10)})
        body.update({f"fresh{i}": 1 for i in range(15)})  # 25 total
        assert overlap(removed, body) == 0.4


def _pipeline(corpora):
    per_version = []
    for v, corpus in enumerate(corpora):
        blocks = [b for p in sorted(corpus) for b in extract_blocks(scan(corpus[p]), p)]
        per_version.append(detect_clones(blocks, version=v))
    lineages = build_genealogies(per_version)
    return lineages, LabelContext(
        lambda v: [b for p in sorted(corpora[v]) for b in extract_blocks(scan(corpora[v][p]), p)]
    )


def _planted_lineage(lineages):
    spanning = [lin for lin in lineages if len(lin.groups) == 2]
    assert len(spanning) == 1
    return spanning[0]


class TestLabelLineage:
    def test_exact_extraction_labeled_r(self):
        lineages, ctx = _pipeline(PLANTED["exact"]())
        decision = label_lineage(_planted_lineage(lineages), ctx, 0.4)
        assert decision.label == "R"
        assert decision.step_version == 0
        assert decision.evidence["method"] == "applyScaling"
        assert len(decision.evidence["clones"]) == 2
        assert all(c["similarity"] >= 0.4 for c in decision.evidence["clones"])

    def test_unchanging_lineage_labeled_nr(self):
        corpus = PLANTED["exact"]()[0]
        lineages, ctx = _pipeline([corpus, corpus])
        for lin in lineages:
            assert label_lineage(lin, ctx, 0.4).label == "NR"

    def test_dissimilar_helper_body_labeled_nr(self):
        lineages, ctx = _pipeline(CONTROLS["noisy"]())
        decision = label_lineage(_planted_lineage(lineages), ctx, 0.4)
        assert decision.label == "NR"
        assert decision.evidence is None

    def test_consistent_shrink_without_call_labeled_nr(self):
        lineages, ctx = _pipeline(CONTROLS["steady"]())
        decision = label_lineage(_planted_lineage(lineages), ctx, 0.4)
        assert decision.label == "NR"

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("exact", {0.3: "R", 0.4: "R", 0.5: "R"}),
            ("partial", {0.3: "R", 0.4: "R", 0.5: "R"}),
            ("loose", {0.3: "R", 0.4: "R", 0.5: "NR"}),
        ],
    )
    def test_planted_labels_per_threshold(self, name, expected):
        lineages, ctx = _pipeline(PLANTED[name]())
        lin = _planted_lineage(lineages)
        for th, label in expected.items():
            assert label_lineage(lin, ctx, th).label == label

    def test_threshold_monotonicity(self):
        for fn in (*PLANTED.values(), *CONTROLS.values()):
            lineages, ctx = _pipeline(fn())
            r_sets = []
            for th in (0.3, 0.4, 0.5):
                r_sets.append(
                    {
                        lin.lineage_id
                        for lin in lineages
                        if label_lineage(lin, ctx, th).label == "R"
                    }
                )
            assert r_sets[0] >= r_sets[1] >= r_sets[2]

    def test_decisions_deterministic(self):
        lineages, ctx = _pipeline(PLANTED["partial"]())
        first = [label_lineage(lin, ctx, 0.4) for lin in lineages]
        second = [label_lineage(lin, ctx, 0.4) for lin in lineages]
        assert first == second

    def test_evidence_rederivable_from_corpus(self):
        corpora = PLANTED["exact"]()
        lineages, ctx = _pipeline(corpora)
        decision = label_lineage(_planted_lineage(lineages), ctx, 0.4)
        ev = decision.evidence
        helper_path = ev["method_path"]
        helper_block = next(
            b
            for b in extract_blocks(scan(corpora[1][helper_path]), helper_path)
            if b.enclosing_method_name == ev["method"]
            and b.start_line == ev["method_lines"][0]
        )
        body = method_body_tokens(helper_block)
        lin = _planted_lineage(lineages)
        links_by_path = {l.source.path: l for l in lin.links[0]}
        for clone in ev["clones"]:
            link = links_by_path[clone["path"]]
            removed = link.source.token_bag - link.target.token_bag
            assert overlap(removed, body) == clone["similarity"]


class TestRepositoryContext:
    def test_methods_resolved_from_git_history(self, make_repo):
        from clone_fixtures import commit_corpora
        from crec.pipeline import VersionData
        from crec.repo_miner import Repository, sample_versions

        rb = make_repo()
        commit_corpora(rb, PLANTED["exact"]())
        with Repository(rb.path) as repo:
            samples = sample_versions(repo.commits(), delta_threshold=1)
            ctx = LabelContext(VersionData(repo, samples).blocks)
            methods = ctx.methods_at(1)
            assert "applyScaling" in methods
            assert methods["applyScaling"][0].path == "src/exact/Alpha.java"
            assert "applyScaling" not in ctx.methods_at(0)


def _methods_of(source: str) -> dict:
    blocks = extract_blocks(scan(source), "A.java")
    return LabelContext(lambda version: blocks).methods_at(0)


class TestMethodBodies:
    """A method body is the block `extract_blocks` made for the method, even
    when other blocks share its line or its header holds braces."""

    def test_one_body_for_a_method_with_a_block_on_its_line(self):
        methods = _methods_of("class A {\n  void helper() { if (x) { y(); } z(); }\n}\n")
        assert list(methods) == ["helper"]
        (body,) = methods["helper"]
        assert body.tokens[0].text == "void"
        assert method_body_tokens(body) == Counter(["if", "x", "y", "z"])

    def test_body_tokens_skip_braces_of_the_header(self):
        source = (
            "class A {\n"
            "    int total;\n"
            '    @SuppressWarnings({"unchecked", "rawtypes"})\n'
            "    void add(int k) {\n"
            "        total = total + k;\n"
            "    }\n"
            "}\n"
        )
        (body,) = _methods_of(source)["add"]
        assert body.tokens[0].text == "SuppressWarnings"  # the header holds the annotation
        assert method_body_tokens(body) == Counter({"total": 2, "k": 1})

    def test_overloads_on_one_line_are_two_bodies(self):
        methods = _methods_of(
            "class C {\n  void run() { { p(); q(); } } void run(int i) { { p(); q(); } }\n}\n"
        )
        assert [body.size for body in methods["run"]] == [4, 6]  # void run p q, and int i

    def test_one_line_file_of_2000_methods(self):
        source = "class G { " + " ".join(
            f"void m{i}(int x) {{ if (x > {i}) {{ x = x - 1; }} }}" for i in range(2000)
        ) + " }"
        methods = _methods_of(source)
        assert sorted(methods) == sorted(f"m{i}" for i in range(2000))
        assert sum(map(len, methods.values())) == 2000
        for name, (body,) in methods.items():
            assert body.method is body and body.tokens[1].text == name


class TestSweep:
    def test_counts_non_increasing_over_combined_corpora(self):
        counts = Counter()
        for fn in (*PLANTED.values(), *CONTROLS.values()):
            lineages, ctx = _pipeline(fn())
            for th, n in sweep(lineages, ctx, [0.3, 0.4, 0.5]):
                counts[th] += n
        assert counts[0.3] >= counts[0.4] >= counts[0.5]
        assert counts[0.4] == 3  # the three planted refactorings
        assert counts[0.5] == 2  # the loose one drops out
