"""Pipeline integration over a three-version repository: multi-step lineages,
earliest-step labeling, pre-refactoring feature vectors, stale-artifact guards."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest

from clone_fixtures import (
    CONTROLS,
    EXACT_HELPER,
    PLANTED,
    PERSISTENT_PAIR,
    _base_version,
    _file,
    _filler,
    _refactored_version,
    commit_corpora,
    end_to_end_corpora,
)
from conftest import feature_row
from crec import artifacts, pipeline
from crec.cli import main
from crec.clone_detector import extract_blocks, scan
from crec.config import ALGORITHMS, PipelineConfig
from crec.errors import MissingInput
from crec.genealogy import build_genealogies
from crec.labeler import LabelContext
from crec.repo_miner import Repository, SampledVersion


def _three_version_corpora() -> list[dict[str, str]]:
    v0 = {**_base_version("exact"), **PERSISTENT_PAIR}
    # v1: a one-token interior edit to the Gamma clone only (same token count)
    gamma_v0 = v0["src/exact/Gamma.java"]
    v1 = dict(v0)
    v1["src/exact/Gamma.java"] = gamma_v0.replace("int scale = 1;", "int scale = 7;")
    # v2: Alpha and Beta are refactored; Gamma keeps its v1 shape
    v2 = {**_refactored_version("exact", EXACT_HELPER), **PERSISTENT_PAIR}
    v2["src/exact/Gamma.java"] = v1["src/exact/Gamma.java"]
    return [v0, v1, v2]


@pytest.fixture
def staged(make_repo, tmp_path):
    rb = make_repo("threever")
    commit_corpora(rb, _three_version_corpora())
    out = tmp_path / "out"
    config = PipelineConfig(delta_threshold=1)
    pipeline.stage_mine(config, rb.path, out)
    pipeline.stage_detect(config, rb.path, out)
    pipeline.stage_genealogy(config, rb.path, out)
    pipeline.stage_label(config, rb.path, out)
    pipeline.stage_featurize(config, rb.path, out)
    return config, rb.path, out


class TestThreeVersionLineage:
    def test_lineage_spans_all_versions(self, staged):
        _, _, out = staged
        records = artifacts.read_lineages(out / "lineages.txt")
        spans = {rec.lineage_id: [v for v, _ in rec.groups] for rec in records}
        assert [0, 1, 2] in spans.values()  # the render-clone lineage
        assert all(spans[lid][0] in (0,) for lid in spans)

    def test_refactoring_found_at_middle_step(self, staged):
        _, _, out = staged
        decisions = artifacts.read_labels(out / "labels.txt")
        r = [d for d in decisions if d.label == "R"]
        assert len(r) == 1
        assert r[0].step_version == 1  # the v1 -> v2 transition, not v0 -> v1
        assert r[0].evidence["method"] == "applyScaling"

    def test_features_taken_at_pre_refactoring_version(self, staged):
        _, _, out = staged
        decisions = {d.lineage_id: d for d in artifacts.read_labels(out / "labels.txt")}
        rows = {r.lineage_id: r for r in artifacts.read_features(out / "features.csv")}
        r_id = next(lid for lid, d in decisions.items() if d.label == "R")
        nr_id = next(lid for lid, d in decisions.items() if d.label == "NR")
        assert rows[r_id].version == 1
        assert rows[nr_id].version == 2  # NR lineages use their latest version

    def test_cochange_step_counts_shrunken_members(self, staged):
        _, _, out = staged
        decisions = {d.lineage_id: d for d in artifacts.read_labels(out / "labels.txt")}
        rows = {r.lineage_id: r for r in artifacts.read_features(out / "features.csv")}
        r_id = next(lid for lid, d in decisions.items() if d.label == "R")
        values = rows[r_id].values
        # window falls back to the last 2 samples -> single step v1 -> v2,
        # where exactly the two refactored members change
        assert values[32] == 1.0  # F33: 2-member-change fraction
        assert values[29] == 0.0 and values[30] == 0.0  # F30, F31
        # F13 (file-change ratio) averages 1, 1, 0 over the three members
        assert values[12] == pytest.approx(2 / 3)

    def test_recommendations_only_consider_final_version(self, staged):
        config, _, out = staged
        pipeline.stage_train(config, out)
        pipeline.stage_recommend(config, out)
        lines = (out / "recommendations.csv").read_text().splitlines()
        assert lines[1] == "group_id,likelihood"
        records = artifacts.read_lineages(out / "lineages.txt")
        final_groups = {dict(rec.groups).get(2) for rec in records}
        for line in lines[2:]:
            assert line.split(",")[0] in final_groups


class TestStaleArtifactGuards:
    def test_out_of_range_version_rejected(self, staged, tmp_path):
        config, repo_path, out = staged
        samples = artifacts.read_samples(out / "samples.txt")
        records = artifacts.read_groups(out / "clones.txt")
        vdata = pipeline.VersionData(Repository(repo_path), samples)
        bad = [
            artifacts.GroupRecord(99, rec.group_id, rec.members) for rec in records
        ]
        stale = "outside the sample list; clones file is stale (re-run detect)"
        with pytest.raises(MissingInput, match=re.escape(f"references version 99 {stale}")):
            pipeline.materialize_groups(vdata, bad)

    def test_moved_block_rejected(self, staged):
        config, repo_path, out = staged
        samples = artifacts.read_samples(out / "samples.txt")
        records = artifacts.read_groups(out / "clones.txt")
        vdata = pipeline.VersionData(Repository(repo_path), samples)
        rec = records[0]
        moved = artifacts.GroupRecord(
            rec.version,
            rec.group_id,
            tuple(
                artifacts.MemberRecord(m.path, m.brace, m.start + 500, m.end + 500, m.tokens)
                for m in rec.members
            ),
        )
        with pytest.raises(MissingInput):
            pipeline.materialize_groups(vdata, [moved])

    def test_member_in_a_missing_file_rejected(self, staged):
        config, repo_path, out = staged
        samples = artifacts.read_samples(out / "samples.txt")
        rec = artifacts.read_groups(out / "clones.txt")[0]
        vdata = pipeline.VersionData(Repository(repo_path), samples)
        gone = artifacts.GroupRecord(
            rec.version,
            rec.group_id,
            tuple(
                artifacts.MemberRecord("src/Gone.java", m.brace, m.start, m.end, m.tokens)
                for m in rec.members
            ),
        )
        with pytest.raises(MissingInput):
            pipeline.materialize_groups(vdata, [gone])

    def test_changed_token_count_rejected_by_genealogy(self, staged, capsys):
        """A clones file whose token counts another lexer wrote is stale, even
        where every block still starts and ends on the recorded lines."""
        config, repo_path, out = staged
        path = out / "clones.txt"
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        rows[0]["members"][0]["tokens"] += 1
        artifacts.write_artifact(path, "clones", [json.dumps(row) for row in rows])
        capsys.readouterr()
        assert main(["genealogy", "--repo", str(repo_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: MissingInput: block ")
        assert "clones file is stale (re-run detect)" in err

    @pytest.mark.parametrize(
        "step, error",
        [
            (5, "error: MissingInput: "),
            (None, "error: ParseError: {}: line "),
            ("0", "error: ParseError: {}: line "),
        ],
        ids=["outside-lineage", "null", "string"],
    )
    def test_stale_r_step_rejected_by_featurize(self, staged, capsys, step, error):
        config, repo_path, out = staged
        path = out / "labels.txt"
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        for row in rows:
            if row["label"] == "R":
                row["step"] = step
        artifacts.write_artifact(path, "labels", [json.dumps(row) for row in rows])
        capsys.readouterr()
        assert main(["featurize", "--repo", str(repo_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(error.format(path))
        if step == 5:
            assert "labels file is stale (re-run label)" in err

    def test_labels_of_unbuilt_lineages_rejected_by_featurize(self, staged, capsys):
        config, repo_path, out = staged
        path = out / "labels.txt"
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        for row in rows:
            row["lineage_id"] = "unknown-" + row["lineage_id"]
        artifacts.write_artifact(path, "labels", [json.dumps(row) for row in rows])
        capsys.readouterr()
        assert main(["featurize", "--repo", str(repo_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: MissingInput: labels file names lineage unknown-")
        assert "labels file is stale (re-run label)" in err

    def test_stale_lineages_rejected_by_label_stage(self, staged):
        config, repo_path, out = staged
        path = out / "lineages.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one lineage
        with pytest.raises(MissingInput):
            pipeline.stage_label(config, repo_path, out)


def _lineage_fields(lineage) -> tuple:
    """Everything a Lineage holds, its blocks by identity."""
    groups = [(v, g.group_id, g.members) for v, g in lineage.groups]
    links = [[(l.source, l.target, l.score) for l in step] for step in lineage.links]
    return lineage.lineage_id, lineage.end_state, groups, links


_CORPORA = {**PLANTED, **CONTROLS, "end-to-end": end_to_end_corpora, "three": _three_version_corpora}


@pytest.mark.parametrize("corpus", list(_CORPORA))
def test_read_lineages_equal_built_ones(make_repo, tmp_path, corpus):
    """The lineages `label` and `featurize` read back from lineages.txt are the
    ones genealogy built over the same groups: members, links and scores."""
    rb = make_repo(corpus)
    commit_corpora(rb, _CORPORA[corpus]())
    out = tmp_path / "out"
    config = PipelineConfig(delta_threshold=1)
    for stage in (pipeline.stage_mine, pipeline.stage_detect, pipeline.stage_genealogy):
        stage(config, rb.path, out)
    samples = artifacts.read_samples(out / "samples.txt")
    records = artifacts.read_groups(out / "clones.txt")
    with Repository(rb.path) as repo:
        vdata = pipeline.VersionData(repo, samples)
        built = build_genealogies(pipeline.materialize_groups(vdata, records))
        read = pipeline._read_lineages(vdata, out)
    assert any(step for lineage in built for step in lineage.links)
    assert list(map(_lineage_fields, read)) == list(map(_lineage_fields, built))


def _linked_row(rows: list[dict]) -> dict:
    return next(row for row in rows if any(row["links"]))


def _rewrite_lineages(path, change) -> None:
    """Rewrite the lineages file at *path* after ``change(rows)`` edits its JSON rows."""
    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    change(rows)
    artifacts.write_artifact(path, "lineages", [json.dumps(row) for row in rows])


# (edit of the lineages.txt rows, what the one error line then says)
_STALE_LINEAGES = {
    "unknown-group": (
        lambda rows: rows[0]["groups"][0].__setitem__(1, "gone"), "names group gone at version 0"
    ),
    "group-twice": (lambda rows: rows.append(rows[0]), "2 times"),
    "group-in-no-lineage": (lambda rows: rows.pop(), "0 times"),
    "extra-link-step": (lambda rows: rows[0]["links"].append([]), "link steps"),
    "missing-link-step": (lambda rows: _linked_row(rows)["links"].pop(), "link steps"),
    "index-past-end": (
        lambda rows: _linked_row(rows)["links"][0][0].__setitem__(1, 99), "outside its group"
    ),
    "negative-index": (
        lambda rows: _linked_row(rows)["links"][0][0].__setitem__(0, -1), "outside its group"
    ),
}


class TestStaleLineages:
    """`label` and `featurize` check the lineages they read against clones.txt:
    each failed check is one error line naming the lineages file."""

    @pytest.mark.parametrize("stage", ["label", "featurize"])
    @pytest.mark.parametrize("edit", list(_STALE_LINEAGES))
    def test_structural_check(self, staged, capsys, stage, edit):
        config, repo_path, out = staged
        path = out / "lineages.txt"
        change, says = _STALE_LINEAGES[edit]
        _rewrite_lineages(path, change)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([stage, "--repo", str(repo_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: MissingInput: {path} ")
        assert says in err and err.endswith("lineages file is stale (re-run genealogy)\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("stage", ["label", "featurize"])
    def test_lineages_without_links_refused(self, staged, capsys, stage):
        config, repo_path, out = staged
        _rewrite_lineages(out / "lineages.txt", lambda rows: [row.pop("links") for row in rows])
        capsys.readouterr()
        assert main([stage, "--repo", str(repo_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: ParseError: {out / 'lineages.txt'}: line 2: missing field 'links'\n"


def _fields(block) -> tuple:
    """Every field of a CodeBlock, which compares by identity; its method body,
    a block too and the block itself when it is one, as that body's span."""
    method = block.method
    return (
        block.path, block.start_line, block.end_line, block.lex, block.first, block.brace,
        block.stop, block.size, block.enclosing_method_name,
        None if method is None else (method.first, method.stop),
    )


def _class_fields(classes) -> list[tuple]:
    """A `VersionData.classes` list with each type's body block as its `_fields`."""
    return [(name, _fields(body), related) for name, body, related in classes]


class TestVersionDataOracle:
    """Every view of every version reads and lexes each distinct blob once, and
    gives what a fresh VersionData asked for that version alone gives."""

    GITLINK = "vendor/Lib.java"

    @pytest.fixture
    def shared_blobs(self, make_repo):
        rb = make_repo("shared")
        corpora = _three_version_corpora()
        commit_corpora(rb, corpora)
        # a fourth version: the third plus a submodule entry, which has no blob here
        rb._git("update-index", "--add", "--cacheinfo", f"160000,{'1' * 40},{self.GITLINK}")
        rb._git("commit", "-q", "-m", "add a submodule")
        corpora.append({**corpora[-1], self.GITLINK: ""})
        with Repository(rb.path) as repo:
            samples = [SampledVersion(i, c.id, 0) for i, c in enumerate(repo.commits())]
            yield repo, samples, corpora

    def test_each_blob_read_and_lexed_once(self, shared_blobs, monkeypatch):
        repo, samples, corpora = shared_blobs
        reads, lexed, memos = [], [], set()
        file_at, scan = Repository.file_at, pipeline.scan

        def counting_file_at(self, commit_id, path):
            reads.append(path)
            return file_at(self, commit_id, path)

        def counting_scan(source, memo=None):
            lexed.append(source)
            memos.add(id(memo))
            return scan(source, memo)

        monkeypatch.setattr(Repository, "file_at", counting_file_at)
        monkeypatch.setattr(pipeline, "scan", counting_scan)
        vdata = pipeline.VersionData(repo, samples)
        methods_at = LabelContext(vdata.blocks).methods_at
        for _ in range(2):  # the second round is answered from memory
            for version in range(len(samples)):
                for path in vdata.corpus(version):
                    vdata.context(version, path)
                    vdata.classes(version, path)
                vdata.blocks(version)
                vdata.hierarchy(version)
                methods_at(version)
        listed = [blob for v in range(len(samples)) for blob in vdata.files(v).values()]
        assert len(set(listed)) < len(listed)  # the versions share blobs
        assert len(reads) == len(set(listed))
        assert len(lexed) == len(set(listed))
        assert len(memos) == 1 and id(None) not in memos  # one line memo per VersionData

        assert vdata.files(3)[self.GITLINK] is None
        for version, corpus in enumerate(corpora):
            assert vdata.corpus(version) == corpus
            fresh = pipeline.VersionData(repo, samples)
            assert list(map(_fields, fresh.blocks(version))) == list(
                map(_fields, vdata.blocks(version))
            )
            assert fresh.hierarchy(version) == vdata.hierarchy(version)
            fresh_methods = LabelContext(fresh.blocks).methods_at(version)
            assert {name: list(map(_fields, bodies)) for name, bodies in fresh_methods.items()} == {
                name: list(map(_fields, bodies)) for name, bodies in methods_at(version).items()
            }
            for path in corpus:
                assert fresh.context(version, path) == vdata.context(version, path)
                classes = vdata.classes(version, path)
                assert _class_fields(fresh.classes(version, path)) == _class_fields(classes)
                blocks = vdata.file_blocks(version, path)  # where members are taken from
                assert all(any(body is b for b in blocks) for _, body, _ in classes)


def test_genealogy_lexes_only_the_files_that_hold_a_member(make_repo, tmp_path, monkeypatch):
    lone = "class Lone {\n    int count;\n}\n"
    corpora = [{**corpus, "src/Lone.java": lone} for corpus in _three_version_corpora()]
    rb = make_repo("lone")
    commit_corpora(rb, corpora)
    out = tmp_path / "out"
    config = PipelineConfig(delta_threshold=1)
    pipeline.stage_mine(config, rb.path, out)
    pipeline.stage_detect(config, rb.path, out)
    records = artifacts.read_groups(out / "clones.txt")
    lexed, scan = [], pipeline.scan

    def counting_scan(source, memo=None):
        lexed.append(source)
        return scan(source, memo)

    monkeypatch.setattr(pipeline, "scan", counting_scan)
    pipeline.stage_genealogy(config, rb.path, out)
    assert lone not in lexed
    member_texts = {corpora[rec.version][m.path] for rec in records for m in rec.members}
    assert sorted(lexed) == sorted(member_texts)  # each blob once


def test_featurize_asks_each_window_question_once(make_repo, tmp_path, monkeypatch):
    tally = PERSISTENT_PAIR["src/keep/Keep1.java"].split("\n", 1)[1].removesuffix("}\n")
    twins = "class Keep3 {\n" + tally + tally.replace("tally(", "tallyAgain(") + "}\n"
    corpora = [{**corpus, "src/keep/Keep3.java": twins} for corpus in _three_version_corpora()]
    rb = make_repo("twins")
    commit_corpora(rb, corpora)
    out = tmp_path / "out"
    # a window over every sample, so that it has more than one step
    config = PipelineConfig(delta_threshold=1, window_fraction=Fraction(1))
    for stage in (pipeline.stage_mine, pipeline.stage_detect, pipeline.stage_genealogy):
        stage(config, rb.path, out)
    records = artifacts.read_groups(out / "clones.txt")
    assert any(  # two members of one group share a file
        len({m.path for m in rec.members}) < len(rec.members) for rec in records
    )
    samples = artifacts.read_samples(out / "samples.txt")
    assert len(samples) >= 3
    steps = [(a.commit_id, b.commit_id) for a, b in zip(samples, samples[1:])]
    changed, hunks = [], []
    changed_paths, diff_hunks = Repository.changed_paths, Repository.diff_hunks

    def counting_changed_paths(self, commit_a, commit_b):
        changed.append((commit_a, commit_b))
        return changed_paths(self, commit_a, commit_b)

    def counting_diff_hunks(self, commit_a, commit_b, path):
        hunks.append((commit_a, commit_b, path))
        return diff_hunks(self, commit_a, commit_b, path)

    monkeypatch.setattr(Repository, "changed_paths", counting_changed_paths)
    monkeypatch.setattr(Repository, "diff_hunks", counting_diff_hunks)
    pipeline.stage_featurize(config, rb.path, out)
    assert sorted(changed) == sorted(steps)  # once per step, though every member asks
    assert hunks and len(hunks) == len(set(hunks))  # once per (step, path)
    assert {(a, b) for a, b, _ in hunks} <= set(steps)


# A class on one line, whose blocks all share line 1, and its twin with one
# member a line; f and g are clones, and h is a clone of its twin only
_MEMBERS = (
    "int f(int x) { int y = x * 2; return y + 1; }",
    "int g(int x) { int y = x * 2; return y + 1; }",
    "int h() { return 7; }",
)
ONE_LINE_CLASS = {
    "src/A.java": "class A { " + " ".join(_MEMBERS) + " }\n",
    "src/B.java": "class B {\n" + "".join(f"    {m}\n" for m in _MEMBERS) + "}\n",
}


def _method_braces(path: str, text: str) -> dict[str, tuple[str, int]]:
    """Method name -> (path, the index of its body's `{`) in *text*."""
    blocks = extract_blocks(scan(text), path)
    return {b.enclosing_method_name: (path, b.brace) for b in blocks if b.method is b}


def _named_groups(out) -> dict[int, set[frozenset]]:
    """version -> the groups of clones.txt, each as its members' (path, brace)."""
    groups: dict[int, set[frozenset]] = {}
    for rec in artifacts.read_groups(out / "clones.txt"):
        groups.setdefault(rec.version, set()).add(frozenset((m.path, m.brace) for m in rec.members))
    return groups


@pytest.fixture
def one_line_class(make_repo, tmp_path):
    """The pipeline through `featurize` over three versions of ONE_LINE_CLASS,
    with thresholds that every block passes."""
    rb = make_repo("oneline")
    commit_corpora(rb, [{**ONE_LINE_CLASS, "src/N.java": f"class N {{ int v = {i}; }}\n"}
                        for i in range(3)])
    out = tmp_path / "out"
    config = PipelineConfig(delta_threshold=1, min_tokens=10, min_lines=1)
    for stage in (pipeline.stage_mine, pipeline.stage_detect, pipeline.stage_genealogy,
                  pipeline.stage_label, pipeline.stage_featurize):
        stage(config, rb.path, out)
    return rb.path, out


class TestBlocksThatShareALine:
    """Blocks on one line are apart in every stage: `detect` groups each of them,
    and genealogy links each to its own successor."""

    def test_methods_of_a_one_line_class_are_grouped(self, one_line_class):
        _, out = one_line_class
        a, b = (_method_braces(path, text) for path, text in ONE_LINE_CLASS.items())
        fg = frozenset((a["f"], a["g"], b["f"], b["g"]))
        h = frozenset((a["h"], b["h"]))
        groups = _named_groups(out)
        assert sorted(groups) == [0, 1, 2]
        assert all({fg, h} <= at_version for at_version in groups.values())

        records = artifacts.read_groups(out / "clones.txt")
        named = {(rec.version, rec.group_id): rec for rec in records}
        lineages = artifacts.read_lineages(out / "lineages.txt")
        fg_lineage = next(
            rec for rec in lineages
            if frozenset((m.path, m.brace) for m in named[rec.groups[0]].members) == fg
        )
        assert [v for v, _ in fg_lineage.groups] == [0, 1, 2]
        for step in fg_lineage.links:  # each member linked to its own successor
            assert sorted((i, j, score) for i, j, score in step) == [(i, i, 1.0) for i in range(4)]
        rows = artifacts.read_features(out / "features.csv")
        assert {r.lineage_id for r in rows} == {rec.lineage_id for rec in lineages}

    @pytest.mark.parametrize("stage", ["genealogy", "label", "featurize"])
    def test_member_naming_another_block_on_its_lines_is_stale(self, one_line_class, capsys, stage):
        """A member whose `{` names its class body, which has the member's lines
        but not its token count, is refused."""
        repo_path, out = one_line_class
        path = out / "clones.txt"
        body = extract_blocks(scan(ONE_LINE_CLASS["src/A.java"]), "src/A.java")[0]
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        member = next(
            m for row in rows for m in row["members"]
            if m["path"] == "src/A.java" and m["brace"] != body.brace
        )
        assert (member["start"], member["end"]) == (body.start_line, body.end_line)
        member["brace"] = body.brace
        artifacts.write_artifact(path, "clones", [json.dumps(row) for row in rows])
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([stage, "--repo", str(repo_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: MissingInput: block src/A.java:1-1 of {member['tokens']} ")
        assert err.endswith("clones file is stale (re-run detect)\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _copy(k: int, sep: str = " ") -> str:
    """Method `copy<k>`, 32 tokens of its own names, one statement a piece of *sep*."""
    a, b, s, t = (f"{name}{k}" for name in "abst")
    return sep.join((
        f"int copy{k}(int {a}, int {b}) {{",
        f"int {s} = {a} * {k + 2} + {b};",
        f"int {t} = {s} - {a} / {k + 3};",
        f"{s} = {s} + {t} * {b};",
        f"{t} = {t} * {s} - {k + 7} * {a};",
        f"{b} = {b} + {a};",
        f"return {s} + {t} - {k + 5}; }}",
    ))


def test_minified_file_keeps_each_method(make_repo, tmp_path, capsys):
    """A one-line file of 300 methods, six of them clones of methods of a
    multi-line file: each clone pair is a group, and every command repeats its bytes."""
    cloned = range(0, 300, 50)
    methods = [_copy(k) if k in cloned else f"int m{k}() {{ return {k}; }}" for k in range(300)]
    minified = "class Min { " + " ".join(methods) + " }\n"
    spread = "class Multi {\n" + "".join(_copy(k, "\n    ") + "\n" for k in cloned) + "}\n"
    rb = make_repo("minified")
    commit_corpora(rb, [
        {"src/Min.java": minified, "src/Multi.java": spread, "src/N.java": f"class N {{ int v = {i}; }}\n"}
        for i in range(3)
    ])
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        for stage in ("mine", "detect", "genealogy", "label", "featurize"):
            assert main([stage, "--repo", str(rb.path), "--out", str(out), "--delta-threshold", "1"]) == 0
        for stage in ("train", "recommend"):
            assert main([stage, "--out", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in outs[0].iterdir()} == {
        p.name: p.read_bytes() for p in outs[1].iterdir()
    }
    a, b = _method_braces("src/Min.java", minified), _method_braces("src/Multi.java", spread)
    pairs = {frozenset((a[f"copy{k}"], b[f"copy{k}"])) for k in cloned}
    groups = _named_groups(outs[0])
    assert sorted(groups) == [0, 1, 2]
    assert all(pairs <= at_version for at_version in groups.values())


def test_featurize_reads_fields_past_a_stray_closing_brace(make_repo, tmp_path):
    """F4 counts the accesses of the fields of a member's file. A stray `}`
    before a class, or between two, must not shift which names are fields:
    each method body accesses field f once, and its local twice."""
    body = "        int local = 1;\n        f = local;\n        call(1);\n        call(2);\n"
    methods = "".join(f"    void m{i}() {{\n{body}    }}\n" for i in (1, 2))
    rb = make_repo("stray")
    commit_corpora(rb, [{
        "src/A.java": "}\nclass A {\n    int f;\n" + methods + "}\n",
        "src/B.java": "class Z {\n    int z;\n}\n}\nclass B {\n    int f;\n" + methods + "}\n",
    }])
    out = tmp_path / "out"
    config = PipelineConfig(delta_threshold=1, min_tokens=5, min_lines=3)
    for stage in (pipeline.stage_mine, pipeline.stage_detect, pipeline.stage_genealogy,
                  pipeline.stage_featurize):
        stage(config, rb.path, out)
    rows = artifacts.read_features(out / "features.csv")
    # F2 -> F4 of the two groups: the method bodies, and the class bodies,
    # which each name f three times
    assert {row.values[1]: row.values[3] for row in rows} == {11.0: 1.0, 26.0: 3.0}


@pytest.fixture
def shuffled_features(tmp_path):
    """Two copies of one features file, the second with its rows shuffled."""
    rng = random.Random(11)
    rows = [
        feature_row(rng.randrange(2), {f: rng.randrange(3) / 2 for f in (1, 4, 9, 20, 30)},
                    lineage=f"lin{i:02d}")
        for i in range(40)
    ]
    paths = []
    for name, ordered in (("a", rows), ("b", rng.sample(rows, len(rows)))):
        (tmp_path / name).mkdir()
        artifacts.write_features(tmp_path / name / "features.csv", ordered)
        paths.append(tmp_path / name)
    return paths


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_models_and_evaluations_do_not_depend_on_row_order(shuffled_features, algorithm):
    """`train` and `evaluate` learn from the labeled rows in one canonical
    order, so the order of the rows, which follows the lineage ids, changes
    neither the model nor the report."""
    config = PipelineConfig()
    for out in shuffled_features:
        pipeline.stage_train(config, out, algorithm)
        pipeline.stage_evaluate(config, [str(out / "features.csv")], "within", out, algorithm)
    first, second = shuffled_features
    for name in ("model.txt", "report.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
