"""The blob-addressed git reader: byte oracles against git's own commands,
NUL-delimited paths, named git errors, and process accounting per stage."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

import pytest

from clone_fixtures import CONTROLS, PERSISTENT_PAIR, PLANTED, commit_corpora, end_to_end_corpora
from conftest import RepoBuilder
from crec import pipeline
from crec.cli import main
from crec.config import PipelineConfig
from crec.errors import GitError
from crec.repo_miner import _S_IFDIR, Repository, SampledVersion, _canonical_mode, _path_text

UTF8_PATH = "src/é/Q.java"


def _git(rb, *args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(rb.path), *args], capture_output=True, check=True
    ).stdout


def _commit_bytes(rb, files: dict[str, bytes | None], message: str = "change") -> str:
    """Commit raw file bodies (None deletes), bypassing text encoding."""
    for rel, content in files.items():
        target = rb.path / rel
        if content is None:
            target.unlink()
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
    return rb.commit({}, message=message)


def _delete_object(rb, object_id: str) -> None:
    loose = rb.path / ".git" / "objects" / object_id[:2] / object_id[2:]
    loose.chmod(0o644)
    loose.unlink()


def ls_tree_entries(repo_path, commit: str) -> dict[str, tuple[str, str]]:
    """path -> (mode, object id) as one `git ls-tree -r -z --full-tree` lists
    them, in its order: the listing the reader used to take from git."""
    out = subprocess.run(
        ["git", "-C", str(repo_path), "ls-tree", "-r", "-z", "--full-tree", commit],
        capture_output=True, check=True,
    ).stdout
    entries = {}
    for record in out.split(b"\0")[:-1]:
        meta, _, path = record.partition(b"\t")
        mode, _, object_id = meta.decode().split(" ")
        entries[path.decode("utf-8", errors="replace")] = (mode, object_id)
    return entries


def _assert_trees_match_ls_tree(repo_path, commits: list[str]) -> None:
    with Repository(repo_path) as repo:
        for commit in commits:
            expected = ls_tree_entries(repo_path, commit)
            assert list(repo._entries(commit).items()) == list(expected.items()), commit
            assert repo.list_files(commit) == list(expected), commit


def one_by_one_walk(repo: Repository, commit_id: str) -> dict[str, tuple[str, str]]:
    """The tree walk that asked cat-file for one object at a time, kept as the
    oracle: the root, then each subtree as the depth-first walk meets it."""

    def entries(data: bytes, width: int, prefix: bytes) -> list[tuple[bytes, int, str]]:
        out, start = [], 0
        while start < len(data):
            space = data.index(b" ", start)
            nul = data.index(b"\0", space)
            mode = _canonical_mode(int(data[start:space], 8))
            out.append((prefix + data[space + 1 : nul], mode, data[nul + 1 : nul + 1 + width].hex()))
            start = nul + 1 + width
        return out[::-1]

    root_id, data = repo._read_object(f"{commit_id}^{{tree}}", b"tree")
    width = len(root_id) // 2
    found: dict[str, tuple[str, str]] = {}
    stack = entries(data, width, b"")
    while stack:
        raw, mode, object_id = stack.pop()
        if mode == _S_IFDIR:
            stack += entries(repo._read_object(object_id, b"tree")[1], width, raw + b"/")
            continue
        assert _path_text(raw) not in found
        found[_path_text(raw)] = (f"{mode:06o}", object_id)
    return found


def _assert_reads_match_one_by_one(repo_path, commits: list[str]) -> None:
    """Pipelined reads give what one request per object gives: the same trees,
    source files and bytes."""
    with Repository(repo_path) as repo, Repository(repo_path) as oracle:
        for commit in commits:
            expected = one_by_one_walk(oracle, commit)
            assert list(repo._entries(commit).items()) == list(expected.items()), commit
            assert repo.list_files(commit) == list(expected), commit
            sources = repo.source_files(commit)
            assert sources == {
                p: object_id for p, (mode, object_id) in expected.items()
                if p.endswith(".java") and mode not in ("120000", "160000")
            }
            repo.read_ahead(sources.values())
            for path, (mode, object_id) in expected.items():
                want = None if mode == "160000" else oracle._read_object(object_id, b"blob")[1]
                assert repo.file_at(commit, path) == want, (commit, path)
            assert repo._ahead == {}


IDENTITY = {
    "GIT_AUTHOR_NAME": "Dev One", "GIT_AUTHOR_EMAIL": "dev1@example.com",
    "GIT_COMMITTER_NAME": "Dev One", "GIT_COMMITTER_EMAIL": "dev1@example.com",
    "GIT_AUTHOR_DATE": "2020-01-01T00:00:00+0000", "GIT_COMMITTER_DATE": "2020-01-01T00:00:00+0000",
}


def _plumb(repo_path, *args: str, stdin: bytes = b"", env: dict | None = None) -> str:
    return subprocess.run(
        ["git", "-C", str(repo_path), *args],
        input=stdin, capture_output=True, check=True, env={**os.environ, **(env or {})},
    ).stdout.decode().strip()


def _commit_tree_id(repo_path, tree: str) -> str:
    """Commit *tree* on top of HEAD, without a work tree, and move HEAD to it."""
    head = subprocess.run(
        ["git", "-C", str(repo_path), "rev-parse", "--verify", "--quiet", "HEAD"],
        capture_output=True,
    ).stdout.decode().strip()
    parent = ["-p", head] if head else []
    commit = _plumb(repo_path, "commit-tree", tree, *parent, "-m", "plumbed", env=IDENTITY)
    _plumb(repo_path, "update-ref", "HEAD", commit)
    return commit


def _commit_raw_paths(repo_path, files: dict[bytes, tuple[str, bytes | str]]) -> str:
    """Commit exactly *files*, raw path -> (mode, body), on top of HEAD.

    A gitlink's body is the commit id it names. The tree is built through a
    throwaway index, so no path has to exist on disk.
    """
    env = {**IDENTITY, "GIT_INDEX_FILE": str(Path(repo_path) / ".git" / "plumbed-index")}
    Path(env["GIT_INDEX_FILE"]).unlink(missing_ok=True)
    records = []
    for raw, (mode, body) in files.items():
        if mode != "160000":
            body = _plumb(repo_path, "hash-object", "-w", "--stdin", stdin=body)
        records.append(f"{mode} {body}\t".encode() + raw + b"\0")
    _plumb(repo_path, "update-index", "-z", "--index-info", stdin=b"".join(records), env=env)
    return _commit_tree_id(repo_path, _plumb(repo_path, "write-tree", env=env))


def _commit_literal_tree(repo_path, raw_tree: bytes) -> str:
    """Commit a root tree object written byte for byte, unchecked by git."""
    tree = _plumb(
        repo_path, "hash-object", "-t", "tree", "--literally", "-w", "--stdin", stdin=raw_tree
    )
    return _commit_tree_id(repo_path, tree)


DEEP_PATH = b"/".join([b"d"] * 1101) + b"/Deep.java"  # 1,101 directories deep
CRAFTED = {
    b"a.b": ("100644", b"dot\n"),
    b"a/x": ("100644", b"slash\n"),
    b"a-b/y": ("100644", b"dash\n"),
    b"a0": ("100644", b"zero\n"),
    b"p/q/r/s/Four.java": ("100644", b"class Four {}\n"),
    b"run.sh": ("100755", b"#!/bin/sh\n"),
    b"link": ("120000", b"a.b"),
    UTF8_PATH.encode(): ("100644", b"class Q {}\n"),
    b"line\nbreak.java": ("100644", b"class Break {}\n"),
    DEEP_PATH: ("100644", b"class Deep {}\n"),
}


def _crafted_history(repo_path, object_format: str) -> list[str]:
    """A plain commit, the crafted tree plus a gitlink to it, then an empty tree."""
    subprocess.run(
        ["git", "init", "-q", f"--object-format={object_format}", str(repo_path)], check=True
    )
    first = _commit_raw_paths(repo_path, {b"a.b": ("100644", b"first\n")})
    crafted = _commit_raw_paths(repo_path, {**CRAFTED, b"sub": ("160000", first)})
    empty = _commit_raw_paths(repo_path, {})
    return [first, crafted, empty]


def _numstat(rb, a: str, b: str) -> tuple[set[str], int]:
    """Files and added+deleted lines of one `git diff --numstat -z`."""
    out = _git(rb, "diff", "--numstat", "-z", "--no-renames", a, b)
    files, total = set(), 0
    for entry in out.split(b"\0")[:-1]:
        added, deleted, path = entry.split(b"\t", 2)
        files.add(path.decode())
        if added != b"-":
            total += int(added) + int(deleted)
    return files, total


ODD_FILES = {
    "Empty.java": b"",
    "NoEol.java": b"class NoEol {}",
    "Crlf.java": b"class Crlf {\r\n    int x;\r\n}\r\n",
    "Bad.java": b"class Bad { String s = \"\xff\xfe\xc3\"; }\n",
    "Big.java": b"".join(b"    int field%07d = %d;\n" % (i, i) for i in range(40000)),
    UTF8_PATH: "class Q { String s = \"é\"; }\n".encode(),
}


class TestFileBytes:
    def test_file_at_matches_git_show_byte_for_byte(self, make_repo):
        rb = make_repo()
        first = _commit_bytes(rb, ODD_FILES)
        second = _commit_bytes(
            rb, {"NoEol.java": b"class NoEol { int y; }", "Empty.java": None}
        )
        assert len(ODD_FILES["Big.java"]) > 1_000_000
        with Repository(rb.path) as repo:
            for commit in (first, second):
                for path in ODD_FILES:
                    shown = subprocess.run(
                        ["git", "-C", str(rb.path), "show", f"{commit}:{path}"],
                        capture_output=True,
                    )
                    expected = shown.stdout if shown.returncode == 0 else None
                    assert repo.file_at(commit, path) == expected, (commit, path)
            assert repo.file_at(second, "Empty.java") is None

    def test_utf8_path_agrees_across_readers(self, make_repo):
        rb = make_repo()
        first = rb.commit({"A.java": "class A {}\n"})
        second = rb.commit({UTF8_PATH: "class Q {}\n"})
        with Repository(rb.path) as repo:
            assert UTF8_PATH in repo.list_files(second)
            assert repo.commits()[1].changed_files == {UTF8_PATH}
            assert repo.changed_paths(first, second) == [UTF8_PATH]
            assert repo.file_at(second, UTF8_PATH) == b"class Q {}\n"

    def test_changed_paths_match_git_diff(self, make_repo):
        rb = make_repo()
        first = rb.commit(
            {"a/Keep.java": "k\n", "a/Edit.java": "e\n", "b/Gone.java": "g\n", "run.sh": "x\n",
             "keep.txt": "t\n"}
        )
        (rb.path / "run.sh").chmod(0o755)  # a mode-only change
        second = rb.commit(
            {"a/Edit.java": "e2\n", "b/Gone.java": None, UTF8_PATH: "q\n", "a-b/New.java": "n\n"}
        )
        # The same tree, but keep.txt stored as 100664, which git reads as 100644.
        stored = _git(rb, "cat-file", "tree", f"{second}^{{tree}}")
        assert b"100644 keep.txt\0" in stored
        loose_mode = stored.replace(b"100644 keep.txt\0", b"100664 keep.txt\0")
        third = _commit_literal_tree(rb.path, loose_mode)
        assert ls_tree_entries(rb.path, third)["keep.txt"][0] == "100644"
        with Repository(rb.path) as repo:
            for a, b in ((first, second), (second, second), (second, third), (first, third)):
                expected = _git(rb, "diff", "-z", "--name-only", "--no-renames", a, b)
                assert repo.changed_paths(a, b) == [p.decode() for p in expected.split(b"\0")[:-1]]
            assert repo.changed_paths(second, third) == []
            assert repo._entries(third) == repo._entries(second)


class TestTreeWalk:
    """The tree walker against the `ls-tree -r -z` listing it replaced."""

    def test_clone_fixture_trees_match_ls_tree(self, make_repo):
        corpora = [build() for build in (*PLANTED.values(), *CONTROLS.values())]
        for corpus in [*corpora, end_to_end_corpora()]:
            rb = make_repo()
            commit_corpora(rb, corpus)
            chain = _git(rb, "rev-list", "--first-parent", "HEAD").decode().split()
            _assert_trees_match_ls_tree(rb.path, chain)

    @pytest.mark.parametrize("object_format", ["sha1", "sha256"])
    def test_crafted_trees_match_ls_tree(self, tmp_path, object_format):
        commits = _crafted_history(tmp_path / "crafted", object_format)
        _assert_trees_match_ls_tree(tmp_path / "crafted", commits)
        with Repository(tmp_path / "crafted") as repo:
            first, crafted, empty = commits
            assert len(crafted) == {"sha1": 40, "sha256": 64}[object_format]
            assert repo.list_files(empty) == []
            assert repo.changed_paths(crafted, empty) == sorted(repo.list_files(crafted))
            entries = repo._entries(crafted)
            assert entries["sub"] == ("160000", first)
            assert repo.blob_id(crafted, "sub") is None
            assert (entries["run.sh"][0], entries["link"][0]) == ("100755", "120000")
            assert repo.file_at(crafted, DEEP_PATH.decode()) == b"class Deep {}\n"
            assert repo.file_at(crafted, "line\nbreak.java") == b"class Break {}\n"

    @pytest.mark.parametrize("object_format", ["sha1", "sha256"])
    def test_pipelined_reads_match_one_request_per_object(self, tmp_path, object_format):
        corpora = [build() for build in (*PLANTED.values(), *CONTROLS.values())]
        for i, corpus in enumerate([*corpora, end_to_end_corpora()]):
            path = tmp_path / f"fixture{i}"
            subprocess.run(
                ["git", "init", "-q", f"--object-format={object_format}", str(path)], check=True
            )
            rb = RepoBuilder(path)
            commit_corpora(rb, corpus)
            _assert_reads_match_one_by_one(path, _git(rb, "rev-list", "HEAD").decode().split())
        crafted = _crafted_history(tmp_path / "crafted", object_format)
        _assert_reads_match_one_by_one(tmp_path / "crafted", crafted)

    @pytest.mark.parametrize("object_format", ["sha1", "sha256"])
    def test_bursts_longer_than_one_write(self, tmp_path, object_format):
        # 150 directories on one level and 150 blobs: each burst of requests
        # takes two or more writes of at most 4,096 bytes
        repo_path = tmp_path / "wide"
        subprocess.run(
            ["git", "init", "-q", f"--object-format={object_format}", str(repo_path)], check=True
        )
        rb = RepoBuilder(repo_path)
        first = rb.commit({f"d{i:03d}/W{i}.java": f"class W{i} {{}}\n" for i in range(150)})
        second = rb.commit({"d007/W7.java": "class W7 { int x; }\n"})
        with Repository(repo_path) as repo:
            repo.list_files(first)
            writes = _record_writes(repo)
            repo.read_ahead(repo.source_files(first).values())
            assert len(writes) >= 2 and max(writes) <= 4096, writes
            writes.clear()
            repo.list_files(second)
            assert len(writes) == 2, writes  # the root, then the one subtree that changed
        _assert_reads_match_one_by_one(repo_path, [first, second])

    def test_missing_or_mistyped_subtree_mid_burst_raises_and_the_next_read_lines_up(
        self, make_repo
    ):
        rb = make_repo()
        files = {f"{d}/{d.upper()}.java": f"class {d.upper()} {{}}\n" for d in "abcde"}
        good = rb.commit(files)
        broken = rb.commit({"c/C.java": "class C { int gone; }\n"})
        blob = _git(rb, "rev-parse", f"{good}:a/A.java").decode().strip()
        subtrees = [_git(rb, "rev-parse", f"{good}:{d}").decode().strip() for d in "ab"]
        raw = b"".join(
            f"40000 {name}\0".encode() + bytes.fromhex(object_id)
            for name, object_id in zip("abc", (subtrees[0], blob, subtrees[1]))
        )
        mistyped = _commit_literal_tree(rb.path, raw)
        gone = _git(rb, "rev-parse", f"{broken}:c").decode().strip()
        _delete_object(rb, gone)
        with Repository(rb.path) as repo:
            with pytest.raises(GitError, match=f"object {gone} is missing from"):
                repo.list_files(broken)
            assert repo.list_files(good) == sorted(files)
            with pytest.raises(GitError, match=f"object {blob} is a blob, not a tree"):
                repo.list_files(mistyped)
            assert repo.file_at(good, "e/E.java") == b"class E {}\n"
            ids = list(repo.source_files(good).values())
            with pytest.raises(GitError, match=f"object {subtrees[0]} is a tree, not a blob"):
                repo.read_ahead([ids[0], subtrees[0], ids[1]])
            repo.read_ahead(ids)
            assert [repo.file_at(good, p) for p in files] == [t.encode() for t in files.values()]

    def test_paths_that_decode_alike_raise(self, tmp_path):
        repo_path = tmp_path / "alike"
        subprocess.run(["git", "init", "-q", str(repo_path)], check=True)
        commit = _commit_raw_paths(
            repo_path, {b"A\xfe.java": ("100644", b"fe\n"), b"A\xff.java": ("100644", b"ff\n")}
        )
        with Repository(repo_path) as repo:
            with pytest.raises(GitError) as raised:
                repo.list_files(commit)
        for raw in (b"A\xfe.java", b"A\xff.java"):
            assert repr(raw) in str(raised.value)


class TestReadAhead:
    def test_a_versions_unread_blobs_come_in_one_burst(self, make_repo):
        rb = make_repo()
        versions = end_to_end_corpora()
        commit_corpora(rb, versions + versions[:1])  # the last version reads no new blob
        with Repository(rb.path) as repo:
            samples = [SampledVersion(i, c.id, 0) for i, c in enumerate(repo.commits())]
            vdata = pipeline.VersionData(repo, samples)
            for version in range(len(samples)):
                vdata.files(version)
            writes, seen = _record_writes(repo), set()
            for version, expected in enumerate(versions + versions[:1]):
                unread = set(vdata.files(version).values()) - seen
                seen |= unread
                before = len(writes)
                assert vdata.corpus(version) == expected
                assert len(writes) - before == (1 if unread else 0), version
                assert repo._ahead == {}
            assert len(writes) == len(versions)


class TestSymlinks:
    def test_no_stage_lexes_or_reports_a_java_symlink(self, tmp_path, monkeypatch):
        # a link's blob is its target's path; Keep3.java's target is a clone's text
        repo_path = tmp_path / "linked"
        subprocess.run(["git", "init", "-q", str(repo_path)], check=True)
        target = PERSISTENT_PAIR["src/keep/Keep1.java"].replace("Keep1", "Keep3")
        for version in end_to_end_corpora():
            files = {p.encode(): ("100644", text.encode()) for p, text in version.items()}
            files[b"src/keep/Link.java"] = ("120000", b"Keep1.java")
            files[b"src/keep/Keep3.java"] = ("120000", target.encode())
            _commit_raw_paths(repo_path, files)
        lexed, scan = [], pipeline.scan
        monkeypatch.setattr(
            pipeline, "scan", lambda source, memo=None: lexed.append(source) or scan(source, memo)
        )
        out = tmp_path / "out"
        config = PipelineConfig(delta_threshold=1)
        pipeline.stage_mine(config, repo_path, out)
        for stage in (pipeline.stage_detect, pipeline.stage_genealogy,
                      pipeline.stage_label, pipeline.stage_featurize):
            stage(config, repo_path, out)
        assert lexed and "Keep1.java" not in lexed and target not in lexed
        # commits.txt keeps every changed path of the history, links included
        written = "".join(
            (out / name).read_text(encoding="utf-8")
            for name in ("clones.txt", "lineages.txt", "labels.txt", "features.csv")
        )
        assert "src/keep/Keep1.java" in written  # the real pair is still reported
        assert "Link.java" not in written and "Keep3" not in written
        with Repository(repo_path) as repo:
            head = repo.commits()[-1].id
            assert "src/keep/Link.java" in repo.list_files(head)
            assert "src/keep/Link.java" not in repo.source_files(head)

    def test_a_file_replaced_by_a_symlink_no_longer_exists(self, tmp_path):
        repo_path = tmp_path / "relinked"
        subprocess.run(["git", "init", "-q", str(repo_path)], check=True)
        other = {b"B.java": ("100644", b"class B {}\n")}
        _commit_raw_paths(repo_path, {b"A.java": ("100644", b"class A {}\n"), **other})
        _commit_raw_paths(repo_path, {b"A.java": ("120000", b"B.java"), **other})
        with Repository(repo_path) as repo:
            samples = [SampledVersion(i, c.id, 0) for i, c in enumerate(repo.commits())]
            vdata = pipeline.VersionData(repo, samples)
            assert list(vdata.files(1)) == ["B.java"]
            assert [vdata.exists(v, "A.java") for v in (0, 1)] == [True, False]
            assert vdata.exists(1, "B.java")


class TestCommitRecords:
    def test_one_log_matches_per_commit_numstat(self, make_repo):
        rb = make_repo()
        rb.commit({"Old.java": "a\nb\nc\n", "keep.txt": "k\n"})
        _commit_bytes(rb, {"logo.bin": bytes(range(256)) * 4})
        (rb.path / "Old.java").rename(rb.path / "New.java")  # a rename
        rb.commit({UTF8_PATH: "q\n"})
        rb.commit({})  # an empty commit
        rb._git("checkout", "-q", "-b", "side")
        rb.commit({"Side.java": "s\n" * 5})
        rb._git("checkout", "-q", "main")
        rb.commit({"keep.txt": "k2\n"})
        stamp = "2020-02-01T00:00:00+0000"
        rb._git(
            "merge", "-q", "--no-ff", "-m", "merge side", "side",
            env={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp},
        )
        chain = _git(rb, "rev-list", "--first-parent", "--reverse", "HEAD").decode().split()
        empty_tree = subprocess.run(
            ["git", "-C", str(rb.path), "hash-object", "-t", "tree", "--stdin"],
            input=b"", capture_output=True, check=True,
        ).stdout.decode().strip()

        with Repository(rb.path) as repo:
            commits = repo.commits()
        assert [c.id for c in commits] == chain
        for parent, record in zip([empty_tree] + chain, commits):
            files, total = _numstat(rb, parent, record.id)
            assert (record.changed_files, record.changed_line_count) == (files, total)
            stamp, author = _git(rb, "log", "-1", "--format=%ct %an <%ae>", record.id).decode().split(" ", 1)
            assert (record.timestamp, record.author) == (int(stamp), author.strip().lower())
        assert commits[3].changed_files == frozenset()  # the empty commit
        assert commits[-1].changed_files == {"Side.java"}  # the merge, against its first parent
        assert commits[1].changed_line_count == 0  # binary only


class TestGitErrors:
    def _repo_with_deleted_blob(self, make_repo):
        rb = make_repo()
        commit = rb.commit({"A.java": "class A {}\n", "B.java": "class B {}\n"})
        blob = _git(rb, "rev-parse", f"{commit}:B.java").decode().strip()
        return rb, commit, blob

    def test_missing_blob_raises_and_absent_path_is_none(self, make_repo):
        rb, commit, blob = self._repo_with_deleted_blob(make_repo)
        _delete_object(rb, blob)
        with Repository(rb.path) as repo:
            assert repo.file_at(commit, "A.java") == b"class A {}\n"
            assert repo.file_at(commit, "Nowhere.java") is None
            with pytest.raises(GitError, match="missing"):
                repo.file_at(commit, "B.java")

    def test_cli_names_git_error(self, make_repo, tmp_path, capsys):
        rb, _, blob = self._repo_with_deleted_blob(make_repo)
        out = str(tmp_path / "out")
        assert main(["mine", "--repo", str(rb.path), "--out", out]) == 0
        _delete_object(rb, blob)
        assert main(["detect", "--repo", str(rb.path), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: GitError: ")

    def test_missing_or_mistyped_tree_raises(self, make_repo):
        rb = make_repo()
        root_gone = rb.commit({"A.java": "class A {}\n"})
        subtree_gone = rb.commit({"sub/B.java": "class B {}\n"})
        blob = _git(rb, "rev-parse", f"{root_gone}:A.java").decode().strip()
        mistyped = _commit_literal_tree(rb.path, b"40000 d\0" + bytes.fromhex(blob))
        cut_short = _commit_literal_tree(rb.path, b"100644 A.java\0" + bytes.fromhex(blob)[:10])
        for tree in (f"{root_gone}^{{tree}}", f"{subtree_gone}:sub"):
            _delete_object(rb, _git(rb, "rev-parse", tree).decode().strip())
        cases = (
            (root_gone, "missing"), (subtree_gone, "missing"),
            (mistyped, "is a blob, not a tree"), (cut_short, "malformed"),
        )
        with Repository(rb.path) as repo:
            for commit, message in cases:
                with pytest.raises(GitError, match=message):
                    repo.list_files(commit)

    def test_dead_batch_process_raises(self, make_repo):
        rb = make_repo()
        commit = rb.commit({"A.java": "class A {}\n"})
        with Repository(rb.path) as repo:
            assert repo.file_at(commit, "A.java") == b"class A {}\n"
            repo._batch.kill()
            repo._batch.wait()
            with pytest.raises(GitError):
                repo.file_at(commit, "A.java")


class _RecordingPipe:
    """A cat-file stdin that records the size of each write."""

    def __init__(self, pipe, writes: list[int]):
        self.pipe, self.writes = pipe, writes

    def write(self, data: bytes) -> int:
        self.writes.append(len(data))
        return self.pipe.write(data)

    def flush(self) -> None:
        self.pipe.flush()

    def close(self) -> None:
        self.pipe.close()


def _record_writes(repo: Repository) -> list[int]:
    """The sizes of the writes to the repository's running cat-file from now on."""
    writes: list[int] = []
    repo._batch.stdin = _RecordingPipe(repo._batch.stdin, writes)
    return writes


@pytest.fixture
def popen_log(monkeypatch):
    """Every subprocess.Popen started while the fixture is active."""
    started: list[subprocess.Popen] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.writes: list[int] = []
            if self.stdin is not None:
                self.stdin = _RecordingPipe(self.stdin, self.writes)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


class TestProcessesPerStage:
    def test_read_stages_start_few_processes_and_reap_them(self, make_repo, tmp_path, popen_log):
        rb = make_repo()
        versions = end_to_end_corpora()
        commit_corpora(rb, versions * 5 + versions[:1])  # 11 commits
        out = tmp_path / "out"
        config = PipelineConfig(delta_threshold=1)
        pipeline.stage_mine(config, rb.path, out)
        samples = len((out / "samples.txt").read_text().splitlines()) - 1
        assert samples >= 10
        # tree levels on the longest path, the root's included
        depth = 1 + max(path.count("/") for version in versions for path in version)
        for stage in (
            pipeline.stage_detect,
            pipeline.stage_genealogy,
            pipeline.stage_label,
            pipeline.stage_featurize,
        ):
            popen_log.clear()
            stage(config, rb.path, out)
            assert all(Path(p.args[0]).name == "git" for p in popen_log)
            assert len(popen_log) <= 3, stage.__name__
            assert all(p.returncode is not None for p in popen_log), stage.__name__
            bursts = sum(len(p.writes) for p in popen_log)  # a write to cat-file is a burst
            assert 0 < bursts <= samples * (depth + 1), (stage.__name__, bursts)
