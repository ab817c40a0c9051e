"""The blob-addressed git reader: byte oracles against git's own commands,
NUL-delimited paths, named git errors, and process accounting per stage."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from clone_fixtures import commit_corpora, end_to_end_corpora
from crec import pipeline
from crec.cli import main
from crec.config import PipelineConfig
from crec.errors import GitError
from crec.repo_miner import Repository

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
            assert UTF8_PATH in repo.list_files(second, (".java",))
            assert repo.commits()[1].changed_files == {UTF8_PATH}
            assert repo.changed_paths(first, second) == [UTF8_PATH]
            assert repo.file_at(second, UTF8_PATH) == b"class Q {}\n"

    def test_changed_paths_match_git_diff(self, make_repo):
        rb = make_repo()
        first = rb.commit(
            {"a/Keep.java": "k\n", "a/Edit.java": "e\n", "b/Gone.java": "g\n", "run.sh": "x\n"}
        )
        (rb.path / "run.sh").chmod(0o755)  # a mode-only change
        second = rb.commit(
            {"a/Edit.java": "e2\n", "b/Gone.java": None, UTF8_PATH: "q\n", "a-b/New.java": "n\n"}
        )
        expected = _git(rb, "diff", "-z", "--name-only", "--no-renames", first, second)
        with Repository(rb.path) as repo:
            assert repo.changed_paths(first, second) == [
                p.decode() for p in expected.split(b"\0")[:-1]
            ]
            assert repo.changed_paths(second, second) == []


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

    def test_failing_ls_tree_raises(self, make_repo):
        rb = make_repo()
        commit = rb.commit({"A.java": "class A {}\n"})
        _delete_object(rb, _git(rb, "rev-parse", f"{commit}^{{tree}}").decode().strip())
        with Repository(rb.path) as repo:
            with pytest.raises(GitError):
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


@pytest.fixture
def popen_log(monkeypatch):
    """Every subprocess.Popen started while the fixture is active."""
    started: list[subprocess.Popen] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
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
        for stage in (
            pipeline.stage_detect,
            pipeline.stage_genealogy,
            pipeline.stage_label,
            pipeline.stage_featurize,
        ):
            popen_log.clear()
            stage(config, rb.path, out)
            assert all(Path(p.args[0]).name == "git" for p in popen_log)
            assert len(popen_log) <= samples + 3, stage.__name__
            assert all(p.returncode is not None for p in popen_log), stage.__name__
