"""Shared fixtures: deterministic scratch git repositories and feature rows."""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

import pytest

from crec import artifacts
from crec.clone_detector import CodeBlock, Token, TokenList
from crec.config import PipelineConfig
from crec.features import FEATURES, FeatureRow, _declared_names, _opener
from crec.repo_miner import SOURCE_SUFFIXES, diff_file_hunks


class RepoBuilder:
    """Builds a throwaway git repo with reproducible commit metadata."""

    def __init__(self, path: Path):
        self.path = path
        self.step = 0
        path.mkdir(parents=True, exist_ok=True)
        self._git("init", "-q", "-b", "main", ".")
        self._git("config", "user.name", "Dev One")
        self._git("config", "user.email", "dev1@example.com")

    def _git(self, *args: str, env: dict | None = None) -> str:
        merged = {**os.environ, **(env or {})}
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
            text=True,
            env=merged,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def commit(
        self,
        files: dict[str, str | None],
        message: str = "change",
        author: tuple[str, str] = ("Dev One", "dev1@example.com"),
    ) -> str:
        for rel, content in files.items():
            target = self.path / rel
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        self._git("add", "-A")
        self.step += 1
        stamp = f"2020-01-{1 + self.step:02d}T00:00:00+0000"
        self._git(
            "commit",
            "-q",
            "--allow-empty",
            "-m",
            message,
            f"--author={author[0]} <{author[1]}>",
            env={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp},
        )
        return self._git("rev-parse", "HEAD").strip()


class SnapshotRepo:
    """In-memory file snapshots keyed by commit ids 'v0', 'v1', ..., as the
    Repository under a VersionData that answers featurize's questions.

    It answers only what those questions ask a Repository: changed paths, the
    source files and their blob ids (a hash of the text), file content and
    line-diff hunks.
    """

    def __init__(self, snapshots: list[dict[str, str]]):
        self.snapshots = snapshots

    def _files(self, cid: str) -> dict[str, str]:
        return self.snapshots[int(cid[1:])]

    def file_at(self, cid: str, path: str) -> bytes | None:
        text = self._files(cid).get(path)
        return None if text is None else text.encode()

    def read_ahead(self, blobs) -> None:
        """Every snapshot is already in memory."""

    def changed_paths(self, a: str, b: str) -> list[str]:
        fa, fb = self._files(a), self._files(b)
        return sorted(p for p in set(fa) | set(fb) if fa.get(p) != fb.get(p))

    def source_files(self, cid: str) -> dict[str, str]:
        return {
            path: hashlib.sha1(text.encode()).hexdigest()
            for path, text in sorted(self._files(cid).items())
            if path.endswith(SOURCE_SUFFIXES)
        }

    def diff_hunks(self, a: str, b: str, path: str):
        return diff_file_hunks(self.file_at(a, path), self.file_at(b, path))


def feature_row(
    label: int | None,
    assignments: dict[int, float] | None = None,
    lineage: str = "lin",
    version: int = 0,
) -> FeatureRow:
    """A row with F<n> = value for each n: value of *assignments* and 0 elsewhere."""
    values = [0.0] * len(FEATURES)
    for feature, value in (assignments or {}).items():
        values[feature - 1] = value
    return FeatureRow(lineage, version, tuple(values), label)


def span_block(texts, path: str = "A.java", start: int = 1, span: int = 8) -> CodeBlock:
    """A block over a token list of its own: one identifier per text, in a
    block of *span* lines from *start*. Its `{` is taken to be token *start* of
    its file, so that blocks of one path that start on different lines have
    different braces, as the blocks of one file do."""
    lex = TokenList(Token("identifier", t) for t in texts)
    lex.lines = [start] * len(lex)
    return CodeBlock(
        path=path,
        start_line=start,
        end_line=start + span - 1,
        lex=lex,
        first=0,
        brace=start,
        stop=len(lex),
        size=len(lex),
    )


def lex_top_level_classes(lex: TokenList) -> list[tuple[str, int, int, list[str]]]:
    """(name, start_line, end_line, related names) for each top-level type of a
    file's tokens, by a brace-depth walk of the tokens alone: the reference that
    `features.top_level_classes` over `extract_blocks` replaced. Its depth goes
    negative after an unmatched ``}``, so on such files the two may differ."""
    classes = []
    depth = 0
    i = 0
    while i < len(lex):
        t = lex[i]
        if t.kind == "punct" and t.text == "{":
            depth += 1
        elif t.kind == "punct" and t.text == "}":
            depth -= 1
        elif (
            depth == 0
            and t.kind == "keyword"
            and t.text in ("class", "interface", "enum")
            and i + 1 < len(lex)
            and lex[i + 1].kind == "identifier"
        ):
            name = lex[i + 1].text
            start = lex.lines[i]
            related = []
            j = i + 2
            in_generics = 0
            collecting = False
            while j < len(lex) and not (lex[j].kind == "punct" and lex[j].text == "{"):
                tj = lex[j]
                if tj.kind == "punct" and tj.text == "<":
                    in_generics += 1
                elif tj.kind == "punct" and tj.text in (">", ">>", ">>>"):
                    in_generics -= len(tj.text)
                elif tj.kind == "keyword" and tj.text in ("extends", "implements"):
                    collecting = True
                elif collecting and not in_generics and tj.kind == "identifier":
                    related.append(tj.text)
                j += 1
            body_depth = 0
            end = start
            while j < len(lex):
                if lex[j].kind == "punct" and lex[j].text == "{":
                    body_depth += 1
                elif lex[j].kind == "punct" and lex[j].text == "}":
                    body_depth -= 1
                    if body_depth == 0:
                        end = lex.lines[j]
                        break
                j += 1
            classes.append((name, start, end, related))
            i = j
        i += 1
    return classes


def lex_file_context(lex: TokenList) -> frozenset[str]:
    """Names declared in the ``;``-ended statements at brace depth 1 of a
    file's tokens, by a brace-depth walk of the tokens alone: the reference
    that `features.file_context` over `extract_blocks` replaced. A brace pair
    opened at depth 1 ends its statement, unless the statement's first ``(``
    or ``=`` before it, outside its annotations, is an ``=``: then the pair is
    skipped and the statement goes on. The statement before the first ``;``
    of an enum's body lists its constants and declares none. Statements are
    read by the rules that `file_context` reads them by (`features._opener`
    and `_declared_names`): outside parentheses and without annotations. Its depth goes wrong after an unmatched
    ``}``, so on such files the two may differ."""
    names: set[str] = set()
    depth, held, enum = 0, False, False
    segment: list[Token] = []
    for t in lex:
        if t.kind == "punct" and t.text in ("{", "}"):
            if t.text == "{" and depth == 1:
                held = _opener(segment) == "="
            depth += 1 if t.text == "{" else -1
            if not held:
                segment = []
            if depth <= 1:  # among a type's own tokens, or out of its body
                held = False
            enum = enum and depth > 0
        elif depth == 0 and t.kind == "keyword" and t.text == "enum":
            enum = True
        elif depth == 1:
            if t.kind == "punct" and t.text == ";":
                names |= set() if enum else _declared_names(segment)
                segment, enum = [], False
            else:
                segment.append(t)
    return frozenset(names)


def lex_member_class(member: CodeBlock, classes) -> str | None:
    """The type of *classes*, a `lex_top_level_classes` list, whose lines hold the member's."""
    for name, start, end, _ in classes:
        if start <= member.start_line and member.end_line <= end:
            return name
    return None


def read_sweep(path) -> list[tuple[float, int]]:
    """(threshold, R count) rows of a `label --sweep` file; no command reads one."""
    return artifacts._read_rows(path, "label-sweep", lambda d: (d["threshold"], d["reported"]))


def save_config(config: PipelineConfig, path) -> None:
    """Write *config* in the format `load_config` reads; crec itself writes none."""
    config.validate()
    lines = ["crec-format v1 config"]
    lines += [f"{name} = {value}" for name, value in config._asdict().items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def make_repo(tmp_path):
    counter = iter(range(1000))

    def _make(name: str | None = None) -> RepoBuilder:
        return RepoBuilder(tmp_path / (name or f"repo{next(counter)}"))

    return _make
