"""Repository mining: commit enumeration, sampling, diffs, windows, authors."""

from __future__ import annotations

import difflib
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import clone_fixtures
from conftest import SnapshotRepo, span_block
from crec import features
from crec.clone_detector import CloneGroup, detect_clones, extract_blocks, scan
from crec.errors import EmptyRepository, NotARepository, UnknownCommit
from crec.genealogy import Lineage
from crec.pipeline import VersionData
from crec.repo_miner import (
    CommitRecord,
    Repository,
    SampledVersion,
    Hunk,
    _lcs_pairs,
    _lines,
    checked_window,
    diff_file_hunks,
    distinct_authors,
    hunk_touches,
    line_diff_hunks,
    sample_versions,
)


def _fresh_lines(tag: str, n: int) -> str:
    return "".join(f"{tag} line {i}\n" for i in range(n))


def _difflib_changed_count(a: str, b: str) -> int:
    """Independent added+deleted oracle for small fixture diffs."""
    matcher = difflib.SequenceMatcher(
        None, a.splitlines(), b.splitlines(), autojunk=False
    )
    added = deleted = 0
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op in ("delete", "replace"):
            deleted += i2 - i1
        if op in ("insert", "replace"):
            added += j2 - j1
    return added + deleted


class TestEnumerateCommits:
    def test_single_commit_lists_all_files(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "class A {}\n", "b.java": "class B {}\n"})
        commits = Repository(rb.path).commits()
        assert len(commits) == 1
        assert commits[0].changed_files == {"a.java", "b.java"}
        assert commits[0].changed_line_count == 2
        assert commits[0].author == "dev one <dev1@example.com>"

    def test_changed_files_follow_each_commit(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "class A {}\n"})
        rb.commit({"b.java": "class B {}\n"})
        rb.commit({"a.java": "class A { int x; }\n"})
        commits = Repository(rb.path).commits()
        assert [sorted(c.changed_files) for c in commits] == [
            ["a.java"],
            ["b.java"],
            ["a.java"],
        ]

    def test_changed_line_count_matches_diff_oracle(self, make_repo):
        rb = make_repo()
        first = _fresh_lines("alpha", 12)
        second = _fresh_lines("alpha", 4) + "kept tail\n"
        rb.commit({"a.java": first})
        rb.commit({"a.java": second})
        commits = Repository(rb.path).commits()
        assert commits[1].changed_line_count == _difflib_changed_count(first, second)

    def test_non_repository_rejected(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(NotARepository):
            Repository(plain)

    def test_empty_repository_rejected(self, tmp_path):
        import subprocess

        bare = tmp_path / "empty"
        bare.mkdir()
        subprocess.run(["git", "-C", str(bare), "init", "-q", "."], check=True)
        with pytest.raises(EmptyRepository):
            Repository(bare).commits()


def _record(cid: str, count: int) -> CommitRecord:
    return CommitRecord(cid, 0, "dev <d@e>", frozenset({"a.java"} if count else set()), count)


class TestSampleVersions:
    def test_single_commit(self):
        samples = sample_versions([_record("c0", 3)])
        assert [s.commit_id for s in samples] == ["c0"]
        assert samples[0].index == 0

    def test_all_commits_above_threshold_sampled(self):
        commits = [_record(f"c{i}", 250) for i in range(4)]
        samples = sample_versions(commits, delta_threshold=200)
        assert [s.commit_id for s in samples] == ["c0", "c1", "c2", "c3"]
        assert [s.cumulative_delta for s in samples] == [0, 250, 250, 250]

    def test_accumulation_and_forced_final(self):
        commits = [_record("c0", 5)] + [_record(f"c{i}", 80) for i in range(1, 4)]
        samples = sample_versions(commits, delta_threshold=200)
        assert [s.commit_id for s in samples] == ["c0", "c3"]
        assert samples[1].cumulative_delta == 240  # no duplicate forced final

    def test_small_trailing_delta_still_sampled(self):
        commits = [_record("c0", 0), _record("c1", 300), _record("c2", 10)]
        samples = sample_versions(commits, delta_threshold=200)
        assert [s.commit_id for s in samples] == ["c0", "c1", "c2"]
        assert samples[2].cumulative_delta == 10

    def test_deltas_meet_threshold_except_endpoints(self):
        rng = random.Random(7)
        commits = [_record(f"c{i}", rng.randrange(0, 120)) for i in range(60)]
        samples = sample_versions(commits, delta_threshold=200)
        for s in samples[1:-1]:
            assert s.cumulative_delta >= 200
        assert samples[0].commit_id == "c0"
        assert samples[-1].commit_id == "c59"

    def test_deterministic(self):
        commits = [_record(f"c{i}", (i * 37) % 150) for i in range(40)]
        assert sample_versions(commits) == sample_versions(commits)


class TestFileAccess:
    def test_absent_before_creation(self, make_repo):
        rb = make_repo()
        c1 = rb.commit({"a.java": "class A {}\n"})
        c2 = rb.commit({"b.java": "class B {}\n"})
        repo = Repository(rb.path)
        assert repo.file_at(c1, "b.java") is None
        assert repo.file_at(c2, "b.java") == b"class B {}\n"

    def test_identical_bytes(self, make_repo):
        rb = make_repo()
        content = "class A {\n\tint x = 3;\n}\n"
        c1 = rb.commit({"a.java": content})
        assert Repository(rb.path).file_at(c1, "a.java") == content.encode()

    def test_post_modification_content(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "old\n"})
        c2 = rb.commit({"a.java": "new\n"})
        assert Repository(rb.path).file_at(c2, "a.java") == b"new\n"

    def test_unknown_commit(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "x\n"})
        repo = Repository(rb.path)
        with pytest.raises(UnknownCommit):
            repo.file_at("0" * 40, "a.java")


def _hunk_ranges(hunks):
    """(removed ranges in a, added ranges in b), 1-based inclusive."""
    removed = [(h.a_start, h.a_end) for h in hunks if h.a_end >= h.a_start]
    added = [(h.b_start, h.b_end) for h in hunks if h.b_end >= h.b_start]
    return removed, added


class TestDiffLines:
    def test_identical_content_empty(self, make_repo):
        rb = make_repo()
        c1 = rb.commit({"a.java": _fresh_lines("x", 5)})
        c2 = rb.commit({"b.java": "other\n"})
        with Repository(rb.path) as repo:
            assert repo.diff_hunks(c1, c2, "a.java") == []

    def test_unchanged_path_reads_no_blob(self, make_repo, monkeypatch):
        rb = make_repo()
        c1 = rb.commit({"a.java": _fresh_lines("x", 5)})
        c2 = rb.commit({"b.java": "other\n"})
        with Repository(rb.path) as repo:
            for commit in (c1, c2):  # trees come through the same reader as blobs
                repo.list_files(commit)
            reads = []
            read_object = repo._read_object
            monkeypatch.setattr(
                repo, "_read_object", lambda name, kind: reads.append(name) or read_object(name, kind)
            )
            assert repo.diff_hunks(c1, c2, "a.java") == []
            assert repo.diff_hunks(c1, c2, "absent.java") == []
            assert reads == []
            assert repo.diff_hunks(c1, c2, "b.java") != []
            assert len(reads) == 1  # b.java is absent at c1

    def test_single_line_replacement(self, make_repo):
        rb = make_repo()
        base = [f"line {i}" for i in range(1, 11)]
        changed = list(base)
        changed[4] = "line five rewritten"
        c1 = rb.commit({"a.java": "\n".join(base) + "\n"})
        c2 = rb.commit({"a.java": "\n".join(changed) + "\n"})
        with Repository(rb.path) as repo:
            removed, added = _hunk_ranges(repo.diff_hunks(c1, c2, "a.java"))
        assert removed == [(5, 5)]
        assert added == [(5, 5)]

    def test_deleted_file(self, make_repo):
        rb = make_repo()
        c1 = rb.commit({"a.java": _fresh_lines("x", 4)})
        c2 = rb.commit({"a.java": None})
        with Repository(rb.path) as repo:
            removed, added = _hunk_ranges(repo.diff_hunks(c1, c2, "a.java"))
        assert removed == [(1, 4)]
        assert added == []

    def test_bare_cr_does_not_break_a_line(self):
        """Lines break at LF only, as scan counts them: an edit on line 4, the
        last line of m (lines 3-4), is a hunk on line 4 and not on line 5,
        where k starts."""
        old = (
            "class A {\n  // note\r  more\n  void m() {\n    int y = 2; }\n"
            "  void k() {\n    int z = 3;\n  }\n}\n"
        )
        new = old.replace("y = 2", "y = 5")
        assert diff_file_hunks(old.encode(), new.encode()) == [Hunk(4, 4, 4, 4)]

    def test_lf_and_crlf_lines_split_as_splitlines_does(self):
        """Without a bare CR, breaking at LF and dropping one CR before it gives
        bytes.splitlines' lines, so CRLF files diff as they always did."""
        rng = random.Random(5)

        def body() -> bytes:
            ends = [rng.choice([b"\n", b"\r\n"]) for _ in range(rng.randrange(0, 8))]
            lines = [rng.choice([b"x", b"y", b""]) + end for end in ends]
            return b"".join(lines) + rng.choice([b"", b"z"])

        for _ in range(300):
            a, b = body(), body()
            assert diff_file_hunks(a, b) == line_diff_hunks(a.splitlines(), b.splitlines())

    def test_swap_symmetry_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(200):
            a = [rng.choice("xyz") for _ in range(rng.randrange(0, 12))]
            b = [rng.choice("xyz") for _ in range(rng.randrange(0, 12))]
            fwd_removed, fwd_added = _hunk_ranges(line_diff_hunks(a, b))
            rev_removed, rev_added = _hunk_ranges(line_diff_hunks(b, a))
            assert fwd_removed == rev_added
            assert fwd_added == rev_removed

    def test_edit_script_is_minimal(self):
        rng = random.Random(13)
        for _ in range(100):
            a = [rng.choice("pqrs") for _ in range(rng.randrange(0, 10))]
            b = [rng.choice("pqrs") for _ in range(rng.randrange(0, 10))]
            hunks = line_diff_hunks(a, b)
            removed = sum(h.a_end - h.a_start + 1 for h in hunks if h.a_end >= h.a_start)
            added = sum(h.b_end - h.b_start + 1 for h in hunks if h.b_end >= h.b_start)
            lcs = len(table_lcs_pairs(a, b))
            assert removed == len(a) - lcs
            assert added == len(b) - lcs

    def test_large_files_diff_in_bounded_time_and_memory(self):
        """Every third line of a 5,000-line file rewritten: the replaced lines
        appear nowhere in the old file, so the LCS is the 3,333 kept lines and
        each rewrite is a one-line hunk. A full table would hold 25 M cells."""
        n = 5000
        old = b"".join(b"line %d\n" % i for i in range(n))
        new = b"".join(b"rewritten %d\n" % i if i % 3 == 0 else b"line %d\n" % i for i in range(n))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            hunks = diff_file_hunks(old, new)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lcs = n - len(range(0, n, 3))
        assert len(hunks) == 1667
        assert all(h.a_end == h.a_start and h.b_end == h.b_start for h in hunks)
        removed = sum(h.a_end - h.a_start + 1 for h in hunks)
        added = sum(h.b_end - h.b_start + 1 for h in hunks)
        assert added + removed == n + n - 2 * lcs
        assert elapsed < 3.0, f"diff took {elapsed:.2f}s on two 5,000-line files"
        assert peak < 12_000_000, f"diff peaked at {peak / 1e6:.1f} MB"


class TestChangedLineDefinitions:
    """Sampling counts changed lines with `git log --numstat`; the co-change
    features with `line_diff_hunks`, which drops one CR from each line's end."""

    @staticmethod
    def _numstat_and_hunks(make_repo, before: str, after: str):
        rb = make_repo()
        c1 = rb.commit({"a.java": before})
        c2 = rb.commit({"a.java": after})
        numstat = rb._git("log", "-1", "--numstat", "--format=", c2).split()
        with Repository(rb.path) as repo:
            return numstat, repo.commits()[1].changed_line_count, repo.diff_hunks(c1, c2, "a.java")

    def test_lf_to_crlf_counts_for_git_only(self, make_repo):
        before = _fresh_lines("x", 5)
        after = before.replace("x line 2\n", "x line 2\r\n")
        numstat, changed, hunks = self._numstat_and_hunks(make_repo, before, after)
        assert numstat == ["1", "1", "a.java"]
        assert changed == 2
        assert hunks == []

    def test_bare_cr_inside_a_line_counts_for_both(self, make_repo):
        before = _fresh_lines("x", 5)
        after = before.replace("x line 2\n", "x line\r 2\n")
        numstat, changed, hunks = self._numstat_and_hunks(make_repo, before, after)
        assert numstat == ["1", "1", "a.java"]
        assert changed == 2
        assert hunks == [Hunk(3, 3, 3, 3)]


class TestHunkTouches:
    """A pure insertion, the empty old range (a, a - 1), lands between old
    lines a - 1 and a: it touches a block only when both lie inside it."""

    @staticmethod
    def _insertion(a_start: int) -> Hunk:
        return Hunk(a_start, a_start - 1, a_start, a_start)

    def test_insertion_is_the_empty_old_range(self):
        assert line_diff_hunks(["1", "2", "3"], ["1", "x", "2", "3"]) == [self._insertion(2)]

    @pytest.mark.parametrize(
        "a_start, touches",
        [(9, False), (10, False), (11, True), (12, True), (13, False), (14, False)],
        ids=["far-above", "just-above", "first-gap", "last-gap", "just-below", "far-below"],
    )
    def test_insertion_around_a_block(self, a_start, touches):
        assert hunk_touches(self._insertion(a_start), 10, 12) is touches

    @pytest.mark.parametrize("a_start", [9, 10, 11, 12])
    def test_no_insertion_touches_a_one_line_block(self, a_start):
        assert not hunk_touches(self._insertion(a_start), 10, 10)


def table_lcs_pairs(a: list, b: list) -> list[tuple[int, int]]:
    """Reference LCS pairs from the full (n+1) x (m+1) table, one cell per
    step, with the backtrack's tie-breaks that `_lcs_pairs` must keep."""
    pre = 0
    while pre < len(a) and pre < len(b) and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while suf < len(a) - pre and suf < len(b) - pre and a[-1 - suf] == b[-1 - suf]:
        suf += 1
    ca = a[pre : len(a) - suf]
    cb = b[pre : len(b) - suf]
    n, m = len(ca), len(cb)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n):
        row, prev_row = table[i + 1], table[i]
        for j in range(m):
            if ca[i] == cb[j]:
                row[j + 1] = prev_row[j] + 1
            else:
                row[j + 1] = max(row[j], prev_row[j + 1])
    core = []
    i, j = n, m
    while i > 0 and j > 0:
        if ca[i - 1] == cb[j - 1]:
            core.append((pre + i - 1, pre + j - 1))
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    core.reverse()
    head = [(k, k) for k in range(pre)]
    tail = [(len(a) - suf + k, len(b) - suf + k) for k in range(suf)]
    return head + core + tail


def _random_pair(rng: random.Random):
    """Strings over 1-26 symbols, lengths 0-60: small alphabets give many ties."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"[: rng.randint(1, 26)]
    return tuple(
        [rng.choice(alphabet) for _ in range(rng.randint(0, 60))] for _ in range(2)
    )


def _near_copy_pair(rng: random.Random):
    """A random sequence and a copy with a few substitutions, insertions and deletions."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"[: rng.randint(1, 26)]
    a = [rng.choice(alphabet) for _ in range(rng.randint(0, 60))]
    b = list(a)
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, len(b))
        edit = rng.choice(("substitute", "insert", "delete"))
        if edit == "insert" or not b:
            b.insert(k, rng.choice(alphabet + "#"))
        elif edit == "substitute":
            b[min(k, len(b) - 1)] = rng.choice(alphabet + "#")
        else:
            del b[min(k, len(b) - 1)]
    return (a, b) if rng.random() < 0.5 else (b, a)


def _edge_pair(rng: random.Random):
    """Identical, disjoint, common-prefix-only and common-suffix-only pairs."""
    def word(alphabet: str, lo: int = 0) -> list[str]:
        return [rng.choice(alphabet) for _ in range(rng.randint(lo, 30))]

    shared = word("abcdef")
    kind = rng.choice(("identical", "disjoint", "prefix", "suffix"))
    if kind == "identical":
        return shared, list(shared)
    left, right = word("ghijkl"), word("mnopqr")
    if kind == "disjoint":
        return left, right
    if kind == "prefix":
        return shared + left, shared + right
    return left + shared, right + shared


def _crlf_bytes_pair(rng: random.Random):
    """Lines of file bodies holding CRs, split as `diff_file_hunks` splits them."""
    pieces = (b"x", b"y", b"", b"\r", b"x\r", b"\ry", b"x\ry", b"\r\r")
    ends = (b"\n", b"\r\n")

    def body() -> bytes:
        lines = [rng.choice(pieces) + rng.choice(ends) for _ in range(rng.randint(0, 40))]
        return b"".join(lines) + rng.choice((b"", b"z", b"\r"))

    return _lines(body()), _lines(body())


@pytest.mark.parametrize(
    "make_pair, count, seed",
    [
        (_random_pair, 8000, 101),
        (_near_copy_pair, 6000, 102),
        (_edge_pair, 4000, 103),
        (_crlf_bytes_pair, 2000, 104),
    ],
    ids=["random", "near_copy", "edge", "crlf_bytes"],
)
def test_lcs_pairs_match_the_table(make_pair, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        a, b = make_pair(rng)
        assert _lcs_pairs(a, b) == table_lcs_pairs(a, b), (a, b)


def test_lcs_pairs_match_the_table_on_fixture_token_texts(monkeypatch):
    """The consensus and member token texts `multiset_diff` aligns for every
    clone group of the six fixture corpora, at every version."""
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return _lcs_pairs(a, b)

    monkeypatch.setattr(features, "_lcs_pairs", recording)
    corpora = [
        clone_fixtures.end_to_end_corpora(),
        *(make() for make in clone_fixtures.PLANTED.values()),
        *(make() for make in clone_fixtures.CONTROLS.values()),
    ]
    for versions in corpora:
        for version, files in enumerate(versions):
            blocks = [b for p in sorted(files) for b in extract_blocks(scan(files[p]), p)]
            for group in detect_clones(blocks, version=version):
                features.multiset_diff([features.classified_sequence(m) for m in group.members])
    assert len(calls) >= 20
    for a, b in calls:
        assert _lcs_pairs(a, b) == table_lcs_pairs(a, b), (a, b)


def _samples(n: int) -> list[SampledVersion]:
    return [SampledVersion(i, f"c{i}", 200) for i in range(n)]


class TestCheckedWindow:
    def test_forty_samples(self):
        window = checked_window(_samples(40))
        assert len(window.steps) == 3  # last ceil(40/10)=4 samples
        assert [s.index for s, _ in window.steps] == [36, 37, 38]
        assert len(window.recent_steps) == 1
        assert window.recent_steps[0][0].index == 38

    def test_two_samples_minimum(self):
        window = checked_window(_samples(2))
        assert len(window.steps) == 1
        assert window.recent_steps == window.steps

    def test_fallback_below_two(self):
        window = checked_window(_samples(10))  # ceil(10/10)=1 -> fallback to 2
        assert len(window.steps) == 1
        assert window.steps[0][0].index == 8

    def test_too_few_samples_give_no_steps(self):
        members = (span_block(["t"], path="A.java"), span_block(["t"], path="B.java"))
        group = CloneGroup(version=0, members=members, group_id="g")
        lineage = Lineage("lin", [(0, group)], [], "alive_at_last_version")
        for n in (0, 1):
            samples = _samples(n)
            window = checked_window(samples, Fraction(1, 1))
            assert window.steps == window.recent_steps == ()
            vdata = VersionData(SnapshotRepo([{"A.java": "t\n", "B.java": "t\n"}] * n), samples)
            assert features.extract_history_features("A.java", window, vdata, []) == (0.0,) * 6
            assert features.extract_cochange_features(group, lineage, 0, window, vdata) == (
                (0.0,) * 5
            )

    def test_window_is_suffix_of_samples(self):
        for n in range(2, 45):
            samples = _samples(n)
            window = checked_window(samples)
            covered = [window.steps[0][0]] + [b for _, b in window.steps]
            assert covered == samples[-len(covered):]

    def test_fraction_arithmetic_is_exact(self):
        # ceil must not pick up float fuzz: 40 * (1/10) is exactly 4
        window = checked_window(_samples(40), Fraction(1, 10), Fraction(1, 4))
        assert len(window.steps) == 3


class TestDistinctAuthors:
    def test_single_author(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "x\n"})
        commits = Repository(rb.path).commits()
        assert distinct_authors("a.java", commits) == (1, 1)

    def test_subset_of_authors(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "v1\n"}, author=("Dev One", "dev1@example.com"))
        rb.commit({"a.java": "v2\n"}, author=("Dev Two", "dev2@example.com"))
        rb.commit({"b.java": "w\n"}, author=("Dev Three", "dev3@example.com"))
        commits = Repository(rb.path).commits()
        assert distinct_authors("a.java", commits) == (2, 3)

    def test_absent_file(self, make_repo):
        rb = make_repo()
        rb.commit({"a.java": "x\n"})
        commits = Repository(rb.path).commits()
        assert distinct_authors("missing.java", commits) == (0, 1)
