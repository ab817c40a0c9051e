"""Read-only git mining: commit enumeration, version sampling, file and diff access.

All VCS access is funneled through :class:`Repository` so a different backend
could be substituted. "Changed lines" means added + deleted lines, with binary
files contributing 0, under one of two diffs. Sampling counts them from
`git log --numstat`, that is git's default diff, which is not guaranteed
minimal. `line_diff_hunks`, which the co-change features use, is a minimal
line-LCS diff. The two counts can differ on large edits; which one to keep is
an open ROADMAP item. The LCS table behind `line_diff_hunks` and the token
alignment of `features.multiset_diff` is held as bit-parallel rows, one big
int per row (Allison and Dix, IPL 1986; Hyyro, AWOCA 2004), so it takes
about n * m / 64 word operations and n * m bits.
"""

from __future__ import annotations

import contextlib
import math
import subprocess
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .config import DEFAULTS
from .errors import EmptyRepository, GitError, NotARepository, UnknownCommit

SOURCE_SUFFIXES = (".java",)


class CommitRecord(NamedTuple):
    id: str
    timestamp: int
    author: str  # lowercased "name <email>"
    changed_files: frozenset[str]
    changed_line_count: int  # added + deleted lines under `git log --numstat`


class SampledVersion(NamedTuple):
    index: int
    commit_id: str
    cumulative_delta: int


class CheckedWindow(NamedTuple):
    """Trailing portion of the sample list over which history features run."""

    steps: tuple[tuple[SampledVersion, SampledVersion], ...]
    recent_steps: tuple[tuple[SampledVersion, SampledVersion], ...]


class Hunk(NamedTuple):
    """One replacement region of a line diff, 1-based inclusive ranges.

    An empty side has start > end; an empty a-range (s, s-1) denotes an
    insertion between lines s-1 and s of the old file.
    """

    a_start: int
    a_end: int
    b_start: int
    b_end: int


def _git(repo_path: str | Path, *args: str) -> bytes:
    """Run one git command to completion; a nonzero exit raises GitError."""
    proc = subprocess.run(["git", "-C", str(repo_path), *args], capture_output=True)
    if proc.returncode != 0:
        message = proc.stderr.decode("utf-8", errors="replace").strip()
        raise GitError(f"git {args[0]} exited {proc.returncode}: {message}")
    return proc.stdout


def _path_text(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")


_GITLINK = "160000"  # tree mode of a submodule commit, which has no blob here
_SYMLINK = "120000"  # tree mode of a symbolic link, whose blob is the target's path
_S_IFMT, _S_IFDIR, _S_IFREG, _S_IFLNK = 0o170000, 0o040000, 0o100000, 0o120000


def _canonical_mode(mode: int) -> int:
    """The mode git's tree readers report for a stored one (git's canon_mode)."""
    kind = mode & _S_IFMT
    if kind == _S_IFREG:
        return 0o100755 if mode & 0o100 else 0o100644
    if kind in (_S_IFDIR, _S_IFLNK):
        return kind
    return 0o160000  # every other kind reads as a gitlink


def _tree_entries(data: bytes, width: int, tree_id: str) -> list[tuple[bytes, int, str]]:
    """(name, canonical mode, object id) of each entry of a raw tree object, in stored order."""
    entries = []
    start = 0
    try:
        while start < len(data):
            space = data.index(b" ", start)
            nul = data.index(b"\0", space)
            end = nul + 1 + width
            if end > len(data):
                raise ValueError("object id cut short")
            mode = _canonical_mode(int(data[start:space], 8))
            entries.append((data[space + 1 : nul], mode, data[nul + 1 : end].hex()))
            start = end
    except ValueError:
        raise GitError(f"malformed tree object {tree_id}") from None
    return entries


# Request bytes written to cat-file at once. Every earlier request has been
# answered before a burst is written, so the pipe to git is empty, and a pipe
# takes at least one page without blocking: the write cannot wait on git while
# git waits for us to read its replies.
_BURST_BYTES = 4096


class Repository:
    """Handle on an on-disk git repository. Read-only after construction.

    Each commit's tree is read once (path -> blob id) and file contents by
    blob id, both through one long-lived `git cat-file --batch`, started on the
    first read. Objects are asked for in pipelined bursts: a tree walk asks
    for all the subtrees of one level at once, and `read_ahead` for all of a
    version's blobs, which `file_at` then hands out. Tree bodies are kept by
    tree id, so a subtree that no version changed is read once. Tree entries
    are raw bytes, so non-ASCII names come back verbatim. Use the repository
    as a context manager, or call close(), to stop and reap that process.
    """

    def __init__(self, path: str | Path):
        self._batch: subprocess.Popen | None = None
        self.path = Path(path)
        try:
            _git(self.path, "rev-parse", "--git-dir")
        except (GitError, FileNotFoundError, NotADirectoryError):
            raise NotARepository(f"not a git repository: {path}") from None
        self._commits: list[CommitRecord] | None = None
        self._known: frozenset[str] | None = None
        self._trees: dict[str, dict[str, tuple[str, str]]] = {}  # commit -> path -> (mode, id)
        self._tree_bodies: dict[str, bytes] = {}  # tree id -> raw tree object
        self._ahead: dict[str, bytes] = {}  # blob id -> body, from the last read_ahead

    def __enter__(self) -> Repository:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def close(self) -> None:
        """Stop the cat-file process, if one was started, and reap it."""
        batch, self._batch = self._batch, None
        if batch is None:
            return
        with contextlib.suppress(OSError):  # a dead process cannot take a flush
            batch.stdin.close()
        batch.stdout.close()
        batch.wait()

    def _head(self, *args: str) -> bytes:
        """`git <args> HEAD`; EmptyRepository when HEAD has no commit yet."""
        try:
            return _git(self.path, *args, "HEAD")
        except GitError:
            try:
                _git(self.path, "rev-parse", "--verify", "--quiet", "HEAD")
            except GitError:
                raise EmptyRepository(f"repository has no commits: {self.path}") from None
            raise

    # -- commit stream -----------------------------------------------------

    def commits(self) -> list[CommitRecord]:
        """First-parent chain, oldest to newest, with populated metadata."""
        if self._commits is None:
            self._commits = self._enumerate()
            self._known = frozenset(c.id for c in self._commits)
        return self._commits

    def _enumerate(self) -> list[CommitRecord]:
        """One `git log` over the first-parent chain with per-commit numstat.

        Each commit is diffed against its first parent, the root against the
        empty tree, with renames off. Under -z every header field and numstat
        entry ends in NUL; an entry always holds a tab and a commit id never
        does, which is where one commit's entries stop.
        """
        raw = self._head(
            "log",
            "--first-parent",
            "--reverse",
            "--root",
            "--no-renames",
            "--diff-merges=first-parent",
            "--numstat",
            "-z",
            "--format=%H%x00%ct%x00%an%x00%ae",
        )
        tokens = raw.split(b"\0")
        records = []
        i = 0
        while i + 4 < len(tokens) and tokens[i]:
            commit_id, ts, name, email = (
                t.decode("utf-8", errors="replace") for t in tokens[i : i + 4]
            )
            i += 4
            files, total = [], 0
            while b"\t" in tokens[i]:
                added, deleted, path = tokens[i].lstrip(b"\n").split(b"\t", 2)
                files.append(_path_text(path))
                if added != b"-":  # binary files report "-" and contribute 0
                    total += int(added) + int(deleted)
                i += 1
            author = f"{name} <{email}>".lower()
            records.append(CommitRecord(commit_id, int(ts), author, frozenset(files), total))
        if tokens[i:] != [b""]:
            raise GitError(f"unexpected git log output after {len(records)} commits")
        return records

    # -- content access ----------------------------------------------------

    def _check_commit(self, commit_id: str) -> None:
        if self._known is None:
            self._known = frozenset(self._head("rev-list", "--first-parent").decode().split())
        if commit_id not in self._known:
            raise UnknownCommit(commit_id)

    def _entries(self, commit_id: str) -> dict[str, tuple[str, str]]:
        if commit_id not in self._trees:
            self.list_files(commit_id)
        return self._trees[commit_id]

    def list_files(self, commit_id: str) -> list[str]:
        """Every path in the commit's tree, in tree order; the tree is read once."""
        self._check_commit(commit_id)
        if commit_id not in self._trees:
            self._trees[commit_id] = self._walk_tree(commit_id)
        return list(self._trees[commit_id])

    def source_files(self, commit_id: str) -> dict[str, str | None]:
        """path -> blob id of each file whose name ends with one of
        `SOURCE_SUFFIXES`, in tree order; None for a gitlink. Symlinks are left
        out: the blob of one holds its target's path, and a checkout shows the
        target's text, so neither is the link's own source."""
        paths = [p for p in self.list_files(commit_id) if p.endswith(SOURCE_SUFFIXES)]
        entries = self._trees[commit_id]
        return {p: self.blob_id(commit_id, p) for p in paths if entries[p][0] != _SYMLINK}

    def _walk_tree(self, commit_id: str) -> dict[str, tuple[str, str]]:
        """path -> (mode, object id) of every non-tree entry, as `ls-tree -r` lists them.

        The root tree comes through the batch reader, then the subtrees of
        each level in one burst, leaving out those already read. The entries
        are then walked depth first in stored order, which is `ls-tree -r`'s
        order, with an explicit stack so that depth is unbounded. Object ids
        are as wide as the reply's, and modes are git's canonical ones (a
        stored 100664 reads as 100644). Gitlinks stay entries and are not
        read. Two paths that decode to the same text raise GitError rather
        than one hiding the other.
        """
        root_id, data = self._read_object(f"{commit_id}^{{tree}}", b"tree")
        width = len(root_id) // 2
        bodies = self._tree_bodies
        bodies[root_id] = data
        trees = {root_id: _tree_entries(data, width, root_id)}  # this walk's trees, parsed
        level = [root_id]
        while level:
            subtrees = list(dict.fromkeys(
                object_id
                for tree_id in level
                for _, mode, object_id in trees[tree_id]
                if mode == _S_IFDIR and object_id not in trees
            ))
            unread = [tree_id for tree_id in subtrees if tree_id not in bodies]
            bodies.update(zip(unread, (body for _, body in self._read_objects(unread, b"tree"))))
            for tree_id in subtrees:
                trees[tree_id] = _tree_entries(bodies[tree_id], width, tree_id)
            level = subtrees

        entries: dict[str, tuple[str, str]] = {}
        raw_paths: dict[str, bytes] = {}
        stack = trees[root_id][::-1]
        while stack:
            raw, mode, object_id = stack.pop()
            if mode == _S_IFDIR:
                prefix = raw + b"/"
                stack += [(prefix + name, m, o) for name, m, o in reversed(trees[object_id])]
                continue
            path = _path_text(raw)
            if path in entries:
                raise GitError(
                    f"tree of {commit_id} holds {raw_paths[path]!r} and {raw!r}, "
                    f"which both read as {path!r}"
                )
            entries[path] = (f"{mode:06o}", object_id)
            raw_paths[path] = raw
        return entries

    def blob_id(self, commit_id: str, path: str) -> str | None:
        """Object id of the file at *path* in *commit_id*, or None when absent there."""
        entry = self._entries(commit_id).get(path)
        if entry is None or entry[0] == _GITLINK:
            return None
        return entry[1]

    def file_at(self, commit_id: str, path: str) -> bytes | None:
        """Exact bytes of *path* at *commit_id*, or None when absent there.

        A blob of the last `read_ahead` is taken from it; any other is asked
        for on its own. An object the tree names but the batch reader cannot
        deliver raises GitError rather than reading as absent.
        """
        self._check_commit(commit_id)
        object_id = self.blob_id(commit_id, path)
        if object_id is None:
            return None
        data = self._ahead.pop(object_id, None)
        return self._read_object(object_id, b"blob")[1] if data is None else data

    def read_ahead(self, blob_ids: Iterable[str]) -> None:
        """Read the blobs *blob_ids* in one burst, for `file_at` to hand out.

        The bodies of an earlier read-ahead that `file_at` did not take are
        dropped, so the bodies of one read-ahead at most are held.
        """
        self._ahead = {}
        wanted = list(dict.fromkeys(blob_ids))
        self._ahead = dict(zip(wanted, (body for _, body in self._read_objects(wanted, b"blob"))))

    def _read_object(self, name: str, kind: bytes) -> tuple[str, bytes]:
        """(object id, body) of the object *name* resolves to, which must be a *kind*."""
        return self._read_objects([name], kind)[0]

    def _read_objects(self, names: list[str], kind: bytes) -> list[tuple[str, bytes]]:
        """(object id, body) of the object each of *names* resolves to, in
        order; each must be a *kind*.

        The requests go out in bursts of at most _BURST_BYTES, and a burst's
        replies are all read before the next burst is written. A missing or
        mistyped object, or a reply that cannot be read, raises GitError and
        stops the process; the next read starts a new one.
        """
        if not names:
            return []
        if self._batch is None:
            self._batch = subprocess.Popen(
                ["git", "-C", str(self.path), "cat-file", "--batch"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        batch = self._batch
        out: list[tuple[str, bytes]] = []
        start = 0
        while start < len(names):
            stop, size = start + 1, len(names[start]) + 1
            while stop < len(names) and size + len(names[stop]) + 1 <= _BURST_BYTES:
                size += len(names[stop]) + 1
                stop += 1
            burst = names[start:stop]
            try:
                batch.stdin.write("".join(name + "\n" for name in burst).encode())
                batch.stdin.flush()
                replies = [self._read_reply(batch, name, kind) for name in burst]
            except GitError:
                self.close()
                raise
            except OSError as exc:
                self.close()
                raise GitError(f"git cat-file --batch is gone: {exc}") from None
            out += replies
            start = stop
        return out

    def _read_reply(self, batch: subprocess.Popen, name: str, kind: bytes) -> tuple[str, bytes]:
        """(object id, body) of the reply for *name*, read whole."""
        header = batch.stdout.readline()
        fields = header.split()
        if not fields:
            raise GitError(f"git cat-file --batch is gone (exit status {batch.poll()})")
        if fields[-1] == b"missing":
            raise GitError(f"object {name} is missing from {self.path}")
        if len(fields) != 3:
            raise GitError(f"unexpected git cat-file reply for {name}: {header!r}")
        size = int(fields[2])
        data = batch.stdout.read(size)
        if len(data) != size or batch.stdout.read(1) != b"\n":
            raise GitError(f"short read of object {name}: {len(data)} of {size} bytes")
        if fields[1] != kind:
            raise GitError(f"object {name} is a {fields[1].decode()}, not a {kind.decode()}")
        return fields[0].decode(), data

    def changed_paths(self, commit_a: str, commit_b: str) -> list[str]:
        """Sorted paths whose tree entry differs between the two commits.

        Compares the two trees as read, by canonical mode and object id, so it
        names the same paths as `git diff --name-only --no-renames` without
        starting a process.
        """
        self._check_commit(commit_a)
        self._check_commit(commit_b)
        a, b = self._entries(commit_a), self._entries(commit_b)
        return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))

    def diff_hunks(self, commit_a: str, commit_b: str, path: str) -> list[Hunk]:
        """Line hunks of *path*; none, and nothing read, when both name one blob or none."""
        if self.blob_id(commit_a, path) == self.blob_id(commit_b, path):
            return []
        a = self.file_at(commit_a, path)
        b = self.file_at(commit_b, path)
        return diff_file_hunks(a, b)


# -- line diff (LCS) -------------------------------------------------------


def _lines(data: bytes | None) -> list[bytes]:
    """*data* split at each LF, as scan and git count lines, with one trailing
    CR dropped from each line; an absent file has no lines."""
    lines = data.removesuffix(b"\n").split(b"\n") if data else []
    return [line.removesuffix(b"\r") for line in lines]


def diff_file_hunks(a: bytes | None, b: bytes | None) -> list[Hunk]:
    """Diff two file bodies that may be absent (None = file does not exist)."""
    return line_diff_hunks(_lines(a), _lines(b))


def line_diff_hunks(a_lines: list, b_lines: list) -> list[Hunk]:
    """Minimal LCS edit script as hunks (not git's diff, which sampling counts).

    Orientation is canonicalized by line content so that swapping the inputs
    exactly exchanges the removed/added roles.
    """
    if tuple(b_lines) < tuple(a_lines):
        return [Hunk(h.b_start, h.b_end, h.a_start, h.a_end) for h in line_diff_hunks(b_lines, a_lines)]
    pairs = _lcs_pairs(a_lines, b_lines)
    hunks = []
    bounded = [(-1, -1)] + pairs + [(len(a_lines), len(b_lines))]
    for (pi, pj), (ci, cj) in zip(bounded, bounded[1:]):
        a_lo, a_hi = pi + 1, ci - 1
        b_lo, b_hi = pj + 1, cj - 1
        if a_lo <= a_hi or b_lo <= b_hi:
            hunks.append(Hunk(a_lo + 1, a_hi + 1, b_lo + 1, b_hi + 1))
    return hunks


def _lcs_pairs(a: list, b: list) -> list[tuple[int, int]]:
    """Matched (i, j) index pairs of a longest common subsequence, 0-based.

    After trimming the common prefix and suffix, the LCS table of the n x m
    core is held as bit rows (Allison and Dix, "A bit-string
    longest-common-subsequence algorithm", IPL 1986, in the form of Hyyro,
    "Bit-parallel LCS-length computation revisited", AWOCA 2004): bit j of row
    i is clear exactly when table[i][j + 1] exceeds table[i][j], so
    table[i][j] = j - popcount(row i & (2**j - 1)). Each row takes five
    big-int operations, about n * ceil(m / 64) word operations in all, and the
    rows take n * m bits, not n * m list slots. The backtrack reads the table
    in O(n + m) steps and breaks ties exactly as a full table would: the
    diagonal on an equal pair, else up when table[i-1][j] >= table[i][j-1].
    Elements must be hashable, as each distinct element of *b* keys its
    match mask.
    """
    pre = 0
    while pre < len(a) and pre < len(b) and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while suf < len(a) - pre and suf < len(b) - pre and a[-1 - suf] == b[-1 - suf]:
        suf += 1
    ca = a[pre : len(a) - suf]
    cb = b[pre : len(b) - suf]
    n, m = len(ca), len(cb)
    masks = {}
    for j, x in enumerate(cb):
        masks[x] = masks.get(x, 0) | 1 << j
    full = (1 << m) - 1
    rows = [full]
    v = full
    for x in ca:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)

    def table(i: int, j: int) -> int:
        return j - (rows[i] & ((1 << j) - 1)).bit_count()

    core = []
    i, j = n, m
    while i > 0 and j > 0:
        if ca[i - 1] == cb[j - 1]:
            core.append((pre + i - 1, pre + j - 1))
            i -= 1
            j -= 1
        elif table(i - 1, j) >= table(i, j - 1):
            i -= 1
        else:
            j -= 1
    core.reverse()
    head = [(k, k) for k in range(pre)]
    tail = [
        (len(a) - suf + k, len(b) - suf + k) for k in range(suf)
    ]
    return head + core + tail


def hunk_touches(hunk: Hunk, start_line: int, end_line: int) -> bool:
    """Whether a hunk modifies any of lines [start_line, end_line] of the old file.

    A pure insertion counts only when it lands strictly inside the range.
    """
    if hunk.a_end >= hunk.a_start:
        return hunk.a_start <= end_line and hunk.a_end >= start_line
    return hunk.a_start - 1 >= start_line and hunk.a_start <= end_line


# -- sampling and derived views ---------------------------------------------


def sample_versions(
    commits: list[CommitRecord], delta_threshold: int = DEFAULTS.delta_threshold
) -> list[SampledVersion]:
    """Sample the commit stream by accumulated change volume.

    Change volume is ``changed_line_count``, git's numstat count, not the
    line-LCS diff of `line_diff_hunks`. The first commit is always sampled;
    each later sample is the earliest commit whose accumulated changed-line
    count since the previous sample reaches *delta_threshold*. The newest
    commit is always appended even when its delta falls short, so the current
    state is analyzable.
    """
    if not commits:
        raise ValueError("commits must be nonempty")
    if delta_threshold < 1:
        raise ValueError("delta_threshold must be >= 1")
    samples = [SampledVersion(0, commits[0].id, 0)]
    acc = 0
    for commit in commits[1:]:
        acc += commit.changed_line_count
        if acc >= delta_threshold:
            samples.append(SampledVersion(len(samples), commit.id, acc))
            acc = 0
    if samples[-1].commit_id != commits[-1].id:
        samples.append(SampledVersion(len(samples), commits[-1].id, acc))
    return samples


def checked_window(
    samples: list[SampledVersion],
    window_fraction: Fraction = DEFAULTS.window_fraction,
    recent_fraction: Fraction = DEFAULTS.recent_fraction,
) -> CheckedWindow:
    """Window over the last ``ceil(S * window_fraction)`` samples (minimum 2).

    With fewer than 2 samples the window has no steps, and the history and
    co-change features it drives are 0.
    """
    tail = samples[-max(2, math.ceil(len(samples) * window_fraction)) :]
    steps = tuple(zip(tail, tail[1:]))
    recent = steps[len(steps) - math.ceil(len(steps) * recent_fraction) :]
    return CheckedWindow(steps=steps, recent_steps=recent)


def distinct_authors(path: str, commits: list[CommitRecord]) -> tuple[int, int]:
    """(authors that ever touched *path*, all authors), by normalized identity."""
    touching = {c.author for c in commits if path in c.changed_files}
    everyone = {c.author for c in commits}
    return len(touching), len(everyone)
