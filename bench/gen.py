"""Seeded generator of synthetic Java git histories for the crec benchmark.

`bench/run.py` calls generate() and self_check() before it times anything.
Uses only the standard library and `git fast-import`. Each workload has a
fixed shape: the number of files, methods, lines, commits and planted events
comes from a random stream seeded by the workload name alone. The seed drives
a second stream that spells every identifier, class, directory and literal, so
two seeds give different repositories that cost crec nearly the same work, and
the same seed gives the same commit ids.

generate() returns the planted truth (Extract Method refactorings with their
helper, and control edits that must not read as refactorings), which the
program under test never sees.
"""

from __future__ import annotations

import copy
import os
import random
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

AUTHORS = (
    ("Ada Reyes", "ada@example.com"),
    ("Bo Tanaka", "bo@example.com"),
    ("Cy Okafor", "cy@example.com"),
)
EPOCH = 1_600_000_000

# Generator parameters per workload. `delta_threshold` is passed to `crec mine`.
WORKLOADS = {
    "history-deep": {
        "dirs": 3,
        "files_per_dir": 3,
        "families": 10,
        "family_sizes": (2, 3),
        "body_lines": 12,
        "filler_lines": 12,
        "refactored": 3,
        "controls": 3,
        "commits": 60,
        "hot_files": 3,
        "hot_share": 0.95,
        "cochange_share": 0.05,
        "nonascii_files": 2,
        "delta_threshold": 16,
    },
    "clone-dense": {
        "modules": 3,
        "packages": ("core", "model", "io"),
        "depth": 3,
        "files_per_package": 3,
        "members_per_file": 2,
        "family_sizes": (2, 3, 4, 5, 6),
        "body_lines": 16,
        "filler_lines": 16,
        "refactored": 4,
        "controls": 4,
        "commits": 4,
        "delta_threshold": 100,
    },
    "large-files": {
        "files": 2,
        "hosts_per_file": 4,
        "host_lines": 300,
        "nested_per_host": 4,
        "families": 10,
        "family_sizes": (2, 3),
        "body_lines": 10,
        "refactored": 2,
        "controls": 2,
        "commits": 4,
        "volatile_every": 3,
        "delta_threshold": 100,
    },
}

# -- source model ---------------------------------------------------------------


@dataclass
class Line:
    """One statement; '#' in the template is its integer literal."""

    template: str
    lit: int
    volatile: bool = False

    def text(self) -> str:
        return self.template.replace("#", str(self.lit))


@dataclass
class Block:
    header: str  # the whole opening line, ending in '{'
    items: list = field(default_factory=list)  # Line | Block

    def render(self, indent: int, out: list[str]) -> None:
        pad = "    " * indent
        out.append(pad + self.header)
        for item in self.items:
            if isinstance(item, Block):
                item.render(indent + 1, out)
            else:
                out.append(pad + "    " + item.text())
        out.append(pad + "}")

    def lines(self):
        for item in self.items:
            if isinstance(item, Block):
                yield from item.lines()
            else:
                yield item


@dataclass(eq=False)
class SourceFile:
    path: str
    cls: str
    methods: list[Block]
    filler: str = ""  # name of a method no clone family touches

    def render(self) -> str:
        out = [f"public class {self.cls} {{"]
        for m in self.methods:
            m.render(1, out)
        out.append("}")
        return "\n".join(out) + "\n"


@dataclass
class Family:
    fid: str
    vocab: list[str]
    members: list[tuple[SourceFile, Block]] = field(default_factory=list)
    kind: str = "background"  # refactored | control-shrink | control-call | background
    helper: str | None = None
    helper_path: str | None = None
    commit: int | None = None


class Names:
    """Unique spellings drawn from the seed stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, make) -> str:
        while True:
            name = make()
            if name not in self.used:
                self.used.add(name)
                return name

    def ident(self) -> str:  # the trailing digit keeps it clear of Java keywords
        letters = "abcdefghijklmnopqrstuvwxyz"
        return self._fresh(
            lambda: "".join(self.rng.choice(letters) for _ in range(7)) + str(self.rng.randrange(10))
        )

    def short_ident(self) -> str:
        return self._fresh(
            lambda: "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
            + str(self.rng.randrange(10))
        )

    def type_name(self) -> str:
        return self._fresh(lambda: self.ident()[:7].capitalize() + "Impl")

    def segment(self) -> str:
        return self._fresh(lambda: "".join(self.rng.choice("bcdfghjklmnpqrstvwxz") for _ in range(6)))

    def tags(self, count: int) -> list[str]:
        """Member suffixes that differ from each other in all three letters."""
        columns = [self.rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", count) for _ in range(3)]
        return ["".join(col[k] for col in columns).capitalize() for k in range(count)]

    def lit(self) -> int:
        return self.rng.randrange(100, 1000)


class Generator:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.p = WORKLOADS[workload]
        self.shape = random.Random(f"{workload}/shape")
        self.spell = random.Random(f"{workload}/seed/{seed}")
        self.names = Names(self.spell)
        self.files: list[SourceFile] = []
        self.families: list[Family] = []
        self.commits: list[dict[str, str]] = []  # path -> text, changed files only
        self.extra_truth: dict = {}

    # -- statements ---------------------------------------------------------

    def statement(self, vocab: list[str], calls: list[str], volatile: bool = False) -> Line:
        form = self.shape.randrange(3)
        a, b, c = (vocab[i] for i in self.shape.sample(range(len(vocab)), 3))
        call = calls[self.shape.randrange(len(calls))]
        template = (
            f"{a} = {b} + {c} * #;",
            f"{a} = {call}({b}, #);",
            f"{call}({a}, {b}, #);",
        )[form]
        return Line(template, self.names.lit(), volatile)

    def vocabulary(self, short: bool = False) -> tuple[list[str], list[str]]:
        make = self.names.short_ident if short else self.names.ident
        return [make() for _ in range(8)], [make() for _ in range(2)]

    def filler(self, lines: int, volatile_every: int = 4, short: bool = False,
               name: str | None = None) -> Block:
        """A method no other method resembles; *short* makes terse generated-style lines."""
        vocab, calls = self.vocabulary(short)
        name = name or self.names.ident()
        body = []
        for k in range(lines):
            volatile = k % volatile_every == volatile_every - 1
            if short:
                body.append(Line(f"{vocab[self.shape.randrange(8)]} += #;", self.names.lit(), volatile))
            else:
                body.append(self.statement(vocab, calls, volatile))
        return Block(f"void {name}(int {vocab[0]}, int {vocab[1]}) {{", body)

    def family(self, size: int, lines: int, nested: bool = False) -> Family:
        """A clone family: one body, copied with a near-miss literal per member.

        The last quarter of the body is volatile, so later edits never touch
        the chunk an Extract Method event moves out.
        """
        vocab, calls = self.vocabulary()
        fam = Family(f"F{len(self.families):02d}", vocab)
        first_volatile = lines - lines // 4
        body = [self.statement(vocab, calls, volatile=k >= first_volatile) for k in range(lines)]
        stem = self.names.ident()[:6]
        for tag in self.names.tags(size):
            items = copy.deepcopy(body)
            items[self.shape.randrange(first_volatile)].lit = self.names.lit()
            if nested:
                header = f"if ({vocab[0]} > {self.names.lit()}) {{"
            else:
                header = f"void {stem}{tag}(int {vocab[0]}, int {vocab[1]}) {{"
            fam.members.append((None, Block(header, items)))  # file set by the caller
        self.families.append(fam)
        return fam

    # -- edits --------------------------------------------------------------

    def touch(self, block: Block, lit: int | None = None, line: int | None = None) -> None:
        """Rewrite the literal of one volatile line (chosen by shape)."""
        volatile = [ln for ln in block.lines() if ln.volatile]
        k = self.shape.randrange(len(volatile)) if line is None else line
        volatile[k % len(volatile)].lit = self.names.lit() if lit is None else lit

    def touch_file(self, f: SourceFile) -> None:
        editable = [m for m in f.methods if any(ln.volatile for ln in m.lines())]
        self.touch(self.shape.choice(editable))

    def add_filler(self, f: SourceFile, lines: int, volatile_every: int = 4) -> Block:
        block = self.filler(lines, volatile_every)
        f.methods.append(block)
        f.filler = block.header.split("(")[0].split()[-1]
        return block

    def plant(self, fam: Family, kind: str, commit: int) -> set[SourceFile]:
        """Apply a planted event to every member of *fam*; return the files changed."""
        fam.kind, fam.commit = kind, commit
        items0 = fam.members[0][1].items
        stable = [k for k, it in enumerate(items0) if isinstance(it, Line) and not it.volatile]
        size = max(3, len(items0) * 3 // 10)
        start = stable[1]
        chunk = slice(start, start + size)
        a, b = fam.vocab[0], fam.vocab[1]
        host_file = fam.members[0][0]
        if kind == "refactored":
            fam.helper = self.names.ident()
            fam.helper_path = host_file.path
            helper = Block(f"void {fam.helper}(int {a}, int {b}) {{", copy.deepcopy(items0[chunk]))
            host_file.methods.append(helper)
            call = Line(f"{fam.helper}({a}, {b}, #);", self.names.lit())
        elif kind == "control-call":
            # an existing method, with a body unrelated to the removed code
            call = Line(f"{host_file.filler}({a}, {b}, #);", self.names.lit())
        else:
            call = None
        for _, block in fam.members:
            block.items[chunk] = [copy.deepcopy(call)] if call else []
        return {f for f, _ in fam.members}

    def snapshot(self, changed) -> None:
        self.commits.append({f.path: f.render() for f in changed})

    # -- workloads ----------------------------------------------------------

    def assign(self, fam: Family, files: list[SourceFile], host_blocks=None) -> None:
        """Place member k in files[k], as a method or nested in a host block."""
        for k, (_, block) in enumerate(fam.members):
            f = files[k]
            fam.members[k] = (f, block)
            if host_blocks is None:
                f.methods.append(block)
            else:
                host = host_blocks[f.path].pop()
                host.items.insert(self.shape.randrange(4, len(host.items) - 4), block)

    def pick_events(self, count_r: int, count_c: int) -> list[tuple[Family, str]]:
        order = self.shape.sample(self.families, count_r + count_c)
        kinds = ["refactored"] * count_r + [
            ("control-shrink", "control-call")[k % 2] for k in range(count_c)
        ]
        return list(zip(order, kinds))

    def history_deep(self) -> None:
        p = self.p
        root = self.names.segment()
        dirs = [f"src/{root}/{self.names.segment()}" for _ in range(p["dirs"])]
        for d in dirs:
            for _ in range(p["files_per_dir"]):
                cls = self.names.type_name()
                self.files.append(SourceFile(f"{d}/{cls}.java", cls, []))
        for _ in range(p["families"]):
            fam = self.family(self.shape.choice(p["family_sizes"]), p["body_lines"])
            self.assign(fam, self.shape.sample(self.files, len(fam.members)))
        for f in self.files:
            self.add_filler(f, p["filler_lines"])
        # a directory git C-quotes without -z; no planted truth lives there
        odd = []
        for _ in range(p["nonascii_files"]):
            cls = self.names.type_name()
            odd.append(SourceFile(f"src/é/{cls}.java", cls, []))
            self.add_filler(odd[-1], p["filler_lines"])
        self.extra_truth["nonascii_paths"] = [f.path for f in odd]
        tree = self.files + odd
        self.snapshot(tree)

        hot = self.shape.sample(tree, p["hot_files"])
        events = self.pick_events(p["refactored"], p["controls"])
        n = p["commits"]
        due = {round(n * (k + 1) / (len(events) + 1)): ev for k, ev in enumerate(events)}
        for c in range(1, n):
            if c in due:
                fam, kind = due[c]
                self.snapshot(self.plant(fam, kind, c))
                continue
            roll = self.shape.random()
            if roll < p["cochange_share"]:  # two members of a family change together
                fam = self.shape.choice(self.families)
                pair = self.shape.sample(fam.members, 2)
                lit, line = self.names.lit(), self.shape.randrange(100)
                for _, block in pair:
                    self.touch(block, lit, line)
                self.snapshot({f for f, _ in pair})
                continue
            count = 1 if roll < 0.55 else 2
            changed = set()
            for _ in range(count):
                f = self.shape.choice(hot) if self.shape.random() < p["hot_share"] else self.shape.choice(tree)
                self.touch_file(f)
                changed.add(f)
            self.snapshot(changed)

    def clone_dense(self) -> None:
        p = self.p
        packages = [
            "/".join([pkg] + [self.names.segment() for _ in range(p["depth"] - 1)])
            for pkg in p["packages"]
        ]
        basenames = {pkg: [self.names.type_name() for _ in range(p["files_per_package"])] for pkg in packages}
        by_slot: dict[tuple[str, str], list[SourceFile]] = {}
        for _ in range(p["modules"]):
            module = self.names.segment()
            for pkg in packages:
                for cls in basenames[pkg]:
                    f = SourceFile(f"src/{module}/{pkg}/{cls}.java", cls, [])
                    self.files.append(f)
                    by_slot.setdefault((pkg, cls), []).append(f)
        # copied files hold the same families: a family fills one file's copies first
        capacity = {f.path: p["members_per_file"] for f in self.files}
        copies = list(by_slot.values())
        while True:
            size = self.shape.choice(p["family_sizes"])
            chosen: list[SourceFile] = []
            for f in self.shape.choice(copies) + self.shape.sample(self.files, len(self.files)):
                if capacity[f.path] and f not in chosen and len(chosen) < size:
                    chosen.append(f)
            if len(chosen) < 2:
                break
            for f in chosen:
                capacity[f.path] -= 1
            self.assign(self.family(len(chosen), p["body_lines"]), chosen)
        for f in self.files:
            self.add_filler(f, p["filler_lines"])
        self.snapshot(self.files)

        events = self.pick_events(p["refactored"], p["controls"])
        per_commit = -(-len(events) // (p["commits"] - 2))
        for c in range(1, p["commits"] + 1):
            changed = set(self.files)
            for f in self.files:  # nearly every file is rewritten at every sample
                for m in f.methods:
                    if any(ln.volatile for ln in m.lines()):
                        self.touch(m)
            if 2 <= c < p["commits"]:
                for fam, kind in events[(c - 2) * per_commit : (c - 1) * per_commit]:
                    changed |= self.plant(fam, kind, c)
            self.snapshot(changed)

    def large_files(self) -> None:
        p = self.p
        pkg = f"src/{self.names.segment()}/{self.names.segment()}"
        hosts: dict[str, list[Block]] = {}
        # host names differ in exactly three letters, so the method-name
        # distance feature is the same for every seed
        stem = self.names.ident()[:6]
        tags = iter(self.names.tags(p["files"] * p["hosts_per_file"]))
        for _ in range(p["files"]):
            cls = self.names.type_name()
            f = SourceFile(f"{pkg}/{cls}.java", cls, [])
            blocks = [
                self.filler(p["host_lines"], p["volatile_every"], short=True, name=stem + next(tags))
                for _ in range(p["hosts_per_file"])
            ]
            f.methods.extend(blocks)
            self.files.append(f)
            # each host method holds a few nested clone members
            hosts[f.path] = [b for b in blocks for _ in range(p["nested_per_host"])]
            self.shape.shuffle(hosts[f.path])
        placed = 0
        for _ in range(p["families"]):
            fam = self.family(self.shape.choice(p["family_sizes"]), p["body_lines"], nested=True)
            files = [self.files[(placed + k) % len(self.files)] for k in range(len(fam.members))]
            placed += len(files)
            self.assign(fam, files, hosts)
        for f in self.files:
            self.add_filler(f, 12)
        self.snapshot(self.files)

        events = self.pick_events(p["refactored"], p["controls"])
        for c in range(1, p["commits"] + 1):
            for f in self.files:  # rewrite every volatile line of the big hosts
                for m in f.methods[: p["hosts_per_file"]]:
                    for ln in m.items:
                        if isinstance(ln, Line) and ln.volatile:
                            ln.lit = self.names.lit()
            changed = set(self.files)
            if c == 1:
                for fam, kind in events:
                    changed |= self.plant(fam, kind, c)
            self.snapshot(changed)

    # -- output ---------------------------------------------------------------

    def build(self) -> None:
        {"history-deep": self.history_deep, "clone-dense": self.clone_dense,
         "large-files": self.large_files}[self.workload]()

    def fast_import_stream(self) -> bytes:
        out = bytearray()
        for c, files in enumerate(self.commits):
            name, email = AUTHORS[self.shape.randrange(len(AUTHORS))]
            stamp = f"{EPOCH + 3600 * c} +0000"
            msg = f"change {c}\n".encode()
            out += b"commit refs/heads/main\n"
            out += f"author {name} <{email}> {stamp}\n".encode()
            out += f"committer {name} <{email}> {stamp}\n".encode()
            out += b"data %d\n%s" % (len(msg), msg)
            for path in sorted(files):
                data = files[path].encode()
                out += b"M 100644 inline " + path.encode() + b"\n"
                out += b"data %d\n%s\n" % (len(data), data)
        return bytes(out)

    def truth(self) -> dict:
        def members(fam):
            return [[f.path, block.header] for f, block in fam.members]

        return {
            "workload": self.workload,
            "params": self.p,
            "commits": len(self.commits),
            "files": len({p for c in self.commits for p in c}),
            "refactored": [
                {"family": f.fid, "commit": f.commit, "helper": f.helper,
                 "helper_path": f.helper_path, "members": members(f)}
                for f in self.families if f.kind == "refactored"
            ],
            "controls": [
                {"family": f.fid, "kind": f.kind, "commit": f.commit, "members": members(f)}
                for f in self.families if f.kind.startswith("control")
            ],
            "background_families": sum(1 for f in self.families if f.kind == "background"),
            **self.extra_truth,
        }


def sealed_env(home: Path) -> dict[str, str]:
    """A git environment that no system, global or locale setting can change.

    *home* becomes HOME and holds the empty global config file.
    """
    home.mkdir(parents=True, exist_ok=True)
    (home / "gitconfig").touch()
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CONFIG_GLOBAL": str(home / "gitconfig"),
        "LC_ALL": "C",
        "TZ": "UTC",
        "TMPDIR": str(home),
    }


def generate(workload: str, seed: int, repo: Path, env: dict) -> dict:
    """Write the repository and return its planted truth, HEAD included."""
    gen = Generator(workload, seed)
    gen.build()
    repo.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], env=env, check=True)
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet"],
        input=gen.fast_import_stream(), env=env, check=True,
    )
    head = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "HEAD"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()
    return {"head": head, **gen.truth()}


def self_check(workload: str, seed: int, head: str, scratch: Path, env: dict) -> None:
    """The same seed must give the same HEAD, another seed another HEAD."""
    try:
        same = generate(workload, seed, scratch / "same", env)["head"]
        other = generate(workload, seed + 1, scratch / "other", env)["head"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if same != head:
        raise SystemExit(f"gen: seed {seed} gave HEAD {head} and then {same}")
    if other == head:
        raise SystemExit(f"gen: seeds {seed} and {seed + 1} gave the same HEAD {head}")

