"""Run one crec CLI command with its public functions traced from outside.

    PYTHONPATH=src python3 bench/trace_stage.py SPANS.json mine --repo R --out O

Wraps every function named in TRACED at each module-level binding across the
`crec` package (imported names are separate bindings, so `pipeline.detect_clones`
and `clone_detector.detect_clones` are both replaced), counts `git` processes at
`subprocess.Popen`, keeps spans and counters in memory, and writes them to
SPANS.json when the command ends. Nothing under `src/crec` is modified.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import resource
import subprocess
import sys
import time

# Functions traced, as "<module>.<name>" or "<module>.<Class>.<method>". A name
# missing from the program fails the command, so a rename cannot silently zero
# a counter.
TRACED = (
    "repo_miner.Repository.__init__",
    "repo_miner.Repository.commits",
    "repo_miner.Repository.file_at",
    "repo_miner.Repository.list_files",
    "repo_miner.Repository.changed_paths",
    "repo_miner.Repository.diff_hunks",
    "repo_miner.line_diff_hunks",
    "repo_miner.sample_versions",
    "repo_miner.checked_window",
    "repo_miner.distinct_authors",
    "clone_detector.scan",
    "clone_detector.extract_blocks",
    "clone_detector.similarity",
    "clone_detector.detect_clones",
    "genealogy.link_clones",
    "genealogy.build_genealogies",
    "labeler.LabelContext.methods_at",
    "labeler.label_lineage",
    "features.file_context",
    "features.extract_code_features",
    "features.extract_history_features",
    "features.extract_location_features",
    "features.extract_diff_features",
    "features.extract_cochange_features",
    "features.multiset_diff",
    "features.path_copy_score",
    "features.assemble_vector",
    "learner.train_alt",
    "learner.best_stump",
    "learner.recommend",
    "eval_harness.ablation",
    "eval_harness.within_project",
    "artifacts.read_artifact",
    "artifacts.write_artifact",
    "pipeline.materialize_groups",
    "pipeline.VersionData.corpus",
    "pipeline.VersionData.blocks",
    "pipeline.stage_mine",
    "pipeline.stage_detect",
    "pipeline.stage_genealogy",
    "pipeline.stage_label",
    "pipeline.stage_featurize",
    "pipeline.stage_train",
    "pipeline.stage_recommend",
    "pipeline.stage_ablate",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index or -1, start, end]
        self.stack: list[int] = []  # open span indices
        self.active: set[str] = set()
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {"file_read": set(), "scan": set()}
        self.listed: dict[str, list[str]] = {}  # commit -> paths list_files returned
        self.theta: list[float] = []  # theta of the open detect_clones call

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self) -> str:
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else ""

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        params = list(inspect.signature(fn).parameters.values())
        position = {p.name: i for i, p in enumerate(params)}
        index = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self.active:  # recursion through the binding: one span
                return fn(*args, **kwargs)

            def arg(key: str):
                i = position[key]
                return args[i] if i < len(args) else kwargs.get(key, params[i].default)

            if before:
                before(self, arg)
            span = len(self.spans)
            self.spans.append([index, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
            self.stack.append(span)
            self.active.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.active.discard(name)
                self.stack.pop()
                self.spans[span][3] = time.perf_counter()
            if after:
                after(self, arg, result)
            return result

        return traced

    def install(self) -> None:
        for spec in TRACED:
            importlib.import_module("crec." + spec.partition(".")[0])
        modules = [mod for name, mod in sys.modules.items() if name.startswith("crec.") and mod]
        for spec in TRACED:
            module, _, attr = spec.partition(".")
            owner = sys.modules[f"crec.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or not callable(original):
                raise SystemExit(f"trace: crec.{spec} not found; the benchmark's TRACED list is stale")
            wrapped = self.wrap(spec, original)
            if path:  # a method: the class object is shared by every importer
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapped)
        tracer = self

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                argv = [args] if isinstance(args, (str, bytes)) else list(args)
                if argv and os.path.basename(str(argv[0])) == "git":
                    tracer.add("git_spawns")
                    if tracer.parent_name().startswith("repo_miner."):
                        tracer.add("repo_miner.git_spawns")
                super().__init__(args, *rest, **kwargs)

        subprocess.Popen = CountingPopen

    def dump(self, path: str) -> None:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.counts["repo_miner.git_child_cpu_s"] = usage.ru_utime + usage.ru_stime
        for key, seen in self.distinct.items():
            self.counts[f"{key}_distinct"] = len(seen)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts,
                 "listed": self.listed},
                fh, separators=(",", ":"),
            )


# -- hooks: counts taken at the boundary, from arguments and results ------------
# A hook runs in the caller's context: the innermost open span is the caller.


def _file_at(t: Tracer, arg, result) -> None:
    data = result or b""
    t.add("repo_miner.file_reads")
    t.add("repo_miner.file_read_bytes", len(data))
    t.distinct["file_read"].add(hashlib.sha1(data).digest())


def _list_files(t: Tracer, arg, result) -> None:
    t.add("repo_miner.list_files_calls")
    t.listed.setdefault(arg("commit_id"), []).extend(result)


def _line_diff(t: Tracer, arg) -> None:
    a, b = arg("a_lines"), arg("b_lines")
    pre = 0
    while pre < len(a) and pre < len(b) and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while suf < len(a) - pre and suf < len(b) - pre and a[-1 - suf] == b[-1 - suf]:
        suf += 1
    t.add("repo_miner.line_diff_calls")
    t.add("repo_miner.line_diff_core_cells", (len(a) - pre - suf) * (len(b) - pre - suf))


def _scan(t: Tracer, arg) -> None:
    source = arg("source")
    t.add("clone_detector.scan_calls")
    t.add("clone_detector.scan_chars", len(source))
    t.distinct["scan"].add(hashlib.sha1(source.encode("utf-8", "surrogatepass")).digest())


def _extract_blocks(t: Tracer, arg, result) -> None:
    t.add("clone_detector.extract_blocks_calls")
    t.add("clone_detector.blocks", len(result))


def _detect_clones_before(t: Tracer, arg) -> None:
    """Candidate pairs: every pair of qualified blocks, computed from the inputs alone."""
    min_tokens, min_lines = arg("min_tokens"), arg("min_lines")
    t.theta.append(arg("theta"))
    if arg("conjunctive"):
        q = sum(1 for b in arg("blocks") if len(b.tokens) >= min_tokens and b.line_span >= min_lines)
    else:
        q = sum(1 for b in arg("blocks") if len(b.tokens) >= min_tokens or b.line_span >= min_lines)
    t.add("clone_detector.pairs_candidate", q * (q - 1) // 2)


def _detect_clones_after(t: Tracer, arg, result) -> None:
    t.theta.pop()


def _similarity(t: Tracer, arg, result) -> None:
    parent = t.parent_name()
    if parent == "clone_detector.detect_clones":
        t.add("clone_detector.pairs_verified")
        if result >= t.theta[-1]:
            t.add("clone_detector.pairs_hit")
    elif parent.startswith("genealogy."):
        t.add("genealogy.similarity_calls")


def _count(key: str):
    def hook(t: Tracer, arg, result=None) -> None:
        t.add(key)

    return hook


def _link_clones(t: Tracer, arg, result) -> None:
    t.add("genealogy.links", len(result))


def _multiset_diff(t: Tracer, arg) -> None:
    t.add("features.multiset_diff_tokens", sum(len(s) for s in arg("sequences")))


def _train_alt(t: Tracer, arg) -> None:
    t.add("learner.trainings")
    t.add("learner.train_rows", len(arg("examples")))


def _write_artifact(t: Tracer, arg, result) -> None:
    t.add("artifacts.bytes_written", os.path.getsize(arg("path")))


BEFORE = {
    "repo_miner.line_diff_hunks": _line_diff,
    "clone_detector.scan": _scan,
    "clone_detector.detect_clones": _detect_clones_before,
    "features.multiset_diff": _multiset_diff,
    "features.path_copy_score": _count("features.path_copy_score_calls"),
    "learner.train_alt": _train_alt,
    "learner.best_stump": _count("learner.best_stump_calls"),
}
AFTER = {
    "repo_miner.Repository.file_at": _file_at,
    "repo_miner.Repository.list_files": _list_files,
    "clone_detector.extract_blocks": _extract_blocks,
    "clone_detector.detect_clones": _detect_clones_after,
    "clone_detector.similarity": _similarity,
    "genealogy.link_clones": _link_clones,
    "labeler.label_lineage": _count("labeler.label_lineage_calls"),
    "artifacts.write_artifact": _write_artifact,
}


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from crec import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
