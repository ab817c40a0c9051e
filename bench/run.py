"""End-to-end benchmark for crec over seeded synthetic Java git histories.

    python3 bench/run.py --workload history-deep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the repository root; it reads the program from `src/crec` and
writes only under `.bench_work/`. One run generates the workload's repository
(untimed), then repeats the user's command sequence, one `crec` process per
command and strictly in order, until --seconds is spent:

    mine -> detect -> genealogy -> label -> featurize -> train -> recommend,
    then `ablate --setting within` on the workload's features.csv.

With --trace 0, cold starts of the CLI are taken between the commands of
each pass. Every pass is checked: artifacts parse, bytes repeat, planted
refactorings are found and recommendations are well formed. With --trace 1 the
passes alternate between plain and traced ones; a traced pass runs each
command under `bench/trace_stage.py` and gives the per-layer metrics. The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/RATIONALE.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

STAGES = ("mine", "detect", "genealogy", "label", "featurize", "train", "recommend")
COMMANDS = STAGES + ("ablate",)
TIMED = ("detect", "genealogy", "label", "featurize")
READS_REPO = ("mine", "detect", "genealogy", "label", "featurize")  # the rest never start git
DEADLINE_S = 170  # a run must end within 180 s
MIN_PASSES = 3
# Cold starts are taken between the commands of a pass, so that they
# spread over the run: a shared machine can switch between a fast and a slow
# state every few seconds, and samples taken back to back share the state.
COLD_START_BEFORE = ("mine", "featurize")


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


class Run:
    """One workload at one seed: paths, the sealed environment and the commands."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
        self.repo = self.work / "repo"
        self.out = self.work / "out"
        self.logs = self.work / "logs"
        self.env = gen.sealed_env(self.work / "home")
        self.env["PYTHONPATH"] = str(root / "src")
        self.truth: dict = {}

    def crec_args(self, command: str) -> list[str]:
        repo, out = str(self.repo), str(self.out)
        if command == "mine":
            threshold = gen.WORKLOADS[self.workload]["delta_threshold"]
            return ["mine", "--repo", repo, "--out", out, "--delta-threshold", str(threshold)]
        if command in ("train", "recommend"):
            return [command, "--out", out]
        if command == "ablate":
            return ["ablate", "--features", str(self.out / "features.csv"),
                    "--setting", "within", "--out", out]
        return [command, "--repo", repo, "--out", out]

    def spawn(self, argv: list[str], log_name: str) -> tuple[float, float, int]:
        """Run one child to completion: (wall seconds, max RSS in MB, exit code)."""
        self.logs.mkdir(parents=True, exist_ok=True)
        with open(self.logs / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Deadline:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def generate(self) -> None:
        """Build the repository, check that the seed fixes HEAD, keep the planted truth.

        The truth also goes to a sidecar file next to the repository, for reading
        after a failed check; crec never sees it.
        """
        self.truth = gen.generate(self.workload, self.seed, self.repo, self.env)
        gen.self_check(self.workload, self.seed, self.truth["head"], self.work / "check", self.env)
        (self.work / "truth.json").write_text(json.dumps(self.truth, indent=1, sort_keys=True) + "\n")


# -- one pass -------------------------------------------------------------------


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall: dict[str, float] = {}
        self.rss: dict[str, float] = {}
        self.failed: list[str] = []  # commands that exited nonzero
        self.problems: list[str] = []  # output check failures
        self.digest = ""
        self.traces: dict[str, dict] = {}
        self.agreement: dict = {}

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall[s] for s in STAGES)


def run_pass(run: Run, traced: bool, setup: list[float] | None = None) -> Pass:
    """One pass of the command sequence, then its output checks.

    Given *setup*, cold starts are taken before the commands in
    COLD_START_BEFORE and appended to it.
    """
    shutil.rmtree(run.out, ignore_errors=True)
    result = Pass(traced)
    for command in COMMANDS:
        if setup is not None and command in COLD_START_BEFORE:
            setup.extend(cold_starts(run, 1))
        spans = run.work / f"trace-{command}.json"
        if traced:
            prefix = [sys.executable, str(Path(__file__).with_name("trace_stage.py")), str(spans)]
        else:
            prefix = [sys.executable, "-m", "crec.cli"]
        wall, rss, rc = run.spawn(prefix + run.crec_args(command), f"{command}.log")
        result.wall[command], result.rss[command] = wall, rss
        if rc != 0:
            log = (run.logs / f"{command}.log").read_text(errors="replace").strip()
            result.failed.append(command)
            print(f"[{run.workload}] crec {command} exited {rc}: {log[-400:]}", file=sys.stderr)
            return result
        if traced:
            result.traces[command] = json.loads(spans.read_text())
    result.digest = artifact_digest(run.out)
    result.problems, result.agreement = check_outputs(run)
    for problem in result.problems:
        print(f"[{run.workload}] check failed: {problem}", file=sys.stderr)
    return result


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# -- output checks ----------------------------------------------------------------


def read_blobs(run: Run, wanted: set[tuple[str, str]]) -> dict[tuple[str, str], list[str]]:
    """File lines at (commit, path), read through one `git cat-file --batch`.

    A path missing at its commit is left out of the result.
    """
    keys = sorted(wanted)
    request = "".join(f"{commit}:{path}\n" for commit, path in keys).encode()
    raw = subprocess.run(["git", "-C", str(run.repo), "cat-file", "--batch"], input=request,
                         env=run.env, capture_output=True, check=True).stdout
    texts, pos = {}, 0
    for key in keys:
        end = raw.index(b"\n", pos)
        header = raw[pos:end].split()
        if header[-1] == b"missing":
            pos = end + 1
            continue
        size = int(header[2])
        texts[key] = raw[end + 1 : end + 1 + size].decode("utf-8", "replace").splitlines()
        pos = end + 1 + size + 1
    return texts


def check_outputs(run: Run) -> tuple[list[str], dict]:
    """Problems with one pass's artifacts, and the planted-truth agreement."""
    from crec import artifacts
    from crec.config import PipelineConfig
    from crec.errors import CrecError

    out = run.out
    try:
        artifacts.read_commits(out / "commits.txt")
        samples = artifacts.read_samples(out / "samples.txt")
        groups = artifacts.read_groups(out / "clones.txt")
        artifacts.read_lineages(out / "lineages.txt")
        decisions = artifacts.read_labels(out / "labels.txt")
        rows = artifacts.read_features(out / "features.csv")
        artifacts.read_model(out / "model.txt")
        recs = artifacts.read_recommendations(out / "recommendations.csv")
        ablation = artifacts.read_artifact(out / "ablation.csv", "ablation")
    except (CrecError, OSError) as exc:
        return [f"artifact does not parse: {type(exc).__name__}: {exc}"], {}
    problems = []
    if len(ablation) != 7:
        problems.append(f"ablation.csv has {len(ablation) - 1} variants, expected 6")
    if not rows:
        problems.append("features.csv is empty")

    final = len(samples) - 1
    current = {g.group_id for g in groups if g.version == final}
    threshold = PipelineConfig().recommend_threshold
    for gid, likelihood in recs:
        if gid not in current:
            problems.append(f"recommended group {gid} is not a group of the final version")
        if likelihood < threshold:
            problems.append(f"recommended group {gid} has likelihood {likelihood} < {threshold}")
    if recs != sorted(recs, key=lambda r: (-r[1], r[0])):
        problems.append("recommendations are not ranked by likelihood")

    # planted truth: each Extract Method must be labelled R with its helper as
    # evidence, and no control family may be labelled R
    r_decisions = [d for d in decisions if d.label == "R"]
    wanted = {
        (samples[d.step_version].commit_id, c["path"])
        for d in r_decisions
        for c in d.evidence["clones"]
    }
    texts = read_blobs(run, wanted) if wanted else {}

    def header(commit: str, path: str, line: int) -> str:
        lines = texts.get((commit, path), [])
        return lines[line - 1].strip() if 0 < line <= len(lines) else ""

    # a clone is named by its path and the text of its first line
    evidence = []
    for d in r_decisions:
        commit = samples[d.step_version].commit_id
        members = {(c["path"], header(commit, c["path"], c["lines"][0])) for c in d.evidence["clones"]}
        evidence.append((d.evidence["method"], members))
    found, explained = 0, set()
    for fam in run.truth["refactored"]:
        family = {tuple(m) for m in fam["members"]}
        hits = [k for k, (method, members) in enumerate(evidence)
                if method == fam["helper"] and len(members & family) >= 2]
        explained.update(hits)
        if hits:
            found += 1
        else:
            problems.append(f"planted Extract Method {fam['family']} ({fam['helper']}) is not labelled R")
    false_r = 0
    for fam in run.truth["controls"]:
        family = {tuple(m) for m in fam["members"]}
        if any(members & family for _, members in evidence):
            false_r += 1
            problems.append(f"control family {fam['family']} ({fam['kind']}) is labelled R")
    agreement = {
        "planted_r_found": found,
        "planted_r": len(run.truth["refactored"]),
        "controls_labelled_r": false_r,
        "controls": len(run.truth["controls"]),
        "other_r_lineages": len(r_decisions) - len(explained),
        "lineages": len(decisions),
        "recommended": len(recs),
    }
    return problems, agreement


# -- measurement ------------------------------------------------------------------


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}"
    ordered = sorted(values)
    p = 100 * (n - 10) // n
    return f"p{p} {ordered[n - 11]:.4f}, n={n}"


def cold_starts(run: Run, count: int) -> list[float]:
    """Wall times of `crec --help`: interpreter, `import crec.cli`, argument parsing."""
    samples = []
    for _ in range(count):
        wall, _, rc = run.spawn([sys.executable, "-m", "crec.cli", "--help"], "cold.log")
        if rc != 0:
            raise SystemExit(f"crec --help exited {rc}")
        samples.append(wall)
    return samples


def measure(run: Run, seconds: float, trace: bool, setup: list[float]) -> list[Pass]:
    """Passes until *seconds* are spent.

    One untimed cold start first writes crec's bytecode caches and reads the
    interpreter into the page cache; a user's installed crec has both.
    """
    start = time.perf_counter()
    cold_starts(run, 1)
    passes: list[Pass] = []
    rounds = 0
    while not any(p.failed for p in passes):
        passes.append(run_pass(run, traced=False, setup=None if trace else setup))
        if trace and not passes[-1].failed:
            passes.append(run_pass(run, traced=True))
        rounds += 1
        now = time.perf_counter()
        next_end = now + (now - start) / rounds
        if rounds >= (1 if trace else MIN_PASSES) and next_end - start > seconds:
            break
    return passes


def end_to_end(run: Run, passes: list[Pass], setup: list[float]) -> dict[str, float]:
    good = [p for p in passes if not p.failed]
    metrics = {"pipeline_s": statistics.median(p.pipeline_s for p in good)}
    series = {f"{c}_s": [p.wall[c] for p in good] for c in TIMED}
    for command in TIMED:
        metrics[f"{command}_s"] = statistics.median(series[f"{command}_s"])
    metrics["peak_rss_mb"] = statistics.median(max(p.rss.values()) for p in good)
    metrics["setup_s"] = statistics.median(setup)
    print(f"== {run.workload} seed {run.seed}: {len(good)} timed passes")
    series.update({"pipeline_s": [p.pipeline_s for p in good], "setup_s": setup,
                   "peak_rss_mb": [max(p.rss.values()) for p in good]})
    for name, value in metrics.items():
        print(f"  {name:14s} {value:10.4f} {unit(name):5s} median; {percentile_note(series[name])}")
    for name in ("pipeline_s",) + tuple(f"{c}_s" for c in TIMED):
        print(f"  {name} samples: " + " ".join(f"{v:.3f}" for v in series[name]))
    return metrics


def layer_metrics(run: Run, traced: Pass, plain: Pass, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named after src/crec modules."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    listed: dict[str, set] = {}
    stage_spawns = {}
    for command, tr in traced.traces.items():
        names, spans = tr["names"], tr["spans"]
        covered = [0.0] * len(spans)
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for k, (index, _, t0, t1) in enumerate(spans):
            name = names[index]
            total[name] = total.get(name, 0.0) + (t1 - t0)
            own[name] = own.get(name, 0.0) + (t1 - t0 - covered[k])
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for commit, paths in tr["listed"].items():
            listed.setdefault(commit, set()).update(paths)
        stage_spawns[command] = tr["counts"].get("git_spawns", 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(key: str) -> float:
        return counts.get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "repo_miner.git_spawns": c("repo_miner.git_spawns"),
        "repo_miner.git_child_cpu_s": c("repo_miner.git_child_cpu_s"),
        "repo_miner.commits_s": t("repo_miner.Repository.commits"),
        "repo_miner.file_reads": c("repo_miner.file_reads"),
        "repo_miner.file_read_bytes": c("repo_miner.file_read_bytes"),
        "repo_miner.file_read_s": t("repo_miner.Repository.file_at"),
        "repo_miner.file_read_distinct_ratio": ratio(c("file_read_distinct"), c("repo_miner.file_reads")),
        "repo_miner.list_files_calls": c("repo_miner.list_files_calls"),
        "repo_miner.line_diff_calls": c("repo_miner.line_diff_calls"),
        "repo_miner.line_diff_s": t("repo_miner.line_diff_hunks"),
        "repo_miner.line_diff_core_cells": c("repo_miner.line_diff_core_cells"),
        "repo_miner.paths_unread": paths_unread(run, listed),
        "clone_detector.scan_calls": c("clone_detector.scan_calls"),
        "clone_detector.scan_chars": c("clone_detector.scan_chars"),
        "clone_detector.scan_s": t("clone_detector.scan"),
        "clone_detector.scan_distinct_ratio": ratio(c("scan_distinct"), c("clone_detector.scan_calls")),
        "clone_detector.extract_blocks_calls": c("clone_detector.extract_blocks_calls"),
        "clone_detector.blocks": c("clone_detector.blocks"),
        "clone_detector.extract_blocks_s": t("clone_detector.extract_blocks"),
        "clone_detector.pairs_candidate": c("clone_detector.pairs_candidate"),
        "clone_detector.pairs_verified": c("clone_detector.pairs_verified"),
        "clone_detector.pairs_pruned": c("clone_detector.pairs_candidate") - c("clone_detector.pairs_verified"),
        "clone_detector.pair_hit_ratio": ratio(c("clone_detector.pairs_hit"), c("clone_detector.pairs_verified")),
        "clone_detector.detect_clones_s": t("clone_detector.detect_clones"),
        "genealogy.similarity_calls": c("genealogy.similarity_calls"),
        "genealogy.links": c("genealogy.links"),
        "genealogy.build_s": t("genealogy.build_genealogies"),
        "labeler.label_lineage_calls": c("labeler.label_lineage_calls"),
        "labeler.methods_at_s": t("labeler.LabelContext.methods_at"),
        "labeler.label_s": t("labeler.label_lineage"),
        "features.code_s": t("features.extract_code_features"),
        "features.history_s": t("features.extract_history_features"),
        "features.location_s": t("features.extract_location_features"),
        "features.diff_s": t("features.extract_diff_features"),
        "features.cochange_s": t("features.extract_cochange_features"),
        "features.multiset_diff_tokens": c("features.multiset_diff_tokens"),
        "features.path_copy_score_calls": c("features.path_copy_score_calls"),
        "features.path_copy_score_s": t("features.path_copy_score"),
        "learner.trainings": c("learner.trainings"),
        "learner.train_rows": c("learner.train_rows"),
        "learner.best_stump_calls": c("learner.best_stump_calls"),
        "learner.best_stump_s": t("learner.best_stump"),
        "eval_harness.ablation_s": t("eval_harness.ablation"),
        "artifacts.read_s": t("artifacts.read_artifact"),
        "artifacts.write_s": t("artifacts.write_artifact"),
        "artifacts.bytes_written": c("artifacts.bytes_written"),
        "pipeline.materialize_groups_s": t("pipeline.materialize_groups"),
    }
    for command in COMMANDS:
        m[f"pipeline.{command}.wall_s"] = traced.wall[command]
        if command in READS_REPO:
            m[f"pipeline.{command}.git_spawns"] = stage_spawns[command]
    m["pipeline.trace.overhead_ratio"] = overhead

    # tracer self-checks
    verified, hits = m["clone_detector.pairs_verified"], c("clone_detector.pairs_hit")
    if not 0 <= hits <= verified <= m["clone_detector.pairs_candidate"]:
        traced.problems.append(
            f"trace: expected 0 <= pairs at or above theta ({hits}) <= pairs_verified ({verified}) "
            f"<= pairs_candidate ({m['clone_detector.pairs_candidate']})")
    if sum(stage_spawns.values()) != m["repo_miner.git_spawns"]:
        traced.problems.append(
            f"trace: per-stage git spawns sum to {sum(stage_spawns.values())}, "
            f"repo_miner.git_spawns is {m['repo_miner.git_spawns']}")
    if traced.digest != plain.digest:
        traced.problems.append("trace: traced artifacts differ from untraced ones")
    for problem in traced.problems:
        print(f"[{run.workload}] {problem}", file=sys.stderr)

    print(f"== {run.workload} seed {run.seed}: per-stage table (traced pass)")
    print(f"  {'stage':10s} {'wall':>8s} {'untraced':>9s} {'git spawns':>11s}")
    for command in COMMANDS:
        print(f"  {command:10s} {traced.wall[command]:7.2f}s {plain.wall[command]:8.2f}s "
              f"{stage_spawns[command]:11d}")
    print("  top self time (s)         total      self     calls")
    calls = {}
    for tr in traced.traces.values():
        for index, *_ in tr["spans"]:
            calls[tr["names"][index]] = calls.get(tr["names"][index], 0) + 1
    for name in sorted(own, key=own.get, reverse=True)[:12]:
        print(f"  {name:40s} {total[name]:8.3f} {own[name]:8.3f} {calls[name]:9d}")
    print("  per-layer metrics")
    for name, value in m.items():
        print(f"  {name:40s} {value:14.4f} {unit(name)}")
    return m


def paths_unread(run: Run, listed: dict[str, set]) -> int:
    """Source files `git ls-tree -r -z` lists that list_files never returned."""
    suffixes = (".java",)
    unread = set()
    for commit, returned in listed.items():
        raw = subprocess.run(["git", "-C", str(run.repo), "ls-tree", "-r", "-z", "--name-only", commit],
                             env=run.env, capture_output=True, check=True).stdout
        for path in raw.decode("utf-8", "surrogateescape").split("\0"):
            if path.endswith(suffixes) and path not in returned:
                unread.add(path)
    return len(unread)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    run = Run(root, workload, seed)
    try:
        run.generate()
        setup: list[float] = []
        passes = measure(run, seconds, trace, setup)
        good = [p for p in passes if not p.failed]
        metrics = {}
        plain = [p for p in good if not p.traced]
        if plain:
            traced = [p for p in good if p.traced]
            if traced:
                overhead = (statistics.median(p.pipeline_s for p in traced)
                            / statistics.median(p.pipeline_s for p in plain))
                metrics = layer_metrics(run, traced[0], plain[0], overhead)
            elif not trace:
                metrics = end_to_end(run, passes, setup)
            print(f"  artifact digest {good[0].digest}")
            print(f"  planted truth: {json.dumps(good[0].agreement, sort_keys=True)}")
        failed = sum(len(p.failed) + bool(p.problems) for p in passes)
        attempted = sum(len(p.wall) + (not p.failed) for p in passes)
        if len({p.digest for p in good}) > 1:
            failed += 1
            print(f"[{workload}] passes produced different artifact bytes", file=sys.stderr)
        print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} operations failed)")
        if trace:
            (root / ".bench_work" / f"trace-{workload}.json").write_text(
                json.dumps({c: p.traces for c, p in enumerate(passes) if p.traced}, separators=(",", ":")))
        return attempted, failed, metrics
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crec" / "cli.py").is_file():
        print("bench: src/crec/cli.py not found; run from the root of a crec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workloads = sorted(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S * len(workloads))

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        a, f, m = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed = attempted + a, failed + f
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in m.items():
            metrics[prefix + name] = {"value": value, "unit": unit(name)}
    signal.alarm(0)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit(name: str) -> str:
    """The unit of a metric, from its name's suffix; BENCHMARK.json lists the same."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_chars"):
        return "chars"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
