"""Stage implementations behind the CLI: each reads its predecessor's files
from the output directory, writes its own, and returns a one-line summary.
Token-level detail is re-derived from the repository on demand, so artifact
files stay small and every stage is independently re-runnable. Lineages are
built once, by `genealogy`; `label` and `featurize` read them back from
`lineages.txt`, whose links name each member by its index in its group.

`FILES` names each artifact's file and the command that writes it, which a
missing input (`_require`) or a stale one (`_stale`) names. A stage's
parameters are named as the CLI's parsed arguments, which `cli.main` passes by keyword.

Each CLI command runs one stage in a fresh process, so the modules that only
some stages run (`genealogy`, `labeler`, `features`, `learner`,
`eval_harness`) are imported inside the functions that call them."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from . import artifacts
from .artifacts import GroupRecord, LineageRecord, MemberRecord
from .clone_detector import CloneGroup, CodeBlock, TokenList, detect_clones, extract_blocks, scan
from .config import PipelineConfig, parse_value
from .errors import ConfigError, DegenerateData, MissingInput
from .repo_miner import Hunk, Repository, checked_window, sample_versions

if TYPE_CHECKING:
    from .eval_harness import LearnerConfig
    from .features import FeatureRow
    from .genealogy import Lineage

# artifact -> (file name, the command that writes it)
FILES = {
    "commits": ("commits.txt", "mine"),
    "samples": ("samples.txt", "mine"),
    "clones": ("clones.txt", "detect"),
    "lineages": ("lineages.txt", "genealogy"),
    "labels": ("labels.txt", "label"),
    "sweep": ("label_sweep.txt", "label"),
    "features": ("features.csv", "featurize"),
    "model": ("model.txt", "train"),
    "recommendations": ("recommendations.csv", "recommend"),
    "report": ("report.txt", "evaluate"),
    "ablation": ("ablation.csv", "ablate"),
    "comparison": ("comparison.csv", "compare"),
}


def _path(out_dir: str | Path, name: str) -> Path:
    return Path(out_dir) / FILES[name][0]


def _require(out_dir: str | Path, name: str) -> Path:
    p = _path(out_dir, name)
    if not p.exists():
        raise MissingInput(f"{p} not found (run `{FILES[name][1]}` first)")
    return p


def _stale(name: str, problem: str) -> MissingInput:
    """The refusal of the *name* input, which disagrees with another: *problem*,
    then the command that rewrites it."""
    return MissingInput(f"{problem}; {name} file is stale (re-run {FILES[name][1]})")


class VersionData:
    """Per-sampled-version views of the repository, and the one place where
    file content is decoded and lexed.

    A version's source files are listed once as path -> blob id. The blobs
    that no earlier version read are read in one burst (`Repository.read_ahead`)
    and taken one by one through `file_at`. Each blob is read, decoded and
    lexed once, and each view of it is derived once, so a file unchanged
    across versions is neither read nor lexed again. All views
    share one memo, keyed by the view's name and what the view depends on.
    Every blob is lexed through one line memo, so a line that recurs across
    blobs is lexed once and its tokens are shared.
    """

    def __init__(self, repo: Repository, samples):
        self.repo = repo
        self.samples = samples
        self._memo: dict[tuple, object] = {}
        self._lines: dict[str, tuple] = {}

    def _once(self, key: tuple, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def files(self, version: int) -> dict[str, str | None]:
        """path -> blob id of each source file; None for a gitlink. Symlinks are not listed."""
        commit = self.samples[version].commit_id
        return self._once(("files", version), lambda: self.repo.source_files(commit))

    def _decode(self, version: int, path: str) -> str:
        data = self.repo.file_at(self.samples[version].commit_id, path)
        return (data or b"").decode("utf-8", errors="replace")

    def corpus(self, version: int) -> dict[str, str]:
        def build() -> dict[str, str]:
            files = self.files(version)
            self.repo.read_ahead(
                blob for blob in files.values()
                if blob is not None and ("text", blob) not in self._memo
            )
            return {
                path: self._once(("text", blob), lambda: self._decode(version, path))
                for path, blob in files.items()
            }

        return self._once(("corpus", version), build)

    def _lex(self, version: int, path: str) -> TokenList:
        blob = self.files(version)[path]
        return self._once(("lex", blob), lambda: scan(self.corpus(version)[path], self._lines))

    def file_blocks(self, version: int, path: str) -> list[CodeBlock]:
        key = ("blocks", self.files(version)[path], path)
        return self._once(key, lambda: extract_blocks(self._lex(version, path), path))

    def blocks(self, version: int) -> list[CodeBlock]:
        """Every block of the version: the `file_blocks` of each path, by path."""
        return [b for path in sorted(self.files(version)) for b in self.file_blocks(version, path)]

    def context(self, version: int, path: str) -> frozenset[str]:
        """`file_context` of the file's `file_blocks`; keyed like them."""
        from .features import file_context

        key = ("context", self.files(version)[path], path)
        return self._once(key, lambda: file_context(self.file_blocks(version, path)))

    def classes(self, version: int, path: str) -> list:
        """`top_level_classes` of the file's `file_blocks`, the blocks its members
        are taken from; keyed like them, since blocks carry their path."""
        from .features import top_level_classes

        key = ("classes", self.files(version)[path], path)
        return self._once(key, lambda: top_level_classes(self.file_blocks(version, path)))

    def hierarchy(self, version: int) -> dict[str, int]:
        from .features import hierarchy_components

        return self._once(("hierarchy", version), lambda: hierarchy_components(
            [self.classes(version, path) for path in sorted(self.files(version))]
        ))

    def changed_paths(self, a: int, b: int) -> set[str]:
        """Paths whose tree entry differs between versions *a* and *b*."""
        commits = self.samples[a].commit_id, self.samples[b].commit_id
        return self._once(("changed", a, b), lambda: set(self.repo.changed_paths(*commits)))

    def hunks(self, a: int, b: int, path: str) -> list[Hunk]:
        """Line hunks of *path* from version *a* to version *b*."""
        commits = self.samples[a].commit_id, self.samples[b].commit_id
        return self._once(("hunks", a, b, path), lambda: self.repo.diff_hunks(*commits, path))

    def exists(self, version: int, path: str) -> bool:
        """Whether *path* names a source file of `files` at the version."""
        return self.files(version).get(path) is not None


def materialize_groups(vdata: VersionData, records: list[GroupRecord]) -> list[list[CloneGroup]]:
    """Rebuild CloneGroup objects (with token data) from their stored locations,
    one list per sampled version of *vdata*: each member is the block of its
    file whose `{` it names, and must have the lines and token count it was
    written with. Only the files that hold a member are lexed."""
    per_version: list[list[CloneGroup]] = [[] for _ in vdata.samples]
    for rec in records:
        if not 0 <= rec.version < len(per_version):
            raise _stale(
                "clones", f"clones file references version {rec.version} outside the sample list"
            )
        members = []
        for m in rec.members:
            listed = m.path in vdata.files(rec.version)
            blocks = vdata.file_blocks(rec.version, m.path) if listed else []
            i = bisect_left(blocks, m.brace, key=lambda b: b.brace)
            block = blocks[i] if i < len(blocks) and blocks[i].brace == m.brace else None
            if block is None or MemberRecord.of(block) != m:
                found = "not found" if block is None else (
                    f"lexed to lines {block.start_line}-{block.end_line}, {block.size} tokens"
                )
                raise _stale("clones", (
                    f"block {m.path}:{m.start}-{m.end} of {m.tokens} tokens, its {{ at token "
                    f"{m.brace}, {found} at version {rec.version}"
                ))
            members.append(block)
        per_version[rec.version].append(
            CloneGroup(version=rec.version, members=tuple(members), group_id=rec.group_id)
        )
    return per_version


def _read_lineages(vdata: VersionData, out_dir) -> list[Lineage]:
    """The lineages of `lineages.txt`, each link joining the members of `clones.txt`
    that its indices name; MissingInput unless the two files agree."""
    from .genealogy import CloneLink, Lineage

    clones, path = _require(out_dir, "clones"), _require(out_dir, "lineages")
    records = artifacts.read_lineages(path)
    per_version = materialize_groups(vdata, artifacts.read_groups(clones))
    groups = {(g.version, g.group_id): g for gs in per_version for g in gs}

    def stale(problem: str) -> MissingInput:
        return _stale("lineages", f"{path} {problem}")

    named = Counter(ref for rec in records for ref in rec.groups)
    for v, gid in sorted(named.keys() | groups.keys(), key=lambda ref: (ref in groups, ref)):
        if (v, gid) not in groups:
            raise stale(f"names group {gid} at version {v}, which {clones} lacks")
        if named[v, gid] != 1:
            raise stale(f"names group {gid} at version {v} of {clones} {named[v, gid]} times")
    lineages = []
    for rec in records:
        members = [groups[ref].members for ref in rec.groups]
        if len(rec.links) != len(members) - 1:
            counts = f"{len(members)} groups and {len(rec.links)} link steps"
            raise stale(f"gives {rec.lineage_id} {counts}")
        steps = list(zip(members, members[1:], rec.links))
        if not all(0 <= i < len(a) and 0 <= j < len(b) for a, b, step in steps for i, j, _ in step):
            raise stale(f"links a member index of {rec.lineage_id} outside its group")
        links = [[CloneLink(a[i], b[j], score) for i, j, score in step] for a, b, step in steps]
        chain = [(v, groups[v, gid]) for v, gid in rec.groups]
        lineages.append(Lineage(rec.lineage_id, chain, links, rec.end_state))
    return lineages


# -- stages --------------------------------------------------------------------


def stage_mine(config: PipelineConfig, repo_path: str, out_dir: str | Path) -> str:
    with Repository(repo_path) as repo:
        commits = repo.commits()
    samples = sample_versions(commits, config.delta_threshold)
    artifacts.write_commits(_path(out_dir, "commits"), commits)
    artifacts.write_samples(_path(out_dir, "samples"), samples)
    return f"mine: {len(commits)} commits, {len(samples)} samples -> {_path(out_dir, 'samples')}"


def stage_detect(config: PipelineConfig, repo_path: str, out_dir: str | Path) -> str:
    samples = artifacts.read_samples(_require(out_dir, "samples"))
    all_groups = []
    with Repository(repo_path) as repo:
        vdata = VersionData(repo, samples)
        for s in samples:
            all_groups.extend(
                detect_clones(
                    vdata.blocks(s.index),
                    min_tokens=config.min_tokens,
                    min_lines=config.min_lines,
                    theta=config.theta,
                    version=s.index,
                )
            )
    artifacts.write_groups(_path(out_dir, "clones"), [GroupRecord.of(g) for g in all_groups])
    return f"detect: {len(all_groups)} clone groups over {len(samples)} versions -> {_path(out_dir, 'clones')}"


def stage_genealogy(config: PipelineConfig, repo_path: str, out_dir: str | Path) -> str:
    from .genealogy import build_genealogies

    samples = artifacts.read_samples(_require(out_dir, "samples"))
    records = artifacts.read_groups(_require(out_dir, "clones"))
    with Repository(repo_path) as repo:
        groups = materialize_groups(VersionData(repo, samples), records)
    lineages = build_genealogies(groups, config.link_floor)
    artifacts.write_lineages(_path(out_dir, "lineages"), [LineageRecord.of(l) for l in lineages])
    return f"genealogy: {len(lineages)} lineages -> {_path(out_dir, 'lineages')}"


def stage_label(
    config: PipelineConfig,
    repo_path: str,
    out_dir: str | Path,
    sweep_thresholds: list[str | float] | None = None,
) -> str:
    """Label every lineage; with *sweep_thresholds*, each parsed and checked as
    an l_th before any input is read, also count R labels at each of them."""
    from .labeler import LabelContext, label_lineage, sweep

    thresholds = [parse_value("l_th", th) for th in sweep_thresholds or ()]
    for th in thresholds:
        config._replace(l_th=th).validate()
    samples = artifacts.read_samples(_require(out_dir, "samples"))
    with Repository(repo_path) as repo:
        vdata = VersionData(repo, samples)
        lineages = _read_lineages(vdata, out_dir)
        ctx = LabelContext(vdata.blocks)
        decisions = [label_lineage(lin, ctx, config.l_th) for lin in lineages]
        swept = (_path(out_dir, "sweep"), sweep(lineages, ctx, thresholds)) if thresholds else None
    artifacts.write_labels(_path(out_dir, "labels"), decisions, swept)
    summary = (
        f"label: {sum(1 for d in decisions if d.label == 'R')} R / "
        f"{sum(1 for d in decisions if d.label == 'NR')} NR -> {_path(out_dir, 'labels')}"
    )
    if swept is not None:
        summary += f"; sweep -> {swept[0]}"
    return summary


def stage_featurize(config: PipelineConfig, repo_path: str, out_dir: str | Path) -> str:
    from .features import (
        FeatureRow,
        assemble_vector,
        extract_cochange_features,
        extract_code_features,
        extract_diff_features,
        extract_history_features,
        extract_location_features,
    )

    samples = artifacts.read_samples(_require(out_dir, "samples"))
    commits = artifacts.read_commits(_require(out_dir, "commits"))
    labels_path = _path(out_dir, "labels")
    decisions = (
        {d.lineage_id: d for d in artifacts.read_labels(labels_path)}
        if labels_path.exists()
        else {}
    )
    window = checked_window(samples, config.window_fraction, config.recent_fraction)
    window_note = "" if window.steps else (
        " (WindowUnavailable: <2 samples; history/co-change features zeroed)"
    )

    rows = []
    with Repository(repo_path) as repo:
        vdata = VersionData(repo, samples)
        lineages = _read_lineages(vdata, out_dir)
        unknown = decisions.keys() - {lineage.lineage_id for lineage in lineages}
        if unknown:
            raise _stale(
                "labels", f"labels file names lineage {min(unknown)}, which genealogy did not build"
            )
        for lineage in lineages:
            decision = decisions.get(lineage.lineage_id)
            step = None if decision is None else decision.step_version  # None unless R
            version = lineage.groups[-1][0] if step is None else step
            group = dict(lineage.groups).get(version)
            if group is None:
                raise _stale("labels", (
                    f"{lineage.lineage_id} is labeled R at step {version}, which is not a "
                    "version of its lineage"
                ))
            per_clone = []
            for member in group.members:
                code = extract_code_features(member, vdata.context(version, member.path))
                history = extract_history_features(member.path, window, vdata, commits)
                per_clone.append(code + history)
            group_values = (
                extract_location_features(group, vdata)
                + extract_diff_features(group)
                + extract_cochange_features(group, lineage, version, window, vdata)
            )
            values = assemble_vector(per_clone, group_values, config.aggregation)
            label = None if decision is None else (1 if decision.label == "R" else 0)
            rows.append(FeatureRow(lineage.lineage_id, version, values, label))
    artifacts.write_features(_path(out_dir, "features"), rows)
    return f"featurize: {len(rows)} vectors -> {_path(out_dir, 'features')}{window_note}"


def stage_train(
    config: PipelineConfig, out_dir: str | Path, algorithm: str = "adaboost"
) -> str:
    from .learner import train_alt

    examples = _labeled(artifacts.read_features(_require(out_dir, "features")))
    if not examples:
        raise DegenerateData("no labeled feature rows to train on (run label + featurize)")
    model = train_alt(
        algorithm, examples, seed=config.seed, rounds=config.boost_rounds
    )
    artifacts.write_model(_path(out_dir, "model"), model)
    return f"train: {algorithm} on {len(examples)} examples -> {_path(out_dir, 'model')}"


def stage_recommend(config: PipelineConfig, out_dir: str | Path) -> str:
    from .learner import recommend

    model = artifacts.read_model(_require(out_dir, "model"))
    rows = artifacts.read_features(_require(out_dir, "features"))
    samples = artifacts.read_samples(_require(out_dir, "samples"))
    lineage_records = artifacts.read_lineages(_require(out_dir, "lineages"))
    final = len(samples) - 1
    group_at = {
        rec.lineage_id: dict(rec.groups) for rec in lineage_records
    }
    candidates = []
    for row in rows:
        if row.lineage_id not in group_at:
            raise _stale("features", (
                f"features file names lineage {row.lineage_id}, which the lineages file lacks"
            ))
        if row.version != final:
            continue
        group_id = group_at[row.lineage_id].get(final)
        if group_id is None:
            raise _stale("features", (
                f"{row.lineage_id} has a feature row at version {final}, where the lineages "
                "file gives it no group"
            ))
        candidates.append((group_id, row.values))
    ranked = recommend(model, candidates, config.recommend_threshold)
    artifacts.write_recommendations(_path(out_dir, "recommendations"), ranked)
    return (
        f"recommend: {len(ranked)} of {len(candidates)} current groups "
        f"-> {_path(out_dir, 'recommendations')}"
    )


def _labeled(rows: list[FeatureRow]) -> list[FeatureRow]:
    """The labeled rows by values and then label: an order that a model and its
    evaluation can depend on, unlike the file's, which follows lineage ids."""
    return sorted((r for r in rows if r.label is not None), key=lambda r: (r.values, r.label))


def _load_projects(
    feature_paths: list[str], balance: bool, seed: int
) -> list[tuple[str, list[FeatureRow]]]:
    from .eval_harness import build_balanced_dataset

    projects = []
    for p, name in zip(feature_paths, _project_names(feature_paths)):
        if not Path(p).exists():
            raise MissingInput(f"feature file not found: {p}")
        examples = _labeled(artifacts.read_features(Path(p)))
        if balance:
            r = [e for e in examples if e.label == 1]
            nr = [e for e in examples if e.label == 0]
            examples = build_balanced_dataset(r, nr, seed)
        projects.append((name, examples))
    return projects


def _project_names(feature_paths: list[str]) -> list[str]:
    """Each file's shortest trailing path part, suffix dropped, that no other
    file shares: `a.csv` and `b.csv` give `a` and `b`, `p1/features.csv` and
    `p2/features.csv` give `p1/features` and `p2/features`. A name is a cell of
    the report's CSV rows: no comma, line break or lone surrogate (undecodable byte)."""
    parts = [(Path(p).parent / Path(p).stem).parts for p in feature_paths]
    names = []
    for i, own in enumerate(parts):
        others = parts[:i] + parts[i + 1 :]
        if own in others:
            raise ConfigError(f"two feature files share the name {Path(*own).as_posix()!r}")
        k = 1
        while any(other[-k:] == own[-k:] for other in others):
            k += 1
        name = Path(*own[-k:]).as_posix()
        if any(c in ",\n\r" or "\ud800" <= c <= "\udfff" for c in name):
            raise ConfigError(
                f"feature file {feature_paths[i]!r} gives the project name {name!r}, which holds "
                "a comma, a line break or an undecodable byte; rename the file or its directory"
            )
        names.append(name)
    return names


def _learner_config(config: PipelineConfig, algorithm: str) -> LearnerConfig:
    from .eval_harness import LearnerConfig

    return LearnerConfig(
        algorithm=algorithm,
        rounds=config.boost_rounds,
        threshold=config.recommend_threshold,
        seed=config.seed,
    )


def stage_evaluate(
    config: PipelineConfig,
    feature_paths: list[str],
    setting: str,
    out_dir: str | Path,
    algorithm: str = "adaboost",
    balance: bool = False,
) -> str:
    from .eval_harness import run_setting

    projects = _load_projects(feature_paths, balance, config.seed)
    report = run_setting(projects, setting, _learner_config(config, algorithm))
    artifacts.write_report(_path(out_dir, "report"), report)
    p, r, f = report.averages
    return f"evaluate[{setting}]: avg P={p:.3f} R={r:.3f} F={f:.3f} -> {_path(out_dir, 'report')}"


def _write_experiment(out_dir: str | Path, setting: str, name: str, column: str, rows: list[tuple]) -> str:
    """Write an ablate or compare table: one (*column*, precision, recall, F) row per run."""
    path = _path(out_dir, name)
    artifacts.write_table(path, name, f"{column},precision,recall,fscore", rows)
    return f"{FILES[name][1]}[{setting}]: {len(rows)} {column}s -> {path}"


def stage_ablate(
    config: PipelineConfig,
    feature_paths: list[str],
    setting: str,
    out_dir: str | Path,
    balance: bool = False,
) -> str:
    from .eval_harness import ablation

    projects = _load_projects(feature_paths, balance, config.seed)
    rows = ablation(projects, setting, _learner_config(config, "adaboost"))
    return _write_experiment(out_dir, setting, "ablation", "variant", rows)


def stage_compare(
    config: PipelineConfig,
    feature_paths: list[str],
    setting: str,
    algorithms: list[str],
    out_dir: str | Path,
    balance: bool = False,
) -> str:
    from .eval_harness import compare_learners

    repeated = next((a for i, a in enumerate(algorithms) if a in algorithms[:i]), None)
    if repeated is not None:
        raise ConfigError(f"algorithm {repeated!r} is given twice")
    projects = _load_projects(feature_paths, balance, config.seed)
    rows = compare_learners(projects, setting, algorithms, _learner_config(config, "adaboost"))
    return _write_experiment(out_dir, setting, "comparison", "algorithm", rows)
