"""CLI surface: staged pipeline runs, error contracts, overrides."""

from __future__ import annotations

import inspect
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clone_fixtures import commit_corpora, end_to_end_corpora
from conftest import RepoBuilder, feature_row, read_sweep, save_config
from crec import artifacts, pipeline
from crec.artifacts import LineageRecord
from crec.cli import _COMMANDS, _CONFIG_ARGS, build_parser, main, resolve_config
from crec.config import PipelineConfig
from crec.errors import ConfigError
from crec.learner import train_alt
from crec.repo_miner import SampledVersion


SRC = str(Path(__file__).resolve().parents[1] / "src")
STAGES = (
    "mine", "detect", "genealogy", "label", "featurize",
    "train", "recommend", "evaluate", "ablate", "compare",
)
_CONFIG_FLAGS = ["--" + name.replace("_", "-") for name in PipelineConfig._fields]


def _run(*argv: str) -> int:
    return main(list(argv))


def _one_error_line(capsys) -> str:
    """The run's stderr, asserted to be a single line."""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return err


def _pipeline_args(repo: Path, out: Path) -> list[str]:
    return ["--repo", str(repo), "--out", str(out), "--delta-threshold", "1"]


class TestPipelineStages:
    def test_full_run_produces_all_artifacts(self, make_repo, tmp_path, capsys):
        rb = make_repo("e2e")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        common = _pipeline_args(rb.path, out)

        assert _run("mine", *common) == 0
        assert _run("detect", *common) == 0
        assert _run("genealogy", *common) == 0
        assert _run("label", *common, "--sweep", "0.3", "0.4", "0.5") == 0
        assert _run("featurize", *common) == 0
        assert _run("train", "--out", str(out)) == 0
        assert _run("recommend", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert "mine:" in captured.out and "recommend:" in captured.out

        samples = artifacts.read_samples(out / "samples.txt")
        assert len(samples) == 2
        labels = artifacts.read_labels(out / "labels.txt")
        by_label = {d.label for d in labels}
        assert by_label == {"R", "NR"}
        r_decision = next(d for d in labels if d.label == "R")
        assert r_decision.evidence["method"] == "applyScaling"
        rows = artifacts.read_features(out / "features.csv")
        assert {r.label for r in rows} == {0, 1}
        sweep = read_sweep(out / "label_sweep.txt")
        assert [n for _, n in sweep] == [1, 1, 1]

        rec_lines = (out / "recommendations.csv").read_text().splitlines()
        assert rec_lines[0] == "crec-format v1 recommendations"
        assert rec_lines[1] == "group_id,likelihood"

    def test_single_version_repo_flags_unavailable_window(self, make_repo, tmp_path, capsys):
        rb = make_repo()
        commit_corpora(rb, end_to_end_corpora()[:1])
        out = tmp_path / "out"
        common = _pipeline_args(rb.path, out)
        for stage in ("mine", "detect", "genealogy", "label", "featurize"):
            assert _run(stage, *common) == 0
        assert "WindowUnavailable" in capsys.readouterr().out
        rows = artifacts.read_features(out / "features.csv")
        assert rows, "single-version repo still yields vectors"
        for row in rows:
            assert row.values[11:17] == (0.0,) * 6  # F12-F17 zeroed
            assert row.values[29:34] == (0.0,) * 5  # F30-F34 zeroed

    def test_byte_identical_across_processes_and_hash_seeds(self, make_repo, tmp_path):
        import os
        import subprocess
        import sys

        rb = make_repo("hashseed")
        commit_corpora(rb, end_to_end_corpora())
        outs = [tmp_path / "h1", tmp_path / "h2"]
        for out, hash_seed in zip(outs, ("1", "4242")):
            env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
            for stage in ("mine", "detect", "genealogy", "label", "featurize", "train", "recommend"):
                proc = subprocess.run(
                    [sys.executable, "-m", "crec.cli", stage]
                    + (_pipeline_args(rb.path, out) if stage not in ("train", "recommend")
                       else ["--out", str(out)]),
                    capture_output=True,
                    env=env,
                )
                assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    # Run one command in a fresh interpreter, as `crec` does, and print the
    # crec modules it loaded, with the costly stdlib ones that only some may:
    # no command loads `dataclasses`, or the `inspect` that it imports.
    _REPORT_IMPORTS = (
        "import json, sys\n"
        "from crec.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "costly = ('hashlib', '_hashlib', 'dataclasses', 'inspect')\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.startswith('crec') or m in costly)]))\n"
    )
    # the crec modules each command loads besides cli, config and errors, as
    # the README's module map lists them: a stage imports only what it runs
    _READER = {"pipeline", "artifacts", "repo_miner", "clone_detector"}
    _LOADED = {
        "mine": _READER,
        "detect": _READER,
        "genealogy": _READER | {"genealogy"},
        "label": _READER | {"genealogy", "labeler"},
        "featurize": _READER | {"genealogy", "labeler", "features"},
        "train": _READER | {"features", "learner"},
        "recommend": _READER | {"features", "learner"},
    }

    def test_each_stage_imports_only_what_it_runs(self, make_repo, tmp_path):
        def loaded(*argv: str) -> set[str]:
            proc = subprocess.run(
                [sys.executable, "-c", self._REPORT_IMPORTS, *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            code, modules = json.loads(proc.stdout.splitlines()[-1])
            assert code == 0, proc.stderr
            return set(modules)

        core = {"crec", "crec.cli", "crec.config", "crec.errors"}
        assert loaded("--help") == core
        rb = make_repo("imports")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        for stage, names in self._LOADED.items():
            args = _pipeline_args(rb.path, out) if stage not in ("train", "recommend") else [
                "--out", str(out)
            ]
            expected = core | {f"crec.{name}" for name in names}
            # `hashlib` loads OpenSSL: only `train` uses it, for the model's
            # dataset digest, and `detect` names groups with the built-in SHA-1
            if stage == "train":
                expected |= {"hashlib", "_hashlib"}
            assert loaded(stage, *args) == expected, stage

    def test_stage_rerun_is_idempotent(self, make_repo, tmp_path):
        rb = make_repo("rerun")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        common = _pipeline_args(rb.path, out)
        for stage in ("mine", "detect", "genealogy", "label"):
            assert _run(stage, *common) == 0
        before = (out / "labels.txt").read_bytes()
        assert _run("label", *common) == 0
        assert (out / "labels.txt").read_bytes() == before

    def test_stage_without_input_fails_cleanly(self, make_repo, tmp_path, capsys):
        rb = make_repo()
        rb.commit({"A.java": "class A {}\n"})
        out = tmp_path / "fresh"
        out.mkdir()
        code = _run("detect", "--repo", str(rb.path), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MissingInput:")
        assert "mine" in err

    def test_not_a_repository_reported(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.mkdir()
        code = _run("mine", "--repo", str(plain), "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: NotARepository:")

    def test_rounds_flag_overrides_config_default(self, make_repo, tmp_path):
        rb = make_repo()
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        common = _pipeline_args(rb.path, out)
        for stage in ("mine", "detect", "genealogy", "label", "featurize"):
            assert _run(stage, *common) == 0
        assert _run("train", "--out", str(out), "--rounds", "10") == 0
        model_line = (out / "model.txt").read_text().splitlines()[1]
        assert json.loads(model_line)["rounds"] == 10

    def test_rounds_flag_validated_like_boost_rounds(self, tmp_path, capsys):
        assert _run("train", "--out", str(tmp_path), "--rounds", "0") == 1
        assert _one_error_line(capsys).startswith("error: ConfigError:")


def _command_argv(command: str, repo: Path, out: Path, project: Path) -> list[str]:
    """The argv that runs *command* over *repo*, or over the feature file *project*."""
    if command in ("evaluate", "ablate", "compare"):
        algorithms = ["--algorithms", "adaboost", "naive_bayes"] if command == "compare" else []
        return [command, "--features", str(project), "--setting", "within", *algorithms,
                "--out", str(out)]
    if command in ("train", "recommend"):
        return [command, "--out", str(out)]
    return [command, *_pipeline_args(repo, out)]


@pytest.fixture(scope="module")
def complete_out(tmp_path_factory):
    """(repository, --out after every command has run, feature file of 20 labeled rows)."""
    root = tmp_path_factory.mktemp("complete")
    rb = RepoBuilder(root / "repo")
    commit_corpora(rb, end_to_end_corpora())
    out, project = root / "out", root / "project.csv"
    _write_project(project)
    for command in STAGES:
        assert main(_command_argv(command, rb.path, out, project)) == 0
    return rb.path, out, project


class TestMissingInputNamesItsWriter:
    @pytest.mark.parametrize(
        "command, file, writer",
        [
            ("detect", "samples.txt", "mine"),
            ("genealogy", "samples.txt", "mine"),
            ("genealogy", "clones.txt", "detect"),
            ("label", "samples.txt", "mine"),
            ("label", "clones.txt", "detect"),
            ("label", "lineages.txt", "genealogy"),
            ("featurize", "samples.txt", "mine"),
            ("featurize", "commits.txt", "mine"),
            ("featurize", "clones.txt", "detect"),
            ("featurize", "lineages.txt", "genealogy"),
            ("train", "features.csv", "featurize"),
            ("recommend", "model.txt", "train"),
            ("recommend", "features.csv", "featurize"),
            ("recommend", "samples.txt", "mine"),
            ("recommend", "lineages.txt", "genealogy"),
        ],
    )
    def test_missing_file_names_the_command_that_writes_it(
        self, complete_out, tmp_path, capsys, command, file, writer
    ):
        repo, complete, project = complete_out
        out = tmp_path / "out"
        shutil.copytree(complete, out)
        (out / file).unlink()
        capsys.readouterr()
        assert main(_command_argv(command, repo, out, project)) == 1
        assert _one_error_line(capsys) == (
            f"error: MissingInput: {out / file} not found (run `{writer}` first)\n"
        )

    def test_bad_sweep_value_rejected_before_any_input_is_read(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^bad value for l_th: 'abc'$"):
            pipeline.stage_label(PipelineConfig(), str(tmp_path), tmp_path, ["0.3", "abc"])
        assert not any(tmp_path.iterdir())


def _cap_file_size(limit: int):
    def cap() -> None:  # runs in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return cap


class TestWriteFailure:
    """A command whose write fails exits 1 with one WriteError line, and leaves
    its earlier artifact and the rest of --out as they were."""

    @pytest.mark.parametrize(
        "command, file",
        [
            ("mine", "commits.txt"),
            ("detect", "clones.txt"),
            ("genealogy", "lineages.txt"),
            ("label", "labels.txt"),
            ("featurize", "features.csv"),
            ("train", "model.txt"),
            ("recommend", "recommendations.csv"),
            ("evaluate", "report.txt"),
            ("ablate", "ablation.csv"),
            ("compare", "comparison.csv"),
        ],
    )
    def test_capped_file_size_keeps_the_old_artifact(self, complete_out, tmp_path, command, file):
        repo, complete, project = complete_out
        out = tmp_path / "out"
        shutil.copytree(complete, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before[file]) > 16
        proc = subprocess.run(
            [sys.executable, "-m", "crec.cli", *_command_argv(command, repo, out, project)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
            # every write past the 16th byte of a file fails with EFBIG, so the
            # artifact's text, whose header alone is longer, is cut midway
            preexec_fn=_cap_file_size(16),
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: WriteError: cannot write {out / file}: File too large\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestRecommendStage:
    def test_ranked_table_from_synthetic_artifacts(self, tmp_path):
        out = tmp_path
        artifacts.write_samples(out / "samples.txt", [SampledVersion(0, "c0", 0), SampledVersion(1, "c1", 50)])
        artifacts.write_lineages(
            out / "lineages.txt",
            [
                LineageRecord("lin-a", "alive_at_last_version", ((0, "gA0"), (1, "gA1")), ((),)),
                LineageRecord("lin-b", "alive_at_last_version", ((0, "gB0"), (1, "gB1")), ((),)),
                LineageRecord("lin-c", "dissolved", ((0, "gC0"),), ()),
            ],
        )

        artifacts.write_features(
            out / "features.csv",
            [
                feature_row(None, {1: 9.0}, lineage="lin-a", version=1),
                feature_row(None, {1: 1.0}, lineage="lin-b", version=1),
                feature_row(None, {1: 9.0}, lineage="lin-c"),  # not at the final version
            ],
        )
        examples = [feature_row(0, {1: 1.0}, lineage="t1"), feature_row(1, {1: 9.0}, lineage="t2")]
        artifacts.write_model(out / "model.txt", train_alt("adaboost", examples))
        assert _run("recommend", "--out", str(out)) == 0
        ranked = artifacts.read_recommendations(out / "recommendations.csv")
        assert ranked == [("gA1", 1.0)]


    @pytest.mark.parametrize("edit", ["line-deleted", "final-group-dropped"])
    def test_stale_features_rejected(self, make_repo, tmp_path, capsys, edit):
        """A final-version feature row whose lineage lineages.txt lacks, or gives
        no group at the final version, means lineages.txt changed after featurize."""
        rb = make_repo("stale")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        for stage in ("mine", "detect", "genealogy", "label", "featurize"):
            assert _run(stage, *_pipeline_args(rb.path, out)) == 0
        assert _run("train", "--out", str(out)) == 0
        final = len(artifacts.read_samples(out / "samples.txt")) - 1
        rows = artifacts.read_features(out / "features.csv")
        stale = next(r.lineage_id for r in rows if r.version == final)
        records = artifacts.read_lineages(out / "lineages.txt")
        if edit == "line-deleted":
            records = [r for r in records if r.lineage_id != stale]
        else:
            records = [
                LineageRecord(r.lineage_id, "dissolved", r.groups[:-1], r.links[:-1])
                if r.lineage_id == stale
                else r
                for r in records
            ]
        artifacts.write_lineages(out / "lineages.txt", records)
        capsys.readouterr()
        assert _run("recommend", "--out", str(out)) == 1
        err = _one_error_line(capsys)
        assert err.startswith("error: MissingInput: ")
        assert stale in err and "features file is stale (re-run featurize)" in err
        assert not (out / "recommendations.csv").exists()


def _write_project(path: Path, n: int = 20) -> None:
    rows = []
    for i in range(n):
        f1 = float(i) if i < 6 else float(i + 2)
        label = 1 if f1 > 6 else 0
        rows.append(feature_row(label, {1: f1}, lineage=f"lin-{i}"))
    artifacts.write_features(path, rows)


class TestEvaluationCommands:
    def test_evaluate_within(self, tmp_path, capsys):
        p1 = tmp_path / "p1.csv"
        _write_project(p1)
        out = tmp_path / "out"
        out.mkdir()
        code = _run(
            "evaluate", "--features", str(p1), "--setting", "within", "--out", str(out)
        )
        assert code == 0
        report = (out / "report.txt").read_text().splitlines()
        assert report[0] == "crec-format v1 report"
        meta = json.loads(report[1])
        assert meta["setting"] == "within" and meta["metric_mode"] == "pooled"
        assert report[-1].startswith("Average,1.0,1.0,1.0")

    def test_evaluate_cross(self, tmp_path):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        _write_project(p1)
        _write_project(p2)
        out = tmp_path / "out"
        out.mkdir()
        code = _run(
            "evaluate",
            "--features", str(p1), str(p2),
            "--setting", "cross",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert any(line.startswith("p1,") for line in lines)
        assert any(line.startswith("p2,") for line in lines)

    def test_readme_cross_command_with_one_file_name(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        command = next(
            line for line in readme.splitlines() if line.startswith("crec evaluate ")
        )
        argv = shlex.split(command)[1:]
        assert argv[argv.index("--features") + 1 :][:2] == ["p1/features.csv", "p2/features.csv"]
        monkeypatch.chdir(tmp_path)
        for project in ("p1", "p2"):
            (tmp_path / project).mkdir()
            _write_project(tmp_path / project / "features.csv")
        assert _run(*argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        names = [line.split(",")[0] for line in (out / "report.txt").read_text().splitlines()[3:]]
        assert names == ["p1/features", "p2/features", "Average"]

    def test_same_feature_file_twice_rejected(self, tmp_path, capsys):
        p1 = tmp_path / "p1.csv"
        _write_project(p1)
        code = _run(
            "evaluate",
            "--features", str(p1), str(p1),
            "--setting", "cross",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert _one_error_line(capsys).startswith("error: ConfigError:")

    @pytest.mark.parametrize(
        "directory", ["a,b", "a\nb", "a\rb", "a\udcffb"], ids=["comma", "LF", "CR", "non-UTF-8"]
    )
    def test_project_name_that_breaks_a_report_row_rejected(self, tmp_path, capsys, directory):
        paths = [tmp_path / directory / "features.csv", tmp_path / "c" / "features.csv"]
        for path in paths:
            path.parent.mkdir()
            _write_project(path)
        out = tmp_path / "out"
        code = _run(
            "evaluate",
            "--features", *map(str, paths),
            "--setting", "cross",
            "--out", str(out),
        )
        assert code == 1
        err = _one_error_line(capsys)
        assert err.startswith("error: ConfigError: feature file ")
        assert repr(str(paths[0])) in err
        assert not (out / "report.txt").exists()

    def test_same_file_twice_named_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "a\nb" / "features.csv"
        path.parent.mkdir()
        _write_project(path)
        code = _run(
            "evaluate",
            "--features", str(path), str(path),
            "--setting", "cross",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert _one_error_line(capsys).startswith("error: ConfigError: two feature files share")

    def test_ablate_writes_six_variants(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        _write_project(p1)
        out = tmp_path / "out"
        out.mkdir()
        assert _run("ablate", "--features", str(p1), "--setting", "within", "--out", str(out)) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        names = [line.split(",")[0] for line in lines[2:]]
        assert names == [
            "AllFeatures",
            "ExceptCode",
            "ExceptHistory",
            "ExceptLocation",
            "ExceptDiff",
            "ExceptCoChange",
        ]

    def test_compare_lists_algorithms(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        _write_project(p1)
        out = tmp_path / "out"
        out.mkdir()
        code = _run(
            "compare",
            "--features", str(p1),
            "--setting", "within",
            "--algorithms", "adaboost", "naive_bayes",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ["adaboost", "naive_bayes"]

    def test_compare_repeated_algorithm_rejected(self, tmp_path, capsys):
        p1 = tmp_path / "p1.csv"
        _write_project(p1)
        out = tmp_path / "out"
        out.mkdir()
        code = _run(
            "compare",
            "--features", str(p1),
            "--setting", "within",
            "--algorithms", "adaboost", "naive_bayes", "adaboost",
            "--out", str(out),
        )
        assert code == 1
        assert _one_error_line(capsys) == "error: ConfigError: algorithm 'adaboost' is given twice\n"
        assert not (out / "comparison.csv").exists()


class TestConfigResolution:
    def test_flag_overrides_config_file(self, tmp_path):
        conf = tmp_path / "crec.conf"
        save_config(PipelineConfig(l_th=0.5, delta_threshold=80), conf)
        args = build_parser().parse_args(
            ["mine", "--repo", "r", "--config", str(conf), "--l-th", "0.3"]
        )
        config = resolve_config(args)
        assert config.l_th == 0.3  # flag wins
        assert config.delta_threshold == 80  # file value kept

    def test_fraction_flags_parsed(self):
        args = build_parser().parse_args(
            ["mine", "--repo", "r", "--window-fraction", "1/5", "--recent-fraction", "1/2"]
        )
        config = resolve_config(args)
        assert config.window_fraction == Fraction(1, 5)
        assert config.recent_fraction == Fraction(1, 2)

    @pytest.mark.parametrize("flag", [*_CONFIG_FLAGS, "--rounds"])
    @pytest.mark.parametrize("raw", ["1/0", "abc", "median"])
    def test_malformed_fraction_flag_rejected(self, tmp_path, capsys, flag, raw):
        """Every config flag, and `train --rounds`, rejects a malformed value as
        the config file does: exit 1 and one ConfigError line, no usage text."""
        if flag == "--rounds":
            name, argv = "boost_rounds", ["train", "--out", str(tmp_path)]
        else:
            name, argv = flag[2:].replace("-", "_"), ["mine", "--repo", str(tmp_path)]
        assert _run(*argv, flag, raw) == 1
        reason = f"bad value for {name}: {raw!r}"
        if name == "aggregation":  # text parses; validate rejects it
            reason = "aggregation must be mean or max"
        assert _one_error_line(capsys).startswith(f"error: ConfigError: {reason}")

    @pytest.mark.parametrize("stage", STAGES)
    def test_help_lists_every_config_flag(self, capsys, stage):
        with pytest.raises(SystemExit) as exited:
            _run(stage, "--help")
        assert exited.value.code == 0
        out = capsys.readouterr().out
        for default, flag in zip(PipelineConfig._field_defaults.values(), _CONFIG_FLAGS):
            assert re.search(rf"{flag} \S+\s+default: {re.escape(str(default))}\n", out), flag

    @pytest.mark.parametrize(
        "raw, reason",
        [("abc", "bad value for l_th: 'abc'"), ("1.5", "l_th must be in [0, 1]")],
        ids=["abc", "1.5"],
    )
    def test_sweep_value_checked_as_l_th(self, tmp_path, capsys, raw, reason):
        argv = ["label", "--repo", str(tmp_path), "--out", str(tmp_path), "--sweep", "0.3", raw]
        assert _run(*argv) == 1
        assert _one_error_line(capsys).startswith(f"error: ConfigError: {reason}")

    def test_invalid_override_rejected(self, tmp_path, capsys):
        code = _run("mine", "--repo", str(tmp_path), "--theta", "1.5")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ConfigError:")

    def test_missing_config_file_reported(self, tmp_path, capsys):
        code = _run("mine", "--repo", str(tmp_path), "--config", str(tmp_path / "nope.conf"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ConfigError:")

    def test_undecodable_config_file_reported(self, tmp_path, capsys):
        conf = tmp_path / "crec.conf"
        conf.write_bytes(b"crec-format v1 config\nseed = 1\n# \xff\n")
        assert _run("mine", "--repo", str(tmp_path), "--config", str(conf)) == 1
        assert _one_error_line(capsys) == f"error: ParseError: {conf}: line 3: undecodable byte 0xff\n"

    def test_config_directory_reported(self, tmp_path, capsys):
        assert _run("mine", "--repo", str(tmp_path), "--config", str(tmp_path)) == 1
        assert _one_error_line(capsys).startswith(f"error: MissingInput: cannot read {tmp_path}")

    def test_missing_feature_file_reported(self, tmp_path, capsys):
        code = _run(
            "evaluate",
            "--features", str(tmp_path / "ghost.csv"),
            "--setting", "within",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: MissingInput:")


class TestMalformedArtifacts:
    """A malformed artifact row stops a stage with one ParseError line naming it."""

    def test_samples_row_not_an_object(self, tmp_path, capsys):
        artifacts.write_artifact(tmp_path / "samples.txt", "samples", ["5"])
        assert _run("detect", "--repo", str(tmp_path), "--out", str(tmp_path)) == 1
        assert _one_error_line(capsys).startswith(
            f"error: ParseError: {tmp_path / 'samples.txt'}: line 2: bad samples row"
        )

    def test_feature_label_rejected_by_train(self, tmp_path, capsys):
        artifacts.write_features(tmp_path / "features.csv", [feature_row(0), feature_row(1)])
        lines = (tmp_path / "features.csv").read_text().splitlines()
        lines[3] = lines[3][:-1] + "2"  # the second row's label 1 becomes 2
        (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
        assert _run("train", "--out", str(tmp_path)) == 1
        assert _one_error_line(capsys).startswith(
            f"error: ParseError: {tmp_path / 'features.csv'}: line 4: "
            "label must be 0, 1 or empty, got '2'"
        )

    def test_nan_feature_rejected_by_train(self, tmp_path):
        # in a child process with a timeout: a nan once made `crec train` spin forever
        artifacts.write_features(
            tmp_path / "features.csv", [feature_row(0), feature_row(1, {2: float("nan")})]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "crec.cli", "train", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        features = tmp_path / "features.csv"
        assert proc.stderr == f"error: ParseError: {features}: line 4: F2=nan not finite\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            (
                '{"label":"maybe","lineage_id":"L1","step":null,"evidence":null}',
                "bad labels row: label must be R or NR, found 'maybe'",
            ),
            (
                '{"label":"R","lineage_id":"L1","step":null,"evidence":null}',
                "bad labels row: step of an R label must be an int, found None",
            ),
            (
                '{"label":"NR","lineage_id":"L1","step":0,"evidence":null}',
                "bad labels row: step of an NR label must be null, found 0",
            ),
        ],
        ids=["unknown-label", "r-without-step", "nr-with-step"],
    )
    def test_labels_row_rejected_by_featurize(self, tmp_path, capsys, row, message):
        artifacts.write_samples(tmp_path / "samples.txt", [])
        artifacts.write_commits(tmp_path / "commits.txt", [])
        artifacts.write_artifact(tmp_path / "labels.txt", "labels", [row])
        assert _run("featurize", "--repo", str(tmp_path), "--out", str(tmp_path)) == 1
        labels = tmp_path / "labels.txt"
        assert _one_error_line(capsys) == f"error: ParseError: {labels}: line 2: {message}\n"

    @pytest.mark.parametrize(
        "command, kind, row, message",
        [
            (
                "detect",
                "samples",
                '{"index":"0","commit_id":"c0","cumulative_delta":0}',
                "expected int, found '0'",
            ),
            (
                "genealogy",
                "clones",
                '{"version":"0","group_id":"g0","members":[]}',
                "expected int, found '0'",
            ),
            (
                "recommend",
                "model",
                '{"algorithm":"adaboost","stumps":[{"feature":1,"threshold":0.5,'
                '"polarity":"le","alpha":"x"}],"feature_names":[],"rounds":1,"seed":0,'
                '"dataset_digest":"d"}',
                "expected float, found 'x'",
            ),
        ],
        ids=["samples-index", "clones-version", "model-alpha"],
    )
    def test_wrong_typed_field_rejected(self, tmp_path, capsys, command, kind, row, message):
        artifacts.write_samples(tmp_path / "samples.txt", [SampledVersion(0, "c0", 0)])
        artifacts.write_artifact(tmp_path / f"{kind}.txt", kind, [row])
        repo = ["--repo", str(tmp_path)] if command != "recommend" else []
        assert _run(command, *repo, "--out", str(tmp_path)) == 1
        path = tmp_path / f"{kind}.txt"
        assert _one_error_line(capsys) == (
            f"error: ParseError: {path}: line 2: bad {kind} row: {message}\n"
        )

    def test_sample_index_not_its_position_rejected(self, tmp_path, capsys):
        samples = [SampledVersion(0, "c0", 0), SampledVersion(7, "c1", 5)]
        artifacts.write_samples(tmp_path / "samples.txt", samples)
        assert _run("detect", "--repo", str(tmp_path), "--out", str(tmp_path)) == 1
        assert _one_error_line(capsys) == (
            f"error: ParseError: {tmp_path / 'samples.txt'}: line 3: "
            "bad samples row: index 7 is not the row's position 1\n"
        )

    def test_undecodable_byte_rejected(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        artifacts.write_samples(path, [SampledVersion(0, "c0", 0), SampledVersion(1, "c1", 5)])
        path.write_bytes(path.read_bytes().replace(b'"c1"', b'"c\xff"'))
        assert _run("detect", "--repo", str(tmp_path), "--out", str(tmp_path)) == 1
        assert _one_error_line(capsys) == f"error: ParseError: {path}: line 3: undecodable byte 0xff\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"algorithm":"svm"}', "bad model row: unknown algorithm: svm"),
            ('{"algorithm":"adaboost","feature_names":[]}', "missing field 'stumps'"),
            (
                '{"algorithm":"decision_tree","root":{"prob":0.5,"feature":1,"threshold":0.5},'
                '"seed":0,"dataset_digest":"d"}',
                "bad model row: a split node needs a feature, a threshold and two children",
            ),
            (
                '{"algorithm":"adaboost","stumps":[{"feature":1,"threshold":0.5,'
                '"polarity":"le","alpha":NaN}],"feature_names":[],"rounds":1,"seed":0,'
                '"dataset_digest":"d"}',
                "bad model row: expected float, found nan",
            ),
        ],
        ids=["unknown-algorithm", "missing-stumps", "split-without-children", "nan-alpha"],
    )
    def test_model_row_rejected_by_recommend(self, tmp_path, capsys, row, message):
        artifacts.write_artifact(tmp_path / "model.txt", "model", [row])
        assert _run("recommend", "--out", str(tmp_path)) == 1
        model = tmp_path / "model.txt"
        assert _one_error_line(capsys).startswith(f"error: ParseError: {model}: line 2: {message}")


_PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["--xyz"], ["--xyz", "detect", "--repo", "r"],
    *([stage, "--help"] for stage in STAGES),
    ["detect"], ["mine", "--repo"], ["detect", "--repo", "r", "--bogus"], ["recommend", "extra"],
    ["label", "--repo", "r", "--sweep"], ["train", "--algorithm", "nope"],
    ["evaluate", "--features", "f"], ["ablate", "--features", "f", "--setting", "both"],
    ["compare", "--features", "f", "--setting", "within", "--algorithms", "nope"],
]
_VALID_ARGVS = [
    ["mine", "--repo", "r", "--seed", "4"],
    ["label", "--repo", "r", "--sweep", "0.3", "0.5", "--out", "o"],
    ["train", "--rounds", "7", "--algorithm", "naive_bayes"],
    ["recommend", "--config", "c"],
    ["evaluate", "--features", "a", "b", "--setting", "cross", "--balance"],
    ["compare", "--features", "a", "--setting", "within", "--algorithms", "adaboost", "decision_tree"],
]


class TestParserPerCommand:
    """`main` builds the arguments of the command it runs only; what it prints
    and parses is what the parser with every command's arguments gives."""

    @pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "none")
    def test_help_and_usage_errors_print_the_full_parsers_bytes(self, capsys, argv):
        def outcome(run) -> tuple:
            with pytest.raises(SystemExit) as exited:
                run()
            printed = capsys.readouterr()
            return exited.value.code, printed.out, printed.err

        expected = outcome(lambda: build_parser().parse_args(argv))
        assert expected[1] or expected[2]
        assert outcome(lambda: main(list(argv))) == expected

    @pytest.mark.parametrize("command", STAGES)
    def test_each_command_runs_a_stage_that_takes_its_arguments(self, command):
        """The stage named in `_COMMANDS` exists, and its parameters after
        `config` are the dests of the command's own arguments, which `main`
        passes by keyword; the renamed dests keep their flags' metavars."""
        stage = getattr(pipeline, _COMMANDS[command][2])
        parameters = list(inspect.signature(stage).parameters)
        assert parameters[0] == "config"
        parser = build_parser(command)._subparsers._group_actions[0].choices[command]
        dests = {a.dest for a in parser._actions if a.dest != "help"} - _CONFIG_ARGS
        assert set(parameters[1:]) == dests
        usage = " ".join(parser.format_usage().split())  # unwrapped
        shown = {
            "repo_path": "--repo REPO",
            "out_dir": "--out OUT",
            "feature_paths": "--features FEATURES [FEATURES ...]",
            "sweep_thresholds": "--sweep SWEEP [SWEEP ...]",
        }
        assert dests & shown.keys()
        for dest, text in shown.items():
            assert (text in usage) == (dest in dests), text

    @pytest.mark.parametrize("argv", _VALID_ARGVS, ids=lambda argv: argv[0])
    def test_one_commands_parser_parses_as_the_full_one(self, argv):
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)
        bare = build_parser(argv[0])._subparsers._group_actions[0].choices
        assert [name for name, p in bare.items() if len(p._actions) > 1] == [argv[0]]


def _spawn(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """`python -m crec.cli` with *argv* in a fresh interpreter: it ends through `cli.run`."""
    env = {**os.environ, "PYTHONPATH": SRC, **kwargs.pop("env", {})}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-m", "crec.cli", *argv], env=env, text=True, **streams)


class TestProcessExit:
    """`cli.run` ends the process without the interpreter's teardown. What a
    process prints, writes and exits with is still what `main` gives in process."""

    def test_stage_summaries_and_artifacts(self, make_repo, tmp_path, monkeypatch, capsys):
        rb = make_repo("exit")
        commit_corpora(rb, end_to_end_corpora())
        spawned, in_process = tmp_path / "spawned", tmp_path / "in_process"
        spawned.mkdir()
        in_process.mkdir()
        monkeypatch.chdir(in_process)  # each summary names `out/...`, relative to its own
        repo = ["--repo", str(rb.path), "--delta-threshold", "1"]
        for stage in ("mine", "detect", "genealogy", "label", "featurize", "train", "recommend"):
            argv = [stage, "--out", "out", *(repo if stage not in ("train", "recommend") else [])]
            if stage == "label":
                argv += ["--sweep", "0.3", "0.4", "0.5"]
            proc = _spawn(*argv, cwd=spawned)
            assert _run(*argv) == 0
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
        names = sorted(p.name for p in (in_process / "out").iterdir())
        assert names == sorted(p.name for p in (spawned / "out").iterdir())
        for name in names:
            assert (spawned / "out" / name).read_bytes() == (in_process / "out" / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            (["mine", "--help"], 0),
            (["mine", "--bogus"], 2),
            (["detect", "--repo", ".", "--out", "missing"], 1),
        ],
        ids=["help", "command help", "usage error", "CrecError"],
    )
    def test_exit_code_and_output(self, tmp_path, monkeypatch, capsys, argv, code):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal's width
        monkeypatch.chdir(tmp_path)
        try:
            in_process = main(argv)
        except SystemExit as exc:
            in_process = exc.code
        printed = capsys.readouterr()
        proc = _spawn(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, printed.out, printed.err)
        assert in_process == code
        if code == 1:
            assert printed.err.startswith("error: MissingInput:") and printed.err.count("\n") == 1

    # the exit codes of a run whose stdout was closed before it started, as they
    # were before `cli.run`: an unbuffered stdout fails on the print itself (an
    # uncaught BrokenPipeError, or one argparse ignores), a buffered one on the
    # flush at exit, which Python reports as status 120
    @pytest.mark.parametrize(
        "unbuffered, codes", [("", {"help": 120, "stage": 120}), ("1", {"help": 0, "stage": 1})],
        ids=["buffered", "unbuffered"],
    )
    def test_closed_stdout(self, make_repo, tmp_path, unbuffered, codes):
        rb = make_repo()
        rb.commit({"A.java": "class A {}\n"})
        mine = ["mine", "--repo", str(rb.path), "--out", str(tmp_path / "out")]
        env = {"PYTHONUNBUFFERED": unbuffered}
        for name, argv in (("help", ["--help"]), ("stage", mine)):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = _spawn(*argv, stdout=write, stderr=subprocess.PIPE, env=env)
            finally:
                os.close(write)
            assert proc.returncode == codes[name], (name, proc.stderr)
            assert (proc.returncode == 0) == ("BrokenPipeError" not in proc.stderr), name

    def test_every_git_process_has_exited_when_main_returns(self, make_repo, tmp_path, monkeypatch):
        """`run` may skip the teardown because no stage leaves a process behind:
        each git process a stage starts, `git cat-file --batch` too, has exited
        and been reaped when `main` returns."""
        started = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        rb = make_repo("reaped")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        for stage in ("mine", "detect", "genealogy", "label", "featurize"):
            assert _run(stage, *_pipeline_args(rb.path, out)) == 0
            assert [p.args for p in started if p.returncode is None] == [], stage
        assert any("cat-file" in p.args for p in started)
