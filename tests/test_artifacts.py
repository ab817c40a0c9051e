"""Artifact file formats: round-trips, version gating, parse errors, config."""

from __future__ import annotations

import errno
import hashlib
import os
import random
import re
from fractions import Fraction
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest

from clone_fixtures import commit_corpora, end_to_end_corpora
from conftest import feature_row, read_sweep, save_config, span_block
from crec import artifacts, pipeline
from crec.artifacts import GroupRecord, LineageRecord, MemberRecord, load_config, model_to_dict
from crec.cli import main
from crec.clone_detector import CloneGroup
from crec.config import PipelineConfig
from crec.errors import ConfigError, FormatVersionMismatch, ParseError, WriteError
from crec.features import FEATURES, FeatureRow
from crec.genealogy import CloneLink, Lineage
from crec.labeler import LabelDecision
from crec.learner import ALGORITHMS, MODELS, train_alt
from crec.repo_miner import CommitRecord, SampledVersion


def _block(path="A.java", start=1):
    return span_block([f"t{i}" for i in range(35)], path, start)


class TestRoundTrips:
    def test_commits(self, tmp_path):
        commits = [
            CommitRecord("c1", 100, "dev <d@e>", frozenset({"a.java", "b.java"}), 12),
            CommitRecord("c2", 200, "kay <k@e>", frozenset(), 0),
        ]
        path = tmp_path / "commits.txt"
        artifacts.write_commits(path, commits)
        assert artifacts.read_commits(path) == commits

    def test_samples(self, tmp_path):
        samples = [SampledVersion(0, "c1", 0), SampledVersion(1, "c9", 240)]
        path = tmp_path / "samples.txt"
        artifacts.write_samples(path, samples)
        assert artifacts.read_samples(path) == samples

    def test_groups(self, tmp_path):
        groups = [
            CloneGroup(0, (_block("A.java"), _block("B.java")), "gid1"),
            CloneGroup(1, (_block("C.java", 10), _block("D.java", 20)), "gid2"),
        ]
        path = tmp_path / "clones.txt"
        artifacts.write_groups(path, [GroupRecord.of(g) for g in groups])
        records = artifacts.read_groups(path)
        assert [r.group_id for r in records] == ["gid1", "gid2"]
        assert records[0].members == (
            MemberRecord("A.java", 1, 1, 8, 35),
            MemberRecord("B.java", 1, 1, 8, 35),
        )

    def test_lineages(self, tmp_path):
        """Each link names its members by their indices in their groups, found
        by identity: two blocks on one line stay apart. Its score reads back exact."""
        a, b, c = _block("A.java"), _block("A.java"), _block("C.java")
        g0 = CloneGroup(0, (a, b), "g0")
        g1 = CloneGroup(1, (c, b), "g1")
        links = [[CloneLink(b, b, 1.0), CloneLink(a, c, 0.1 + 0.2)]]
        lin = Lineage("lin-0-g0", [(0, g0), (1, g1)], links, "alive_at_last_version")
        path = tmp_path / "lineages.txt"
        artifacts.write_lineages(path, [LineageRecord.of(lin)])
        records = artifacts.read_lineages(path)
        assert records[0].lineage_id == "lin-0-g0"
        assert records[0].groups == ((0, "g0"), (1, "g1"))
        assert records[0].end_state == "alive_at_last_version"
        assert records[0].links == (((1, 1, 1.0), (0, 0, 0.1 + 0.2)),)

    def test_labels_with_evidence(self, tmp_path):
        decisions = [
            LabelDecision(
                "lin-1",
                0,
                {
                    "method": "helper",
                    "method_path": "A.java",
                    "method_lines": [4, 9],
                    "clones": [{"path": "B.java", "lines": [1, 8], "similarity": 0.75}],
                },
            ),
            LabelDecision("lin-2", None, None),
        ]
        path = tmp_path / "labels.txt"
        artifacts.write_labels(path, decisions)
        assert artifacts.read_labels(path) == decisions

    def test_sweep(self, tmp_path):
        rows = [(0.3, 5), (0.4, 3), (0.5, 2)]
        path = tmp_path / "sweep.txt"
        artifacts.write_labels(tmp_path / "labels.txt", [], (path, rows))
        assert read_sweep(path) == rows

    def test_features_with_and_without_labels(self, tmp_path):
        rows = [
            FeatureRow("lin-1", 3, tuple(float(i) / 35 for i in range(34)), 1),
            FeatureRow("lin-2", 0, tuple([0.0] * 34), None),
        ]
        path = tmp_path / "features.csv"
        artifacts.write_features(path, rows)
        assert artifacts.read_features(path) == rows

    def test_model(self, tmp_path):
        examples = [
            feature_row(0, {1: 0.1}, lineage="a"),
            feature_row(1, {1: 0.9}, lineage="b"),
        ]
        model = train_alt("adaboost", examples)
        path = tmp_path / "model.txt"
        artifacts.write_model(path, model)
        loaded = artifacts.read_model(path)
        assert model_to_dict(loaded) == model_to_dict(model)
        for e in examples:
            assert loaded.predict_likelihood(e.values) == model.predict_likelihood(e.values)

    def test_recommendations(self, tmp_path):
        ranked = [("g2", 0.875), ("g1", 0.5)]
        path = tmp_path / "recs.csv"
        artifacts.write_recommendations(path, ranked)
        assert artifacts.read_recommendations(path) == ranked


class TestRewriteBytes:
    # each artifact kind with a reader: (file, reader, writer)
    KINDS = [
        ("commits.txt", artifacts.read_commits, artifacts.write_commits),
        ("samples.txt", artifacts.read_samples, artifacts.write_samples),
        ("clones.txt", artifacts.read_groups, artifacts.write_groups),
        ("lineages.txt", artifacts.read_lineages, artifacts.write_lineages),
        ("labels.txt", artifacts.read_labels, artifacts.write_labels),
        ("features.csv", artifacts.read_features, artifacts.write_features),
        ("model.txt", artifacts.read_model, artifacts.write_model),
        ("recommendations.csv", artifacts.read_recommendations, artifacts.write_recommendations),
    ]

    def test_every_artifact_rewrites_to_its_own_bytes(self, make_repo, tmp_path):
        rb = make_repo("rewrite")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        for stage in ("mine", "detect", "genealogy", "label", "featurize"):
            assert main([stage, "--repo", str(rb.path), "--out", str(out), "--delta-threshold", "1"]) == 0
        assert main(["train", "--out", str(out)]) == 0
        # a stump above -Infinity votes 1 on every row, so each current group is ranked
        model = artifacts.read_model(out / "model.txt")
        stump = model.stumps[0]._replace(threshold=float("-inf"), polarity="gt")
        artifacts.write_model(out / "model.txt", model._replace(stumps=[stump]))
        assert main(["recommend", "--out", str(out)]) == 0

        assert '"threshold":-Infinity' in (out / "model.txt").read_text()
        commits = artifacts.read_commits(out / "commits.txt")
        assert any(len(c.changed_files) >= 2 for c in commits)
        assert artifacts.read_recommendations(out / "recommendations.csv")
        assert {p.name for p in out.iterdir()} == {name for name, _, _ in self.KINDS}
        for name, read, write in self.KINDS:
            before = (out / name).read_bytes()
            write(out / name, read(out / name))
            assert (out / name).read_bytes() == before, name


def _pinned_dataset() -> list[FeatureRow]:
    """24 two-class rows over F1-F4 with dyadic values; every seventh label flipped."""
    rng = random.Random(11)
    rows = []
    for i in range(24):
        values = {f: rng.randrange(0, 16) / 16 for f in range(1, 5)}
        label = 1 if values[1] + values[2] > 1.0 else 0
        if i % 7 == 0:
            label = 1 - label
        rows.append(feature_row(label, values, lineage=f"lin-{i}"))
    return rows


# SHA-256 of write_model's file for each algorithm trained on _pinned_dataset
# with seed 3, on all features and on F1, F2, F4; taken when every model class
# still wrote its own JSON, so a change to the model codec shows here.
_PINNED_MODEL_SHA256 = {
    ("adaboost", None): "cb75898502fe1304ebc8c02020aa00d66fbb16c0432c6bae703e7d3c903b11f4",
    ("adaboost", (1, 2, 4)): "4347b5b47959eb91a07fcbaeb301885526256890fd9bc8bb41c0a5a435778ede",
    ("decision_tree", None): "71f11ac33297929021f4011f62d5e03e5f0e86fbb9134e16abf4f4a49fa58007",
    ("decision_tree", (1, 2, 4)): "f5bd562d0a45a09487de3f728d0c0b1126e2c43910bd7819cd21e364b0361c71",
    ("random_forest", None): "042549070eb9d86f7805eac953f643e53222536c2db963dd6ac162d9e9f68407",
    ("random_forest", (1, 2, 4)): "55c5e4b9ddbc4396a3962cb3df5ee349274ee773e1ebb7e1884cfdb1993d2882",
    ("naive_bayes", None): "ea548c233da0cc593b3f383064fb995de7e713ea795ccf39a2f5868f1dde4d6e",
    ("naive_bayes", (1, 2, 4)): "617a8ab8b68010b438fd9b58cf02e2114739f08a48a88186c0982eb9b8c577f6",
}


class _HalfWriter:
    """A text file that writes half of what it is given, then fails."""

    def __init__(self, fh, error: BaseException, seen: list):
        self.fh, self.error, self.seen = fh, error, seen

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text: str) -> None:
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        self.seen.append((Path(self.fh.name).name, os.path.getsize(self.fh.name)))
        raise self.error


class TestWholeOrAbsent:
    """A write that fails midway leaves the old artifact, or none, and no temporary file."""

    @pytest.mark.parametrize("old", [b"crec-format v1 samples\n", None], ids=["replace", "create"])
    @pytest.mark.parametrize(
        "error, raised",
        [(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), WriteError),
         (KeyboardInterrupt(), KeyboardInterrupt)],
        ids=["disk-full", "interrupt"],
    )
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, old, error, raised):
        path = tmp_path / "samples.txt"
        if old is not None:
            path.write_bytes(old)
        seen = []
        real_open = Path.open

        def failing_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return _HalfWriter(fh, error, seen) if "w" in mode else fh

        monkeypatch.setattr(Path, "open", failing_open)
        samples = [SampledVersion(i, f"c{i}", i) for i in range(5)]
        with pytest.raises(raised) as caught:
            artifacts.write_samples(path, samples)
        monkeypatch.undo()
        [(temporary, written)] = seen
        assert temporary != path.name and written > 0  # the write began beside the artifact
        if raised is WriteError:
            assert str(caught.value) == f"cannot write {path}: No space left on device"
        assert sorted(tmp_path.iterdir()) == ([path] if old is not None else [])
        if old is not None:
            assert path.read_bytes() == old

    def test_label_sweep_writes_both_files_or_neither(self, make_repo, tmp_path, monkeypatch):
        rb = make_repo("sweep")
        commit_corpora(rb, end_to_end_corpora())
        out = tmp_path / "out"
        config = PipelineConfig(delta_threshold=1)
        for stage in (pipeline.stage_mine, pipeline.stage_detect, pipeline.stage_genealogy):
            stage(config, rb.path, out)
        old = {name: f"crec-format v1 {name} from an earlier run\n".encode() for name in (
            "labels.txt", "label_sweep.txt"
        )}
        for name, data in old.items():
            (out / name).write_bytes(data)
        seen = []
        real_open = Path.open

        def failing_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            if "w" in mode and self.name.startswith(".label_sweep.txt."):
                return _HalfWriter(fh, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), seen)
            return fh

        monkeypatch.setattr(Path, "open", failing_open)
        with pytest.raises(WriteError) as caught:
            pipeline.stage_label(config, rb.path, out, ["0.3", "0.4"])
        monkeypatch.undo()
        assert len(seen) == 1  # the sweep's temporary write began, then failed
        assert str(caught.value) == f"cannot write {out / 'label_sweep.txt'}: No space left on device"
        assert {name: (out / name).read_bytes() for name in old} == old
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_out_that_is_a_file_named(self, tmp_path):
        (tmp_path / "out").write_bytes(b"")
        path = tmp_path / "out" / "samples.txt"
        with pytest.raises(WriteError) as caught:
            artifacts.write_samples(path, [])
        assert str(caught.value) == f"cannot write {path}: File exists"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestModelBytes:
    @pytest.mark.parametrize("features", [None, (1, 2, 4)], ids=["all", "F1F2F4"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_write_model_bytes_pinned(self, tmp_path, algorithm, features):
        model = train_alt(algorithm, _pinned_dataset(), seed=3, features=features)
        artifacts.write_model(tmp_path / "model.txt", model)
        digest = hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest()
        assert digest == _PINNED_MODEL_SHA256[algorithm, features]


class TestFormatGuards:
    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.txt"
        path.write_text("crec-format v2 samples\n", encoding="utf-8")
        with pytest.raises(FormatVersionMismatch, match=f"^{re.escape(str(path))}: unsupported format version v2$"):
            artifacts.read_samples(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "mixed.txt"
        artifacts.write_labels(tmp_path / "labels.txt", [], (path, [(0.4, 1)]))
        with pytest.raises(ParseError):
            artifacts.read_samples(path)

    def test_truncated_json_names_line(self, tmp_path):
        path = tmp_path / "lineages.txt"
        good = '{"end_state":"dissolved","groups":[[0,"g0"]],"lineage_id":"lin-0","links":[]}'
        path.write_text(
            f"crec-format v1 lineages\n{good}\n{good[:20]}\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            artifacts.read_lineages(path)
        assert err.value.line_number == 3

    def test_feature_column_count_checked(self, tmp_path):
        path = tmp_path / "features.csv"
        artifacts.write_features(path, [FeatureRow("lin", 0, tuple([0.0] * 34), None)])
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",extra"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            artifacts.read_features(path)

    @pytest.mark.parametrize("label", ["2", "-1", "1.0", "R"])
    def test_feature_label_checked(self, tmp_path, label):
        path = tmp_path / "features.csv"
        artifacts.write_features(path, [feature_row(1), feature_row(0)])
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + label
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 4: label must be 0, 1 or empty, got '{label}'$"):
            artifacts.read_features(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "features.csv"
        artifacts.write_features(path, [feature_row(1), feature_row(0)])
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[4] = value  # F3 of the second row
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 4: F3={value} not finite$"):
            artifacts.read_features(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("g1,nan", "likelihood 'nan' is not a number in [0, 1]"),
            ("g1,inf", "likelihood 'inf' is not a number in [0, 1]"),
            ("g1,1.5", "likelihood '1.5' is not a number in [0, 1]"),
            ("g1,-0.25", "likelihood '-0.25' is not a number in [0, 1]"),
            ("g1,high", "likelihood 'high' is not a number in [0, 1]"),
            ("g1,0.5,x", "expected 2 columns, found 3"),
            ("g1", "expected 2 columns, found 1"),
        ],
    )
    def test_recommendation_row_checked(self, tmp_path, row, message):
        path = tmp_path / "recommendations.csv"
        artifacts.write_recommendations(path, [("g0", 1.0)])
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: line 4: {message}')}$"):
            artifacts.read_recommendations(path)

    def test_missing_json_field_named(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text('crec-format v1 samples\n{"index":0}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            artifacts.read_samples(path)
        assert err.value.line_number == 2

    def test_sweep_row_without_threshold(self, tmp_path):
        path = tmp_path / "label_sweep.txt"
        path.write_text('crec-format v1 label-sweep\n{"reported":1}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: missing field 'threshold'$"):
            read_sweep(path)


class TestDecoder:
    @pytest.mark.parametrize("value", ["true", "0.0", "null", '"0"', "[0]"])
    def test_int_field_takes_only_an_int(self, tmp_path, value):
        path = tmp_path / "samples.txt"
        row = f'{{"index":{value},"commit_id":"c0","cumulative_delta":0}}'
        artifacts.write_artifact(path, "samples", [row])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: bad samples row: expected int, found"):
            artifacts.read_samples(path)

    ADABOOST_ROW = (
        '{"algorithm":"adaboost","stumps":[{"feature":1,"threshold":%s,"polarity":"le",'
        '"alpha":%s}],"feature_names":[],"rounds":1,"seed":0,"dataset_digest":"d"}'
    )

    def test_nan_in_a_model_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        artifacts.write_artifact(path, "model", [self.ADABOOST_ROW % ("0.5", "NaN")])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: bad model row: expected float, found nan$"):
            artifacts.read_model(path)

    def test_infinite_threshold_in_a_model_kept(self, tmp_path):
        path = tmp_path / "model.txt"
        artifacts.write_artifact(path, "model", [self.ADABOOST_ROW % ("-Infinity", "1.0")])
        assert artifacts.read_model(path).stumps[0].threshold == float("-inf")

    def test_fixed_length_tuple_checks_its_length(self, tmp_path):
        path = tmp_path / "lineages.txt"
        row = '{"end_state":"dissolved","groups":[[0,"g0",1]],"lineage_id":"lin-0","links":[]}'
        artifacts.write_artifact(path, "lineages", [row])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: bad lineages row: zip\\(\\) argument 2"):
            artifacts.read_lineages(path)

    def test_every_decoded_field_type_is_handled(self):
        """Every field type of every record type the readers rebuild is a kind
        `_decode` checks, so a new kind of field fails here, not unchecked."""
        pending = [
            CommitRecord,
            SampledVersion,
            artifacts.GroupRecord,
            artifacts.LineageRecord,
            LabelDecision,
            *MODELS.values(),
        ]
        seen, unhandled = set(), []
        while pending:
            kind = pending.pop()
            if kind in (int, float, str, dict) or kind in seen:
                continue
            seen.add(kind)
            origin, args = get_origin(kind), get_args(kind)
            if isinstance(kind, type) and issubclass(kind, tuple) and hasattr(kind, "_fields"):
                pending.extend(get_type_hints(kind).values())
            elif origin in (UnionType, Union) and len(args) == 2 and args[1] is NoneType:
                pending.append(args[0])
            elif origin in (list, frozenset) or (origin is tuple and args[-1:] == (...,)):
                pending.append(args[0])
            elif origin is tuple:
                pending.extend(args)
            else:
                unhandled.append(kind)
        assert not unhandled


class TestFeatureTable:
    def test_readme_feature_table_is_features(self):
        """The README's F1..F34 table is `features.FEATURES`, row for row."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Artifact formats\n", 1)[1].split("\n## ", 1)[0]
        kinds = {">= 0": "count", "[0, 1]": "ratio", "0 or 1": "bool"}
        table = []
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 4 and cells[0][:1] == "F" and cells[0][1:].isdigit():
                number, name, category, limits = cells
                table.append((number, name.strip("`"), category, kinds[limits]))
        assert table == [
            (f"F{num}", name, category, kind)
            for num, (name, category, kind) in enumerate(FEATURES, 1)
        ]

    def test_csv_header_names_every_feature(self, tmp_path):
        artifacts.write_features(tmp_path / "features.csv", [])
        header = artifacts.read_artifact(tmp_path / "features.csv", "features")[0].split(",")
        assert header == ["lineage_id", "version"] + [f"F{n}" for n in range(1, 35)] + ["label"]


class TestConfigFile:
    def test_round_trip_defaults(self, tmp_path):
        path = tmp_path / "crec.conf"
        save_config(PipelineConfig(), path)
        assert load_config(path) == PipelineConfig()

    def test_round_trip_custom(self, tmp_path):
        config = PipelineConfig(
            delta_threshold=50,
            theta=0.75,
            window_fraction=Fraction(1, 5),
            aggregation="max",
            seed=99,
        )
        path = tmp_path / "crec.conf"
        save_config(config, path)
        assert load_config(path) == config

    def test_defaults_match_documented_constants(self):
        config = PipelineConfig()
        assert config.delta_threshold == 200
        assert config.min_tokens == 30
        assert config.min_lines == 6
        assert config.theta == 0.8
        assert config.link_floor == 0.5
        assert config.l_th == 0.4
        assert config.window_fraction == Fraction(1, 10)
        assert config.recent_fraction == Fraction(1, 4)
        assert config.boost_rounds == 50
        assert config.recommend_threshold == 0.5
        assert config.aggregation == "mean"

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```\ncrec-format v1 config\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "crec.conf"
        path.write_text("crec-format v1 config\n" + block, encoding="utf-8")
        assert load_config(path) == PipelineConfig()

    def test_line_separator_stays_inside_a_comment(self, tmp_path):
        """Lines break at LF only: U+2028 or a form feed does not end a comment."""
        path = tmp_path / "crec.conf"
        path.write_text("crec-format v1 config\n# note\u2028seed = 7\n# \fseed = 8\n", encoding="utf-8")
        assert load_config(path) == PipelineConfig()

    def test_crlf_config_file_loads(self, tmp_path):
        path = tmp_path / "crec.conf"
        path.write_bytes(b"crec-format v1 config\r\n# seeded\r\nseed = 7\r\n\r\n")
        assert load_config(path) == PipelineConfig(seed=7)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "crec.conf"
        path.write_text("crec-format v1 config\nmystery = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "crec.conf"
        path.write_text("crec-format v9 config\n", encoding="utf-8")
        with pytest.raises(FormatVersionMismatch, match=f"^{re.escape(str(path))}: unsupported format version v9$"):
            load_config(path)

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "crec.conf"
        path.write_text("crec-format v1 config\ntheta = 1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
