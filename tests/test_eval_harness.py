"""Metrics, balanced datasets, fold rotation, ablation, learner comparison."""

from __future__ import annotations

import random

import pytest

from conftest import feature_row
from crec.errors import InsufficientNegatives, TooFewProjects, TooSmall
from crec.eval_harness import (
    LearnerConfig,
    ablation,
    build_balanced_dataset,
    compare_learners,
    cross_project,
    fold_assignment,
    fscore,
    metrics,
    ten_fold,
    within_project,
)
from crec.features import FEATURE_CATEGORIES, FeatureRow
from crec.learner import ConstantModel, train_alt


class TestMetrics:
    def test_precision_and_recall_examples(self):
        # metrics(recommended, hits, known) -> (precision, recall, F)
        assert metrics(10, 7, 9)[0] == 0.7
        assert metrics(0, 0, 5)[0] == 0.0
        assert metrics(15, 10, 20)[1] == 0.5
        assert metrics(3, 0, 0)[1] == 0.0

    def test_fscore_examples(self):
        assert fscore(0.6, 0.4) == pytest.approx(0.48)
        assert fscore(1.0, 1.0) == 1.0
        assert fscore(0.0, 0.0) == 0.0

    def test_harmonic_mean_bounds(self):
        rng = random.Random(71)
        for _ in range(1000):
            p, r = rng.random(), rng.random()
            f = fscore(p, r)
            assert 0.0 <= f <= 1.0
            if p > 0 and r > 0:
                assert min(p, r) <= f <= max(p, r)


class TestBuildBalancedDataset:
    def _pools(self, n_r, n_nr):
        r = [feature_row(1, {1: float(i)}) for i in range(n_r)]
        nr = [feature_row(0, {1: float(100 + i)}) for i in range(n_nr)]
        return r, nr

    def test_equal_class_counts_and_reproducibility(self):
        r, nr = self._pools(5, 100)
        ds = build_balanced_dataset(r, nr, seed=42)
        assert len(ds) == 10
        assert sum(e.label for e in ds) == 5
        assert ds == build_balanced_dataset(r, nr, seed=42)

    def test_whole_pool_when_sizes_match(self):
        r, nr = self._pools(3, 3)
        ds = build_balanced_dataset(r, nr, seed=1)
        assert sorted(e.values[0] for e in ds if e.label == 0) == [100.0, 101.0, 102.0]

    def test_insufficient_negatives(self):
        r, nr = self._pools(3, 2)
        with pytest.raises(InsufficientNegatives):
            build_balanced_dataset(r, nr, seed=1)


def _margin_dataset() -> list[FeatureRow]:
    """Label is exactly (F1 > 5), with a two-wide margin around the boundary."""
    examples = [feature_row(0, {1: float(v)}) for v in range(6)]
    examples += [feature_row(1, {1: float(v)}) for v in range(7, 21)]
    return examples


class TestTenFold:
    def test_fold_sizes_balanced_per_class(self):
        dataset = [feature_row(i % 2, {1: float(i)}) for i in range(20)]
        folds = fold_assignment(dataset, seed=0)
        assert all(len(f) == 2 for f in folds)
        for fold in folds:
            labels = sorted(dataset[i].label for i in fold)
            assert labels == [0, 1]

    def test_folds_partition_dataset(self):
        dataset = [feature_row(i % 2, {1: float(i)}) for i in range(37)]
        folds = fold_assignment(dataset, seed=3)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(37))

    def test_fold_assignment_deterministic(self):
        dataset = [feature_row(i % 2, {1: float(i)}) for i in range(25)]
        assert fold_assignment(dataset, seed=9) == fold_assignment(dataset, seed=9)

    def test_perfect_signal_scores_one(self):
        row = ten_fold(_margin_dataset(), LearnerConfig(seed=5))
        assert (row.precision, row.recall, row.fscore) == (1.0, 1.0, 1.0)

    def test_too_small_rejected(self):
        with pytest.raises(TooSmall):
            ten_fold([feature_row(1, {1: 1.0})] * 9, LearnerConfig())


class TestCrossProject:
    def test_shared_signal_across_projects(self):
        projects = [("p1", _margin_dataset()), ("p2", _margin_dataset())]
        report = cross_project(projects, LearnerConfig(seed=2))
        assert all(row.fscore == 1.0 for row in report.rows)
        assert report.averages == (1.0, 1.0, 1.0)
        assert report.setting == "cross"

    def test_project_without_positives_flagged(self):
        train = _margin_dataset()
        held = [feature_row(0, {1: float(v)}) for v in range(5)]
        report = cross_project([("full", train), ("empty", held)], LearnerConfig())
        empty_row = next(r for r in report.rows if r.name == "empty")
        assert empty_row.recall == 0.0
        assert "no_positives" in empty_row.flags

    def test_likelihood_at_the_threshold_is_recommended(self):
        """A one-class training project gives `ConstantModel(1.0)`; at
        threshold 1.0 every held-out example counts as recommended, as
        `recommend` keeps a likelihood equal to its cutoff."""
        ones = [feature_row(1, {1: float(v)}) for v in range(5)]
        held = [feature_row(label, {1: float(v)}) for v, label in enumerate([1, 0, 1, 0, 0])]
        assert type(train_alt("adaboost", ones, 0)) is ConstantModel
        report = cross_project([("ones", ones), ("held", held)], LearnerConfig(threshold=1.0))
        row = next(r for r in report.rows if r.name == "held")
        assert (row.precision, row.recall) == (2 / 5, 1.0)
        assert row.fscore == fscore(2 / 5, 1.0)

    def test_single_project_rejected(self):
        with pytest.raises(TooFewProjects):
            cross_project([("only", _margin_dataset())], LearnerConfig())


class TestWithinProject:
    def test_report_rows_and_averages(self):
        projects = [("p1", _margin_dataset()), ("p2", _margin_dataset())]
        report = within_project(projects, LearnerConfig(seed=4))
        assert [r.name for r in report.rows] == ["p1", "p2"]
        assert report.averages == (1.0, 1.0, 1.0)
        assert report.metric_mode == "pooled"


def _history_signal_dataset(seed: int = 0) -> list[FeatureRow]:
    rng = random.Random(seed)
    examples = []
    for _ in range(60):
        f13 = rng.random()
        label = 1 if f13 > 0.5 else 0
        examples.append(feature_row(label, {13: f13, 1: rng.random() * 3}))
    return examples


class TestAblation:
    def test_masking_counts(self):
        assert [len(FEATURE_CATEGORIES[c]) for c in ("Code", "History", "Location", "Diff", "CoChange")] == [11, 6, 6, 6, 5]
        assert sorted(f for c in FEATURE_CATEGORIES.values() for f in c) == list(range(1, 35))

    def test_history_dependent_label_degrades_without_history(self):
        projects = [("p", _history_signal_dataset())]
        rows = ablation(projects, "within", LearnerConfig(seed=7))
        by_name = {name: f for name, _, _, f in rows}
        assert set(by_name) == {
            "AllFeatures",
            "ExceptCode",
            "ExceptHistory",
            "ExceptLocation",
            "ExceptDiff",
            "ExceptCoChange",
        }
        assert by_name["ExceptHistory"] < by_name["AllFeatures"]

    def test_irrelevant_category_mask_changes_nothing(self):
        projects = [("p", _margin_dataset())]  # label depends only on F1
        rows = ablation(projects, "within", LearnerConfig(seed=7))
        by_name = {name: (p, r, f) for name, p, r, f in rows}
        assert by_name["ExceptDiff"] == by_name["AllFeatures"]


class TestCompareLearners:
    def test_every_algorithm_fits_separable_signal(self):
        projects = [("p", _margin_dataset())]
        rows = compare_learners(
            projects,
            "within",
            ["adaboost", "decision_tree", "random_forest", "naive_bayes"],
            LearnerConfig(seed=11),
        )
        assert [name for name, _, _, _ in rows] == [
            "adaboost",
            "decision_tree",
            "random_forest",
            "naive_bayes",
        ]
        for _, _, _, f in rows:
            assert f == 1.0

    def test_empty_algorithm_list(self):
        assert compare_learners([("p", _margin_dataset())], "within", [], LearnerConfig()) == []

    def test_shared_folds_across_algorithms(self):
        dataset = _margin_dataset()
        assert fold_assignment(dataset, seed=13) == fold_assignment(dataset, seed=13)
