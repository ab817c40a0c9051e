"""Evaluation: balanced datasets, ten-fold and leave-one-project-out runs,
precision/recall/F-score, feature ablation, and learner comparison.

Fold metrics are pooled over test predictions (noted in report headers) rather
than averaged per fold, so tiny folds stay well-defined.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

from .config import DEFAULTS
from .errors import InsufficientNegatives, TooFewProjects, TooSmall
from .features import FEATURE_CATEGORIES, FEATURES, FeatureRow
from .learner import train_alt


class _ConfusionCounts(NamedTuple):
    recommended: int
    recommended_and_refactored: int
    known_refactored: int


# typing.NamedTuple forbids a __new__ of its own; this subclass checks each value built
class ConfusionCounts(_ConfusionCounts):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.recommended_and_refactored > min(self.recommended, self.known_refactored):
            raise ValueError("hits exceed recommended or known counts")
        return self


def precision(c: ConfusionCounts) -> float:
    if c.recommended == 0:
        return 0.0
    return c.recommended_and_refactored / c.recommended


def recall(c: ConfusionCounts) -> float:
    if c.known_refactored == 0:
        return 0.0
    return c.recommended_and_refactored / c.known_refactored


def fscore(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


class LearnerConfig(NamedTuple):
    algorithm: str = "adaboost"
    rounds: int = DEFAULTS.boost_rounds
    threshold: float = DEFAULTS.recommend_threshold
    seed: int = DEFAULTS.seed
    features: tuple[int, ...] | None = None  # None = all of FEATURES

    def digest(self) -> str:
        payload = repr(
            (self.algorithm, self.rounds, self.threshold, self.seed, self.features)
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


class EvalRow(NamedTuple):
    name: str
    precision: float
    recall: float
    fscore: float
    flags: tuple[str, ...] = ()


class EvalReport(NamedTuple):
    setting: str  # within | cross
    rows: list[EvalRow]
    config_digest: str

    metric_mode = "pooled"  # fold metrics pool the test predictions; not a field

    @property
    def averages(self) -> tuple[float, float, float]:
        """The mean precision, recall and F-score of the rows."""
        columns = zip(*((r.precision, r.recall, r.fscore) for r in self.rows))
        return tuple(sum(column) / len(self.rows) for column in columns)


def _score(model, examples: list[FeatureRow], threshold: float) -> ConfusionCounts:
    rec = hits = known = 0
    for ex in examples:
        recommended = model.predict_likelihood(ex.values) >= threshold
        rec += recommended
        hits += recommended and ex.label == 1
        known += ex.label == 1
    return ConfusionCounts(rec, hits, known)


def build_balanced_dataset(
    r_examples: list[FeatureRow],
    nr_pool: list[FeatureRow],
    seed: int,
) -> list[FeatureRow]:
    """R examples plus an equal-size seeded uniform draw from the NR pool."""
    if len(nr_pool) < len(r_examples):
        raise InsufficientNegatives(
            f"need {len(r_examples)} negatives, pool has {len(nr_pool)}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(nr_pool, len(r_examples))
    return list(r_examples) + chosen


def fold_assignment(dataset: list[FeatureRow], seed: int) -> list[list[int]]:
    """Stratified shuffle into ten folds: per-class fold sizes differ by at most one."""
    pos = [i for i, ex in enumerate(dataset) if ex.label == 1]
    neg = [i for i, ex in enumerate(dataset) if ex.label == 0]
    rng = random.Random(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    assignment: list[list[int]] = [[] for _ in range(10)]
    for k, idx in enumerate(pos):
        assignment[k % 10].append(idx)
    for k, idx in enumerate(neg):
        assignment[k % 10].append(idx)
    return assignment


def ten_fold(dataset: list[FeatureRow], config: LearnerConfig) -> EvalRow:
    """Pooled precision/recall/F over rotating train-9/test-1 splits."""
    if len(dataset) < 10:
        raise TooSmall(f"ten-fold needs >= 10 examples, have {len(dataset)}")
    folds = fold_assignment(dataset, config.seed)
    rec = hits = known = 0
    for test_idx in folds:
        held = set(test_idx)
        train = [ex for i, ex in enumerate(dataset) if i not in held]
        test = [dataset[i] for i in test_idx]
        model = train_alt(config.algorithm, train, config.seed, config.features, config.rounds)
        c = _score(model, test, config.threshold)
        rec += c.recommended
        hits += c.recommended_and_refactored
        known += c.known_refactored
    pooled = ConfusionCounts(rec, hits, known)
    p, r = precision(pooled), recall(pooled)
    return EvalRow("pooled", p, r, fscore(p, r))


def cross_project(
    projects: list[tuple[str, list[FeatureRow]]], config: LearnerConfig
) -> EvalReport:
    """Leave one project out, train on the rest, report per-project metrics."""
    if len(projects) < 2:
        raise TooFewProjects(f"need >= 2 projects, have {len(projects)}")
    rows = []
    for held_name, held_data in projects:
        train: list[FeatureRow] = []
        for name, data in projects:
            if name != held_name:
                train.extend(data)
        model = train_alt(config.algorithm, train, config.seed, config.features, config.rounds)
        c = _score(model, held_data, config.threshold)
        p, r = precision(c), recall(c)
        flags = ("no_positives",) if c.known_refactored == 0 else ()
        rows.append(EvalRow(held_name, p, r, fscore(p, r), flags))
    return EvalReport("cross", rows, config.digest())


def within_project(
    projects: list[tuple[str, list[FeatureRow]]], config: LearnerConfig
) -> EvalReport:
    """Ten-fold per project; one report row per project plus averages."""
    rows = []
    for name, data in projects:
        row = ten_fold(data, config)
        rows.append(EvalRow(name, row.precision, row.recall, row.fscore))
    return EvalReport("within", rows, config.digest())


def run_setting(
    projects: list[tuple[str, list[FeatureRow]]], setting: str, config: LearnerConfig
) -> EvalReport:
    """Within-project ten-fold or cross-project leave-one-out, by *setting*."""
    if setting == "within":
        return within_project(projects, config)
    if setting == "cross":
        return cross_project(projects, config)
    raise ValueError(f"unknown setting: {setting}")


def _run_variants(
    projects: list[tuple[str, list[FeatureRow]]],
    setting: str,
    variants: list[tuple[str, LearnerConfig]],
) -> list[tuple[str, float, float, float]]:
    """(name, average precision, recall, F) per named config, in order."""
    return [(name, *run_setting(projects, setting, c).averages) for name, c in variants]


def ablation(
    projects: list[tuple[str, list[FeatureRow]]],
    setting: str,
    config: LearnerConfig,
) -> list[tuple[str, float, float, float]]:
    """All-features run plus one run per feature category masked out."""
    base = config.features if config.features is not None else range(1, len(FEATURES) + 1)
    variants = [("AllFeatures", config)]
    for category, masked in FEATURE_CATEGORIES.items():
        kept = tuple(f for f in base if f not in masked)
        variants.append((f"Except{category}", config._replace(features=kept)))
    return _run_variants(projects, setting, variants)


def compare_learners(
    projects: list[tuple[str, list[FeatureRow]]],
    setting: str,
    algorithms: list[str],
    config: LearnerConfig,
) -> list[tuple[str, float, float, float]]:
    """One metric triple per algorithm; identical seeds so folds match exactly."""
    variants = [(algorithm, config._replace(algorithm=algorithm)) for algorithm in algorithms]
    return _run_variants(projects, setting, variants)
