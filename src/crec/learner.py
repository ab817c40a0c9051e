"""Classifiers over feature vectors: AdaBoost on decision stumps by default,
with decision-tree, random-forest, and naive-Bayes alternatives behind the same
likelihood interface. Training takes labeled FeatureRows; every model scores a
tuple of values. A one-class training set gives a `constant` model for every
algorithm. Everything is deterministic for a fixed seed. Boosting sorts each
feature into runs of equal values once per training, as SLIQ presorts (Mehta,
Agrawal & Rissanen, EDBT 1996), and each round's stump search walks them."""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from itertools import groupby
from typing import NamedTuple

from .config import ALGORITHMS, DEFAULTS
from .errors import DegenerateData
from .features import FEATURE_NAMES, FeatureRow

NEG_INF = float("-inf")


class DecisionStump(NamedTuple):
    feature: int  # 1-based
    threshold: float
    polarity: str  # "le": predict 1 when value <= threshold; "gt": when value > it
    alpha: float

    def vote(self, values: tuple[float, ...]) -> int:
        v = values[self.feature - 1]
        if self.polarity == "le":
            return 1 if v <= self.threshold else 0
        return 1 if v > self.threshold else 0


def dataset_digest(examples: list[FeatureRow]) -> str:
    import hashlib  # loads OpenSSL, which only training needs: `recommend` computes no digest
    payload = repr([(e.values, e.label) for e in examples]).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _labels(examples: list[FeatureRow]) -> set[int]:
    """The labels present; ValueError unless each is 0 or 1 and every value is
    finite (a nan has no place in a sorted run)."""
    for e in examples:
        if e.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {e.label}")
        for num, value in enumerate(e.values, 1):
            if not math.isfinite(value):
                raise ValueError(f"F{num}={value} not finite")
    return {e.label for e in examples}


Runs = dict[int, list[tuple[list[int], float]]]  # feature -> steps (rows, threshold)


def _feature_runs(examples: list[FeatureRow], features: list[int]) -> Runs:
    """Each feature's steps, in increasing feature order: -inf with no rows,
    then each run of equal values but the last, in increasing value order, with
    its row indices in row order and the midpoint to the next run's value."""
    runs = {}
    for f in sorted(features):
        values = [e.values[f - 1] for e in examples]
        order = sorted(range(len(values)), key=values.__getitem__)
        groups = [(v, list(rows)) for v, rows in groupby(order, key=values.__getitem__)]
        midpoints = [(v + w) / 2 for (v, _), (w, _) in zip(groups, groups[1:])]
        runs[f] = [([], NEG_INF)] + [(rows, t) for (_, rows), t in zip(groups, midpoints)]
    return runs


def best_stump(
    examples: list[FeatureRow], weights: list[float], runs: Runs
) -> tuple[DecisionStump, float]:
    """Exhaustive stump search over the runs that _boost sorts once per training
    (SLIQ): every feature, every midpoint threshold plus -inf, both polarities.
    Returns (stump with alpha 0, weighted error); ties break toward lower
    feature index, lower threshold, 'le' first."""
    if not examples or not runs:
        raise DegenerateData("no examples or no features")
    # "le" at -inf misses every positive; each row passed adds its signed weight
    signed = [w if e.label == 0 else -w for w, e in zip(weights, examples)]
    total = sum(weights)
    total_pos = sum(w for w, e in zip(weights, examples) if e.label == 1)
    best = (math.inf, 0, NEG_INF, "le")
    for f, steps in runs.items():
        err_le = total_pos
        for rows, t in steps:
            for idx in rows:
                err_le += signed[idx]
            if err_le < best[0]:
                best = (err_le, f, t, "le")
            if total - err_le < best[0]:
                best = (total - err_le, f, t, "gt")
    err, f, t, pol = best
    return DecisionStump(f, t, pol, alpha=0.0), err


class BoostModel(NamedTuple):
    stumps: list[DecisionStump]
    feature_names: tuple[str, ...]
    rounds: int
    seed: int
    dataset_digest: str

    def predict_likelihood(self, values: tuple[float, ...]) -> float:
        total = sum(s.alpha for s in self.stumps)
        if total <= 0:
            return 0.5  # uninformative ensemble
        voted = sum(s.alpha for s in self.stumps if s.vote(values) == 1)
        return voted / total


def _boost(examples: list[FeatureRow], rounds: int, features: list[int]) -> list[DecisionStump]:
    """Discrete AdaBoost; stops early once a round's error hits 0 or 0.5."""
    n = len(examples)
    weights = [1.0 / n] * n
    runs = _feature_runs(examples, features)
    stumps = []
    for _ in range(rounds):
        stump, err = best_stump(examples, weights, runs)
        e = max(min(err / sum(weights), 1.0 - 1e-10), 1e-10)
        alpha = 0.5 * math.log((1.0 - e) / e)
        stumps.append(stump._replace(alpha=alpha))
        if err == 0.0 or err / sum(weights) >= 0.5:
            break
        norm = 0.0
        for i, ex in enumerate(examples):
            agree = 1 if stump.vote(ex.values) == ex.label else -1
            weights[i] *= math.exp(-alpha * agree)
            norm += weights[i]
        weights = [w / norm for w in weights]
    return stumps


def recommend(
    model,
    candidates: list[tuple[str, tuple[float, ...]]],
    threshold: float = DEFAULTS.recommend_threshold,
) -> list[tuple[str, float]]:
    """Ranked (group_id, likelihood) pairs at or above the cutoff."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    scored = [(group_id, model.predict_likelihood(values)) for group_id, values in candidates]
    kept = [(g, p) for g, p in scored if p >= threshold]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return kept


# -- alternative learners ------------------------------------------------------


class _TreeNode(NamedTuple):
    prob: float  # positive-class fraction at this node
    feature: int | None = None  # 1-based; None for leaves
    threshold: float | None = None
    left: TreeNode | None = None  # value <= threshold
    right: TreeNode | None = None


# typing.NamedTuple forbids a __new__ of its own; this subclass checks each value built
class TreeNode(_TreeNode):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len({v is None for v in (self.feature, self.threshold, self.left, self.right)}) > 1:
            raise ValueError("a split node needs a feature, a threshold and two children")
        return self

    def predict(self, values: tuple[float, ...]) -> float:
        node = self
        while node.feature is not None:
            node = node.left if values[node.feature - 1] <= node.threshold else node.right
        return node.prob


def _entropy(pos: int, n: int) -> float:
    if pos == 0 or pos == n:
        return 0.0
    p = pos / n
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _grow_tree(
    rows: list[tuple[tuple[float, ...], int]], features: list[int], rng: random.Random | None
) -> TreeNode:
    """Gain-ratio binary tree; both children of any split hold >= _MIN_LEAF rows.
    With an *rng*, a forest's node tries isqrt(len(features)) of them at random."""
    n = len(rows)
    pos = sum(label for _, label in rows)
    node = TreeNode(prob=pos / n)
    if pos == 0 or pos == n or n < 2 * _MIN_LEAF:
        return node
    parent_entropy = _entropy(pos, n)

    pool, budget = features, len(features)
    if rng is not None:
        # random order; constant features are skipped without using up the budget
        pool, budget = rng.sample(features, len(features)), max(1, math.isqrt(len(features)))

    best = None  # ((negated gain ratio, feature, threshold), feature, threshold)
    evaluated = 0
    for f in pool:
        ordered = sorted(rows, key=lambda r: r[0][f - 1])
        if ordered[0][0][f - 1] == ordered[-1][0][f - 1]:
            continue  # constant in this sample
        evaluated += 1
        left_pos = 0
        for i in range(1, n):
            left_pos += ordered[i - 1][1]
            if ordered[i - 1][0][f - 1] == ordered[i][0][f - 1]:
                continue
            if i < _MIN_LEAF or n - i < _MIN_LEAF:
                continue
            gain = parent_entropy - (
                i / n * _entropy(left_pos, i) + (n - i) / n * _entropy(pos - left_pos, n - i)
            )
            split_info = _entropy(i, n)  # same shape: -(p log p + q log q)
            if split_info <= 0.0 or gain <= 1e-12:
                continue
            ratio = gain / split_info
            threshold = (ordered[i - 1][0][f - 1] + ordered[i][0][f - 1]) / 2
            key = (-ratio, f, threshold)
            if best is None or key < best[0]:
                best = (key, f, threshold)
        if evaluated >= budget:
            break
    if best is None:
        return node
    _, f, threshold = best
    left = _grow_tree([r for r in rows if r[0][f - 1] <= threshold], features, rng)
    right = _grow_tree([r for r in rows if r[0][f - 1] > threshold], features, rng)
    return TreeNode(node.prob, f, threshold, left, right)


class TreeModel(NamedTuple):
    root: TreeNode
    seed: int
    dataset_digest: str

    def predict_likelihood(self, values: tuple[float, ...]) -> float:
        return self.root.predict(values)


class ForestModel(NamedTuple):
    trees: list[TreeNode]
    seed: int
    dataset_digest: str

    def predict_likelihood(self, values: tuple[float, ...]) -> float:
        votes = sum(1 for t in self.trees if t.predict(values) >= 0.5)
        return votes / len(self.trees)


class NaiveBayesModel(NamedTuple):
    priors: tuple[float, float]
    means: tuple[tuple[float, ...], tuple[float, ...]]  # per class, per feature
    variances: tuple[tuple[float, ...], tuple[float, ...]]
    features: tuple[int, ...]
    seed: int
    dataset_digest: str

    def predict_likelihood(self, values: tuple[float, ...]) -> float:
        logs = []
        for cls in (0, 1):
            total = math.log(self.priors[cls])
            for k, f in enumerate(self.features):
                var = self.variances[cls][k]
                diff = values[f - 1] - self.means[cls][k]
                total += -0.5 * math.log(2 * math.pi * var) - diff * diff / (2 * var)
            logs.append(total)
        peak = max(logs)
        odds = [math.exp(l - peak) for l in logs]
        return odds[1] / (odds[0] + odds[1])


class ConstantModel(NamedTuple):
    likelihood: float
    dataset_digest: str

    def predict_likelihood(self, values: tuple[float, ...]) -> float:
        return self.likelihood


# the "algorithm" of a saved model -> its class, for each of config.ALGORITHMS
# in order; training on one class gives a constant model, which is not an
# algorithm a user can choose
MODELS = {
    "adaboost": BoostModel,
    "decision_tree": TreeModel,
    "random_forest": ForestModel,
    "naive_bayes": NaiveBayesModel,
    "constant": ConstantModel,
}

_VARIANCE_FLOOR = 1e-9
_FOREST_SIZE = 100
_MIN_LEAF = 2


def train_alt(
    algorithm: str,
    examples: list[FeatureRow],
    seed: int = DEFAULTS.seed,
    features: Sequence[int] | None = None,
    rounds: int = DEFAULTS.boost_rounds,
):
    """Train any of ALGORITHMS on *features* (1-based; None = all). A training
    set with one class gives a ConstantModel whatever the algorithm."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algorithm}")
    if not examples:
        raise DegenerateData("no examples")
    labels = _labels(examples)
    digest = dataset_digest(examples)
    if len(labels) == 1:
        return ConstantModel(float(labels.pop()), digest)

    dim = len(examples[0].values)
    feats = sorted(features) if features is not None else list(range(1, dim + 1))
    if algorithm == "adaboost":
        return BoostModel(_boost(examples, rounds, feats), FEATURE_NAMES, rounds, seed, digest)
    rows = [(e.values, e.label) for e in examples]

    if algorithm == "decision_tree":
        return TreeModel(_grow_tree(rows, feats, rng=None), seed, digest)

    if algorithm == "random_forest":
        rng = random.Random(seed)
        trees = []
        for _ in range(_FOREST_SIZE):
            sample = [rows[rng.randrange(len(rows))] for _ in range(len(rows))]
            trees.append(_grow_tree(sample, feats, rng))
        return ForestModel(trees, seed, digest)

    # naive_bayes
    means, variances = [], []
    for cls in (0, 1):
        cls_rows = [values for values, label in rows if label == cls]
        m, v = [], []
        for f in feats:
            column = [values[f - 1] for values in cls_rows]
            mu = sum(column) / len(column)
            var = sum((x - mu) ** 2 for x in column) / len(column)
            m.append(mu)
            v.append(max(var, _VARIANCE_FLOOR))
        means.append(tuple(m))
        variances.append(tuple(v))
    n = len(rows)
    pos = sum(label for _, label in rows)
    return NaiveBayesModel(
        priors=((n - pos) / n, pos / n),
        means=(means[0], means[1]),
        variances=(variances[0], variances[1]),
        features=tuple(feats),
        seed=seed,
        dataset_digest=digest,
    )

