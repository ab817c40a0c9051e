"""Stump search, AdaBoost, likelihood, ranking, and the alternative learners."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import feature_row
from crec import config
from crec.artifacts import model_to_dict, read_model, write_model
from crec.errors import DegenerateData
from crec.features import FeatureRow
from crec.learner import (
    ALGORITHMS,
    MODELS,
    ConstantModel,
    DecisionStump,
    _feature_runs,
    best_stump,
    recommend,
    train_alt,
)

NEG_INF = float("-inf")


def _search(examples, weights, features=None):
    """best_stump over runs built as training builds them (None = every feature)."""
    dim = len(examples[0].values)
    feats = list(features) if features is not None else list(range(1, dim + 1))
    return best_stump(examples, weights, _feature_runs(examples, feats))


def sorting_best_stump(examples, weights, features=None):
    """The stump search that sorted every feature again in each round: the
    oracle for the runs that training now sorts once."""
    n = len(examples)
    labels = [e.label for e in examples]
    total = sum(weights)
    total_pos = sum(w for w, y in zip(weights, labels) if y == 1)
    dim = len(examples[0].values)
    feats = sorted(features) if features is not None else list(range(1, dim + 1))
    best = None

    def consider(err, f, t, pol):
        nonlocal best
        if best is None or err < best[0]:
            best = (err, f, t, pol)

    for f in feats:
        values = [e.values[f - 1] for e in examples]
        order = sorted(range(n), key=lambda i: values[i])
        err_le = total_pos
        consider(err_le, f, NEG_INF, "le")
        consider(total - err_le, f, NEG_INF, "gt")
        i = 0
        while i < n:
            v = values[order[i]]
            j = i
            while j < n and values[order[j]] == v:
                idx = order[j]
                err_le += weights[idx] if labels[idx] == 0 else -weights[idx]
                j += 1
            if j < n:
                t = (v + values[order[j]]) / 2
                consider(err_le, f, t, "le")
                consider(total - err_le, f, t, "gt")
            i = j
    return best


def _sorting_boost(examples, rounds, features):
    """Discrete AdaBoost as training runs it, over sorting_best_stump."""
    n = len(examples)
    weights = [1.0 / n] * n
    stumps = []
    for _ in range(rounds):
        err, f, t, pol = sorting_best_stump(examples, weights, features)
        e = max(min(err / sum(weights), 1.0 - 1e-10), 1e-10)
        alpha = 0.5 * math.log((1.0 - e) / e)
        stump = DecisionStump(f, t, pol, alpha)
        stumps.append(stump)
        if err == 0.0 or err / sum(weights) >= 0.5:
            break
        norm = 0.0
        for i, ex in enumerate(examples):
            agree = 1 if stump.vote(ex.values) == ex.label else -1
            weights[i] *= math.exp(-alpha * agree)
            norm += weights[i]
        weights = [w / norm for w in weights]
    return stumps


def _tied_dataset(rng, n, labels=(0, 1)):
    """*n* rows over F1-F5 whose values come from a few non-dyadic floats, so
    runs are long and sums round; F6 onwards are constant 0."""
    pool = [rng.uniform(-1.0, 1.0) for _ in range(rng.randrange(1, 6))]
    return [
        feature_row(rng.choice(labels), {f: rng.choice(pool) for f in range(1, 6)})
        for _ in range(n)
    ]


def _oracle_best_stump(examples, weights, features=None):
    """Direct-summation search over the same canonical candidate order."""
    dim = len(examples[0].values)
    feats = sorted(features) if features is not None else list(range(1, dim + 1))
    best = None
    for f in feats:
        distinct = sorted({e.values[f - 1] for e in examples})
        thresholds = [NEG_INF] + [
            (a + b) / 2 for a, b in zip(distinct, distinct[1:])
        ]
        for t in thresholds:
            for pol in ("le", "gt"):
                err = 0.0
                for e, w in zip(examples, weights):
                    v = e.values[f - 1]
                    pred = 1 if ((v <= t) if pol == "le" else (v > t)) else 0
                    if pred != e.label:
                        err += w
                if best is None or err < best[0]:
                    best = (err, f, t, pol)
    return best


class TestBestStump:
    def test_one_dimensional_split(self):
        examples = [feature_row(0, {1: 0.1}), feature_row(1, {1: 0.9})]
        stump, err = _search(examples, [0.5, 0.5])
        assert stump.feature == 1
        assert stump.threshold == 0.5
        assert stump.polarity == "gt"
        assert err == 0.0

    def test_all_positive_labels_constant_stump(self):
        examples = [feature_row(1, {1: 0.2}), feature_row(1, {1: 0.8})]
        stump, err = _search(examples, [0.5, 0.5])
        assert err == 0.0
        assert stump.vote(examples[0].values) == 1
        assert stump.vote(feature_row(None, {1: -5.0}).values) == 1

    def test_weight_concentration_flips_decision(self):
        # with uniform weights the lone contrarian point is sacrificed;
        # concentrating weight on it forces a stump that gets it right
        examples = [
            feature_row(0, {1: 0.1}),
            feature_row(0, {1: 0.2}),
            feature_row(0, {1: 0.3}),
            feature_row(1, {1: 0.15}),
        ]
        uniform = [0.25] * 4
        stump, _ = _search(examples, uniform)
        assert stump.vote(examples[3].values) == 0
        concentrated = [0.03125, 0.03125, 0.03125, 0.90625]
        stump, _ = _search(examples, concentrated)
        assert stump.vote(examples[3].values) == 1

    def test_matches_exhaustive_oracle_on_random_datasets(self):
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randrange(2, 51)
            examples = [
                feature_row(
                    rng.randrange(2),
                    {f: rng.randrange(0, 16) / 16 for f in range(1, 6)},
                )
                for _ in range(n)
            ]
            weights = [rng.randrange(1, 65) / 1024 for _ in range(n)]  # exact dyadics
            stump, err = _search(examples, weights)
            o_err, o_f, o_t, o_pol = _oracle_best_stump(examples, weights)
            assert (err, stump.feature, stump.threshold, stump.polarity) == (
                o_err,
                o_f,
                o_t,
                o_pol,
            )

    def test_feature_subset_respected(self):
        examples = [feature_row(0, {1: 0.1, 2: 0.1}), feature_row(1, {1: 0.9, 2: 0.9})]
        stump, err = _search(examples, [0.5, 0.5], features=[2])
        assert stump.feature == 2
        assert err == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(DegenerateData):
            best_stump([], [], {})


class TestPresortedRuns:
    """Runs sorted once per training against the search that sorted in every
    round: the same candidates in the same order and the same float sums, so
    the results compare with ==."""

    def test_matches_sorting_search(self):
        rng = random.Random(89)
        for _ in range(600):
            n = rng.choice([1, 2, rng.randrange(3, 30)])
            examples = _tied_dataset(rng, n)
            weights = [rng.random() for _ in range(n)]
            features = rng.choice([None, rng.sample(range(1, 9), rng.randrange(1, 9))])
            stump, err = _search(examples, weights, features)
            assert (err, stump.feature, stump.threshold, stump.polarity) == sorting_best_stump(
                examples, weights, features
            )

    def test_adaboost_model_matches_sorting_boost(self):
        rng = random.Random(97)
        for _ in range(150):
            n = rng.randrange(2, 30)
            examples = _tied_dataset(rng, n - 1) + _tied_dataset(rng, 1, labels=(0,))
            examples[0] = examples[0]._replace(label=1)
            features = rng.choice([None, sorted(rng.sample(range(1, 9), rng.randrange(1, 9)))])
            model = train_alt("adaboost", examples, seed=1, features=features, rounds=20)
            feats = features or list(range(1, len(examples[0].values) + 1))
            assert model.stumps == _sorting_boost(examples, 20, feats)

    def test_steps_keep_tied_rows_in_row_order_and_drop_the_last_run(self):
        examples = [feature_row(y, {1: v}) for y, v in [(0, 0.5), (1, 0.25), (1, 0.5), (0, 1.0)]]
        assert _feature_runs(examples, [2, 1]) == {
            1: [([], NEG_INF), ([1], 0.375), ([0, 2], 0.75)],
            2: [([], NEG_INF)],
        }


def _separable() -> list[FeatureRow]:
    return [
        feature_row(0, {1: 0.1}),
        feature_row(0, {1: 0.2}),
        feature_row(1, {1: 0.8}),
        feature_row(1, {1: 0.9}),
    ]


def _and_pattern() -> list[FeatureRow]:
    points = []
    for f1 in (0.25, 0.75):
        for f2 in (0.25, 0.75):
            label = 1 if (f1 > 0.5 and f2 > 0.5) else 0
            points.append(feature_row(label, {1: f1, 2: f2}))
            points.append(feature_row(label, {1: f1 - 0.05, 2: f2 + 0.05}))
    return points


def _accuracy(model, examples) -> float:
    hits = sum(
        1
        for e in examples
        if (model.predict_likelihood(e.values) >= 0.5) == (e.label == 1)
    )
    return hits / len(examples)


class TestTrainAdaboost:
    def test_separable_data_perfectly_fit(self):
        model = train_alt("adaboost", _separable())
        assert _accuracy(model, _separable()) == 1.0
        # hand prediction: one perfect stump, so likelihood is all-or-nothing
        assert model.predict_likelihood(feature_row(None, {1: 0.1}).values) == 0.0
        assert model.predict_likelihood(feature_row(None, {1: 0.9}).values) == 1.0

    def test_single_label_short_circuits_to_constant(self):
        model = train_alt("adaboost", [feature_row(1, {1: 0.3}), feature_row(1, {1: 0.6})])
        for x in (0.0, 0.5, 1.0):
            assert model.predict_likelihood(feature_row(None, {1: x}).values) == 1.0

    def test_and_pattern_learned_within_rounds(self):
        data = _and_pattern()
        model = train_alt("adaboost", data, rounds=50)
        assert len(model.stumps) <= 50
        assert _accuracy(model, data) == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(DegenerateData):
            train_alt("adaboost", [])

    def test_deterministic(self):
        data = _and_pattern()
        a = train_alt("adaboost", data)
        b = train_alt("adaboost", data)
        assert model_to_dict(a) == model_to_dict(b)

    def test_loss_bound_decreases_and_alphas_check_out(self):
        # independently replay the boosting loop from the stored stumps
        data = _and_pattern()
        model = train_alt("adaboost", data, rounds=10)
        n = len(data)
        weights = [1.0 / n] * n
        bound = 1.0
        previous_bound = None
        for stump in model.stumps:
            e = sum(
                w
                for w, ex in zip(weights, data)
                if stump.vote(ex.values) != ex.label
            ) / sum(weights)
            clamped = min(max(e, 1e-10), 1 - 1e-10)
            assert stump.alpha == pytest.approx(0.5 * math.log((1 - clamped) / clamped))
            assert e < 0.5
            bound *= 2 * math.sqrt(clamped * (1 - clamped))
            if previous_bound is not None:
                assert bound < previous_bound
            previous_bound = bound
            norm = 0.0
            for i, ex in enumerate(data):
                agree = 1 if stump.vote(ex.values) == ex.label else -1
                weights[i] *= math.exp(-stump.alpha * agree)
                norm += weights[i]
            weights = [w / norm for w in weights]


class TestPredictLikelihood:
    def test_unanimous_votes(self):
        model = train_alt("adaboost", [feature_row(1, {1: 0.5})])
        assert model.predict_likelihood(feature_row(None, {1: 0.1}).values) == 1.0
        model = train_alt("adaboost", [feature_row(0, {1: 0.5})])
        assert model.predict_likelihood(feature_row(None, {1: 0.1}).values) == 0.0

    def test_weighted_vote_ratio(self):
        from crec.learner import BoostModel, DecisionStump

        model = BoostModel(
            stumps=[
                DecisionStump(1, 0.5, "gt", alpha=2.0),  # votes 1 for x > 0.5
                DecisionStump(1, 0.5, "le", alpha=1.0),  # votes 1 for x <= 0.5
            ],
            feature_names=("f",) * 34,
            rounds=2,
            seed=0,
            dataset_digest="d",
        )
        high, low = feature_row(None, {1: 0.9}), feature_row(None, {1: 0.1})
        assert model.predict_likelihood(high.values) == pytest.approx(2 / 3)
        assert model.predict_likelihood(low.values) == pytest.approx(1 / 3)

    def test_alpha_scaling_invariance(self, tmp_path):
        data = _and_pattern()
        model = train_alt("adaboost", data)
        write_model(tmp_path / "model.txt", model)
        scaled = read_model(tmp_path / "model.txt")
        scaled = scaled._replace(stumps=[s._replace(alpha=s.alpha * 7.5) for s in scaled.stumps])
        for e in data:
            assert scaled.predict_likelihood(e.values) == pytest.approx(
                model.predict_likelihood(e.values)
            )

    def test_likelihood_always_in_unit_interval(self):
        rng = random.Random(67)
        data = [
            feature_row(rng.randrange(2), {f: rng.random() for f in range(1, 8)})
            for _ in range(40)
        ]
        model = train_alt("adaboost", data, rounds=20)
        for _ in range(200):
            probe = feature_row(None, {f: rng.random() * 2 - 0.5 for f in range(1, 8)})
            p = model.predict_likelihood(probe.values)
            assert 0.0 <= p <= 1.0


class TestRecommend:
    def test_empty_input(self):
        model = train_alt("adaboost", _separable())
        assert recommend(model, []) == []

    def test_threshold_filters(self):
        model = train_alt("adaboost", _separable())
        hot, cold = feature_row(None, {1: 0.9}), feature_row(None, {1: 0.1})
        ranked = recommend(model, [("hot", hot.values), ("cold", cold.values)], threshold=0.5)
        assert ranked == [("hot", 1.0)]

    def test_ties_ordered_by_group_id(self):
        model = train_alt("adaboost", _separable())
        zz, aa = feature_row(None, {1: 0.8}), feature_row(None, {1: 0.9})
        ranked = recommend(model, [("zz", zz.values), ("aa", aa.values)])
        assert [g for g, _ in ranked] == ["aa", "zz"]

    def test_threshold_validated(self):
        model = train_alt("adaboost", _separable())
        with pytest.raises(ValueError):
            recommend(model, [], threshold=0.0)


class TestAlternativeLearners:
    def test_models_keyed_by_the_config_algorithms(self):
        """The CLI offers config.ALGORITHMS without importing the learners."""
        assert ALGORITHMS is config.ALGORITHMS
        assert tuple(MODELS) == (*config.ALGORITHMS, "constant")

    @pytest.mark.parametrize("algorithm", ["decision_tree", "random_forest", "naive_bayes"])
    def test_separable_data_fit(self, algorithm):
        data = _separable()
        model = train_alt(algorithm, data, seed=9)
        assert _accuracy(model, data) == 1.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_label_constant(self, algorithm):
        data = [feature_row(1, {1: 0.2}), feature_row(1, {1: 0.7})]
        model = train_alt(algorithm, data, seed=9)
        assert model.predict_likelihood(feature_row(None, {1: 0.4}).values) == 1.0

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_class_gives_constant_model(self, algorithm, label):
        data = [feature_row(label, {1: 0.2}), feature_row(label, {1: 0.7, 2: 0.4})]
        model = train_alt(algorithm, data, seed=9)
        assert isinstance(model, ConstantModel)
        assert model.likelihood == float(label)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_finite_value_rejected(self, algorithm, value):
        # in a child process with a timeout: a nan once sent best_stump into an
        # endless loop
        script = (
            "from crec.features import FeatureRow\n"
            "from crec.learner import train_alt\n"
            "rows = [FeatureRow('a', 0, (0.0,) * 34, 0),\n"
            f"        FeatureRow('b', 0, (1.0, float('{value}')) + (0.0,) * 32, 1)]\n"
            "try:\n"
            f"    train_alt('{algorithm}', rows)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"F2={value} not finite\n"

    def test_forest_deterministic_for_seed(self):
        data = _and_pattern()
        a = train_alt("random_forest", data, seed=5)
        b = train_alt("random_forest", data, seed=5)
        assert model_to_dict(a) == model_to_dict(b)

    def test_tree_respects_min_leaf(self):
        # a split would strand singletons
        data = [feature_row(0, {1: 0.1}), feature_row(1, {1: 0.9})]
        model = train_alt("decision_tree", data, seed=0)
        assert model.root.feature is None

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("label", [2, None])
    def test_label_outside_0_1_rejected(self, algorithm, label):
        data = _separable() + [feature_row(label, {1: 0.5})]
        with pytest.raises(ValueError, match=f"label must be 0 or 1, got {label}"):
            train_alt(algorithm, data, seed=0)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            train_alt("svm", _separable())

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_model_serialization_round_trip(self, tmp_path, algorithm):
        data = _and_pattern()
        model = train_alt(algorithm, data, seed=3)
        write_model(tmp_path / "model.txt", model)
        clone = read_model(tmp_path / "model.txt")
        assert model_to_dict(clone) == model_to_dict(model)
        for e in data:
            assert clone.predict_likelihood(e.values) == model.predict_likelihood(e.values)
