"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from clone_fixtures import CONTROLS, PLANTED, commit_corpora, end_to_end_corpora
from conftest import (
    RepoBuilder,
    SnapshotRepo,
    feature_row,
    lex_file_context,
    lex_member_class,
    lex_top_level_classes,
    read_sweep,
    span_block,
)
from crec import artifacts, pipeline
from crec.clone_detector import CloneGroup, CodeBlock, detect_clones
from crec.config import PipelineConfig
from crec.eval_harness import (
    LearnerConfig,
    ablation,
    fscore,
    metrics,
    ten_fold,
)
from crec.features import (
    AlignedToken,
    FeatureRow,
    _member_class,
    assemble_vector,
    classified_sequence,
    extract_cochange_features,
    extract_code_features,
    extract_diff_features,
    extract_history_features,
    extract_location_features,
    levenshtein,
    multiset_diff,
)
from crec.genealogy import CloneLink, Lineage
from crec.learner import _feature_runs, best_stump, train_alt
from crec.repo_miner import (
    CommitRecord,
    SampledVersion,
    checked_window,
)

NEG_INF = float("-inf")


def _report(number: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures[:5])


# -- criterion 1: detector oracle equivalence ----------------------------------


def _synthetic_block(rng: random.Random, idx: int) -> CodeBlock:
    vocab = [f"tok{i}" for i in range(12)]
    size = rng.randrange(15, 45)
    span = rng.choice([4, 5, 6, 8, 10])
    texts = [rng.choice(vocab) for _ in range(size)]
    return span_block(texts, path=f"f{idx % 9}.java", start=1 + 100 * idx, span=span)


def _oracle_groups(blocks, min_tokens=30, min_lines=6, theta=0.8):
    def sim(a, b):
        xs = sorted(t.text for t in a.tokens)
        ys = sorted(t.text for t in b.tokens)
        i = j = inter = 0
        while i < len(xs) and j < len(ys):
            if xs[i] == ys[j]:
                inter, i, j = inter + 1, i + 1, j + 1
            elif xs[i] < ys[j]:
                i += 1
            else:
                j += 1
        return inter / max(len(xs), len(ys))

    qualified = [b for b in blocks if len(b.tokens) >= min_tokens or b.line_span >= min_lines]
    adjacency = {b: set() for b in qualified}
    for i, a in enumerate(qualified):
        for b in qualified[i + 1 :]:
            if sim(a, b) >= theta:
                adjacency[a].add(b)
                adjacency[b].add(a)
    seen, components = set(), set()
    for b in qualified:
        if b in seen:
            continue
        stack, comp = [b], set()
        while stack:
            k = stack.pop()
            if k in comp:
                continue
            comp.add(k)
            stack.extend(adjacency[k])
        seen |= comp
        if len(comp) >= 2:
            components.add(frozenset(comp))
    return components


def test_criterion_1_detector_oracle_equivalence():
    rng = random.Random(101)
    failures = []
    start = time.monotonic()
    for corpus_idx in range(20):
        n = rng.randrange(40, 201)
        corpus = [_synthetic_block(rng, i) for i in range(n)]
        got = {frozenset(g.members) for g in detect_clones(corpus)}
        expected = _oracle_groups(corpus)
        if got != expected:
            failures.append(f"corpus {corpus_idx} (n={n}): groups diverge from oracle")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s budget")
    _report(1, "detector oracle equivalence", failures, f"20 corpora in {elapsed:.1f}s")


# -- criterion 2: labeler fixture suite ----------------------------------------


def _labeled_repo(tmp_path, name: str, corpora) -> tuple[PipelineConfig, str, str]:
    rb = RepoBuilder(tmp_path / name)
    commit_corpora(rb, corpora)
    out = tmp_path / f"{name}-out"
    config = PipelineConfig(delta_threshold=1)
    pipeline.stage_mine(config, rb.path, out)
    pipeline.stage_detect(config, rb.path, out)
    pipeline.stage_genealogy(config, rb.path, out)
    pipeline.stage_label(config, rb.path, out, sweep_thresholds=[0.3, 0.4, 0.5])
    return config, str(rb.path), str(out)


def test_criterion_2_labeler_fixture_suite(tmp_path):
    failures = []
    start = time.monotonic()
    sweep_totals = Counter()
    for name, build in PLANTED.items():
        _, _, out = _labeled_repo(tmp_path, name, build())
        decisions = artifacts.read_labels(f"{out}/labels.txt")
        r_decisions = [d for d in decisions if d.label == "R"]
        if len(r_decisions) != 1:
            failures.append(f"{name}: expected exactly 1 R lineage, got {len(r_decisions)}")
        elif r_decisions[0].evidence["method"] != "applyScaling":
            failures.append(f"{name}: R evidence names {r_decisions[0].evidence['method']}")
        for th, count in read_sweep(f"{out}/label_sweep.txt"):
            sweep_totals[th] += count
    for name, build in CONTROLS.items():
        _, _, out = _labeled_repo(tmp_path, name, build())
        decisions = artifacts.read_labels(f"{out}/labels.txt")
        wrong = [d for d in decisions if d.label == "R"]
        if wrong:
            failures.append(f"control {name}: {len(wrong)} spurious R labels")
        for th, count in read_sweep(f"{out}/label_sweep.txt"):
            sweep_totals[th] += count
    if not (sweep_totals[0.3] >= sweep_totals[0.4] >= sweep_totals[0.5]):
        failures.append(f"sweep counts increase: {dict(sweep_totals)}")
    if sweep_totals[0.4] != 3:
        failures.append(f"expected 3 R labels at 0.4, got {sweep_totals[0.4]}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s budget")
    _report(
        2,
        "labeler fixture suite",
        failures,
        f"precision/recall 1.0 at 0.4; sweep {dict(sweep_totals)}; {elapsed:.1f}s",
    )


# -- criterion 3: feature ranges, diff conservation, levenshtein ----------------


def _random_file(rng: random.Random, idx: int) -> tuple[str, str]:
    names = ["alpha", "beta", "gamma", "delta"]
    lines = [f"class Gen{idx} {{", f"    int field{idx} = {rng.randrange(9)};"]
    for m in range(rng.randrange(1, 3)):
        lines.append(f"    void op{idx}x{m}(int seed) {{")
        for _ in range(rng.randrange(3, 9)):
            a, b = rng.choice(names), rng.choice(names)
            kind = rng.random()
            if kind < 0.35:
                lines.append(f"        {a} = {b} + {rng.randrange(10)};")
            elif kind < 0.55:
                lines.append(f"        handle{rng.randrange(4)}({a}, {b});")
            elif kind < 0.75:
                lines.append(f"        if ({a} > {b} && {b} > 0) {{ {a} = {b}; }}")
            else:
                lines.append(
                    f"        for (int i = 0; i < {rng.randrange(2, 9)}; i++) {{ {b} = {b} * 2; }}"
                )
        lines.append("    }")
    lines.append("}")
    dirs = ["core", "util", "test", "core/sub"]
    path = f"src/{rng.choice(dirs)}/Gen{idx}.java"
    return path, "\n".join(lines) + "\n"


def _mutate(rng: random.Random, text: str, marker: int) -> str:
    lines = text.splitlines()
    interior = [i for i, l in enumerate(lines) if l.startswith("        ")]
    if not interior:
        return text
    target = rng.choice(interior)
    lines[target] = f"        tweak = tweak + {marker};"
    return "\n".join(lines) + "\n"


def test_criterion_3_feature_property_suite():
    rng = random.Random(103)
    failures = []

    corpus = dict(_random_file(rng, i) for i in range(30))
    snapshots = [corpus]
    for v in range(4):
        previous = snapshots[-1]
        snapshots.append(
            {
                path: (_mutate(rng, text, v) if rng.random() < 0.35 else text)
                for path, text in previous.items()
            }
        )
    repo = SnapshotRepo(snapshots)
    samples = [SampledVersion(i, f"v{i}", 1) for i in range(5)]
    window = checked_window(samples, Fraction(1, 1), Fraction(1, 4))
    vdata = pipeline.VersionData(repo, samples)
    commits = [
        CommitRecord(
            f"c{i}",
            i,
            rng.choice(["a <a@x>", "b <b@x>", "c <c@x>"]),
            frozenset(rng.sample(sorted(corpus), rng.randrange(1, 6))),
            5,
        )
        for i in range(6)
    ]
    # members, contexts and types of the groups' version, from one block list
    # per file, as featurize takes them
    blocks_of = {path: vdata.file_blocks(4, path) for path in vdata.files(4)}
    pool = [b for blocks in blocks_of.values() for b in blocks]
    for path, blocks in blocks_of.items():
        classes, oracle = vdata.classes(4, path), lex_top_level_classes(blocks[0].lex)
        if [(n, r) for n, _, r in classes] != [(n, r) for n, _, _, r in oracle]:
            failures.append(f"{path}: types differ from the token walk's")
        elif any(_member_class(b, classes) != lex_member_class(b, oracle) for b in blocks):
            failures.append(f"{path}: a block's type differs from the token walk's")
        if vdata.context(4, path) != lex_file_context(blocks[0].lex):
            failures.append(f"{path}: fields differ from the token walk's")

    checked = 0
    for group_idx in range(1000):
        members = tuple(
            sorted(rng.sample(pool, rng.randrange(2, 6)), key=lambda b: (b.path, b.brace))
        )
        group = CloneGroup(version=4, members=members, group_id=f"g{group_idx}")
        span = rng.randrange(1, 6)  # lineage reaches back a random distance
        groups = [
            (v, CloneGroup(version=v, members=members, group_id=f"g{group_idx}v{v}"))
            for v in range(5 - span, 5)
        ]
        links = [
            [CloneLink(m, m, 1.0) for m in members] for _ in range(len(groups) - 1)
        ]
        lineage = Lineage(f"lin{group_idx}", groups, links, "alive_at_last_version")
        try:
            per_clone = [
                extract_code_features(m, vdata.context(4, m.path))
                + extract_history_features(m.path, window, vdata, commits)
                for m in members
            ]
            group_values = (
                extract_location_features(group, vdata)
                + extract_diff_features(group)
                + extract_cochange_features(group, lineage, 4, window, vdata)
            )
            assemble_vector(per_clone, group_values, aggregation=rng.choice(["mean", "max"]))
        except Exception as exc:  # RangeViolation or anything else
            failures.append(f"group {group_idx}: {type(exc).__name__}: {exc}")
            if len(failures) > 5:
                break
        checked += 1

        sequences = [classified_sequence(m) for m in members]
        diff = multiset_diff(sequences)
        columns = list(diff.matched) + [d.entries for d in diff.differential]
        non_gap = sum(1 for col in columns for e in col if e is not None)
        if non_gap != sum(len(s) for s in sequences):
            failures.append(f"group {group_idx}: token conservation violated")
            break

    for pair_idx in range(1000):
        a = "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 12)))
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = min(
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                    table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
        if levenshtein(a, b) != table[len(a)][len(b)]:
            failures.append(f"levenshtein mismatch on pair {pair_idx}: {a!r} vs {b!r}")
            break

    _report(3, "feature range/property suite", failures, f"{checked} fuzzed groups")


# -- criterion 4: learner suite -------------------------------------------------


def _oracle_stump(examples, weights):
    best = None
    dim = len(examples[0].values)
    for f in range(1, dim + 1):
        distinct = sorted({e.values[f - 1] for e in examples})
        for t in [NEG_INF] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]:
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


def test_criterion_4_learner_suite(tmp_path):
    rng = random.Random(107)
    failures = []

    for ds in range(100):
        n = rng.randrange(2, 51)
        examples = [
            feature_row(rng.randrange(2), {f: rng.randrange(0, 16) / 16 for f in range(1, 6)})
            for _ in range(n)
        ]
        weights = [rng.randrange(1, 65) / 1024 for _ in range(n)]
        runs = _feature_runs(examples, list(range(1, len(examples[0].values) + 1)))
        stump, err = best_stump(examples, weights, runs)
        o_err, o_f, o_t, o_pol = _oracle_stump(examples, weights)
        if (err, stump.feature, stump.threshold, stump.polarity) != (o_err, o_f, o_t, o_pol):
            failures.append(f"dataset {ds}: stump deviates from exhaustive oracle")
            break

    separable = [
        feature_row(0, {1: 0.1}),
        feature_row(0, {1: 0.2}),
        feature_row(1, {1: 0.8}),
        feature_row(1, {1: 0.9}),
    ]
    and_pattern = []
    for f1 in (0.2, 0.8):
        for f2 in (0.2, 0.8):
            label = 1 if (f1 > 0.5 and f2 > 0.5) else 0
            and_pattern.append(feature_row(label, {1: f1, 2: f2}))
            and_pattern.append(feature_row(label, {1: f1 + 0.05, 2: f2 - 0.05}))
    for name, data in (("separable", separable), ("and-pattern", and_pattern)):
        model = train_alt("adaboost", data, rounds=50)
        bad = [
            e
            for e in data
            if (model.predict_likelihood(e.values) >= 0.5) != (e.label == 1)
        ]
        if bad:
            failures.append(f"{name}: {len(bad)} training errors after 50 rounds")

    model = train_alt("adaboost", and_pattern, rounds=50)
    for _ in range(500):
        probe = feature_row(None, {f: rng.random() * 3 - 1 for f in range(1, 5)})
        p = model.predict_likelihood(probe.values)
        if not 0.0 <= p <= 1.0:
            failures.append(f"likelihood {p} escapes [0,1]")
            break

    probes = [feature_row(None, {1: rng.random(), 2: rng.random()}).values for _ in range(50)]
    baseline = sorted(probes, key=lambda v: (-model.predict_likelihood(v), v))
    artifacts.write_model(tmp_path / "model.txt", model)
    scaled = artifacts.read_model(tmp_path / "model.txt")
    scaled = scaled._replace(stumps=[s._replace(alpha=s.alpha * 17.0) for s in scaled.stumps])
    rescaled = sorted(probes, key=lambda v: (-scaled.predict_likelihood(v), v))
    if baseline != rescaled:
        failures.append("likelihood ranking not invariant under alpha scaling")

    _report(4, "learner suite", failures)


# -- criterion 5: metrics suite --------------------------------------------------


def test_criterion_5_metrics_suite():
    failures = []
    tables = [
        # (recommended, hits, known) -> expected P, R as exact fractions
        (10, 7, 9, Fraction(7, 10), Fraction(7, 9)),
        (0, 0, 0, Fraction(0), Fraction(0)),
        (0, 0, 5, Fraction(0), Fraction(0)),
        (5, 0, 5, Fraction(0), Fraction(0)),
        (5, 5, 5, Fraction(1), Fraction(1)),
        (8, 2, 16, Fraction(1, 4), Fraction(1, 8)),
        (3, 1, 7, Fraction(1, 3), Fraction(1, 7)),
        (20, 10, 40, Fraction(1, 2), Fraction(1, 4)),
        (6, 6, 12, Fraction(1), Fraction(1, 2)),
        (100, 83, 91, Fraction(83, 100), Fraction(83, 91)),
    ]
    for rec, hits, known, p_exact, r_exact in tables:
        p, r, f = metrics(rec, hits, known)
        if abs(p - float(p_exact)) > 1e-12 or abs(r - float(r_exact)) > 1e-12:
            failures.append(f"table {(rec, hits, known)}: P/R deviate")
        if p_exact + r_exact == 0:
            expected_f = 0.0
        else:
            expected_f = float(2 * p_exact * r_exact / (p_exact + r_exact))
        if abs(f - expected_f) > 1e-12:
            failures.append(f"table {(rec, hits, known)}: F deviates")

    rng = random.Random(109)
    for _ in range(1000):
        p, r = rng.random(), rng.random()
        f = fscore(p, r)
        if not (0.0 <= f <= 1.0):
            failures.append(f"F={f} escapes [0,1]")
            break
        if p > 0 and r > 0 and not (min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12):
            failures.append(f"harmonic bound violated at p={p}, r={r}")
            break

    _report(5, "metrics suite", failures)


# -- criterion 6: end-to-end determinism -----------------------------------------


def _run_pipeline(config: PipelineConfig, repo_path, out) -> None:
    pipeline.stage_mine(config, repo_path, out)
    pipeline.stage_detect(config, repo_path, out)
    pipeline.stage_genealogy(config, repo_path, out)
    pipeline.stage_label(config, repo_path, out, sweep_thresholds=[0.3, 0.4, 0.5])
    pipeline.stage_featurize(config, repo_path, out)
    pipeline.stage_train(config, out)
    pipeline.stage_recommend(config, out)


def test_criterion_6_end_to_end_determinism(tmp_path):
    failures = []
    rb = RepoBuilder(tmp_path / "repo")
    commit_corpora(rb, end_to_end_corpora())
    config = PipelineConfig(delta_threshold=1, seed=42)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    _run_pipeline(config, rb.path, out1)
    _run_pipeline(config, rb.path, out2)
    names = sorted(p.name for p in out1.iterdir())
    if names != sorted(p.name for p in out2.iterdir()):
        failures.append("artifact file sets differ between runs")
    for name in names:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            failures.append(f"{name} differs between identical runs")
    _report(6, "end-to-end determinism", failures, f"{len(names)} artifacts compared")


# -- criterion 7: harness signal recovery ----------------------------------------


def _history_cochange_dataset(seed: int = 29, n: int = 200) -> list[FeatureRow]:
    """Labels follow F13 + F30 with a margin band plus 3% label noise."""
    rng = random.Random(seed)
    examples = []
    for _ in range(n):
        while True:
            f13, f30 = rng.random(), rng.random()
            if abs(f13 + f30 - 1.0) >= 0.1:
                break
        label = 1 if f13 + f30 > 1.0 else 0
        if rng.random() < 0.03:
            label = 1 - label
        filler = {f: rng.random() for f in (5, 22, 26)}
        examples.append(feature_row(label, {13: f13, 30: f30, **filler}))
    return examples


def test_criterion_7_harness_signal_recovery():
    failures = []
    start = time.monotonic()
    dataset = _history_cochange_dataset()
    config = LearnerConfig(seed=13)
    row = ten_fold(dataset, config)
    if row.fscore < 0.9:
        failures.append(f"ten-fold F {row.fscore:.3f} below 0.9")
    rows = ablation([("synthetic", dataset)], "within", config)
    by_name = {name: f for name, _, _, f in rows}
    if not by_name["ExceptHistory"] < by_name["AllFeatures"]:
        failures.append(
            f"ExceptHistory F {by_name['ExceptHistory']:.3f} not below "
            f"AllFeatures F {by_name['AllFeatures']:.3f}"
        )
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2min budget")
    _report(
        7,
        "harness signal recovery",
        failures,
        f"ten-fold F={row.fscore:.3f}, ExceptHistory F={by_name.get('ExceptHistory', float('nan')):.3f}, {elapsed:.1f}s",
    )
