"""The benchmark's tracer still runs the pipeline: every traced name resolves.

`bench/trace_stage.py` wraps crec functions by name and reads some of their
parameters by name, so a rename or removal in `src/crec` breaks
`bench/run.py --trace 1`. This runs mine -> recommend and then ablate under
the tracer, one subprocess per command, as the benchmark does, and checks that
each git process is counted against a `repo_miner` span.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from clone_fixtures import commit_corpora, end_to_end_corpora

ROOT = Path(__file__).resolve().parents[1]
TRACE_SCRIPT = ROOT / "bench" / "trace_stage.py"
COMMANDS = ("mine", "detect", "genealogy", "label", "featurize", "train", "recommend", "ablate")


def _traced_names(monkeypatch) -> tuple[str, ...]:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("trace_stage", TRACE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_pipeline_runs_under_tracer(make_repo, tmp_path, monkeypatch):
    rb = make_repo("traced")
    commit_corpora(rb, end_to_end_corpora())
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    names: set[str] = set()
    for command in COMMANDS:
        spans = tmp_path / f"trace-{command}.json"
        args = ["--out", str(out)]
        if command == "ablate":
            # features.csv holds one R and one NR row; a second copy of it is
            # a second project, so cross-project training has both labels
            (tmp_path / "copy").mkdir()
            shutil.copy(out / "features.csv", tmp_path / "copy" / "features.csv")
            features = [str(out / "features.csv"), str(tmp_path / "copy" / "features.csv")]
            args += ["--features", *features, "--setting", "cross"]
        elif command not in ("train", "recommend"):
            args += ["--repo", str(rb.path), "--delta-threshold", "1"]
        proc = subprocess.run(
            [sys.executable, str(TRACE_SCRIPT), str(spans), command, *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, f"{command}: {proc.stderr}"
        trace = json.loads(spans.read_text())
        names.update(trace["names"])
        called = {trace["names"][index] for index, *_ in trace["spans"]}
        assert f"pipeline.stage_{command}" in called
        # Every git process starts inside a traced repo_miner span, as the
        # benchmark's per-stage spawn check requires.
        counts = trace["counts"]
        assert counts.get("git_spawns", 0) == counts.get("repo_miner.git_spawns", 0), command
        if command == "ablate":
            assert "learner.best_stump" in called
        if command == "detect":
            # the tracer sizes blocks by len(block.tokens)
            hit, verified, candidate = (
                counts.get(f"clone_detector.pairs_{k}", 0) for k in ("hit", "verified", "candidate")
            )
            assert 0 < candidate and hit <= verified <= candidate, (hit, verified, candidate)
    assert set(_traced_names(monkeypatch)) <= names
    assert (out / "recommendations.csv").exists()
    assert (out / "ablation.csv").exists()
