"""Command-line surface: one subcommand per pipeline stage.

Only argument parsing is imported up front. The stages come in with
`pipeline` once the arguments are parsed, and each stage imports the modules
it runs when it runs, so `crec --help` and `crec detect` do not pay for the
learners or the feature code."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .config import ALGORITHMS, PipelineConfig, parse_value
from .errors import CrecError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="Path to a config file.")
    parser.add_argument("--out", default="crec-out", help="Artifact directory.")
    for f in fields(PipelineConfig):  # parsed and checked by resolve_config
        parser.add_argument("--" + f.name.replace("_", "-"), help=f"default: {f.default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crec",
        description="Mine a repository's clone history and recommend groups to refactor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str, repo: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if repo:
            p.add_argument("--repo", required=True, help="Path to the git repository.")
        return p

    stage("mine", "Enumerate commits and sample versions.", repo=True)
    stage("detect", "Detect clone groups at every sampled version.", repo=True)
    stage("genealogy", "Link clone groups across versions into lineages.", repo=True)
    label = stage("label", "Label lineages as R/NR (Extract Method history).", repo=True)
    label.add_argument(
        "--sweep",
        nargs="+",
        help="Also emit R-label counts for these similarity thresholds (each an l_th).",
    )
    stage("featurize", "Compute the 34-feature vector per lineage.", repo=True)

    train = stage("train", "Train a classifier on labeled vectors.")
    train.add_argument("--rounds", dest="boost_rounds", help="Same as --boost-rounds.")
    train.add_argument("--algorithm", default="adaboost", choices=ALGORITHMS)

    stage("recommend", "Rank current clone groups by refactoring likelihood.")

    def eval_stage(name: str, help_text: str) -> argparse.ArgumentParser:
        p = stage(name, help_text)
        p.add_argument("--features", nargs="+", required=True,
                       help="Feature files, one per project.")
        p.add_argument("--setting", choices=("within", "cross"), required=True)
        p.add_argument("--balance", action="store_true",
                       help="Balance classes by seeded NR subsampling.")
        return p

    evaluate = eval_stage("evaluate", "Ten-fold or leave-one-project-out evaluation.")
    evaluate.add_argument("--algorithm", default="adaboost", choices=ALGORITHMS)
    eval_stage("ablate", "Re-run evaluation with each feature category removed.")
    compare = eval_stage("compare", "Evaluate several learning algorithms on shared folds.")
    compare.add_argument("--algorithms", nargs="+", required=True, choices=ALGORITHMS)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    from .artifacts import load_config

    config = load_config(args.config) if args.config else PipelineConfig()
    for f in fields(PipelineConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            setattr(config, f.name, parse_value(f.name, raw))
    config.validate()
    return config


def _sweep_thresholds(config: PipelineConfig, raw: list[str] | None) -> list[float]:
    """The --sweep values, each parsed and checked as an l_th would be."""
    thresholds = [parse_value("l_th", text) for text in raw or ()]
    for th in thresholds:
        replace(config, l_th=th).validate()
    return thresholds


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from . import pipeline

    try:
        config = resolve_config(args)
        if args.command == "mine":
            summary = pipeline.stage_mine(config, args.repo, args.out)
        elif args.command == "detect":
            summary = pipeline.stage_detect(config, args.repo, args.out)
        elif args.command == "genealogy":
            summary = pipeline.stage_genealogy(config, args.repo, args.out)
        elif args.command == "label":
            sweep = _sweep_thresholds(config, args.sweep)
            summary = pipeline.stage_label(config, args.repo, args.out, sweep)
        elif args.command == "featurize":
            summary = pipeline.stage_featurize(config, args.repo, args.out)
        elif args.command == "train":
            summary = pipeline.stage_train(config, args.out, args.algorithm)
        elif args.command == "recommend":
            summary = pipeline.stage_recommend(config, args.out)
        elif args.command == "evaluate":
            summary = pipeline.stage_evaluate(
                config, args.features, args.setting, args.out, args.algorithm, args.balance
            )
        elif args.command == "ablate":
            summary = pipeline.stage_ablate(
                config, args.features, args.setting, args.out, args.balance
            )
        else:  # compare
            summary = pipeline.stage_compare(
                config, args.features, args.setting, args.algorithms, args.out, args.balance
            )
    except CrecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
