"""Command-line surface: one subcommand per pipeline stage.

Only argument parsing is imported up front, and only the command being run
gets its arguments built. The stages come in with `pipeline` once the
arguments are parsed, and each stage imports the modules it runs when it
runs, so `crec --help` and `crec detect` do not pay for the learners or the
feature code. The record types are `NamedTuple`s, not dataclasses, so no
command loads `dataclasses` or the `inspect` it imports. The `crec` script and
`python -m crec.cli` end through `run`, which leaves without the interpreter's
teardown."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ALGORITHMS, PipelineConfig, parse_value
from .errors import CrecError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="Path to a config file.")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", default="crec-out",
                        help="Artifact directory.")
    for name, default in PipelineConfig._field_defaults.items():  # read by resolve_config
        parser.add_argument("--" + name.replace("_", "-"), help=f"default: {default}")


def _repo_stage(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--repo", dest="repo_path", metavar="REPO", required=True,
                        help="Path to the git repository.")


def _label(parser: argparse.ArgumentParser) -> None:
    _repo_stage(parser)
    parser.add_argument(
        "--sweep", dest="sweep_thresholds", metavar="SWEEP", nargs="+",
        help="Also emit R-label counts for these similarity thresholds (each an l_th).",
    )


def _train(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--rounds", dest="boost_rounds", help="Same as --boost-rounds.")
    parser.add_argument("--algorithm", default="adaboost", choices=ALGORITHMS)


def _eval_stage(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--features", dest="feature_paths", metavar="FEATURES", nargs="+",
                        required=True, help="Feature files, one per project.")
    parser.add_argument("--setting", choices=("within", "cross"), required=True)
    parser.add_argument("--balance", action="store_true",
                        help="Balance classes by seeded NR subsampling.")


def _evaluate(parser: argparse.ArgumentParser) -> None:
    _eval_stage(parser)
    parser.add_argument("--algorithm", default="adaboost", choices=ALGORITHMS)


def _compare(parser: argparse.ArgumentParser) -> None:
    _eval_stage(parser)
    parser.add_argument("--algorithms", nargs="+", required=True, choices=ALGORITHMS)


# command -> (help, the function that adds its arguments, the name of the
# `pipeline` function it runs), in `crec --help` order. The stage is named, not
# referenced: `pipeline` is imported only once a command runs, and `main` finds
# whatever that name is bound to then (bench/trace_stage.py rebinds it).
_COMMANDS = {
    "mine": ("Enumerate commits and sample versions.", _repo_stage, "stage_mine"),
    "detect": ("Detect clone groups at every sampled version.", _repo_stage, "stage_detect"),
    "genealogy": ("Link clone groups across versions into lineages.", _repo_stage, "stage_genealogy"),
    "label": ("Label lineages as R/NR (Extract Method history).", _label, "stage_label"),
    "featurize": ("Compute the 34-feature vector per lineage.", _repo_stage, "stage_featurize"),
    "train": ("Train a classifier on labeled vectors.", _train, "stage_train"),
    "recommend": ("Rank current clone groups by refactoring likelihood.", _add_common, "stage_recommend"),
    "evaluate": ("Ten-fold or leave-one-project-out evaluation.", _evaluate, "stage_evaluate"),
    "ablate": ("Re-run evaluation with each feature category removed.", _eval_stage, "stage_ablate"),
    "compare": ("Evaluate several learning algorithms on shared folds.", _compare, "stage_compare"),
}
# the parsed arguments that `resolve_config` reads; each other dest names a stage parameter
_CONFIG_ARGS = {"command", "config", *PipelineConfig._fields}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given *command*, only the subcommand of that
    name gets its arguments, and the others stay bare: `crec --help` and the
    check of a command's name read no more of them."""
    parser = argparse.ArgumentParser(
        prog="crec",
        description="Mine a repository's clone history and recommend groups to refactor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        stage = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(stage)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    from .artifacts import load_config

    config = load_config(args.config) if args.config else PipelineConfig()
    config = config._replace(**{
        name: parse_value(name, raw)
        for name in PipelineConfig._fields if (raw := getattr(args, name)) is not None
    })
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse runs the subcommand that the first positional names; the top
    # level takes no other positional, so that is the first command name
    command = next((arg for arg in argv if arg in _COMMANDS), "")
    args = build_parser(command).parse_args(argv)
    from . import pipeline

    try:
        config = resolve_config(args)
        stage = getattr(pipeline, _COMMANDS[args.command][2])
        summary = stage(config, **{k: v for k, v in vars(args).items() if k not in _CONFIG_ARGS})
    except CrecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def run() -> None:
    """Run `main` and end the process with its exit code, skipping the
    interpreter's teardown: freeing every token list, block and memo that the
    stage built, only for the process to end, costs tens of milliseconds.

    Nothing is lost: every stage closes its artifacts and leaves its ``with
    Repository(...)`` block, which reaps ``git cat-file``, before it returns,
    and stdout and stderr are flushed here. mypy's ``util.hard_exit`` ends its
    CLI the same way. Should a flush fail (a reader that closed the pipe), the
    exit is Python's own, as is that of an uncaught exception.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: a usage error or --help
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or file
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
