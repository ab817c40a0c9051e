"""Pipeline configuration: every tunable constant with its default, plus a
parser for the values of its `key = value` file (read by `artifacts.load_config`).

`PipelineConfig` owns each tunable's name, default, text parser
(`parse_value`) and allowed values (`validate`); the CLI flags, the config
file and the library defaults (`DEFAULTS`) all come from its fields. It is a
`NamedTuple`, so an override is a `_replace`.
`ALGORITHMS` names the learners, so that the CLI can offer them without
importing `learner`."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError


class PipelineConfig(NamedTuple):
    delta_threshold: int = 200  # changed lines (added + deleted) per sample
    min_tokens: int = 30
    min_lines: int = 6
    theta: float = 0.8
    link_floor: float = 0.5
    l_th: float = 0.4
    window_fraction: Fraction = Fraction(1, 10)
    recent_fraction: Fraction = Fraction(1, 4)
    boost_rounds: int = 50
    recommend_threshold: float = 0.5
    aggregation: str = "mean"
    seed: int = 0

    def validate(self) -> None:
        if self.delta_threshold < 1:
            raise ConfigError("delta_threshold must be >= 1")
        if self.min_tokens < 1 or self.min_lines < 1:
            raise ConfigError("min_tokens and min_lines must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta must be in (0, 1]")
        if not 0.0 <= self.link_floor <= 1.0:
            raise ConfigError("link_floor must be in [0, 1]")
        if not 0.0 <= self.l_th <= 1.0:
            raise ConfigError("l_th must be in [0, 1]")
        if not 0 < self.window_fraction <= 1 or not 0 < self.recent_fraction <= 1:
            raise ConfigError("window/recent fractions must be in (0, 1]")
        if self.boost_rounds < 1:
            raise ConfigError("boost_rounds must be >= 1")
        if not 0.0 < self.recommend_threshold <= 1.0:
            raise ConfigError("recommend_threshold must be in (0, 1]")
        if self.aggregation not in ("mean", "max"):
            raise ConfigError("aggregation must be mean or max")


# every library parameter that mirrors a field takes its default from here
DEFAULTS = PipelineConfig()

# the learning algorithms a user can choose; `learner.MODELS` is keyed by these
# names plus "constant"
ALGORITHMS = ("adaboost", "decision_tree", "random_forest", "naive_bayes")

# field name -> the type its text parses to, its default's; str fields stay text
_KINDS = {name: type(default) for name, default in PipelineConfig._field_defaults.items()}


def parse_value(name: str, raw: str):
    """*raw* text as the type of config field *name*; ConfigError when malformed.

    A fraction reads as ``n`` or ``n/d``.
    """
    if name not in _KINDS:
        raise ConfigError(f"unknown config key: {name}")
    kind = _KINDS[name]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is Fraction:
            num, _, den = raw.partition("/")
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        return raw
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc

