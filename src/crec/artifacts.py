"""On-disk formats: line-delimited structured text, one versioned header line
per file (`crec-format v1 <kind>`), then JSON or CSV rows or, for the config
file, `key = value` lines. Each JSON row is rebuilt from the field types of its
dataclass (`_decode`). Round-trips are lossless and byte-deterministic.

The feature, label and model formats import the modules that define their
rows only when they are read or written, so a stage that never touches them
does not load those modules."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import TYPE_CHECKING, Union, get_args, get_origin, get_type_hints

from .config import PipelineConfig, parse_value
from .errors import ConfigError, FormatVersionMismatch, MissingInput, ParseError
from .repo_miner import CommitRecord, SampledVersion

if TYPE_CHECKING:
    from .features import FeatureRow
    from .genealogy import Lineage
    from .labeler import LabelDecision

FORMAT_PREFIX = "crec-format"
FORMAT_VERSION = "v1"


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_artifact(path: str | Path, kind: str, lines: list[str]) -> None:
    body = [f"{FORMAT_PREFIX} {FORMAT_VERSION} {kind}"] + lines
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(body) + "\n", encoding="utf-8")


def read_artifact(path: str | Path, kind: str) -> list[str]:
    """The lines after the header of a *kind* file; MissingInput when *path*
    cannot be read as a file, ParseError for a byte that is not UTF-8.

    Lines break at LF only and lose one trailing CR, so a CRLF file reads as
    its LF twin, and a form feed or U+2028 stays inside its line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MissingInput(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"undecodable byte {data[exc.start]:#04x}", lineno) from None
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if not lines[-1]:  # the text after the final LF
        lines.pop()
    if not lines:
        raise ParseError("empty artifact file", 1)
    head = lines[0].split()
    if len(head) != 3 or head[0] != FORMAT_PREFIX:
        raise ParseError(f"bad header: {lines[0]!r}", 1)
    if head[1] != FORMAT_VERSION:
        raise FormatVersionMismatch(f"unsupported format version {head[1]}")
    if head[2] != kind:
        raise ParseError(f"expected {kind} artifact, found {head[2]}", 1)
    return lines[1:]


_hints = cache(get_type_hints)  # a dataclass's field types, looked up once


def _decode(kind, value):
    """The JSON *value* as a *kind* (int, float, str, dict, ``X | None``, list,
    frozenset, tuple or dataclass), checked all the way down: TypeError or
    ValueError for a bad value, KeyError for a missing field without a default."""
    if kind is int or kind is float or kind is str or kind is dict:
        # a bool is not an int, and NaN is not a float
        if (type(value) is kind or (kind is float and type(value) is int)) and value == value:
            return kind(value)
        raise TypeError(f"expected {kind.__name__}, found {value!r}")
    if is_dataclass(kind):
        if type(value) is not dict:
            raise TypeError(f"expected an object, found {value!r}")
        hints = _hints(kind)
        known = [f.name for f in fields(kind) if f.name in value or f.default is MISSING]
        return kind(**{name: _decode(hints[name], value[name]) for name in known})
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType or origin is Union:  # X | None
        return None if value is None else _decode(args[0], value)
    if type(value) is not list:
        raise TypeError(f"expected a list, found {value!r}")
    if origin is tuple and args[-1] is not Ellipsis:
        return tuple(_decode(k, v) for k, v in zip(args, value, strict=True))
    if origin is list or origin is frozenset or origin is tuple:
        return origin(_decode(args[0], v) for v in value)
    raise TypeError(f"no JSON decoding for {kind}")


def _read_rows(path: str | Path, kind: str, build) -> list:
    """``build(row)`` for each JSON row of a *kind* artifact, in file order.

    Every malformed row is a ParseError naming its line: bad JSON, a missing
    field, or a value *build* rejects (TypeError or ValueError).
    """
    out = []
    for lineno, line in enumerate(read_artifact(path, kind), 2):
        if not line.strip():
            continue
        try:
            out.append(build(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", lineno) from None
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", lineno) from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad {kind} row: {exc}", lineno) from None
    return out


# -- config file --------------------------------------------------------------


def load_config(path: str | Path) -> PipelineConfig:
    """Defaults overridden by the file's `key = value` lines; blank lines and
    `#` comments are skipped, an unknown key or bad value is a ConfigError."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    config = PipelineConfig()
    for lineno, line in enumerate(read_artifact(path, "config"), 2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        if eq != "=":
            raise ParseError(f"expected 'key = value': {line!r}", lineno)
        setattr(config, key, parse_value(key, raw))
    config.validate()
    return config


# -- commits / samples --------------------------------------------------------


def write_commits(path, commits: list[CommitRecord]) -> None:
    rows = [{**asdict(c), "changed_files": sorted(c.changed_files)} for c in commits]
    write_artifact(path, "commits", [_dumps(row) for row in rows])


def read_commits(path) -> list[CommitRecord]:
    return _read_rows(path, "commits", lambda d: _decode(CommitRecord, d))


def write_samples(path, samples: list[SampledVersion]) -> None:
    write_artifact(path, "samples", [_dumps(asdict(s)) for s in samples])


def read_samples(path) -> list[SampledVersion]:
    """The sampled versions; each row's index must be its 0-based position."""
    positions = itertools.count()

    def sample(d: dict) -> SampledVersion:
        s, position = _decode(SampledVersion, d), next(positions)
        if s.index != position:
            raise ValueError(f"index {s.index} is not the row's position {position}")
        return s

    return _read_rows(path, "samples", sample)


# -- clone groups -------------------------------------------------------------


@dataclass(frozen=True)
class GroupRecord:
    version: int
    group_id: str
    members: tuple[tuple[str, int, int, int], ...]  # (path, start, end, token count)


def write_groups(path, groups) -> None:
    rows = [
        {
            "version": g.version,
            "group_id": g.group_id,
            "members": [
                {"path": b.path, "start": b.start_line, "end": b.end_line, "tokens": len(b.tokens)}
                for b in g.members
            ],
        }
        for g in groups
    ]
    write_artifact(path, "clones", [_dumps(row) for row in rows])


def read_groups(path) -> list[GroupRecord]:
    def group(d: dict) -> GroupRecord:
        members = [[m["path"], m["start"], m["end"], m["tokens"]] for m in d["members"]]
        return _decode(GroupRecord, {**d, "members": members})

    return _read_rows(path, "clones", group)


# -- lineages -----------------------------------------------------------------


@dataclass(frozen=True)
class LineageRecord:
    lineage_id: str
    end_state: str
    groups: tuple[tuple[int, str], ...]  # (version, group_id)


def write_lineages(path, lineages: list[Lineage]) -> None:
    rows = [
        {
            "lineage_id": lin.lineage_id,
            "end_state": lin.end_state,
            "groups": [[v, g.group_id] for v, g in lin.groups],
        }
        for lin in lineages
    ]
    write_artifact(path, "lineages", [_dumps(row) for row in rows])


def read_lineages(path) -> list[LineageRecord]:
    return _read_rows(path, "lineages", lambda d: _decode(LineageRecord, d))


# -- labels and the threshold sweep -------------------------------------------


def write_labels(path, decisions: list[LabelDecision]) -> None:
    rows = [
        {
            "lineage_id": d.lineage_id,
            "label": d.label,
            "step": d.step_version,
            "evidence": d.evidence,
        }
        for d in decisions
    ]
    write_artifact(path, "labels", [_dumps(row) for row in rows])


def read_labels(path) -> list[LabelDecision]:
    from .labeler import LabelDecision

    return _read_rows(
        path, "labels", lambda d: _decode(LabelDecision, {**d, "step_version": d["step"]})
    )


def write_sweep(path, rows: list[tuple[float, int]]) -> None:
    lines = [_dumps({"threshold": th, "reported": count}) for th, count in rows]
    write_artifact(path, "label-sweep", lines)


# -- feature table ------------------------------------------------------------


def _feature_header() -> str:
    from .features import FEATURES

    return ",".join(
        ["lineage_id", "version", *(f"F{num}" for num in range(1, len(FEATURES) + 1)), "label"]
    )


def write_features(path, rows: list[FeatureRow]) -> None:
    lines = [_feature_header()]
    for row in rows:
        label = "" if row.label is None else str(row.label)
        lines.append(",".join([row.lineage_id, str(row.version), *map(repr, row.values), label]))
    write_artifact(path, "features", lines)


def read_features(path) -> list[FeatureRow]:
    from .features import FeatureRow

    header = _feature_header()
    columns = header.count(",") + 1
    lines = read_artifact(path, "features")
    if not lines or lines[0] != header:
        raise ParseError("missing or wrong feature header row", 2)
    out = []
    for lineno, line in enumerate(lines[1:], 3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != columns:
            raise ParseError(f"expected {columns} columns, found {len(parts)}", lineno)
        lineage_id, version, *values, label = parts
        if label not in ("", "0", "1"):
            raise ParseError(f"label must be 0, 1 or empty, got {label!r}", lineno)
        try:
            row = FeatureRow(
                lineage_id,
                int(version),
                tuple(float(v) for v in values),
                int(label) if label else None,
            )
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        for num, value in enumerate(row.values, 1):
            if not math.isfinite(value):
                raise ParseError(f"F{num}={value} not finite", lineno)
        out.append(row)
    return out


# -- model / recommendations / reports ----------------------------------------


def model_to_dict(model) -> dict:
    """The saved form of *model*: its fields, without the None children of tree
    leaves, tagged with its algorithm."""
    from .learner import MODELS

    name = next(name for name, cls in MODELS.items() if type(model) is cls)
    row = asdict(model, dict_factory=lambda items: {k: v for k, v in items if v is not None})
    return {"algorithm": name, **row}


def write_model(path, model) -> None:
    write_artifact(path, "model", [_dumps(model_to_dict(model))])


def read_model(path):
    """The saved model; a float field may hold ±Infinity (a stump's threshold
    can be -Infinity) but not NaN, which would make every likelihood NaN."""
    from .learner import MODELS

    def model(d: dict):
        if d["algorithm"] not in MODELS:
            raise ValueError(f"unknown algorithm: {d['algorithm']}")
        return _decode(MODELS[d["algorithm"]], d)

    models = _read_rows(path, "model", model)
    if not models:
        raise ParseError("empty model artifact", 2)
    return models[0]


def write_recommendations(path, ranked: list[tuple[str, float]]) -> None:
    lines = ["group_id,likelihood"] + [f"{gid},{repr(lik)}" for gid, lik in ranked]
    write_artifact(path, "recommendations", lines)


def read_recommendations(path) -> list[tuple[str, float]]:
    lines = read_artifact(path, "recommendations")
    if not lines or lines[0] != "group_id,likelihood":
        raise ParseError("missing recommendations header row", 2)
    out = []
    for lineno, line in enumerate(lines[1:], 3):
        if not line.strip():
            continue
        gid, _, lik = line.partition(",")
        try:
            out.append((gid, float(lik)))
        except ValueError:
            raise ParseError(f"bad likelihood: {lik!r}", lineno) from None
    return out


def write_report(path, report) -> None:
    meta = {key: getattr(report, key) for key in ("setting", "metric_mode", "config_digest")}
    lines = [_dumps(meta), "name,precision,recall,fscore,flags"]
    for row in report.rows:
        flags = ";".join(row.flags)
        lines.append(f"{row.name},{row.precision!r},{row.recall!r},{row.fscore!r},{flags}")
    avg_p, avg_r, avg_f = report.averages
    lines.append(f"Average,{repr(avg_p)},{repr(avg_r)},{repr(avg_f)},")
    write_artifact(path, "report", lines)


def write_table(path, kind: str, header: str, rows: list[tuple]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    write_artifact(path, kind, lines)
