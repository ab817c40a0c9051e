"""On-disk formats: line-delimited structured text, one versioned header line
per file (`crec-format v1 <kind>`), then JSON or CSV rows or, for the config
file, `key = value` lines. A JSON row holds the fields of one record type, a
`NamedTuple` (`_write_rows`, `_decode`); every CSV table goes through one
formatter and one parser (`_csv_lines`, `_csv_rows`). Round-trips are lossless
and byte-deterministic.

The feature, label and model formats import the modules that define their
rows only when they are read or written, so a stage that never touches them
does not load those modules."""

from __future__ import annotations

import itertools
import json
import math
import os
from functools import cache, partial
from pathlib import Path
from types import UnionType
from typing import TYPE_CHECKING, NamedTuple, Union, get_args, get_origin, get_type_hints

from .config import PipelineConfig, parse_value
from .errors import ConfigError, FormatVersionMismatch, MissingInput, ParseError, WriteError
from .repo_miner import CommitRecord, SampledVersion

if TYPE_CHECKING:
    from .clone_detector import CloneGroup, CodeBlock
    from .features import FeatureRow
    from .genealogy import Lineage
    from .labeler import LabelDecision

FORMAT_PREFIX = "crec-format"
FORMAT_VERSION = "v1"


def _dumps(obj) -> str:
    """Compact JSON with sorted keys; a frozenset is written as its sorted list."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=sorted)


def write_artifact(path: str | Path, kind: str, lines: list[str], *more) -> None:
    """Write a *kind* file, and each further ``(path, kind, lines)`` of *more*,
    whole or not at all: each text goes to a temporary file beside its path,
    and none replaces its file until all are written. No temporary file
    outlives the call, and an OSError becomes a WriteError naming the path."""
    body = [f"{FORMAT_PREFIX} {FORMAT_VERSION} {kind}"] + lines
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            temporary.write_text("\n".join(body) + "\n", encoding="utf-8")
            if more:  # the rest are written and in place before this one is
                write_artifact(*more[0], *more[1:])
            os.replace(temporary, path)
        finally:  # after a replace, there is nothing left to remove
            temporary.unlink(missing_ok=True)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror}") from None


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
        raise ParseError(f"undecodable byte {data[exc.start]:#04x}", lineno, path) from None
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if not lines[-1]:  # the text after the final LF
        lines.pop()
    if not lines:
        raise ParseError("empty artifact file", 1, path)
    head = lines[0].split()
    if len(head) != 3 or head[0] != FORMAT_PREFIX:
        raise ParseError(f"bad header: {lines[0]!r}", 1, path)
    if head[1] != FORMAT_VERSION:
        raise FormatVersionMismatch(f"{path}: unsupported format version {head[1]}")
    if head[2] != kind:
        raise ParseError(f"expected {kind} artifact, found {head[2]}", 1, path)
    return lines[1:]


@cache
def _shape(kind) -> tuple:
    """How `_decode` reads a *kind* that is not a scalar, worked out once: a
    record type (a NamedTuple) and its (name, type, required) fields, or else
    the origin and arguments of the generic type."""
    if hasattr(kind, "_fields"):
        hints = get_type_hints(kind)
        return kind, tuple((n, hints[n], n not in kind._field_defaults) for n in kind._fields)
    return get_origin(kind), get_args(kind)


def _decode(kind, value):
    """The JSON *value* as a *kind* (int, float, str, dict, ``X | None``, list,
    frozenset, tuple or record), checked all the way down: TypeError or
    ValueError for a bad value, KeyError for a missing field without a default."""
    if kind is int or kind is float or kind is str or kind is dict:
        # a bool is not an int, and NaN is not a float
        if (type(value) is kind or (kind is float and type(value) is int)) and value == value:
            return kind(value)
        raise TypeError(f"expected {kind.__name__}, found {value!r}")
    origin, args = _shape(kind)
    if origin is kind:
        if type(value) is not dict:
            raise TypeError(f"expected an object, found {value!r}")
        return kind(**{n: _decode(k, value[n]) for n, k, needed in args if needed or n in value})
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
            raise ParseError(f"bad JSON: {exc.msg}", lineno, path) from None
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", lineno, path) from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad {kind} row: {exc}", lineno, path) from None
    return out


def _plain(value, nulls: bool = True):
    """*value* as `_dumps` writes it: each record in it, at any depth, as the
    dict of its fields (less those that are None, unless *nulls*), and each
    tuple as a list."""
    if isinstance(value, tuple):
        if not hasattr(value, "_fields"):
            return [_plain(v, nulls) for v in value]
        return {k: _plain(v, nulls) for k, v in zip(value._fields, value) if nulls or v is not None}
    if isinstance(value, list):
        return [_plain(v, nulls) for v in value]
    return value


def _write_rows(path: str | Path, kind: str, records, row=_plain, *more) -> None:
    """Write a *kind* artifact of one JSON row per record, the dict ``row(record)``,
    with the files of *more*, as `write_artifact` does."""
    write_artifact(path, kind, [_dumps(row(record)) for record in records], *more)


def _csv_lines(header: str, rows) -> list[str]:
    """*header*, then one line per row: a float cell as its repr, any other as str."""
    cells = (",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return [header, *cells]


def _csv_rows(path, kind: str, header: str):
    """(line number, cells) of each non-blank row of a *kind* table; ParseError
    for a missing or wrong *header* line or a row without its column count."""
    lines = read_artifact(path, kind)
    if not lines or lines[0] != header:
        raise ParseError(f"missing or wrong {kind} header row", 2, path)
    columns = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], 3):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != columns:
            raise ParseError(f"expected {columns} columns, found {len(cells)}", lineno, path)
        yield lineno, cells


# -- config file --------------------------------------------------------------


def load_config(path: str | Path) -> PipelineConfig:
    """Defaults overridden by the file's `key = value` lines; blank lines and
    `#` comments are skipped, an unknown key or bad value is a ConfigError."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(read_artifact(path, "config"), 2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        if eq != "=":
            raise ParseError(f"expected 'key = value': {line!r}", lineno, path)
        values[key] = parse_value(key, raw)
    config = PipelineConfig(**values)
    config.validate()
    return config


# -- commits / samples --------------------------------------------------------


def write_commits(path, commits: list[CommitRecord]) -> None:
    _write_rows(path, "commits", commits)


def read_commits(path) -> list[CommitRecord]:
    return _read_rows(path, "commits", partial(_decode, CommitRecord))


def write_samples(path, samples: list[SampledVersion]) -> None:
    _write_rows(path, "samples", samples)


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


class MemberRecord(NamedTuple):
    path: str
    brace: int  # the index of the block's own `{` in its file's tokens
    start: int
    end: int
    tokens: int  # token count

    @classmethod
    def of(cls, b: CodeBlock) -> MemberRecord:
        return cls(b.path, b.brace, b.start_line, b.end_line, b.size)


class GroupRecord(NamedTuple):
    version: int
    group_id: str
    members: tuple[MemberRecord, ...]

    @classmethod
    def of(cls, g: CloneGroup) -> GroupRecord:
        return cls(g.version, g.group_id, tuple(map(MemberRecord.of, g.members)))


def write_groups(path, groups: list[GroupRecord]) -> None:
    _write_rows(path, "clones", groups)


def read_groups(path) -> list[GroupRecord]:
    return _read_rows(path, "clones", partial(_decode, GroupRecord))


# -- lineages -----------------------------------------------------------------


class LineageRecord(NamedTuple):
    lineage_id: str
    end_state: str
    groups: tuple[tuple[int, str], ...]  # (version, group_id)
    # links[k]: (source, target, score) from groups[k] to groups[k+1], each member by index
    links: tuple[tuple[tuple[int, int, float], ...], ...]

    @classmethod
    def of(cls, lin: Lineage) -> LineageRecord:
        refs = tuple((v, g.group_id) for v, g in lin.groups)
        links = tuple(
            tuple((a.members.index(l.source), b.members.index(l.target), l.score) for l in step)
            for (_, a), (_, b), step in zip(lin.groups, lin.groups[1:], lin.links)
        )
        return cls(lin.lineage_id, lin.end_state, refs, links)


def write_lineages(path, lineages: list[LineageRecord]) -> None:
    _write_rows(path, "lineages", lineages)


def read_lineages(path) -> list[LineageRecord]:
    return _read_rows(path, "lineages", partial(_decode, LineageRecord))


# -- labels and the threshold sweep -------------------------------------------


def write_labels(path, decisions: list[LabelDecision], sweep=None) -> None:
    """One row per decision, its `step_version` saved as `step` beside the
    `label` it implies; with *sweep*, a ``(path, [(threshold, R count), ...])``
    pair, the sweep file too: both files or neither."""
    more = [] if sweep is None else [(sweep[0], "label-sweep", [
        _dumps({"threshold": th, "reported": n}) for th, n in sweep[1]
    ])]
    _write_rows(path, "labels", decisions, lambda d: {
        "lineage_id": d.lineage_id, "step": d.step_version, "label": d.label, "evidence": d.evidence
    }, *more)


def read_labels(path) -> list[LabelDecision]:
    """The decisions; a row's `label` must be R or NR and agree with its
    `step`: an int for R, null for NR."""
    from .labeler import LabelDecision

    def decision(d: dict) -> LabelDecision:
        row = _decode(LabelDecision, {**d, "step_version": d["step"]})
        label = _decode(str, d["label"])
        if label not in ("R", "NR"):
            raise ValueError(f"label must be R or NR, found {label!r}")
        if label != row.label:
            must = "an int" if label == "R" else "null"
            raise ValueError(f"step of an {label} label must be {must}, found {row.step_version!r}")
        return row

    return _read_rows(path, "labels", decision)


# -- feature table ------------------------------------------------------------


def _feature_header() -> str:
    from .features import FEATURES

    return "lineage_id,version," + ",".join(f"F{n}" for n, _ in enumerate(FEATURES, 1)) + ",label"


def write_features(path, rows: list[FeatureRow]) -> None:
    cells = [(r.lineage_id, r.version, *r.values, "" if r.label is None else r.label) for r in rows]
    write_table(path, "features", _feature_header(), cells)


def read_features(path) -> list[FeatureRow]:
    from .features import FeatureRow

    out = []
    for lineno, (lineage, version, *cells, label) in _csv_rows(path, "features", _feature_header()):
        if label not in ("", "0", "1"):
            raise ParseError(f"label must be 0, 1 or empty, got {label!r}", lineno, path)
        try:
            values = tuple(map(float, cells))
            row = FeatureRow(lineage, int(version), values, int(label) if label else None)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, path) from None
        for num, value in enumerate(row.values, 1):
            if not math.isfinite(value):
                raise ParseError(f"F{num}={value} not finite", lineno, path)
        out.append(row)
    return out


# -- model / recommendations / reports ----------------------------------------


def model_to_dict(model) -> dict:
    """The saved form of *model*: its fields, without the None children of tree
    leaves, tagged with its algorithm."""
    from .learner import MODELS

    name = next(name for name, cls in MODELS.items() if type(model) is cls)
    return {"algorithm": name, **_plain(model, nulls=False)}


def write_model(path, model) -> None:
    _write_rows(path, "model", [model], model_to_dict)


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
        raise ParseError("empty model artifact", 2, path)
    return models[0]


_RECOMMENDATIONS_HEADER = "group_id,likelihood"


def write_recommendations(path, ranked: list[tuple[str, float]]) -> None:
    write_table(path, "recommendations", _RECOMMENDATIONS_HEADER, ranked)


def read_recommendations(path) -> list[tuple[str, float]]:
    """The ranked (group id, likelihood) rows; a likelihood lies in [0, 1]."""
    out = []
    for lineno, (gid, lik) in _csv_rows(path, "recommendations", _RECOMMENDATIONS_HEADER):
        try:
            likelihood = float(lik)
        except ValueError:
            likelihood = math.nan
        if not 0.0 <= likelihood <= 1.0:
            raise ParseError(f"likelihood {lik!r} is not a number in [0, 1]", lineno, path)
        out.append((gid, likelihood))
    return out


def write_report(path, report) -> None:
    meta = {key: getattr(report, key) for key in ("setting", "metric_mode", "config_digest")}
    rows = [(r.name, r.precision, r.recall, r.fscore, ";".join(r.flags)) for r in report.rows]
    rows.append(("Average", *report.averages, ""))
    table = _csv_lines("name,precision,recall,fscore,flags", rows)
    write_artifact(path, "report", [_dumps(meta), *table])


def write_table(path, kind: str, header: str, rows: list[tuple]) -> None:
    write_artifact(path, kind, _csv_lines(header, rows))
