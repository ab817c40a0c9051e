"""On-disk artifact formats: line-delimited structured text, one versioned
header line per file (`crec-format v1 <kind>`), JSON or CSV rows after it.
Round-trips are lossless and byte-deterministic."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatVersionMismatch, ParseError
from .features import FEATURES, FeatureRow
from .genealogy import Lineage
from .labeler import LabelDecision
from .repo_miner import CommitRecord, SampledVersion

FORMAT_PREFIX = "crec-format"
FORMAT_VERSION = "v1"


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_artifact(path: str | Path, kind: str, lines: list[str]) -> None:
    body = [f"{FORMAT_PREFIX} {FORMAT_VERSION} {kind}"] + lines
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(body) + "\n", encoding="utf-8")


def read_artifact(path: str | Path, kind: str) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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


# -- commits / samples --------------------------------------------------------


def write_commits(path, commits: list[CommitRecord]) -> None:
    lines = [
        _dumps(
            {
                "id": c.id,
                "timestamp": c.timestamp,
                "author": c.author,
                "changed_files": sorted(c.changed_files),
                "changed_line_count": c.changed_line_count,
            }
        )
        for c in commits
    ]
    write_artifact(path, "commits", lines)


def read_commits(path) -> list[CommitRecord]:
    return _read_rows(
        path,
        "commits",
        lambda d: CommitRecord(
            d["id"],
            d["timestamp"],
            d["author"],
            frozenset(d["changed_files"]),
            d["changed_line_count"],
        ),
    )


def write_samples(path, samples: list[SampledVersion]) -> None:
    lines = [
        _dumps({"index": s.index, "commit_id": s.commit_id, "cumulative_delta": s.cumulative_delta})
        for s in samples
    ]
    write_artifact(path, "samples", lines)


def read_samples(path) -> list[SampledVersion]:
    return _read_rows(
        path,
        "samples",
        lambda d: SampledVersion(d["index"], d["commit_id"], d["cumulative_delta"]),
    )


# -- clone groups -------------------------------------------------------------


@dataclass(frozen=True)
class GroupRecord:
    version: int
    group_id: str
    members: tuple[tuple[str, int, int, int], ...]  # (path, start, end, token count)


def write_groups(path, groups) -> None:
    lines = []
    for g in groups:
        lines.append(
            _dumps(
                {
                    "version": g.version,
                    "group_id": g.group_id,
                    "members": [
                        {
                            "path": b.path,
                            "start": b.start_line,
                            "end": b.end_line,
                            "tokens": len(b.tokens),
                        }
                        for b in g.members
                    ],
                }
            )
        )
    write_artifact(path, "clones", lines)


def read_groups(path) -> list[GroupRecord]:
    return _read_rows(
        path,
        "clones",
        lambda d: GroupRecord(
            d["version"],
            d["group_id"],
            tuple((m["path"], m["start"], m["end"], m["tokens"]) for m in d["members"]),
        ),
    )


# -- lineages -----------------------------------------------------------------


@dataclass(frozen=True)
class LineageRecord:
    lineage_id: str
    end_state: str
    groups: tuple[tuple[int, str], ...]  # (version, group_id)


def write_lineages(path, lineages: list[Lineage]) -> None:
    lines = [
        _dumps(
            {
                "lineage_id": lin.lineage_id,
                "end_state": lin.end_state,
                "groups": [[v, g.group_id] for v, g in lin.groups],
            }
        )
        for lin in lineages
    ]
    write_artifact(path, "lineages", lines)


def read_lineages(path) -> list[LineageRecord]:
    return _read_rows(
        path,
        "lineages",
        lambda d: LineageRecord(
            d["lineage_id"], d["end_state"], tuple((v, gid) for v, gid in d["groups"])
        ),
    )


# -- labels and the threshold sweep -------------------------------------------


def write_labels(path, decisions: list[LabelDecision]) -> None:
    lines = [
        _dumps(
            {
                "lineage_id": d.lineage_id,
                "label": d.label,
                "step": d.step_version,
                "evidence": d.evidence,
            }
        )
        for d in decisions
    ]
    write_artifact(path, "labels", lines)


def _label_decision(d: dict) -> LabelDecision:
    label, step = d["label"], d["step"]
    if label not in ("R", "NR"):
        raise ValueError(f"label must be R or NR, found {label!r}")
    if label == "R" and type(step) is not int:  # a bool is not a step either
        raise ValueError(f"step of an R label must be an int, found {step!r}")
    if label == "NR" and step is not None:
        raise ValueError(f"step of an NR label must be null, found {step!r}")
    return LabelDecision(d["lineage_id"], step, label, d["evidence"])


def read_labels(path) -> list[LabelDecision]:
    return _read_rows(path, "labels", _label_decision)


def write_sweep(path, rows: list[tuple[float, int]]) -> None:
    lines = [_dumps({"threshold": th, "reported": count}) for th, count in rows]
    write_artifact(path, "label-sweep", lines)


# -- feature table ------------------------------------------------------------


FEATURE_CSV_HEADER = ",".join(
    ["lineage_id", "version", *(f"F{num}" for num in range(1, len(FEATURES) + 1)), "label"]
)
_FEATURE_COLUMNS = FEATURE_CSV_HEADER.count(",") + 1


def write_features(path, rows: list[FeatureRow]) -> None:
    lines = [FEATURE_CSV_HEADER]
    for row in rows:
        label = "" if row.label is None else str(row.label)
        lines.append(",".join([row.lineage_id, str(row.version), *map(repr, row.values), label]))
    write_artifact(path, "features", lines)


def read_features(path) -> list[FeatureRow]:
    lines = read_artifact(path, "features")
    if not lines or lines[0] != FEATURE_CSV_HEADER:
        raise ParseError("missing or wrong feature header row", 2)
    out = []
    for lineno, line in enumerate(lines[1:], 3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != _FEATURE_COLUMNS:
            raise ParseError(f"expected {_FEATURE_COLUMNS} columns, found {len(parts)}", lineno)
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


def write_model(path, model) -> None:
    from .learner import model_to_dict

    write_artifact(path, "model", [_dumps(model_to_dict(model))])


def read_model(path):
    from .learner import model_from_dict

    models = _read_rows(path, "model", model_from_dict)
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
    meta = _dumps(
        {
            "setting": report.setting,
            "metric_mode": report.metric_mode,
            "config_digest": report.config_digest,
        }
    )
    lines = [meta, "name,precision,recall,fscore,flags"]
    for row in report.rows:
        flags = ";".join(row.flags)
        lines.append(
            f"{row.name},{repr(row.precision)},{repr(row.recall)},{repr(row.fscore)},{flags}"
        )
    avg_p, avg_r, avg_f = report.averages
    lines.append(f"Average,{repr(avg_p)},{repr(avg_r)},{repr(avg_f)},")
    write_artifact(path, "report", lines)


def write_table(path, kind: str, header: str, rows: list[tuple]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    write_artifact(path, kind, lines)
