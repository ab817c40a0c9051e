"""Labels lineages as historically refactored (R) or not (NR).

A lineage step earns the R label when at least two linked clones shrink, add
invocations of the same method, and the code they lost is similar enough to
that method's body.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .clone_detector import CodeBlock, invoked_names, overlap
from .config import DEFAULTS
from .genealogy import CloneLink, Lineage


@dataclass(frozen=True)
class ExtractedMethodCandidate:
    name: str
    declaring_path: str
    start_line: int
    end_line: int
    body_tokens: tuple[str, ...]  # multiset, canonically sorted


@dataclass(frozen=True)
class LabelDecision:
    lineage_id: str
    step_version: int | None  # earliest qualifying step for R, None for NR
    label: str  # "R" | "NR"
    evidence: dict | None

    def __post_init__(self) -> None:
        if self.label not in ("R", "NR"):
            raise ValueError(f"label must be R or NR, found {self.label!r}")
        if self.label == "R" and self.step_version is None:
            raise ValueError("step of an R label must be an int, found None")
        if self.label == "NR" and self.step_version is not None:
            raise ValueError(f"step of an NR label must be null, found {self.step_version!r}")


class LabelContext:
    """Corpus access for method resolution, keyed by sampled-version index.

    *blocks_at(version)* maps each path of that version to the file's blocks.
    """

    def __init__(self, blocks_at: Callable[[int], dict[str, list[CodeBlock]]]):
        self._blocks_at = blocks_at
        self._methods: dict[int, dict[str, list[ExtractedMethodCandidate]]] = {}

    def methods_at(self, version: int) -> dict[str, list[ExtractedMethodCandidate]]:
        if version not in self._methods:
            index: dict[str, list[ExtractedMethodCandidate]] = {}
            files = self._blocks_at(version)
            for path in sorted(files):
                for block in files[path]:
                    if (
                        block.enclosing_method_name is None
                        or block.enclosing_method_start != block.start_line
                    ):
                        continue  # not a method body block
                    body = method_body_tokens(block)
                    if not body:
                        continue
                    index.setdefault(block.enclosing_method_name, []).append(
                        ExtractedMethodCandidate(
                            name=block.enclosing_method_name,
                            declaring_path=path,
                            start_line=block.start_line,
                            end_line=block.end_line,
                            body_tokens=tuple(sorted(body.elements())),
                        )
                    )
            self._methods[version] = index
        return self._methods[version]


def method_body_tokens(block: CodeBlock) -> Counter:
    """Token multiset strictly inside the block's outermost braces."""
    out: Counter = Counter()
    started = False
    for t in block.raw_tokens[:-1]:  # final lexeme is the closing brace
        if not started:
            started = t.kind == "punct" and t.text == "{"
            continue
        if t.kind != "punct":
            out[t.text] += 1
    return out


def reduced_clones(links: list[CloneLink]) -> list[CloneLink]:
    """Links whose successor lost tokens; empty unless at least two did."""
    shrunk = [l for l in links if l.target.size < l.source.size]
    return shrunk if len(shrunk) >= 2 else []


def new_invocations(
    c_links: list[CloneLink],
    methods: dict[str, list[ExtractedMethodCandidate]],
) -> dict[ExtractedMethodCandidate, list[CloneLink]]:
    """Map each qualifying extracted-method candidate to the clones calling it.

    A candidate qualifies when at least two clones newly invoke its name and a
    method body by that name is resolvable in the corpus at the later version.
    """
    per_name: dict[str, list[CloneLink]] = {}
    for link in c_links:
        added = set(invoked_names(link.target.raw_tokens)) - set(
            invoked_names(link.source.raw_tokens)
        )
        for name in sorted(added):
            per_name.setdefault(name, []).append(link)
    result: dict[ExtractedMethodCandidate, list[CloneLink]] = {}
    for name in sorted(per_name):
        links = per_name[name]
        if len(links) < 2:
            continue
        for candidate in methods.get(name, ()):
            result[candidate] = links
    return result


def label_lineage(
    lineage: Lineage, ctx: LabelContext, l_th: float = DEFAULTS.l_th
) -> LabelDecision:
    """Apply the three step criteria in order; earliest qualifying step wins."""
    for k in range(len(lineage.groups) - 1):
        (v_i, _), (v_i1, _) = lineage.groups[k], lineage.groups[k + 1]
        c = reduced_clones(lineage.links[k])
        if not c:
            continue
        candidates = new_invocations(c, ctx.methods_at(v_i1))
        best = None
        for cand in sorted(candidates, key=lambda m: (m.name, m.declaring_path, m.start_line)):
            body = Counter(cand.body_tokens)
            qualifying = []
            for link in candidates[cand]:
                removed = link.source.token_bag - link.target.token_bag
                score = overlap(removed, body)
                if score >= l_th:
                    qualifying.append((link, score))
            if len(qualifying) < 2:
                continue
            rank = (len(qualifying), sum(s for _, s in qualifying) / len(qualifying))
            if best is None or rank > best[0]:
                best = (rank, cand, qualifying)
        if best is not None:
            _, cand, qualifying = best
            evidence = {
                "method": cand.name,
                "method_path": cand.declaring_path,
                "method_lines": [cand.start_line, cand.end_line],
                "clones": [
                    {
                        "path": link.source.path,
                        "lines": [link.source.start_line, link.source.end_line],
                        "similarity": score,
                    }
                    for link, score in qualifying
                ],
            }
            return LabelDecision(lineage.lineage_id, v_i, "R", evidence)
    return LabelDecision(lineage.lineage_id, None, "NR", None)


def sweep(
    lineages: list[Lineage], ctx: LabelContext, thresholds: list[float]
) -> list[tuple[float, int]]:
    """R-label counts per threshold, mirroring the reported-groups table."""
    return [
        (th, sum(1 for lin in lineages if label_lineage(lin, ctx, th).label == "R"))
        for th in thresholds
    ]
