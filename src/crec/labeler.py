"""Labels lineages as historically refactored (R) or not (NR).

A lineage step earns the R label when at least two linked clones shrink, add
invocations of the same method, and the code they lost is similar enough to
that method's body.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .clone_detector import CodeBlock, invoked_names, overlap
from .config import DEFAULTS

if TYPE_CHECKING:
    from .genealogy import CloneLink, Lineage


class LabelDecision(NamedTuple):
    lineage_id: str
    step_version: int | None  # earliest qualifying step for R, None for NR
    evidence: dict | None

    @property
    def label(self) -> str:
        """R when a step qualified, NR when none did."""
        return "NR" if self.step_version is None else "R"


class LabelContext:
    """The method bodies of each sampled version, keyed by its index, for
    method resolution.

    *blocks_at(version)* gives every block of that version in path and ``{``
    order, as `VersionData.blocks` does.
    """

    def __init__(self, blocks_at: Callable[[int], list[CodeBlock]]):
        self._blocks_at = blocks_at
        self._methods: dict[int, dict[str, list[CodeBlock]]] = {}

    def methods_at(self, version: int) -> dict[str, list[CodeBlock]]:
        """Method name -> the body blocks of the methods by that name, in path
        and `{` order. A body is a block whose method is itself; one
        with no token inside its braces is left out."""
        if version not in self._methods:
            index: dict[str, list[CodeBlock]] = {}
            for block in self._blocks_at(version):
                if block.method is block and method_body_tokens(block):
                    index.setdefault(block.enclosing_method_name, []).append(block)
            self._methods[version] = index
        return self._methods[version]


def method_body_tokens(block: CodeBlock) -> Counter:
    """Token multiset strictly inside the block's own braces."""
    inside = block.lex[block.brace + 1 : block.stop - 1]
    return Counter(t.text for t in inside if t.kind != "punct")


def reduced_clones(links: list[CloneLink]) -> list[CloneLink]:
    """Links whose successor lost tokens; empty unless at least two did."""
    shrunk = [l for l in links if l.target.size < l.source.size]
    return shrunk if len(shrunk) >= 2 else []


def new_invocations(
    c_links: list[CloneLink],
    methods: dict[str, list[CodeBlock]],
) -> list[tuple[CodeBlock, list[CloneLink]]]:
    """Each qualifying extracted-method candidate, a method body block of
    *methods*, with the clones calling it, in name order.

    A candidate qualifies when at least two clones newly invoke its name and a
    method body by that name is resolvable in the corpus at the later version.
    Candidates come by name, then in *methods*' order, which `methods_at`
    gives by path and `{` order; `label_lineage` keeps the first of equal rank.
    """
    per_name: dict[str, list[CloneLink]] = {}
    for link in c_links:
        added = set(invoked_names(link.target.raw_tokens)) - set(
            invoked_names(link.source.raw_tokens)
        )
        for name in sorted(added):
            per_name.setdefault(name, []).append(link)
    return [
        (method, links)
        for name, links in sorted(per_name.items())
        if len(links) >= 2
        for method in methods.get(name, ())
    ]


def label_lineage(
    lineage: Lineage, ctx: LabelContext, l_th: float = DEFAULTS.l_th
) -> LabelDecision:
    """Apply the three step criteria in order; earliest qualifying step wins."""
    for k in range(len(lineage.groups) - 1):
        (v_i, _), (v_i1, _) = lineage.groups[k], lineage.groups[k + 1]
        c = reduced_clones(lineage.links[k])
        if not c:
            continue
        best = None
        for method, links in new_invocations(c, ctx.methods_at(v_i1)):
            body = method_body_tokens(method)
            qualifying = []
            for link in links:
                removed = link.source.token_bag - link.target.token_bag
                score = overlap(removed, body)
                if score >= l_th:
                    qualifying.append((link, score))
            if len(qualifying) < 2:
                continue
            rank = (len(qualifying), sum(s for _, s in qualifying) / len(qualifying))
            if best is None or rank > best[0]:
                best = (rank, method, qualifying)
        if best is not None:
            _, method, qualifying = best
            evidence = {
                "method": method.enclosing_method_name,
                "method_path": method.path,
                "method_lines": [method.start_line, method.end_line],
                "clones": [
                    {
                        "path": link.source.path,
                        "lines": [link.source.start_line, link.source.end_line],
                        "similarity": score,
                    }
                    for link, score in qualifying
                ],
            }
            return LabelDecision(lineage.lineage_id, v_i, evidence)
    return LabelDecision(lineage.lineage_id, None, None)


def sweep(
    lineages: list[Lineage], ctx: LabelContext, thresholds: list[float]
) -> list[tuple[float, int]]:
    """R-label counts per threshold, mirroring the reported-groups table."""
    return [
        (th, sum(1 for lin in lineages if label_lineage(lin, ctx, th).label == "R"))
        for th in thresholds
    ]
