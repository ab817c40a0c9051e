"""Links clones and clone groups across consecutive sampled versions."""

from __future__ import annotations

from typing import NamedTuple

from .clone_detector import CloneGroup, CodeBlock, similarity
from .config import DEFAULTS


class CloneLink(NamedTuple):
    source: CodeBlock  # at version i
    target: CodeBlock  # at version i+1
    score: float


class Lineage:
    def __init__(self, lineage_id: str, groups: list[tuple[int, CloneGroup]],
                 links: list[list[CloneLink]], end_state: str):
        self.lineage_id = lineage_id
        self.groups = groups  # strictly increasing version indices
        self.links = links  # links[k] joins groups[k] to groups[k+1]
        self.end_state = end_state  # alive_at_last_version | dissolved


def link_clones(
    groups_i: list[CloneGroup],
    groups_i1: list[CloneGroup],
    link_floor: float = DEFAULTS.link_floor,
) -> list[CloneLink]:
    """One-to-one successor links between the clones of two consecutive versions.

    Candidates are restricted to the same file path; assignment is greedy by
    descending similarity with deterministic tie-breaks (closest start line,
    then path, then the order of the source's and the target's ``{``).
    Scores below *link_floor* are discarded.
    """
    sources = _distinct_members(groups_i)
    targets = _distinct_members(groups_i1)
    by_path: dict[str, list[CodeBlock]] = {}
    for b in targets:
        by_path.setdefault(b.path, []).append(b)

    candidates = []
    for a in sources:
        for b in by_path.get(a.path, ()):
            score = similarity(a, b)
            if score >= link_floor:
                candidates.append((a, b, score))
    candidates.sort(
        key=lambda c: (
            -c[2], abs(c[0].start_line - c[1].start_line), c[0].path, c[0].brace, c[1].brace
        )
    )
    kept = _greedy_one_to_one(candidates, lambda c: c[:2])
    return [CloneLink(a, b, score) for a, b, score in kept]


def _greedy_one_to_one(candidates: list, sides) -> list:
    """The candidates, in order, that take a left and a right side both still free.

    *sides* maps a candidate to its (left, right) pair of hashable keys.
    """
    used_left: set = set()
    used_right: set = set()
    kept = []
    for c in candidates:
        left, right = sides(c)
        if left not in used_left and right not in used_right:
            used_left.add(left)
            used_right.add(right)
            kept.append(c)
    return kept


def _distinct_members(groups: list[CloneGroup]) -> list[CodeBlock]:
    return list(dict.fromkeys(b for g in groups for b in g.members))


def _match_groups(
    groups_a: list[CloneGroup], groups_b: list[CloneGroup], links: list[CloneLink]
) -> dict[str, tuple[CloneGroup, list[CloneLink]]]:
    """Best one-to-one group successor map for one version step.

    A pair of groups qualifies when member links join a majority (ceil of
    half) of the earlier group's members to the later group.
    """
    owner_a = {b: g for g in groups_a for b in g.members}
    owner_b = {b: g for g in groups_b for b in g.members}
    by_id_b = {g.group_id: g for g in groups_b}
    pair_links: dict[tuple[str, str], list[CloneLink]] = {}
    for l in links:
        ga = owner_a.get(l.source)
        gb = owner_b.get(l.target)
        if ga is not None and gb is not None:
            pair_links.setdefault((ga.group_id, gb.group_id), []).append(l)

    by_id_a = {g.group_id: g for g in groups_a}
    candidates = [
        (-len(ls), ida, idb)
        for (ida, idb), ls in pair_links.items()
        if len(ls) >= (len(by_id_a[ida].members) + 1) // 2
    ]
    candidates.sort()
    return {
        ida: (by_id_b[idb], pair_links[(ida, idb)])
        for _, ida, idb in _greedy_one_to_one(candidates, lambda c: c[1:])
    }


def build_genealogies(
    all_versions_groups: list[list[CloneGroup]], link_floor: float = DEFAULTS.link_floor
) -> list[Lineage]:
    """Stitch step-wise group links into maximal lineages.

    Every (version, group) occurrence lands in exactly one lineage; a group
    without a predecessor starts a new one.
    """
    last_version = len(all_versions_groups) - 1
    lineages: list[Lineage] = []
    tips: dict[str, Lineage] = {}  # group_id at current version -> lineage

    for v, groups in enumerate(all_versions_groups):
        for g in sorted(groups, key=lambda g: g.group_id):
            if g.group_id not in tips:
                lin = Lineage(
                    lineage_id=f"lin-{v}-{g.group_id}",
                    groups=[(v, g)],
                    links=[],
                    end_state="dissolved",
                )
                lineages.append(lin)
                tips[g.group_id] = lin
        if v == last_version:
            break
        step_links = link_clones(groups, all_versions_groups[v + 1], link_floor)
        successor = _match_groups(groups, all_versions_groups[v + 1], step_links)
        next_tips: dict[str, Lineage] = {}
        for group_id, lin in tips.items():
            if group_id in successor:
                gb, ls = successor[group_id]
                lin.groups.append((v + 1, gb))
                lin.links.append(sorted(ls, key=lambda l: (l.source.path, l.source.brace)))
                next_tips[gb.group_id] = lin
        tips = next_tips

    for lin in lineages:
        if lin.groups[-1][0] == last_version:
            lin.end_state = "alive_at_last_version"
    lineages.sort(key=lambda l: (l.groups[0][0], l.groups[0][1].group_id))
    return lineages
