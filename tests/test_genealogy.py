"""Cross-version clone and group linking."""

from __future__ import annotations

import random

from conftest import span_block
from crec.clone_detector import CloneGroup
from crec.genealogy import build_genealogies, link_clones


def _group(version, members, gid) -> CloneGroup:
    return CloneGroup(
        version=version,
        members=tuple(sorted(members, key=lambda b: (b.path, b.brace))),
        group_id=gid,
    )


BASE = [f"t{i}" for i in range(40)]


class TestLinkClones:
    def test_identity_link_scores_one(self):
        a = span_block(BASE, path="a.java", start=5)
        b = span_block(BASE, path="a.java", start=5)
        links = link_clones([_group(0, [a, a], "g0")], [_group(1, [b, b], "g1")])
        assert len(links) == 1
        assert links[0].score == 1.0

    def test_no_link_when_file_gone(self):
        a = span_block(BASE, path="gone.java")
        b = span_block(BASE, path="other.java")
        links = link_clones([_group(0, [a, a], "g0")], [_group(1, [b, b], "g1")])
        assert links == []

    def test_prefers_higher_similarity(self):
        a = span_block(BASE, path="a.java", start=1)
        strong = span_block(BASE[:36] + ["x"] * 4, path="a.java", start=50)  # 0.9
        weak = span_block(BASE[:28] + ["y"] * 12, path="a.java", start=90)  # 0.7
        links = link_clones(
            [_group(0, [a, span_block(BASE, path="z.java")], "g0")],
            [_group(1, [strong, weak], "g1")],
        )
        by_source = {l.source: l for l in links}
        assert by_source[a].target is strong
        assert by_source[a].score == 0.9

    def test_scores_below_floor_discarded(self):
        a = span_block(BASE, path="a.java")
        faint = span_block(BASE[:10] + ["z"] * 30, path="a.java", start=60)  # 0.25
        links = link_clones(
            [_group(0, [a, a], "g0")], [_group(1, [faint, faint], "g1")]
        )
        assert links == []

    def test_one_to_one_partial_bijection(self):
        rng = random.Random(5)
        vocab = [f"v{i}" for i in range(8)]
        groups_a, groups_b = [], []
        for g in range(4):
            ms_a = [
                span_block([rng.choice(vocab) for _ in range(30)], path=f"f{g}.java", start=1 + 40 * i)
                for i in range(3)
            ]
            ms_b = [
                span_block([rng.choice(vocab) for _ in range(30)], path=f"f{g}.java", start=1 + 40 * i)
                for i in range(3)
            ]
            groups_a.append(_group(0, ms_a, f"a{g}"))
            groups_b.append(_group(1, ms_b, f"b{g}"))
        links = link_clones(groups_a, groups_b)
        assert len({l.source for l in links}) == len(links)
        assert len({l.target for l in links}) == len(links)


class TestLinkGroups:
    """A group's successor needs links from a majority (ceil of half) of its members."""

    def _linked(self, size_a, matched):
        members_a = [span_block(BASE, path=f"m{i}.java") for i in range(size_a)]
        members_b = [span_block(BASE, path=f"m{i}.java", start=60) for i in range(matched)]
        ga = _group(0, members_a, "ga")
        gb = _group(1, members_b + [span_block(BASE, path="extra.java", start=60)], "gb")
        lineages = build_genealogies([[ga], [gb]])
        chains = [[g.group_id for _, g in lin.groups] for lin in lineages]
        assert chains in ([["ga", "gb"]], [["ga"], ["gb"]])
        return chains == [["ga", "gb"]]

    def test_three_of_four_matched_links(self):
        assert self._linked(4, 3)

    def test_one_of_four_not_linked(self):
        assert not self._linked(4, 1)

    def test_one_of_two_links(self):
        assert self._linked(2, 1)  # ceil(2/2) = 1


def _evolution_fixture():
    """Four clones shrink to three, then to two, across three versions."""
    a0 = span_block(BASE, path="a.java", start=1)
    b0 = span_block(BASE, path="b.java", start=1)
    c0 = span_block(BASE, path="c.java", start=1)
    d0 = span_block(BASE, path="d.java", start=1)
    drift = BASE[:36] + ["changed"] * 4  # 0.9 to BASE
    a1 = span_block(drift, path="a.java", start=1)
    b1 = span_block(drift, path="b.java", start=1)
    c1 = span_block(BASE, path="c.java", start=1)
    a2 = span_block(drift, path="a.java", start=1)
    b2 = span_block(drift, path="b.java", start=1)
    g1 = _group(0, [a0, b0, c0, d0], "g1")
    g2 = _group(1, [a1, b1, c1], "g2")
    g3 = _group(2, [a2, b2], "g3")
    return [[g1], [g2], [g3]]


class TestBuildGenealogies:
    def test_stable_group_spans_all_versions(self):
        versions = [
            [_group(v, [span_block(BASE, path=p) for p in ("x.java", "y.java")], f"g{v}")]
            for v in range(4)
        ]
        lineages = build_genealogies(versions)
        assert len(lineages) == 1
        assert [v for v, _ in lineages[0].groups] == [0, 1, 2, 3]
        assert lineages[0].end_state == "alive_at_last_version"

    def test_vanishing_group_dissolves(self):
        g = _group(0, [span_block(BASE, path="x.java"), span_block(BASE, path="y.java")], "g0")
        lineages = build_genealogies([[g], []])
        assert len(lineages) == 1
        assert lineages[0].end_state == "dissolved"
        assert len(lineages[0].groups) == 1

    def test_shrinking_membership_chain(self):
        lineages = build_genealogies(_evolution_fixture())
        assert len(lineages) == 1
        lin = lineages[0]
        assert [g.group_id for _, g in lin.groups] == ["g1", "g2", "g3"]
        assert len(lin.links[0]) == 3  # majority of 4
        assert len(lin.links[1]) == 2  # ceil(3/2)

    def test_occurrences_partition_into_lineages(self):
        versions = _evolution_fixture()
        extra = _group(1, [span_block(["q"] * 35, path="q.java"), span_block(["q"] * 35, path="r.java")], "gx")
        versions[1].append(extra)
        lineages = build_genealogies(versions)
        seen = []
        for lin in lineages:
            seen.extend((v, g.group_id) for v, g in lin.groups)
        assert len(seen) == len(set(seen))
        all_occurrences = {(v, g.group_id) for v, groups in enumerate(versions) for g in groups}
        assert set(seen) == all_occurrences

    def test_competing_predecessors_resolved_once(self):
        # two groups at v0 both majority-match the same v1 group; only one wins
        a0 = span_block(BASE, path="a.java", start=1)
        b0 = span_block(BASE, path="b.java", start=1)
        c0 = span_block(BASE, path="c.java", start=1)
        ga = _group(0, [a0, b0], "ga")
        gb = _group(0, [c0], "gb")
        a1 = span_block(BASE, path="a.java", start=1)
        b1 = span_block(BASE, path="b.java", start=1)
        c1 = span_block(BASE, path="c.java", start=1)
        gm = _group(1, [a1, b1, c1], "gm")
        lineages = build_genealogies([[ga, gb], [gm]])
        extended = [lin for lin in lineages if len(lin.groups) == 2]
        assert len(extended) == 1
        assert extended[0].groups[0][1].group_id == "ga"  # 2 matches beat 1

    def test_deterministic_across_runs(self):
        versions = _evolution_fixture()
        first = build_genealogies(versions)
        second = build_genealogies(versions)
        assert [l.lineage_id for l in first] == [l.lineage_id for l in second]
        assert [l.end_state for l in first] == [l.end_state for l in second]
