"""The 34 numeric features describing a clone group at one version.

`FEATURES` below is their one definition: number, name, category and range of
F1..F34 (the README's "Artifact formats" section shows the same table).
Per-clone features (F1-F17) cover code shape and file history and are
mean-aggregated over group members; group features (F18-F34) cover relative
location, token-level differences, and co-change behavior. A `FeatureRow`
carries one vector, with its label, from featurize to train and evaluate. All
classification of identifiers is lexical, not type-resolved.
"""

from __future__ import annotations

import posixpath
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .clone_detector import CodeBlock, Token
from .config import DEFAULTS
from .errors import RangeViolation
from .repo_miner import CheckedWindow, hunk_touches, distinct_authors
from .repo_miner import _lcs_pairs  # shared LCS core

if TYPE_CHECKING:
    from .genealogy import Lineage
    from .pipeline import VersionData

# F1..F34 in order as (name, category, kind); kind is the range that
# validate_values checks: count (>= 0), ratio (in [0, 1]) or bool (exactly 0 or
# 1). F8-F11 are boolean per clone, but mean aggregation puts the group value in
# [0, 1], so they are ratios.
FEATURES = (
    ("lines_of_code", "Code", "count"),
    ("token_count", "Code", "count"),
    ("cyclomatic_complexity", "Code", "count"),
    ("field_accesses", "Code", "count"),
    ("invocation_stmt_ratio", "Code", "ratio"),
    ("method_line_ratio", "Code", "ratio"),
    ("arithmetic_stmt_ratio", "Code", "ratio"),
    ("complete_block", "Code", "ratio"),
    ("starts_with_control", "Code", "ratio"),
    ("follows_control", "Code", "ratio"),
    ("is_test_code", "Code", "ratio"),
    ("file_existence_ratio", "History", "ratio"),
    ("file_change_ratio", "History", "ratio"),
    ("dir_change_ratio", "History", "ratio"),
    ("recent_file_change_ratio", "History", "ratio"),
    ("recent_dir_change_ratio", "History", "ratio"),
    ("author_ratio", "History", "ratio"),
    ("same_directory", "Location", "bool"),
    ("same_file", "Location", "bool"),
    ("same_class_hierarchy", "Location", "bool"),
    ("same_method", "Location", "bool"),
    ("method_name_distance", "Location", "count"),
    ("copied_dir_score", "Location", "ratio"),
    ("group_size", "Diff", "count"),
    ("diff_count", "Diff", "count"),
    ("partial_diff_ratio", "Diff", "ratio"),
    ("variable_diff_ratio", "Diff", "ratio"),
    ("method_diff_ratio", "Diff", "ratio"),
    ("type_diff_ratio", "Diff", "ratio"),
    ("all_change_ratio", "CoChange", "ratio"),
    ("no_change_ratio", "CoChange", "ratio"),
    ("one_change_ratio", "CoChange", "ratio"),
    ("two_change_ratio", "CoChange", "ratio"),
    ("three_change_ratio", "CoChange", "ratio"),
)
FEATURE_NAMES = tuple(name for name, _, _ in FEATURES)
# category -> its 1-based feature numbers, in table order
FEATURE_CATEGORIES = {
    category: tuple(num for num, (_, c, _) in enumerate(FEATURES, 1) if c == category)
    for category in dict.fromkeys(c for _, c, _ in FEATURES)
}
# Code and History are computed per clone, then aggregated over the members
_PER_CLONE = len(FEATURE_CATEGORIES["Code"]) + len(FEATURE_CATEGORIES["History"])

_DECISION_POINTS = frozenset({"if", "for", "while", "case", "catch", "&&", "||", "?"})
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
_CONTROL_STARTERS = frozenset({"if", "for", "while", "switch", "do", "try"})
_CONTROL_KEYWORDS = _CONTROL_STARTERS | {"else", "catch", "finally"}
_INCOMPLETE_STARTERS = frozenset({"else", "catch", "finally", "case"})
_PRIMITIVES = frozenset({"int", "long", "short", "byte", "float", "double", "boolean", "char", "var"})


class FeatureRow(NamedTuple):
    """The feature vector of a lineage's group at one version, with its label:
    1 = refactored, 0 = not, None = unlabeled."""

    lineage_id: str
    version: int
    values: tuple[float, ...]  # index 0 holds F1
    label: int | None


class AlignedToken(NamedTuple):
    text: str
    category: str  # variable | method | type | none


class DifferentialMultiset(NamedTuple):
    entries: tuple[AlignedToken | None, ...]  # one slot per member, None = gap
    partially_same: bool
    contains_variable: bool
    contains_method: bool
    contains_type: bool


class TokenMultisetDiff(NamedTuple):
    matched: tuple[tuple[AlignedToken | None, ...], ...]
    differential: tuple[DifferentialMultiset, ...]


def _outermost(blocks: Sequence[CodeBlock]) -> list[tuple[CodeBlock, list[CodeBlock]]]:
    """Each of *blocks*, which come in the order of their ``{``, that no other
    of them holds, with the blocks that it holds."""
    outer: list[tuple[CodeBlock, list[CodeBlock]]] = []
    for block in blocks:
        if outer and block.brace < outer[-1][0].stop:
            outer[-1][1].append(block)
        else:
            outer.append((block, []))
    return outer


def file_context(blocks: list[CodeBlock]) -> frozenset[str]:
    """Names declared in the ``;``-ended statements among the own tokens of
    each outermost block of a file's `extract_blocks`: those inside its braces
    and outside the braces of the blocks it holds. A held block ends its
    statement, unless the statement's first ``(`` or ``=`` before it is an
    ``=``: then the block is part of an initializer and the statement goes on.
    An enum's constant list, the first statement of its body, declares none.
    A shallow scan, read by F4."""
    names: set[str] = set()
    for outer, held in _outermost(blocks):
        header = outer.lex[outer.first : outer.brace]
        constants = any(t.kind == "keyword" and t.text == "enum" for t in header)
        start, segment = outer.brace + 1, []
        for end, resume in [(b.brace, b.stop) for b, _ in _outermost(held)] + [(outer.stop - 1, 0)]:
            for t in outer.lex[start:end]:
                # a brace here belongs to a block of punctuation alone, which `extract_blocks` drops
                if t.kind == "punct" and t.text in (";", "{", "}"):
                    if t.text == ";":
                        names |= set() if constants else _declared_names(segment)
                        constants = False
                    segment = []
                else:
                    segment.append(t)
            if _opener(segment) != "=":
                segment = []
            start = resume
    return frozenset(names)


def _opener(segment: list[Token]) -> str | None:
    """The first ``(`` or ``=`` of a statement: ``=`` starts a field's
    initializer, and ``(`` before any ``=`` a method's parameters."""
    return next((t.text for t in segment if t.kind == "punct" and t.text in ("(", "=")), None)


def _declared_names(segment: list[Token]) -> set[str]:
    """The names a field declaration declares, read up to its first ``(``, so
    that the calls and lambdas of an initializer declare none."""
    if _opener(segment) == "(":
        return set()  # abstract/native method declaration, not a field
    paren = next((i for i, t in enumerate(segment) if t.kind == "punct" and t.text == "("), None)
    segment = segment[:paren]
    names = set()
    for i, t in enumerate(segment):
        if t.kind != "identifier":
            continue
        prev = segment[i - 1] if i > 0 else None
        nxt = segment[i + 1] if i + 1 < len(segment) else None
        prev_ok = prev is not None and (
            prev.kind == "identifier"
            or (prev.kind == "keyword" and prev.text in _PRIMITIVES)
            or (prev.kind == "punct" and prev.text in ("]", ">", ","))
        )
        nxt_ok = nxt is None or (nxt.kind == "punct" and nxt.text in ("=", ",", "["))
        if prev_ok and nxt_ok:
            names.add(t.text)
    return names


# -- per-clone code features (F1-F11) ----------------------------------------


def _statements(raw: tuple[Token, ...]) -> list[list[Token]]:
    """Semicolon-terminated token runs, leading braces stripped."""
    statements = []
    current: list[Token] = []
    for t in raw:
        if t.kind == "punct" and t.text == ";":
            if current:
                statements.append(current)
            current = []
        elif t.kind == "punct" and t.text in ("{", "}") and not current:
            continue
        else:
            current.append(t)
    return statements


def _is_invocation(stmt: list[Token]) -> bool:
    i = 0
    if i >= len(stmt) or stmt[i].kind != "identifier":
        return False
    i += 1
    while i + 1 < len(stmt) and stmt[i].text == "." and stmt[i + 1].kind == "identifier":
        i += 2
    return i < len(stmt) and stmt[i].kind == "punct" and stmt[i].text == "("


def _is_arithmetic(stmt: list[Token]) -> bool:
    for i, t in enumerate(stmt):
        if t.kind == "punct" and t.text in _ARITHMETIC_OPS:
            prev = stmt[i - 1] if i > 0 else None
            nxt = stmt[i + 1] if i + 1 < len(stmt) else None
            if prev is not None and prev.kind == "literal" and prev.text[:1] in "\"'":
                continue  # string concatenation, not arithmetic
            if nxt is not None and nxt.kind == "literal" and nxt.text[:1] in "\"'":
                continue
            return True
    return False


def _braces_balanced(raw: tuple[Token, ...]) -> bool:
    depth = 0
    for t in raw:
        if t.kind == "punct" and t.text == "{":
            depth += 1
        elif t.kind == "punct" and t.text == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _is_test_path(path: str) -> bool:
    parts = path.split("/")
    if any(p.lower() in ("test", "tests") for p in parts[:-1]):
        return True
    stem = posixpath.splitext(parts[-1])[0]
    return stem.endswith("Test") or stem.endswith("Tests")


def extract_code_features(clone: CodeBlock, field_names: frozenset[str]) -> tuple[float, ...]:
    """F1-F11 of *clone*; *field_names* is the `file_context` of the blocks
    of its file, the blocks *clone* is one of. F8's brace check reads the
    clone's own span, which only a header that holds braces can unbalance."""
    raw = clone.raw_tokens
    f1 = float(clone.line_span)
    f2 = float(clone.size)
    f3 = 1.0 + sum(1 for t in raw if t.text in _DECISION_POINTS)

    f4 = 0.0
    for i, t in enumerate(raw):
        if t.kind != "identifier":
            continue
        after_this = (
            i >= 2
            and raw[i - 1].kind == "punct"
            and raw[i - 1].text == "."
            and raw[i - 2].text == "this"
        )
        if after_this or t.text in field_names:
            f4 += 1.0

    stmts = _statements(raw)
    f5 = sum(1 for s in stmts if _is_invocation(s)) / len(stmts) if stmts else 0.0
    f6 = clone.line_span / clone.method.line_span if clone.method is not None else 1.0
    f7 = sum(1 for s in stmts if _is_arithmetic(s)) / len(stmts) if stmts else 0.0

    first = next((t.text for t in raw if t.kind != "punct"), "")
    f8 = 1.0 if _braces_balanced(raw) and first not in _INCOMPLETE_STARTERS else 0.0
    f9 = 1.0 if first in _CONTROL_STARTERS else 0.0

    # F10 reads the first token of the nearest earlier line that holds a token
    # (a control keyword's text always lexes as a keyword)
    lines, i = clone.lex.lines, clone.first - 1
    while i >= 0 and lines[i] == clone.start_line:
        i -= 1
    while i > 0 and lines[i - 1] == lines[i]:
        i -= 1
    f10 = 1.0 if i >= 0 and clone.lex[i].text in _CONTROL_KEYWORDS else 0.0

    f11 = 1.0 if _is_test_path(clone.path) else 0.0
    return (f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11)


# -- per-clone history features (F12-F17) -------------------------------------


def extract_history_features(
    path: str, window: CheckedWindow, vdata: VersionData, commits
) -> tuple[float, ...]:
    if not window.steps:
        return (0.0,) * 6
    n = len(window.steps)
    recent_from = n - len(window.recent_steps)
    directory = posixpath.dirname(path)
    exists = changed = dir_changed = recent_changed = recent_dir = 0
    for i, (a, b) in enumerate(window.steps):
        if vdata.exists(b.index, path):
            exists += 1
        paths = vdata.changed_paths(a.index, b.index)
        touched = path in paths
        dir_touched = any(posixpath.dirname(p) == directory for p in paths)
        changed += touched
        dir_changed += dir_touched
        if i >= recent_from:
            recent_changed += touched
            recent_dir += dir_touched
    recent_n = n - recent_from
    touching, everyone = distinct_authors(path, commits)
    return (
        exists / n,
        changed / n,
        dir_changed / n,
        recent_changed / recent_n if recent_n else 0.0,
        recent_dir / recent_n if recent_n else 0.0,
        touching / everyone if everyone else 0.0,
    )


# -- group location features (F18-F23) ----------------------------------------


def top_level_classes(blocks: list[CodeBlock]) -> list[tuple[str, CodeBlock, list[str]]]:
    """(name, body block, related names) for each top-level type among a file's
    `extract_blocks`, which come in the order of their ``{``: a block that no
    other holds, whose header holds ``class``, ``interface`` or ``enum`` and a
    name, and then the related names after ``extends`` or ``implements``,
    generics skipped."""
    classes = []
    for block, _ in _outermost(blocks):
        header = block.lex[block.first : block.brace]
        for i, (t, name) in enumerate(zip(header, header[1:])):
            if t.text in ("class", "interface", "enum") and name.kind == "identifier":
                break
        else:
            continue  # no type declared here
        related, in_generics, collecting = [], 0, False
        for t in header[i + 2 :]:
            if t.text == "<":
                in_generics += 1
            elif t.text in (">", ">>", ">>>"):  # `scan` lexes `>>` as one token
                in_generics -= len(t.text)
            elif t.text in ("extends", "implements"):
                collecting = True
            elif collecting and not in_generics and t.kind == "identifier":
                related.append(t.text)
        classes.append((name.text, block, related))
    return classes


def hierarchy_components(classes: Iterable[list]) -> dict[str, int]:
    """Connected components of the shallow extends/implements graph over a
    version's types, keyed by type name; *classes* holds the
    `top_level_classes` of each of the version's source files, in path order."""
    adjacency: dict[str, set[str]] = {}
    for file_classes in classes:
        for name, _, related in file_classes:
            adjacency.setdefault(name, set())
            for other in related:
                adjacency.setdefault(other, set())
                adjacency[name].add(other)
                adjacency[other].add(name)
    component: dict[str, int] = {}
    for idx, root in enumerate(sorted(adjacency)):
        if root in component:
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component[node] = idx
            stack.extend(adjacency[node])
    return component


def _member_class(member: CodeBlock, classes: list) -> str | None:
    """The type of *classes*, the `top_level_classes` of the member's file,
    whose braces, in the member's own token list, hold the member's ``{``; a
    type's body block belongs to that type."""
    for name, body, _ in classes:
        if body.lex is member.lex and body.brace <= member.brace < body.stop:
            return name
    return None


def path_copy_score(dir_a: str, dir_b: str, corpus_paths: Iterable[str]) -> float:
    """Shared-suffix ratio of two directories scaled by sibling-file overlap."""
    seg_a = [s for s in dir_a.split("/") if s]
    seg_b = [s for s in dir_b.split("/") if s]
    if not seg_a or not seg_b:
        return 0.0
    suffix = 0
    while (
        suffix < len(seg_a)
        and suffix < len(seg_b)
        and seg_a[-1 - suffix] == seg_b[-1 - suffix]
    ):
        suffix += 1
    ratio = suffix / min(len(seg_a), len(seg_b))
    names_a = {posixpath.basename(p) for p in corpus_paths if posixpath.dirname(p) == dir_a}
    names_b = {posixpath.basename(p) for p in corpus_paths if posixpath.dirname(p) == dir_b}
    union = names_a | names_b
    overlap = len(names_a & names_b) / len(union) if union else 0.0
    return ratio * overlap


def extract_location_features(group, vdata: VersionData) -> tuple[float, ...]:
    """F18-F23 of a group among the source files of its version, whose types
    and their hierarchy *vdata* finds among the blocks the members are from."""
    version = group.version
    members = group.members
    dirs = [posixpath.dirname(m.path) for m in members]
    f18 = 1.0 if len(set(dirs)) == 1 else 0.0
    f19 = 1.0 if len({m.path for m in members}) == 1 else 0.0

    classes = [_member_class(m, vdata.classes(version, m.path)) for m in members]
    if None not in classes:
        ids = {vdata.hierarchy(version).get(c) for c in classes}
        f20 = 1.0 if len(ids) == 1 and None not in ids else 0.0
    else:
        f20 = 0.0

    methods = {m.method for m in members}
    f21 = 1.0 if len(methods) == 1 and None not in methods else 0.0

    names = [m.enclosing_method_name or "" for m in members]
    f22 = float(
        min(
            levenshtein(names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        )
    )

    paths = vdata.files(version)
    f23 = max(
        path_copy_score(dirs[i], dirs[j], paths)
        for i in range(len(dirs))
        for j in range(i + 1, len(dirs))
    )
    return (f18, f19, f20, f21, f22, f23)


# -- token alignment and diff features (F24-F29) -------------------------------


def classify_identifier(raw_tokens: Sequence[Token], i: int) -> str:
    """Lexical role of raw_tokens[i]: variable, method, type, or none."""
    t = raw_tokens[i]
    if t.kind != "identifier":
        return "none"
    prev = raw_tokens[i - 1] if i > 0 else None
    nxt = raw_tokens[i + 1] if i + 1 < len(raw_tokens) else None
    nxt2 = raw_tokens[i + 2] if i + 2 < len(raw_tokens) else None
    if prev is not None and prev.kind == "keyword" and prev.text == "new":
        return "type"
    if nxt is not None and nxt.kind == "punct" and nxt.text == "(":
        return "method"
    if prev is not None and prev.kind == "keyword" and prev.text in (
        "extends",
        "implements",
        "instanceof",
    ):
        return "type"
    if nxt is not None and nxt.kind == "identifier":
        return "type"  # declaration pattern: first of an identifier pair
    if (
        prev is not None
        and prev.kind == "punct"
        and prev.text == "("
        and nxt is not None
        and nxt.kind == "punct"
        and nxt.text == ")"
        and nxt2 is not None
        and (nxt2.kind in ("identifier", "literal") or nxt2.text == "(")
    ):
        return "type"  # cast
    return "variable"


def classified_sequence(block: CodeBlock) -> list[AlignedToken]:
    """The block's token sequence with each identifier's lexical role attached."""
    out, raw = [], block.raw_tokens
    for i, t in enumerate(raw):
        if t.kind == "punct":
            continue
        category = classify_identifier(raw, i) if t.kind == "identifier" else "none"
        out.append(AlignedToken(t.text, category))
    return out


def _majority_text(column: list[AlignedToken | None]) -> str:
    counts = Counter(e.text for e in column if e is not None)
    return min(counts, key=lambda text: (-counts[text], text))


def multiset_diff(sequences: list[list[AlignedToken]]) -> TokenMultisetDiff:
    """Progressively align token sequences by text LCS into per-column multisets.

    Columns where every member holds the same text are matched; all others are
    differential. Gaps are explicit so token occurrences are conserved.
    """
    if len(sequences) < 2:
        raise ValueError("need at least 2 sequences")
    columns: list[list[AlignedToken | None]] = [[tok] for tok in sequences[0]]
    for width, seq in enumerate(sequences[1:], 1):
        consensus = [_majority_text(col) for col in columns]
        pairs = _lcs_pairs(consensus, [t.text for t in seq])
        merged: list[list[AlignedToken | None]] = []
        ci = si = 0
        for pc, ps in pairs + [(len(columns), len(seq))]:
            run = max(pc - ci, ps - si)
            for k in range(run):
                col = columns[ci + k] if ci + k < pc else [None] * width
                tok = seq[si + k] if si + k < ps else None
                merged.append(col + [tok])
            if pc < len(columns):
                merged.append(columns[pc] + [seq[ps]])
            ci, si = pc + 1, ps + 1
        columns = merged

    matched = []
    differential = []
    for col in columns:
        texts = [e.text for e in col if e is not None]
        if len(texts) == len(col) and len(set(texts)) == 1:
            matched.append(tuple(col))
            continue
        multiplicity = max(Counter(texts).values())
        categories = {e.category for e in col if e is not None}
        differential.append(
            DifferentialMultiset(
                entries=tuple(col),
                partially_same=multiplicity >= 2,
                contains_variable="variable" in categories,
                contains_method="method" in categories,
                contains_type="type" in categories,
            )
        )
    return TokenMultisetDiff(matched=tuple(matched), differential=tuple(differential))


def extract_diff_features(group) -> tuple[float, ...]:
    sequences = [classified_sequence(m) for m in group.members]
    diff = multiset_diff(sequences)
    f24 = float(len(group.members))
    f25 = float(len(diff.differential))
    if not diff.differential:
        return (f24, 0.0, 0.0, 0.0, 0.0, 0.0)
    total = len(diff.differential)
    f26 = sum(1 for d in diff.differential if d.partially_same) / total
    f27 = sum(1 for d in diff.differential if d.contains_variable) / total
    f28 = sum(1 for d in diff.differential if d.contains_method) / total
    f29 = sum(1 for d in diff.differential if d.contains_type) / total
    return (f24, f25, f26, f27, f28, f29)


# -- group co-change features (F30-F34) ---------------------------------------


def _chain_ids(lineage: Lineage) -> dict[tuple[int, CodeBlock], int]:
    """(version, block) -> the id of its chain. A chain follows member links
    from block to block, not by lines, which two blocks can share."""
    chain_of: dict[tuple[int, CodeBlock], int] = {}
    for k, (v, g) in enumerate(lineage.groups):
        for link in lineage.links[k - 1] if k else ():
            cid = chain_of.get((lineage.groups[k - 1][0], link.source))
            if cid is not None:
                chain_of[v, link.target] = cid
        for b in g.members:  # an unlinked member starts a chain; every id so far is below len
            chain_of.setdefault((v, b), len(chain_of))
    return chain_of


def extract_cochange_features(
    group, lineage: Lineage, version: int, window: CheckedWindow, vdata: VersionData
) -> tuple[float, ...]:
    if not window.steps:
        return (0.0,) * 5
    chain_of = _chain_ids(lineage)
    positions = {(v, cid): block for (v, block), cid in chain_of.items()}
    member_chains = [chain_of.get((version, m)) for m in group.members]

    n = len(window.steps)
    members = len(group.members)
    all_changed = none_changed = 0
    partial = Counter()  # exactly-k buckets, disjoint from the all-changed case
    for sample_a, sample_b in window.steps:
        v = sample_a.index
        changed = 0
        for cid in member_chains:
            if cid is None:
                continue  # untracked members count as unchanged
            block = positions.get((v, cid))
            if block is None:
                continue
            hunks = vdata.hunks(v, sample_b.index, block.path)
            if any(hunk_touches(h, block.start_line, block.end_line) for h in hunks):
                changed += 1
        if changed == members:
            all_changed += 1
        elif changed == 0:
            none_changed += 1
        elif changed <= 3:
            partial[changed] += 1

    return (
        all_changed / n,
        none_changed / n,
        partial[1] / n,
        partial[2] / n,
        partial[3] / n,
    )


# -- assembly ------------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[len(b)]


def validate_values(values: tuple[float, ...]) -> None:
    if len(values) != len(FEATURES):
        raise RangeViolation(f"expected {len(FEATURES)} features, got {len(values)}")
    for num, ((_, _, kind), value) in enumerate(zip(FEATURES, values), 1):
        if kind == "bool" and value not in (0.0, 1.0):
            raise RangeViolation(f"F{num}={value} not boolean")
        if kind == "ratio" and not 0.0 <= value <= 1.0:
            raise RangeViolation(f"F{num}={value} outside [0,1]")
        if kind == "count" and value < 0:
            raise RangeViolation(f"F{num}={value} negative")


def assemble_vector(
    per_clone_rows: list[tuple[float, ...]],
    group_values: tuple[float, ...],
    aggregation: str = DEFAULTS.aggregation,
) -> tuple[float, ...]:
    """Aggregate per-clone F1-F17 rows, append group F18-F34, and validate."""
    group_count = len(FEATURES) - _PER_CLONE
    if not per_clone_rows or any(len(r) != _PER_CLONE for r in per_clone_rows):
        raise ValueError(f"need one {_PER_CLONE}-value row per member")
    if len(group_values) != group_count:
        raise ValueError(f"need {group_count} group-level values")
    columns = zip(*per_clone_rows)
    if aggregation == "mean":
        agg = tuple(sum(column) / len(per_clone_rows) for column in columns)
    elif aggregation == "max":
        agg = tuple(max(column) for column in columns)
    else:
        raise ValueError(f"unknown aggregation: {aggregation}")
    values = agg + tuple(group_values)
    validate_values(values)
    return values
