"""Feature extraction: code shape, history, location, token diffs, co-change."""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from clone_fixtures import CONTROLS, PLANTED, end_to_end_corpora
from conftest import (
    SnapshotRepo,
    lex_file_context,
    lex_member_class,
    lex_top_level_classes,
    span_block,
)
from crec.clone_detector import CloneGroup, CodeBlock, extract_blocks, scan
from crec.errors import RangeViolation
from crec.features import (
    FEATURES,
    AlignedToken,
    _member_class,
    assemble_vector,
    classified_sequence,
    classify_identifier,
    extract_cochange_features,
    extract_code_features,
    extract_diff_features,
    extract_history_features,
    extract_location_features,
    file_context,
    levenshtein,
    multiset_diff,
    path_copy_score,
    top_level_classes,
    validate_values,
)
from crec.genealogy import CloneLink, Lineage
from crec.pipeline import VersionData
from crec.repo_miner import CommitRecord, SampledVersion, checked_window

FOR_CLONE = """\
void wrap() {
    for (Item k : items) {
        a = b + c;

        foo();

    }
}
"""


def _blocks(source: str, path: str = "A.java") -> list[CodeBlock]:
    return extract_blocks(scan(source), path)


def _body_in(blocks: list[CodeBlock], name: str) -> CodeBlock:
    return next(b for b in blocks if b.enclosing_method_name == name and b.method is b)


def _method_block(source: str, name: str, path: str = "A.java") -> CodeBlock:
    return _body_in(_blocks(source, path), name)


class TestCodeFeatures:
    def test_for_loop_clone(self):
        loop = next(b for b in _blocks(FOR_CLONE) if b.tokens[0].text == "for")
        f = extract_code_features(loop, file_context(_blocks(FOR_CLONE)))
        assert f[0] == 6.0  # F1 line span
        assert f[2] == 2.0  # F3: base 1 + the for
        assert f[4] == 0.5  # F5: foo() of two statements
        assert f[6] == 0.5  # F7: the b + c statement
        assert f[8] == 1.0  # F9 starts with control
        assert f[5] == 6 / 8  # F6: loop lines over method lines

    def test_straight_line_block(self):
        source = "void tick() {\n    advance();\n}\n"
        block = _method_block(source, "tick")
        f = extract_code_features(block, file_context(_blocks(source)))
        assert f[2] == 1.0  # F3 base complexity
        assert f[7] == 1.0  # F8 complete block
        assert f[8] == 0.0  # F9 not a control starter
        assert f[5] == 1.0  # F6: the block is its own method

    def test_decision_points_counted(self):
        source = (
            "void paths(int n) {\n"
            "    if (n > 0 && n < 9) { n = n; }\n"
            "    while (n > 1 || n < 0) { n = n ? 1 : 0; }\n"
            "}\n"
        )
        block = _method_block(source, "paths")
        f = extract_code_features(block, file_context(_blocks(source)))
        assert f[2] == 1.0 + 5  # if, &&, while, ||, ?

    def test_field_access_count(self):
        source = (
            "class Holder {\n"
            "    private int counter;\n"
            "    int limit = 5;\n"
            "    void bump() {\n"
            "        counter = counter + 1;\n"
            "        this.counter = limit;\n"
            "        local = 3;\n"
            "    }\n"
            "}\n"
        )
        block = _method_block(source, "bump")
        field_names = file_context(_blocks(source))
        assert field_names == {"counter", "limit"}
        f = extract_code_features(block, field_names)
        assert f[3] == 4.0  # counter x2, this.counter, limit

    def test_incomplete_block_starters(self):
        source = "void f() {\n    if (a) {\n        b();\n    } else {\n        c();\n    }\n}\n"
        blocks = _blocks(source)
        else_block = next(b for b in blocks if b.tokens and b.tokens[0].text == "else")
        f = extract_code_features(else_block, file_context(_blocks(source)))
        assert f[7] == 0.0  # F8: else branch is an incomplete control flow

    def test_follows_control_line(self):
        source = (
            "void f() {\n"
            "    while (busy) spin();\n"
            "    {\n"
            "        step();\n"
            "    }\n"
            "}\n"
        )
        bare = next(b for b in _blocks(source) if b.start_line == 3)
        f = extract_code_features(bare, file_context(_blocks(source)))
        assert f[9] == 1.0
        negative = (
            "void f() {\n"
            "    prime();\n"
            "    {\n"
            "        step();\n"
            "    }\n"
            "}\n"
        )
        bare = next(b for b in _blocks(negative) if b.start_line == 3)
        f = extract_code_features(bare, file_context(_blocks(negative)))
        assert f[9] == 0.0

    @pytest.mark.parametrize("separator", ["\f", "\u2028", "\r"], ids=["ff", "u2028", "bare-cr"])
    def test_follows_control_counts_lines_as_scan_does(self, separator):
        # str.splitlines also breaks at these characters; scan's line numbers do not
        source = (
            f"// header{separator}note\n"
            "void f() {\n"
            "    while (x > 0) x--;\n"
            "    {\n"
            "        step();\n"
            "    }\n"
            "}\n"
        )
        bare = next(b for b in _blocks(source) if b.start_line == 4)
        f = extract_code_features(bare, file_context(_blocks(source)))
        assert f[9] == 1.0

    @pytest.mark.parametrize(
        "before,expected",
        [
            ("    /* retry\n       do not */\n", 0.0),
            ("    /* retry\n    */ while (x) x--;\n", 1.0),
            ("    if (ready) step();\n    // then\n", 1.0),
        ],
        ids=["keyword-in-comment", "keyword-after-comment", "comment-line-skipped"],
    )
    def test_follows_control_skips_comments(self, before, expected):
        # F10 reads the block's own tokens: comment text is not code, and a
        # line that holds only a comment is skipped as a blank line is
        source = "void f() {\n" + before + "    {\n        step();\n    }\n}\n"
        bare = next(b for b in _blocks(source) if b.tokens[0].text == "step")
        f = extract_code_features(bare, file_context(_blocks(source)))
        assert f[9] == expected

    @pytest.mark.parametrize(
        "path,expected",
        [
            ("src/test/Foo.java", 1.0),
            ("src/tests/deep/Foo.java", 1.0),
            ("src/main/FooTest.java", 1.0),
            ("src/main/FooTests.java", 1.0),
            ("src/main/Foo.java", 0.0),
            ("src/testing/Foo.java", 0.0),
        ],
    )
    def test_test_code_paths(self, path, expected):
        source = "void f() {\n    a();\n}\n"
        block = extract_blocks(scan(source), path)[0]
        f = extract_code_features(block, file_context(_blocks(source)))
        assert f[10] == expected


def _history_view(edits):
    """A window over a base snapshot and one more per edit (files merged over the
    one before), the VersionData that answers it, and one commit per snapshot by
    one author."""
    snapshots = [{"src/a.java": "class A { int x; }\n", "lib/other.java": "class O { int y; }\n"}]
    for extra in edits:
        snapshots.append({**snapshots[-1], **extra})
    samples = [SampledVersion(i, f"v{i}", 1) for i in range(len(snapshots))]
    commits = [
        CommitRecord(f"v{i}", i, "dev one <dev1@example.com>", frozenset(changed), 1)
        for i, changed in enumerate([snapshots[0], *edits])
    ]
    window = checked_window(samples, Fraction(1, 1), Fraction(1, 4))
    return window, VersionData(SnapshotRepo(snapshots), samples), commits


class TestHistoryFeatures:
    def test_existing_file_changed_half_the_steps(self):
        window, vdata, commits = _history_view(
            [
                {"src/a.java": "class A { int x2; }\n"},
                {"lib/other.java": "class O { int y2; }\n"},
                {"src/a.java": "class A { int x3; }\n"},
                {"lib/other.java": "class O { int y3; }\n"},
            ],
        )
        f = extract_history_features("src/a.java", window, vdata, commits)
        assert f[0] == 1.0  # F12 exists at the end of all 4 steps
        assert f[1] == 0.5  # F13 changed in 2 of 4
        assert f[2] == 0.5  # F14 same-directory changes
        assert f[3] == 0.0  # F15 recent step touched other.java only
        assert f[4] == 0.0
        assert f[5] == 1.0  # F17 sole author touched the file

    def test_file_created_at_last_step(self):
        window, vdata, commits = _history_view(
            [
                {"lib/other.java": "class O { int y2; }\n"},
                {"lib/other.java": "class O { int y3; }\n"},
                {"lib/other.java": "class O { int y4; }\n"},
                {"src/b.java": "class B { int z; }\n"},
            ],
        )
        f = extract_history_features("src/b.java", window, vdata, commits)
        assert f[0] == 0.25  # F12: exists only at the final step's end
        assert f[3] == 1.0  # F15: created in the recent step

    def test_untouched_window_gives_zero_change_rates(self):
        window, vdata, commits = _history_view(
            [
                {"lib/other.java": f"class O {{ int y{i}; }}\n"}
                for i in range(2, 6)
            ],
        )
        f = extract_history_features("src/a.java", window, vdata, commits)
        assert f[1] == f[3] == 0.0
        assert f[2] == f[4] == 0.0  # different directory

    def test_unavailable_window_falls_back_to_zeros(self):
        window, vdata, commits = _history_view([])  # one sample: a window with no steps
        assert extract_history_features("src/a.java", window, vdata, commits) == (0.0,) * 6


def _group_of(blocks) -> CloneGroup:
    members = tuple(sorted(blocks, key=lambda b: (b.path, b.brace)))
    return CloneGroup(version=0, members=members, group_id="g")


TWIN_BLOCKS = (
    "class M {\n"
    "    void twin() {\n"
    "        {\n"
    "            a = 1;\n"
    "            b = 2;\n"
    "        }\n"
    "        {\n"
    "            a = 1;\n"
    "            b = 2;\n"
    "        }\n"
    "    }\n"
    "}\n"
)


def _one_version(corpus: dict[str, str]) -> VersionData:
    """A VersionData over one version holding *corpus*, whose `file_blocks`
    members are taken from, as featurize takes them."""
    return VersionData(SnapshotRepo([corpus]), [SampledVersion(0, "v0", 1)])


def _body(vdata: VersionData, path: str, name: str) -> CodeBlock:
    return _body_in(vdata.file_blocks(0, path), name)


def _location_features(members, vdata: VersionData) -> tuple[float, ...]:
    """F18-F23 of the group of *members*, blocks of *vdata*'s one version."""
    return extract_location_features(_group_of(members), vdata)


TWIN_BODY = "int s = 0; for (int i = 0; i < n; i++) { s += i * 3; } return s + n;"


class TestLocationFeatures:
    def test_same_file_same_method(self):
        vdata = _one_version({"M.java": TWIN_BLOCKS})
        inner = [b for b in vdata.file_blocks(0, "M.java") if b.tokens[0].text == "a"]
        assert len(inner) == 2
        f = _location_features(inner, vdata)
        assert f[0] == 1.0 and f[1] == 1.0  # F18, F19
        assert f[2] == 1.0  # F20 same class
        assert f[3] == 1.0  # F21 same method instance
        assert f[4] == 0.0  # F22 identical method names

    def test_overloads_on_one_line_are_different_methods(self):
        source = "class C {\n  void run() { { p(); q(); } } void run(int i) { { p(); q(); } }\n}\n"
        vdata = _one_version({"C.java": source})
        inner = [b for b in vdata.file_blocks(0, "C.java") if b.tokens[0].text == "p"]
        assert len(inner) == 2
        f = _location_features(inner, vdata)
        assert f[3] == 0.0  # F21: two methods that share a name and a line
        assert f[4] == 0.0  # F22: identical method names
        for block in inner:
            assert extract_code_features(block, frozenset())[5] == 1.0  # F6: one line of one

    @pytest.mark.parametrize("sep", [" ", "\n"], ids=["one-line", "split-lines"])
    def test_unrelated_types_that_share_a_line(self, sep):
        source = sep.join([
            "class A {", f"int f(int n) {{ {TWIN_BODY} }}", "}",
            "class C {", f"int g(int n) {{ {TWIN_BODY} }}", "}",
        ]) + "\n"
        vdata = _one_version({"M.java": source})
        members = [_body(vdata, "M.java", "f"), _body(vdata, "M.java", "g")]
        assert _location_features(members, vdata)[2] == 0.0  # F20: A and C are unrelated

    @pytest.mark.parametrize("sep", [" ", "\n"], ids=["one-line", "split-lines"])
    def test_annotated_class_bodies(self, sep):
        source = f"package p;\n@Deprecated{sep}public class A {{\n int f(int n) {{ {TWIN_BODY} }}\n}}\n"
        vdata = _one_version({"x/p/A.java": source, "y/p/A.java": source})
        members = [
            next(b for b in vdata.file_blocks(0, path) if b.lex[b.brace - 1].text == "A")
            for path in vdata.files(0)
        ]
        assert all(m.start_line == 2 for m in members)  # from the annotation's line
        assert _location_features(members, vdata)[2] == 1.0  # F20: both in a type A

    def test_method_name_distance(self):
        src_a = "class A {\n    void getFoo() {\n        x = 1;\n    }\n}\n"
        src_b = "class B {\n    void getBar() {\n        x = 1;\n    }\n}\n"
        vdata = _one_version({"p/A.java": src_a, "p/B.java": src_b})
        members = [_body(vdata, "p/A.java", "getFoo"), _body(vdata, "p/B.java", "getBar")]
        f = _location_features(members, vdata)
        assert f[4] == 3.0  # F22
        assert f[3] == 0.0  # different methods

    def test_copied_directory_score(self):
        src = "class M {\n    void m() {\n        x = 1;\n    }\n}\n"
        vdata = _one_version({"a/b/d/M.java": src, "a/c/b/d/M.java": src})
        members = [_body(vdata, path, "m") for path in vdata.files(0)]
        f = _location_features(members, vdata)
        assert f[0] == 0.0  # different directories
        assert f[5] == pytest.approx(2 / 3)  # shared b/d suffix, identical siblings

    def test_path_copy_score_components(self):
        paths = ["a/b/d/M.java", "a/c/b/d/M.java"]
        assert path_copy_score("a/b/d", "a/c/b/d", paths) == pytest.approx(2 / 3)
        assert path_copy_score("x/y", "p/q", paths) == 0.0
        assert path_copy_score("a/b/d", "a/b/d", paths) == 1.0

    def test_class_hierarchy_via_extends(self):
        src_a = "class A extends Base {\n    void m() {\n        x = 1;\n    }\n}\n"
        src_b = "class B extends Base {\n    void m() {\n        x = 1;\n    }\n}\n"
        vdata = _one_version({"A.java": src_a, "B.java": src_b, "Base.java": "class Base {\n}\n"})
        members = [_body(vdata, "A.java", "m"), _body(vdata, "B.java", "m")]
        assert _location_features(members, vdata)[2] == 1.0
        unrelated_b = "class B {\n    void m() {\n        x = 1;\n    }\n}\n"
        vdata = _one_version(
            {"A.java": src_a, "B.java": unrelated_b, "Base.java": "class Base {\n}\n"}
        )
        members = [_body(vdata, "A.java", "m"), _body(vdata, "B.java", "m")]
        assert _location_features(members, vdata)[2] == 0.0


MANY_TYPES = """\
package p;
import java.util.Map;
public class Box<T extends Comparable<T>> extends Base<T> implements Api, Map.Entry<T, T> {
    static class Inner implements Runnable { public void run() { go(); } }
    int f(int n) { return n; }
}
interface Api extends Other {
    void go();
}
enum Mode implements Api {
    ON, OFF;
    public void go() { if (this == ON) { stop(); } }
}
void loose() {
    class Local { int k; }
}
final class Last {
}
"""


class TestTopLevelClassesOracle:
    """`top_level_classes` over a file's blocks gives the token walk's types, in
    its order, and every block the type whose lines hold it. On a file with an
    unmatched ``}`` the two may differ: the walk's depth goes negative there."""

    @staticmethod
    def _check(path: str, text: str) -> None:
        blocks = _blocks(text, path)
        classes = top_level_classes(blocks)
        oracle = lex_top_level_classes(scan(text))
        assert [(name, related) for name, _, related in classes] == [
            (name, related) for name, _, _, related in oracle
        ]
        if len({line for _, start, end, _ in oracle for line in (start, end)}) == 2 * len(oracle):
            for block in blocks:  # the types occupy distinct lines
                assert _member_class(block, classes) == lex_member_class(block, oracle)

    @pytest.mark.parametrize(
        "corpora",
        [f() for f in (*PLANTED.values(), *CONTROLS.values(), end_to_end_corpora)],
        ids=[*PLANTED, *CONTROLS, "end_to_end"],
    )
    def test_fixture_corpora(self, corpora):
        for corpus in corpora:
            for path, text in corpus.items():
                self._check(path, text)

    def test_many_types(self):
        self._check("p/Box.java", MANY_TYPES)
        names = [name for name, _, _ in top_level_classes(_blocks(MANY_TYPES))]
        assert names == ["Box", "Api", "Mode", "Last"]

    def test_nested_generics_close_with_one_token(self):
        """`scan` lexes the `>>` that closes two generics as one token."""
        source = "public class Box<T extends Comparable<T>> extends Base<T> implements Api {\n}\n"
        self._check("Box.java", source)
        [(name, _, related)] = top_level_classes(_blocks(source))
        assert (name, related) == ("Box", ["Base", "Api"])

    def test_braces_of_an_annotation_in_the_header(self):
        source = '@SuppressWarnings({"unchecked"}) class A extends B {\n  int k;\n}\n'
        [(name, body, related)] = top_level_classes(_blocks(source))
        assert [(name, 1, 3, related)] == lex_top_level_classes(scan(source))
        assert (name, body.start_line, related) == ("A", 1, ["B"])


# A stray `}` before a class, and one between two classes: a brace-depth walk
# of the tokens reads class A's body one level too shallow, so it takes m's
# local for a field and misses f
_CLASS_A = (
    "class A {\n    int f;\n    void m() {\n        int local = 1;\n        f = local;\n    }\n}\n"
)
STRAY_BRACE_FILES = {"leading": "}\n" + _CLASS_A, "between": "class Z {\n    int z;\n}\n}\n" + _CLASS_A}


def _member(rng: random.Random, depth: int) -> str:
    """One member of a type body, or a statement of a method body when it
    holds braces: fields, methods, initializers, empty blocks, nested types."""
    name = f"n{rng.randrange(6)}"
    kind = rng.randrange(16 if depth < 2 else 10)
    if kind == 0:
        return f"int {name};"
    if kind == 1:
        return f"private static final long {name} = {rng.randrange(9)}L, other{name};"
    if kind == 2:
        return f"java.util.Map<String, int[]> {name} = null;"
    if kind == 3:
        return f"int[] {name} = {{1, 2}};"  # an array initializer block
    if kind == 4:
        return f"@Tag(v = {{1}}) String {name} = \"x\";"  # an annotation array in the header
    if kind == 5:
        return f"Runnable {name} = () -> {{ go({name}); }};"
    if kind == 6:
        return f"abstract void {name}(int a);"
    if kind == 7:
        return rng.choice(["{}", "{ ; }", ";", "{ { } }"])
    if kind == 8:
        return f"{rng.choice(['', 'static '])}{{ {name} = 1; {{ int inner = 2; }} }}"
    if kind == 9:
        return f"@Tag(v = {{1}}) void {name}() {{ if ({name} > 0) {{ {name}--; }} else {{ ; }} }}"
    if kind in (10, 11):
        body = " ".join(_member(rng, depth + 1) for _ in range(rng.randrange(3)))
        return f"void {name}(int a) {{ int local = a; {body} for (int i = 0; i < a; i++) {{ }} }}"
    if kind == 12:
        inner = " ".join(_member(rng, depth + 1) for _ in range(rng.randrange(3)))
        return f"Object {name} = new Object() {{ int k; {inner} }};"  # an anonymous class
    return _type(rng, depth + 1)


def _type(rng: random.Random, depth: int = 0) -> str:
    """A class, interface, enum, record or annotation type with its members."""
    name = f"T{rng.randrange(99)}"
    members = " ".join(_member(rng, depth) for _ in range(rng.randrange(5)))
    kind = rng.randrange(5)
    if kind == 0:
        return f"public class {name} extends Base implements Api {{ {members} }}"
    if kind == 1:
        return f"interface {name} {{ int LIMIT = 3; void go(); }}"
    if kind == 2:
        return f"enum {name} {{ ON, OFF {{ void m() {{ }} }}, IDLE; {members} }}"
    if kind == 3:
        return f"record {name}(int a, int b) {{ static int count; {name} {{ count++; }} {members} }}"
    return f'@interface {name} {{ int value() default 1; String[] names() default {{"a"}}; }}'


class TestFileContext:
    @pytest.mark.parametrize("source", STRAY_BRACE_FILES.values(), ids=STRAY_BRACE_FILES)
    def test_fields_after_a_stray_closing_brace(self, source):
        vdata = _one_version({"A.java": source})
        fields = vdata.context(0, "A.java")
        assert "f" in fields and "local" not in fields
        assert ("z" in fields) == ("class Z" in source)
        # F4 of m's body: its one access of f, not two of the local
        assert extract_code_features(_body(vdata, "A.java", "m"), fields)[3] == 1.0

    @pytest.mark.parametrize(
        "source, fields",
        [
            (
                "class A { int[] a = {1, 2}; Runnable r = () -> { go(); }; "
                "Object o = new Object() { }; int b = 1; }",
                {"a", "b", "o", "r"},
            ),
            ("class A { int[][] g = {{1}, {2}}; }", {"g"}),
            ('class A { String[] s = new String[] {"x"}; }', {"s"}),
            ("class A { Runnable r = new Runnable() { public void run() { go(); } }; }", {"r"}),
            ("class A { Object o = x ? new A() { } : new B() { }; int y = f(a, b[0]); }", {"o", "y"}),
            # an `=` inside an annotation's parentheses starts no initializer
            ("class A { @A(v = 1) void m() { go(); } int z = 3; }", {"z"}),
            ("class A { @A(v = {1}) void m() { go(); } int z = 3; }", {"z"}),
        ],
        ids=["mixed", "nested_array", "new_array", "anonymous_class", "conditional", "annotation",
             "annotation_array"],
    )
    def test_fields_with_braces_in_their_initializer(self, source, fields):
        """A block after a field's `=` is its initializer: the field is declared
        when the statement's `;` comes, and the block's names are not fields."""
        assert file_context(_blocks(source)) == fields
        assert lex_file_context(scan(source)) == fields

    @pytest.mark.parametrize(
        "source, fields",
        [
            (
                'class A { @Named("db") int x; @Deprecated int y; @A(v = 1) int z = 2; }',
                {"x", "y", "z"},
            ),
            ("class A { int a = 1, b = f(2), c; }", {"a", "b", "c"}),
            (
                'class A { @javax.inject.Named("x") Foo foo; '
                "@Inject Bar bar, baz = g(1, h(2)), q; }",
                {"foo", "bar", "baz", "q"},
            ),
            ("class A { int d = (int) e, g[] = {h(1)}, k; }", {"d", "g", "k"}),
            ("class A { Map<K, List<V>> y; List<List<Map<K, V>>> z; }", {"y", "z"}),
            # an annotation's arguments leave a method a method
            ("class A { @A(v = 1) abstract Foo m(int p); @A(1) Foo n() { go(); } int r; }", {"r"}),
        ],
        ids=["annotation_arguments", "declarator_after_a_call", "qualified_annotation",
             "cast_and_array", "nested_generics", "annotated_methods"],
    )
    def test_fields_past_annotations_and_calls(self, source, fields):
        """An annotation's parenthesised arguments start no method, the
        declarators after an initializer's call are fields too, and so is a
        field whose type ends in nested generics (`>>` is one token)."""
        assert file_context(_blocks(source)) == fields
        assert lex_file_context(scan(source)) == fields

    @pytest.mark.parametrize(
        "source",
        [
            "enum E { ON, OFF, IDLE; int k; }",
            "enum E { ON(1), OFF { void m() { } }, IDLE; int k; }",
            "enum E { ON, OFF, IDLE }\nclass B { int k; }",
        ],
        ids=["plain", "arguments_and_body", "no_semicolon"],
    )
    def test_no_enum_constant_is_a_field(self, source):
        """An enum's constant list declares no field, whatever its entries hold."""
        assert file_context(_blocks(source)) == {"k"}
        assert lex_file_context(scan(source)) == {"k"}

    def test_generated_sources_match_the_token_walk(self):
        """On well-formed sources, `file_context` over the blocks finds the
        names that a brace-depth walk of the tokens finds."""
        rng = random.Random(29)
        with_fields = 0
        for _ in range(1500):
            types = [_type(rng) for _ in range(rng.randrange(1, 3))]
            one_line = " ".join(types)
            for source in (one_line, re.sub(r"([;{}]) ", "\\1\n", one_line)):  # or one a line
                lex = scan(source)
                expected = lex_file_context(lex)
                assert file_context(extract_blocks(lex, "A.java")) == expected, source
            with_fields += bool(expected)
        assert with_fields > 1000


class TestClassifyIdentifier:
    def _classify(self, source: str, text: str) -> str:
        raw = tuple(scan(source))
        idx = next(i for i, t in enumerate(raw) if t.text == text)
        return classify_identifier(raw, idx)

    def test_call_is_method(self):
        assert self._classify("foo(bar);", "foo") == "method"

    def test_after_new_is_type(self):
        assert self._classify("x = new Foo();", "Foo") == "type"

    def test_assignment_operands_are_variables(self):
        assert self._classify("x = y;", "x") == "variable"
        assert self._classify("x = y;", "y") == "variable"

    def test_extends_is_type(self):
        assert self._classify("class A extends Base {}", "Base") == "type"

    def test_cast_is_type(self):
        assert self._classify("a = (Foo) b;", "Foo") == "type"

    def test_declaration_pair(self):
        assert self._classify("Foo bar;", "Foo") == "type"
        assert self._classify("Foo bar;", "bar") == "variable"

    def test_keyword_is_none(self):
        raw = tuple(scan("return x;"))
        assert classify_identifier(raw, 0) == "none"


def _seq(texts: str, category: str = "none") -> list[AlignedToken]:
    return [AlignedToken(t, category) for t in texts.split()]


class TestMultisetDiff:
    def test_identical_sequences(self):
        diff = multiset_diff([_seq("a b c"), _seq("a b c")])
        assert len(diff.matched) == 3
        assert diff.differential == ()

    def test_single_substitution(self):
        diff = multiset_diff([_seq("a b"), _seq("a c")])
        assert len(diff.matched) == 1
        assert len(diff.differential) == 1
        col = diff.differential[0]
        assert sorted(e.text for e in col.entries if e) == ["b", "c"]
        assert not col.partially_same

    def test_partially_same_column(self):
        diff = multiset_diff([_seq("a b"), _seq("a b"), _seq("a c")])
        assert len(diff.differential) == 1
        col = diff.differential[0]
        assert sorted(e.text for e in col.entries if e) == ["b", "b", "c"]
        assert col.partially_same

    def test_gap_padding_conserves_tokens(self):
        diff = multiset_diff([_seq("a b c d"), _seq("a d")])
        total = sum(
            1 for col in diff.matched for e in col if e is not None
        ) + sum(1 for d in diff.differential for e in d.entries if e is not None)
        assert total == 6

    def test_token_conservation_fuzzed(self):
        rng = random.Random(41)
        for _ in range(150):
            n_seqs = rng.randrange(2, 5)
            seqs = [
                [AlignedToken(rng.choice("abcde"), "none") for _ in range(rng.randrange(1, 12))]
                for _ in range(n_seqs)
            ]
            diff = multiset_diff(seqs)
            columns = list(diff.matched) + [d.entries for d in diff.differential]
            assert all(len(col) == n_seqs for col in columns)
            non_gap = sum(1 for col in columns for e in col if e is not None)
            assert non_gap == sum(len(s) for s in seqs)
            per_member = [
                Counter(col[i].text for col in columns if col[i] is not None)
                for i in range(n_seqs)
            ]
            assert per_member == [Counter(t.text for t in s) for s in seqs]

    def test_two_members_never_partially_same(self):
        rng = random.Random(43)
        for _ in range(150):
            seqs = [
                [AlignedToken(rng.choice("abc"), "none") for _ in range(rng.randrange(1, 10))]
                for _ in range(2)
            ]
            diff = multiset_diff(seqs)
            assert all(not d.partially_same for d in diff.differential)


class TestDiffFeatures:
    def _group(self, sources: dict[str, str], method: str = "m") -> CloneGroup:
        members = [_method_block(text, method, path) for path, text in sorted(sources.items())]
        return _group_of(members)

    def test_identical_members(self):
        src = "void m() {\n    total = total + 1;\n}\n"
        f = extract_diff_features(self._group({"A.java": src, "B.java": src}))
        assert f == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_group_size(self):
        src = "void m() {\n    total = total + 1;\n}\n"
        group = self._group({f"{c}.java": src for c in "ABCD"})
        assert extract_diff_features(group)[0] == 4.0

    def test_variable_diff_column(self):
        src_x = "void m() {\n    int a = x + 1;\n}\n"
        src_y = "void m() {\n    int a = y + 1;\n}\n"
        f = extract_diff_features(self._group({"A.java": src_x, "B.java": src_y}))
        assert f[1] == 1.0  # one differential multiset
        assert f[2] == 0.0  # not partially same
        assert f[3] == 1.0  # variable diff
        assert f[4] == 0.0 and f[5] == 0.0

    def test_method_and_type_diffs(self):
        src_a = "void m() {\n    obj = new Foo();\n    run(1);\n}\n"
        src_b = "void m() {\n    obj = new Bar();\n    halt(1);\n}\n"
        f = extract_diff_features(self._group({"A.java": src_a, "B.java": src_b}))
        assert f[1] == 2.0
        assert f[4] == 0.5  # one of two columns is a method diff
        assert f[5] == 0.5  # the other is a type diff


def _content(lines: dict[int, str], total: int = 12) -> str:
    return "".join(lines.get(i, f"line {i}\n") for i in range(1, total + 1))


def _cochange_setup():
    paths = ["f0.java", "f1.java", "f2.java"]
    base = {p: _content({}) for p in paths}
    v1 = {p: _content({5: f"edited {p}\n"}) for p in paths}
    v2 = dict(v1)
    v3 = {p: (_content({5: f"edited {p}\n", 6: "again\n"}) if p == "f0.java" else v1[p]) for p in paths}
    v4 = {p: v3[p][: v3[p].index("line 11")] + "tail changed\n" + "line 12\n" for p in paths}
    repo = SnapshotRepo([base, v1, v2, v3, v4])
    samples = [SampledVersion(i, f"v{i}", 1) for i in range(5)]
    window = checked_window(samples, Fraction(1, 1), Fraction(1, 4))

    members = tuple(
        span_block(["t"], path=p, start=2)
        for p in paths
    )
    groups = [CloneGroup(version=v, members=members, group_id=f"g{v}") for v in range(5)]
    links = [
        [CloneLink(m, m, 1.0) for m in members]
        for _ in range(4)
    ]
    lineage = Lineage(
        lineage_id="lin",
        groups=[(v, g) for v, g in enumerate(groups)],
        links=links,
        end_state="alive_at_last_version",
    )
    return lineage, groups, window, VersionData(repo, samples)


class TestCochangeFeatures:
    def test_change_buckets_are_disjoint(self):
        lineage, groups, window, vdata = _cochange_setup()
        f = extract_cochange_features(groups[4], lineage, 4, window, vdata)
        # steps: all-change, none, one-change, tail-only (outside every block)
        assert f == (0.25, 0.5, 0.25, 0.0, 0.0)
        assert sum(f) == pytest.approx(1.0, abs=1e-12)

    def test_no_changes_at_all(self):
        paths = ["f0.java", "f1.java"]
        base = {p: _content({}) for p in paths}
        drift = [{**base, "other.java": f"v{i}\n"} for i in range(5)]
        repo = SnapshotRepo(drift)
        samples = [SampledVersion(i, f"v{i}", 1) for i in range(5)]
        window = checked_window(samples, Fraction(1, 1), Fraction(1, 4))
        members = tuple(
            span_block(["t"], path=p, start=2)
            for p in paths
        )
        groups = [CloneGroup(version=v, members=members, group_id=f"g{v}") for v in range(5)]
        links = [[CloneLink(m, m, 1.0) for m in members] for _ in range(4)]
        lineage = Lineage("lin", list(enumerate(groups)), links, "alive_at_last_version")
        f = extract_cochange_features(groups[4], lineage, 4, window, VersionData(repo, samples))
        assert f == (0.0, 1.0, 0.0, 0.0, 0.0)

    def test_untracked_steps_count_as_unchanged(self):
        lineage, groups, window, vdata = _cochange_setup()
        short = Lineage(
            lineage_id="short",
            groups=[(3, groups[3]), (4, groups[4])],
            links=[lineage.links[3]],
            end_state="alive_at_last_version",
        )
        f = extract_cochange_features(groups[4], short, 4, window, vdata)
        # only the final step is tracked, and its edits fall outside the blocks
        assert f == (0.0, 1.0, 0.0, 0.0, 0.0)

    def test_members_on_one_line_keep_their_own_chains(self):
        """Two members share their lines at the group's version but were linked
        from different files, one of which changed: each keeps its own history."""
        old = {"a.java": _content({}), "b.java": _content({})}
        edited = {**old, "a.java": _content({5: "edited\n"})}
        repo = SnapshotRepo([old, edited, edited, edited, {**edited, "f.java": _content({})}])
        samples = [SampledVersion(i, f"v{i}", 1) for i in range(5)]
        window = checked_window(samples, Fraction(1, 1), Fraction(1, 4))
        before = tuple(span_block(["t"], path=p, start=2) for p in ("a.java", "b.java"))
        after = tuple(span_block(["t"], path="f.java", start=2) for _ in before)
        groups = [CloneGroup(v, before if v < 4 else after, f"g{v}") for v in range(5)]
        links = [[CloneLink(m, m, 1.0) for m in before]] * 3 + [
            [CloneLink(a, b, 1.0) for a, b in zip(before, after)]
        ]
        lineage = Lineage("lin", list(enumerate(groups)), links, "alive_at_last_version")
        f = extract_cochange_features(groups[4], lineage, 4, window, VersionData(repo, samples))
        # steps: only a.java's member changes, then none
        assert f == (0.0, 0.75, 0.25, 0.0, 0.0)

    def test_window_unavailable_falls_back(self):
        lineage, groups, _, vdata = _cochange_setup()
        window = checked_window(vdata.samples[:1])  # no steps
        assert extract_cochange_features(groups[4], lineage, 4, window, vdata) == (0.0,) * 5


def _lev_oracle(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_versus_word(self):
        assert levenshtein("", "abc") == 3

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_matches_full_matrix_oracle(self):
        rng = random.Random(47)
        for _ in range(300):
            a = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 10)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 10)))
            assert levenshtein(a, b) == _lev_oracle(a, b)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(53)
        for _ in range(200):
            words = [
                "".join(rng.choice("ab") for _ in range(rng.randrange(0, 8)))
                for _ in range(3)
            ]
            x, y, z = words
            assert levenshtein(x, y) == levenshtein(y, x)
            assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)


def _plain_group_values(overrides: dict[int, float] | None = None) -> tuple[float, ...]:
    values = {
        18: 1.0, 19: 1.0, 20: 1.0, 21: 1.0, 22: 0.0, 23: 0.0,
        24: 2.0, 25: 0.0, 26: 0.0, 27: 0.0, 28: 0.0, 29: 0.0,
        30: 0.0, 31: 1.0, 32: 0.0, 33: 0.0, 34: 0.0,
    }
    values.update(overrides or {})
    return tuple(values[i] for i in range(18, 35))


def _clone_row(f1: float) -> tuple[float, ...]:
    return (f1, 40.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.0, 0.0, 1.0)


class TestFeatureTable:
    def test_kinds_are_the_validated_ranges(self):
        """Oracle: the feature numbers per range as validate_values listed them
        before the table existed."""
        by_kind = {"count": set(), "ratio": set(), "bool": set()}
        for num, (_, _, kind) in enumerate(FEATURES, 1):
            by_kind[kind].add(num)
        assert by_kind == {
            "count": {1, 2, 3, 4, 22, 24, 25},
            "ratio": {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23,
                      26, 27, 28, 29, 30, 31, 32, 33, 34},
            "bool": {18, 19, 20, 21},
        }

    @pytest.mark.parametrize(
        "num, value, message",
        [(1, -1.0, "F1=-1.0 negative"), (5, 1.5, "F5=1.5 outside [0,1]"),
         (18, 0.5, "F18=0.5 not boolean"), (22, -2.0, "F22=-2.0 negative"),
         (34, -0.1, "F34=-0.1 outside [0,1]")],
        ids=["F1", "F5", "F18", "F22", "F34"],
    )
    def test_validate_values_messages(self, num, value, message):
        values = [0.0] * len(FEATURES)
        values[num - 1] = value
        with pytest.raises(RangeViolation, match=re.escape(message)):
            validate_values(tuple(values))

    def test_validate_values_counts_features(self):
        with pytest.raises(RangeViolation, match="expected 34 features, got 33"):
            validate_values((0.0,) * 33)


class TestAssembleVector:
    def test_mean_aggregation(self):
        values = assemble_vector([_clone_row(6.0), _clone_row(10.0)], _plain_group_values())
        assert values[0] == 8.0
        assert values[17:] == _plain_group_values()

    def test_identical_booleans_survive_aggregation(self):
        values = assemble_vector([_clone_row(6.0), _clone_row(6.0)], _plain_group_values())
        assert values[7] == 1.0  # F8 stays boolean-valued when members agree

    def test_max_aggregation(self):
        values = assemble_vector(
            [_clone_row(6.0), _clone_row(10.0)], _plain_group_values(), aggregation="max"
        )
        assert values[0] == 10.0

    def test_range_violation_rejected(self):
        with pytest.raises(RangeViolation):
            assemble_vector([_clone_row(6.0)], _plain_group_values({23: 1.5}))
        with pytest.raises(RangeViolation):
            assemble_vector([_clone_row(6.0)], _plain_group_values({18: 0.5}))

    def test_member_row_shape_enforced(self):
        with pytest.raises(ValueError):
            assemble_vector([], _plain_group_values())
