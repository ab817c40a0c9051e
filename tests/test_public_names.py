"""No public function or class of `crec` that only the tests call."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from crec.clone_detector import CodeBlock
from crec.pipeline import VersionData

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "crec").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level def or class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, first, node.end_lineno


def test_every_public_name_is_used_by_the_program():
    sources = {path: path.read_text(encoding="utf-8").splitlines() for path in PROGRAM}
    unused = []
    for path in sorted((ROOT / "src" / "crec").glob("*.py")):
        for name, first, last in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for other, lines in sources.items()
                for number, line in enumerate(lines, 1)
                if other != path or not first <= number <= last
            )
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "named only by its own definition (tests aside): " + ", ".join(unused)


def test_every_function_reads_its_parameters():
    """A public module-level function reads each parameter it declares.

    Methods are left out: a protocol method such as ``__exit__`` must accept
    arguments it has no use for.
    """
    unread = []
    for path in sorted((ROOT / "src" / "crec").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            declared = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            read = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {node.name}({a.arg})"
                for a in declared
                if a is not None and a.arg not in read
            ]
    assert not unread, "parameters never read: " + ", ".join(unread)


def _calls(node: ast.AST, scope: tuple[str, ...]):
    """(qualified name of the enclosing def or class, called name) of each call under *node*."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            func = child.func
            yield ".".join(scope), getattr(func, "id", getattr(func, "attr", None))
        yield from _calls(child, inner)


def test_one_lexer():
    """Repository content is lexed in one place: `scan` is called only by `VersionData._lex`."""
    callers = [
        caller
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, name in _calls(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name == "scan"
    ]
    assert callers == ["pipeline.VersionData._lex"]


def test_one_block_builder():
    """Method structure has one owner: `CodeBlock` is built only by `extract_blocks`,
    which sets each block's own `{` and its method's body block."""
    callers = [
        caller
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, name in _calls(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name == "CodeBlock"
    ]
    assert callers == ["clone_detector.extract_blocks"]


def test_one_class_finder():
    """Type structure has one source: `top_level_classes` is called only by
    `VersionData.classes`, over the memo's `file_blocks`. F20 compares a
    member's `{` with a type's braces, and brace indices compare only within
    one token list, so the types must come from the blocks the members do."""
    callers = [
        caller
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, name in _calls(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name == "top_level_classes"
    ]
    assert callers == ["pipeline.VersionData.classes"]


def test_one_field_finder():
    """F4's fields have one source: `file_context` is called only by
    `VersionData.context`, over the memo's `file_blocks`, so `extract_blocks`
    is the one matcher of braces that F4 and F20 read."""
    callers = [
        caller
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, name in _calls(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name == "file_context"
    ]
    assert callers == ["pipeline.VersionData.context"]


def test_features_and_labels_ask_version_data():
    """Featurize and label reach `VersionData` directly: no call passes a
    `lambda` to a function of `features`, and `VersionData` builds no
    `LabelContext`; `stage_label` hands it `VersionData.blocks`."""
    features = ast.parse((ROOT / "src" / "crec" / "features.py").read_text(encoding="utf-8"))
    names = {node.name for node in features.body if isinstance(node, ast.FunctionDef)}
    adapted = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
        and any(isinstance(a, ast.Lambda) for a in [*node.args, *(k.value for k in node.keywords)])
    ]
    assert not adapted, "passes a lambda to a features function: " + ", ".join(adapted)
    assert not hasattr(VersionData, "label_context")


def test_no_dataclasses():
    """No module imports `dataclasses`: it loads `inspect` with it, and each
    `@dataclass` compiles its methods when its module is imported, costs that
    every command would pay. Record types are `NamedTuple`s."""
    importers = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not importers, "imports dataclasses: " + ", ".join(importers)


# the field that holds the name of each kind of node that names something
_NAMED = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.alias: "name",
          ast.FunctionDef: "name", ast.AsyncFunctionDef: "name", ast.ClassDef: "name"}


def _mentions(node: ast.AST, scope: tuple[str, ...]):
    """(qualified name of the enclosing def or class, name) of each name,
    attribute, parameter, import or definition under *node*."""
    for child in ast.iter_child_nodes(node):
        if type(child) in _NAMED:
            yield ".".join(scope), getattr(child, _NAMED[type(child)])
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield from _mentions(child, inner)


def test_lineages_are_built_once():
    """Only `genealogy` builds lineages: outside its module, `build_genealogies`
    and the `link_floor` it links by are named only by `stage_genealogy`; `label`
    and `featurize` read the lineages it writes. `config` declares and checks
    `link_floor` with the other options."""
    outside = {
        (name, caller)
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        if path.stem not in ("genealogy", "config")
        for caller, name in _mentions(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name in ("build_genealogies", "link_floor")
    }
    assert outside == {
        ("build_genealogies", "pipeline.stage_genealogy"),
        ("link_floor", "pipeline.stage_genealogy"),
    }


def test_blocks_are_named_by_their_brace():
    """A block's lines are read only where the question is about lines: its
    `line_span`, F10's earlier line, the co-change hunk test (`hunk_touches`
    takes the lines as parameters of those names), genealogy's closest-start
    tie-break, the labeler's evidence, the record `clones.txt` keeps, and
    `materialize_groups`' message for a record its block does not match. Every
    lookup names a block by its path and `{`, or by the block itself, so blocks
    that share their lines stay apart; no location key stands in for them."""
    readers = {
        (name, caller)
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, name in _mentions(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name in ("start_line", "end_line")
    }
    both = {"start_line", "end_line"}
    assert readers == {
        *((name, "clone_detector.CodeBlock.__init__") for name in both),
        *((name, "clone_detector.CodeBlock.line_span") for name in both),
        ("start_line", "features.extract_code_features"),
        *((name, "features.extract_cochange_features") for name in both),
        *((name, "repo_miner.hunk_touches") for name in both),
        ("start_line", "genealogy.link_clones"),
        *((name, "labeler.label_lineage") for name in both),
        *((name, "artifacts.MemberRecord.of") for name in both),
        *((name, "pipeline.materialize_groups") for name in both),
    }
    assert not hasattr(CodeBlock, "key")


def _strings(node: ast.AST, scope: tuple[str, ...]):
    """(qualified name of the enclosing def or class, text) of each string
    constant under *node*, the literal parts of f-strings included, and
    docstrings left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
            continue
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield ".".join(scope), child.value
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield from _strings(child, inner)


def test_stale_inputs_name_their_writer_from_files():
    """A stale input names the command that rewrites it in one place:
    `pipeline._stale` reads it from `FILES`, as `_require` does for a missing
    file. No other string says `re-run` or `is stale`, and every `MissingInput`
    built elsewhere reports a file that is missing or cannot be read."""
    texts = [
        (caller, text)
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, text in _strings(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if "re-run" in text or "is stale" in text
    ]
    assert texts and {caller for caller, _ in texts} == {"pipeline._stale"}, texts
    built = [
        caller
        for path in sorted((ROOT / "src" / "crec").glob("*.py"))
        for caller, name in _calls(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
        if name == "MissingInput"
    ]
    assert sorted(built) == [
        "artifacts.read_artifact",
        "pipeline._load_projects",
        "pipeline._require",
        "pipeline._stale",
    ]
