"""Checks on the repository itself rather than on the library."""

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    tracked_but_ignored = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert tracked_but_ignored == ""


def _module_imports(tree: ast.Module):
    """(name, line) bound by each import at top level or directly under
    ``if TYPE_CHECKING:``; ``from __future__`` binds nothing."""
    nodes = list(tree.body)
    for node in tree.body:
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            nodes.extend(node.body)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "lorenzlab").glob("*.py")),
    ids=lambda path: path.name,
)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    # annotations are expressions in the tree, so their names count
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _module_imports(tree)
        if name not in used
    ]
    assert unused == []


def _private_definitions(tree: ast.Module):
    """(name, line) of each private module-level def, class or assignment
    target, and of each private method of a module-level class; dunder
    names are the interpreter's, not private."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (name.id, node.lineno)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
    return [
        (name, line)
        for name, line in found
        if name.startswith("_") and not name.startswith("__")
    ]


def test_every_private_definition_is_read():
    # a deletion that leaves a private helper behind with no reader shows
    # here; an import of the name from another module counts as a read
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted((ROOT / "src" / "lorenzlab").glob("*.py"))
    }
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    orphans = [
        f"{name}:{line} {definition}"
        for name, tree in trees.items()
        for definition, line in _private_definitions(tree)
        if definition not in reads
    ]
    assert orphans == []


def test_no_module_reads_trajectory_states():
    # Trajectory.states builds one State per point on each read; the
    # package reads the columns times, xs, ys and zs instead.  The property
    # itself is a definition, not a read.
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "lorenzlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "states"
    ]
    assert reads == []


def test_no_module_reads_a_private_attribute():
    # a private name is read where it is defined or imported by name; an
    # attribute with one leading underscore reaches into another object's
    # state (dunder names are the interpreter's)
    reads = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted((ROOT / "src" / "lorenzlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]
    assert reads == []


def _is_number(node: ast.expr) -> bool:
    """Whether ``node`` is an int or float literal, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _is_number(node.operand)
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_no_cli_flag_writes_a_numeric_default():
    # a number the CLI declares as a flag's default is a second copy of one
    # the library owns; such flags default to argparse.SUPPRESS instead, so
    # a command passes on only what the command line set
    path = ROOT / "src" / "lorenzlab" / "cli.py"
    numeric = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and any(kw.arg == "default" and _is_number(kw.value) for kw in node.keywords)
    ]
    assert numeric == []


def _owned(node: ast.AST, owner: str | None = None):
    """(node, name of the innermost def around it, or None) for each node
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        yield child, owner
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from _owned(child, inner)


def _calls(node: ast.AST):
    """(call, name of the innermost def around it, or None) for each call
    under ``node``."""
    return ((call, owner) for call, owner in _owned(node) if isinstance(call, ast.Call))


def test_each_input_rule_has_one_owner():
    # an integer is checked by model._integer, the one caller of
    # operator.index, and a record coerces its floats by model._float_field,
    # so no __post_init__ calls float() itself
    strays = []
    for path in sorted((ROOT / "src" / "lorenzlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call, owner in _calls(tree):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "index"
                and isinstance(func.value, ast.Name)
                and func.value.id == "operator"
                and (path.name, owner) != ("model.py", "_integer")
            ):
                strays.append(f"{path.name}:{call.lineno} operator.index")
            if owner == "__post_init__" and isinstance(func, ast.Name) and func.id == "float":
                strays.append(f"{path.name}:{call.lineno} float()")
        strays += [
            f"{path.name}:{node.lineno} from operator import"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "operator"
        ]
    assert strays == []


def test_every_equilibrium_type_has_one_owner():
    # equilibria._origin_dims decides the origin's stable, unstable and
    # center counts from the signs of q, r and b, and _pair_dims decides
    # E+-'s from the Routh-Hurwitz signs of their cubic; every reader of
    # either type calls its owner, and SIGN_BAND is the one band, so no
    # file names a band for computed eigenvalues.  A sweep row's source is
    # generated, so it is read as the row of every closed-form task
    from lorenzlab.sweep import _row_source

    stale = "CENTER" + "_BAND"  # joined here, so this file does not hold it
    callers = {"_origin_dims": set(), "_pair_dims": set()}
    row = _row_source(("equilibria", "origin_class", "certificate", "regime"), ("c",))
    texts = [row]
    for folder in ("src/lorenzlab", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert stale not in text, path.name
            if folder != "tests":
                texts.append(text)
    for text in texts:
        for node, owner in _owned(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in callers
            ):
                callers[node.func.id].add(owner)
    assert {"classify_origin", "find_equilibria", "_regime", "row"} <= callers[
        "_origin_dims"
    ]
    assert {"find_equilibria", "_regime"} <= callers["_pair_dims"]
