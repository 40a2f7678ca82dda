"""Every module-level function and class of ``src/crownfit``, and every
method and property of those classes, has a caller.

A definition that only tests reach belongs in ``tests/helpers.py``, or goes:
tests read the data it would wrap. A reference is any name, attribute or
import of the definition's name in ``src/crownfit`` or ``perfbench/``
outside the definition itself; click commands are reached through their
group, and dunder methods through the language, so they need none. Every
module-level import is read by the module that makes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crownfit"


def referenced_names(node, skip=None) -> set:
    names = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(n))
    return names


def is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def definitions(tree):
    """``(qualified name, node)`` of each module-level function and class and
    of each method and property of those classes, dunders and click commands
    excepted."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield f"{node.name}.{member.name}", member
        elif isinstance(node, ast.FunctionDef) and not is_click_command(node):
            yield node.name, node


def test_every_definition_has_a_caller():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in definitions(trees[path]):
            if not any(node.name in referenced_names(tree, node if other == path else None)
                       for other, tree in trees.items()):
                unused.append(f"{path.name}: {qualname}")
    assert not unused, f"defined but never referenced outside tests: {unused}"


def test_every_import_is_used():
    """Every module-level import of ``src/crownfit`` is read by its module;
    ``from __future__`` imports and the names a module lists in ``__all__``
    are exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert not unused, f"imported but never read: {unused}"
