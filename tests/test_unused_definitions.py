"""Every module-level function and class of ``src/crownfit``, and every
method and property of those classes, has a caller.

A definition that only tests reach belongs in ``tests/helpers.py``, or goes:
tests read the data it would wrap. A reference is any name, attribute or
import of the definition's name in ``src/crownfit`` or ``perfbench/``
outside the definition itself; click commands are reached through their
group, and dunder methods through the language, so they need none.
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
