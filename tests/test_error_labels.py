"""No error raised in ``src/crownfit`` carries a stage.

``run_pipeline``'s stage loop is the one place that names the stage a run
failed in (the report's ``error.stage``); a stage passed to an exception
would be a second, possibly different, label.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crownfit"


def callee_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_no_error_is_given_a_stage():
    tagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and callee_name(node).endswith("Error")
                    and any(kw.arg == "stage" for kw in node.keywords)):
                tagged.append(f"{path.name}:{node.lineno}")
    assert not tagged, f"errors given a stage: {tagged}"
