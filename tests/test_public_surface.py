"""Every name the package exports has a use besides its own definition.

A use is a load of the name (or an attribute of that name) in the package's
modules, the scripts, the benchmark or the acceptance suite, or a mention in
the README's code, inline or fenced.  The package's `__init__` only
re-exports, so its imports are not uses.  A name with no such use is code
that no caller needs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "condstop"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names() -> set[str]:
    sources = [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`]+`", readme, re.S)
    used = {word for span in code for word in re.findall(r"\w+", span)}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_use():
    assert sorted(exported_names() - used_names()) == []
