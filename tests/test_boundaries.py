"""Module boundaries, read from the package's source.

``logio`` renders and opens every file sweeplog writes, and each ``cli``
subcommand is one public library call, so ``cli`` imports no private name.
"""

import ast
from pathlib import Path

import sweeplog

PACKAGE = Path(sweeplog.__file__).parent


def parsed(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def mode(call: ast.Call, position: int) -> str:
    """An open call's mode text: "r" when none is given, and "w" when it
    is not a constant, so that a computed mode counts as writing."""
    given = call.args[position:position + 1] + [
        keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    if not given:
        return "r"
    if isinstance(given[0], ast.Constant) and isinstance(given[0].value, str):
        return given[0].value
    return "w"


def write_lines(tree: ast.Module) -> list[int]:
    """Lines that open a file for writing: ``open`` or ``Path.open`` in a
    mode with w, a, x or +, or ``write_text`` and ``write_bytes``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            opened = mode(node, 1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            opened = mode(node, 0)
        elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"):
            opened = "w"
        else:
            continue
        if set(opened) & set("wax+"):
            lines.append(node.lineno)
    return lines


def test_only_logio_opens_a_file_for_writing():
    writes = {path.name: write_lines(parsed(path.name))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert [f"{name}:{line}" for name, lines in writes.items()
            if name != "logio.py" for line in lines] == []
    assert writes["logio.py"]  # the rule sees the writers it allows


def test_cli_imports_no_private_name():
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(parsed("cli.py"))
               if isinstance(node, ast.ImportFrom) and (
                   node.level or node.module.split(".")[0] == "sweeplog")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
