"""A function-length ratchet over the packages a frame runs through.

No function or method under ``core``, ``sfu``, ``scenario``,
``runtime``, ``transport`` or ``service`` may exceed ``LIMIT`` lines
(``def`` line to last line, docstring included).  There is no
allow-map: the offenders that predated the ratchet are gone.
"""

import ast
from pathlib import Path

import repro

LIMIT = 80
PACKAGES = ("core", "sfu", "scenario", "runtime", "transport", "service")


def _function_lengths(tree: ast.AST, prefix: str):
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield name, child.end_lineno - child.lineno + 1
            yield from _function_lengths(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _function_lengths(child, f"{prefix}.{child.name}")
        else:
            yield from _function_lengths(child, prefix)


def test_no_function_outgrows_the_ratchet():
    root = Path(repro.__file__).parent
    lengths = {}
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            module = ".".join(path.relative_to(root).with_suffix("").parts)
            lengths.update(_function_lengths(ast.parse(path.read_text()), module))
    too_long = {name: length for name, length in lengths.items() if length > LIMIT}
    assert not too_long, f"over {LIMIT} lines: {too_long}"
