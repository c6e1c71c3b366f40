"""A function-length ratchet over the packages a frame runs through.

No function or method under ``core``, ``sfu``, ``scenario``,
``runtime``, ``transport`` or ``service`` may exceed ``LIMIT`` lines
(``def`` line to last line, docstring included).  ``CEILINGS`` freezes the offenders that predate
the ratchet at their current lengths: a listed function may shrink --
lower its ceiling, or drop the entry once it fits -- and never grow.
Nothing is ever added to the map.
"""

import ast
from pathlib import Path

import repro

LIMIT = 80
PACKAGES = ("core", "sfu", "scenario", "runtime", "transport", "service")
CEILINGS = {
    "sfu.fleet.run_fleet": 148,
    "scenario.runner._run_multiway": 138,
    "core.sender.LiVoSender.encode_steps": 121,
    "core.session.DracoOracleSession.run": 93,
}


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
    assert set(CEILINGS) <= set(lengths), "a listed function is gone: drop its entry"
    too_long = {
        name: length
        for name, length in lengths.items()
        if length > CEILINGS.get(name, LIMIT)
    }
    assert not too_long, f"over {LIMIT} lines (or over their frozen ceiling): {too_long}"
