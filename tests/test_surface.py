"""Every public top-level function and class of the package is referred to
by name somewhere else in the package, so no library code outlives the
commands that reached it."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "threadscope"

# Public names kept although nothing in the package refers to them.
ALLOWED = {
    "parse_dump": "the benchmark tracer wraps it by name",
    "infer_doc_topics": "the benchmark tracer wraps it by name",
    "spans_to_bilou": "the acceptance suite encodes its gold tags with it",
}


def _statements() -> list[tuple[str, ast.stmt]]:
    return [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def _definition_name(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def _names_used(stmt: ast.stmt) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    # a definition's own body does not count as a use of it
    names.discard(_definition_name(stmt))
    return names


def test_every_public_name_is_referenced_in_the_package():
    statements = _statements()
    used = set().union(*(_names_used(stmt) for _, stmt in statements))
    unreferenced = [
        f"{module}.{name}"
        for module, stmt in statements
        if (name := _definition_name(stmt))
        and not name.startswith("_")
        and name not in used
        and name not in ALLOWED
    ]
    assert unreferenced == []


def test_allowlisted_names_still_exist():
    defined = {_definition_name(stmt) for _, stmt in _statements()}
    assert set(ALLOWED) <= defined
