"""Every public top-level function, class and assigned name of the package
is referred to by name somewhere else in the package, so no library code
outlives the commands that reached it; and the tab-separated format is
written in one place."""

from __future__ import annotations

import ast
import sys
from pathlib import Path, PurePosixPath

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "threadscope"

TRACED = "the benchmark tracer wraps it by name"
# Public names kept although nothing in the package refers to them.
ALLOWED = {
    "parse_dump": TRACED,
    "infer_doc_topics": TRACED,
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
    if isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        (target,) = stmt.targets
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


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


def test_names_kept_for_the_tracer_are_still_traced():
    sys.path.append(str(ROOT))
    from perfbench.tracer import COUNTS, SPANS

    traced = {name for names in (*SPANS.values(), *COUNTS.values()) for name in names}
    kept = {name for name, reason in ALLOWED.items() if reason == TRACED}
    assert kept <= traced


# Defaulted parameters kept although no call in the package passes them.
ALLOWED_PARAMETERS = {
    "corpus.parse_dump(on_error)": "tests and the benchmark tracer parse in both modes",
}


def _defaulted_parameters() -> list[tuple[str, str, int | None, str]]:
    """(module.label, called name, position or None if keyword-only,
    parameter) for every defaulted parameter of a top-level function or
    of a top-level class's __init__."""
    found = []
    for module, stmt in _statements():
        if isinstance(stmt, ast.FunctionDef):
            functions = [(stmt.name, stmt, 0)]
        elif isinstance(stmt, ast.ClassDef):
            functions = [
                (f"{stmt.name}.__init__", item, 1)  # self is never passed
                for item in stmt.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ]
        else:
            continue
        for label, function, skip in functions:
            args = function.args
            positional = (args.posonlyargs + args.args)[skip:]
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                found.append((f"{module}.{label}", stmt.name, index, arg.arg))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((f"{module}.{label}", stmt.name, None, arg.arg))
    return found


def _calls() -> dict[str, tuple[int, set[str], bool]]:
    """Per called name: the most positional arguments any call passes, the
    keywords passed, and whether some call unpacks *args or **kwargs."""
    calls: dict[str, tuple[int, set[str], bool]] = {}
    for _, stmt in _statements():
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            most, keywords, unpacks = calls.get(name, (0, set(), False))
            plain = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
            unpacks = unpacks or len(plain) < len(node.args) or any(
                keyword.arg is None for keyword in node.keywords
            )
            keywords |= {keyword.arg for keyword in node.keywords if keyword.arg}
            calls[name] = (max(most, len(plain)), keywords, unpacks)
    return calls


def test_every_defaulted_parameter_is_passed_in_the_package():
    calls = _calls()
    unpassed = []
    for label, name, position, parameter in _defaulted_parameters():
        most, keywords, unpacks = calls.get(name, (0, set(), False))
        passed = unpacks or parameter in keywords
        passed = passed or (position is not None and most > position)
        key = f"{label}({parameter})"
        if not passed and key not in ALLOWED_PARAMETERS:
            unpassed.append(key)
    assert unpassed == []


def test_allowlisted_parameters_still_exist():
    defined = {f"{label}({parameter})" for label, _, _, parameter in _defaulted_parameters()}
    assert set(ALLOWED_PARAMETERS) <= defined


# The functions allowed to spell out a tab: the table writer, the check of
# one column's value, and the annotation writer, whose blank line after
# each sentence no table has.
TAB_WRITERS = {
    ("textprep", "check_field"),
    ("textprep", "table"),
    ("nerdata", "write_annotations"),
}


def _hand_rolled_tabs() -> list[str]:
    """module:line of every string constant holding a tab, except the
    arguments of `.split(...)` and constants inside TAB_WRITERS."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) in TAB_WRITERS:
                exempt.update(map(id, ast.walk(node)))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split"
            ):
                exempt.update(map(id, node.args))
        found += [
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "\t" in node.value
            and id(node) not in exempt
        ]
    return found


def test_every_table_is_written_by_the_one_table_writer():
    assert _hand_rolled_tabs() == []


def test_tab_writers_still_exist():
    defined = {
        (module, name)
        for module, stmt in _statements()
        if (name := _definition_name(stmt))
    }
    assert TAB_WRITERS <= defined


def _attribute_uses(*names: str) -> list[str]:
    """module:line of every attribute named one of ``names`` in the package."""
    return [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def test_a_records_thread_is_derived_only_in_corpus():
    # corpus defines a record's thread as ``RedditRecord.thread``
    uses = _attribute_uses("parent_post_id")
    assert [use for use in uses if not use.startswith("corpus:")] == []


def test_no_second_utc_calendar():
    # ``corpus.utc_date`` and ``corpus.utc_month`` are the one UTC calendar;
    # ``strftime`` does not zero-pad a year before 1000
    assert _attribute_uses("fromtimestamp", "strftime") == []


def test_frozen_slots_are_set_only_in_records():
    # ``FrozenRecord._freeze`` sets a frozen record's slots from its one
    # slot list
    uses = _attribute_uses("__setattr__")
    assert uses and [use for use in uses if not use.startswith("records:")] == []


def test_the_dirichlet_expectation_is_taken_only_in_elog():
    # ``topics._elog`` is the one E[log x] = psi(x) - psi(row sum) of the
    # topic fit: every other use of digamma goes through it
    users = [
        _definition_name(stmt)
        for module, stmt in _statements()
        if module == "topics" and "digamma" in _names_used(stmt)
    ]
    assert users == ["_elog"]


def test_the_e_step_is_called_only_from_lockstep_chunks():
    # ``topics._lockstep_chunks`` is the one entry to the E-step: a training
    # round, a perplexity pass and a one-document inference all go through it
    callers = [
        _definition_name(stmt)
        for module, stmt in _statements()
        if module == "topics" and "_estep" in _names_used(stmt)
    ]
    assert callers == ["_lockstep_chunks"]


def test_every_shipped_data_file_is_packaged():
    # tests run from src/, so a data file that no package-data glob names
    # passes them and is missing from every install
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["threadscope"]
    shipped = [
        PurePosixPath(path.relative_to(SRC).as_posix())
        for path in sorted((SRC / "data").rglob("*"))
        if path.is_file()
    ]
    assert shipped
    assert [str(path) for path in shipped if not any(map(path.match, globs))] == []


def _caught_names() -> set[str]:
    """Every name that an ``except`` clause of the package catches."""
    caught: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        caught.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        caught.add(name.attr)
    return caught


def test_every_error_class_is_a_caught_value_error():
    # the CLI sends every ValueError to exit 2 with one line; a class of
    # its own earns its place only where some code catches it by name
    from threadscope import errors

    defined = [
        stmt.name
        for module, stmt in _statements()
        if module == "errors" and isinstance(stmt, ast.ClassDef)
    ]
    assert defined
    assert [name for name in defined if not issubclass(getattr(errors, name), ValueError)] == []
    assert sorted(set(defined) - _caught_names()) == []
