"""Stdlib hygiene rules: the ruff-mirror codes (E9/F401/F811/W19x/W29x).

Lets a container without ruff enforce the same set pyproject.toml
selects for ruff.  Keep :data:`repro_lint.engine.RUFF_SELECT` and the
pyproject ``select`` list in sync — ``tests/test_repro_lint.py`` asserts
it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from ..engine import FileContext, Finding, Rule, register


class _ImportCollector(ast.NodeVisitor):
    """Collect imported bindings and every name usage in one pass."""

    def __init__(self) -> None:
        self.imports: List[Tuple[str, int, bool]] = []  # (name, line, re-export)
        self.used: set = set()
        self.exported: set = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            # `import numpy.linalg` binds `numpy`; `import x.y as z` binds z
            bound = alias.asname or alias.name.split(".")[0]
            redundant = alias.asname is not None \
                and alias.asname == alias.name
            self.imports.append((bound, node.lineno, redundant))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            redundant = alias.asname is not None \
                and alias.asname == alias.name
            self.imports.append((bound, node.lineno, redundant))

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # names listed in __all__ count as used (public re-exports)
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) \
                            and isinstance(elt.value, str):
                        self.exported.add(elt.value)
        self.generic_visit(node)


def _collected(ctx: FileContext) -> _ImportCollector:
    collector = ctx.cache.get("hygiene.imports")
    if collector is None:
        collector = _ImportCollector()
        collector.visit(ctx.tree)
        ctx.cache["hygiene.imports"] = collector
    return collector


def _check_f401(ctx: FileContext) -> Iterable[Finding]:
    collector = _collected(ctx)
    for name, lineno, redundant in collector.imports:
        if redundant or name == "_":
            continue   # `import X as X`: the sanctioned re-export spelling
        if name in collector.used or name in collector.exported:
            continue
        yield Finding(ctx.relpath, lineno, "F401",
                      f"{name!r} imported but unused")


def _check_f811(ctx: FileContext) -> Iterable[Finding]:
    # Module level only: deferred imports inside two different functions
    # legitimately bind the same name.
    collector = _collected(ctx)
    top_level = {node.lineno for node in ctx.tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))}
    seen: dict = {}
    for name, lineno, redundant in collector.imports:
        if redundant or lineno not in top_level:
            continue
        prev = seen.get(name)
        if prev is not None and prev != lineno:
            yield Finding(ctx.relpath, lineno, "F811",
                          f"redefinition of imported name {name!r} "
                          f"(first import at line {prev})")
        seen.setdefault(name, lineno)


def _check_whitespace(code: str):
    def check(ctx: FileContext) -> Iterable[Finding]:
        for i, line in enumerate(ctx.lines, 1):
            if code == "W291" and line != line.rstrip():
                yield Finding(ctx.relpath, i, "W291", "trailing whitespace")
            if code == "W191":
                indent = line[:len(line) - len(line.lstrip())]
                if "\t" in indent:
                    yield Finding(ctx.relpath, i, "W191",
                                  "tab in indentation")
        if code == "W292" and ctx.source and not ctx.source.endswith("\n"):
            yield Finding(ctx.relpath, len(ctx.lines), "W292",
                          "no newline at end of file")
    return check


register(Rule(
    code="E999", name="syntax-error",
    summary="The file does not parse; nothing else can be checked.",
    explain="""\
Emitted by the engine itself during the shared parse pass.  Unparseable
files fail the gate immediately and are exempt from every other rule
(there is no AST to check).  Not suppressible or baselinable."""))

register(Rule(
    code="E902", name="unreadable-file",
    summary="The file cannot be read or decoded as UTF-8.",
    explain="""\
Emitted by the engine's file loader.  Not suppressible or baselinable."""))

register(Rule(
    code="F401", name="unused-import",
    summary="An imported name is never used in the module.",
    explain="""\
Escape hatches (both also honoured by ruff): re-exports spelled
`import X as X` / `from m import X as X` (the PEP 484 convention) and
names listed in `__all__`.""",
    file_check=_check_f401))

register(Rule(
    code="F811", name="duplicate-import",
    summary="A module-level import rebinds a name an earlier import bound.",
    explain="""\
Only module-level imports are considered: deferred imports inside two
different functions legitimately bind the same name.""",
    file_check=_check_f811))

register(Rule(
    code="W191", name="tab-indentation",
    summary="A line is indented with a tab character.",
    explain="The repo indents with spaces only; tabs break the diff tools.",
    file_check=_check_whitespace("W191")))

register(Rule(
    code="W291", name="trailing-whitespace",
    summary="A line ends in spaces or tabs.",
    explain="Trailing whitespace churns diffs and trips strict editors.",
    file_check=_check_whitespace("W291")))

register(Rule(
    code="W292", name="missing-final-newline",
    summary="The file's last line has no terminating newline.",
    explain="POSIX text files end in a newline; several tools misread "
            "files that don't.",
    file_check=_check_whitespace("W292")))
