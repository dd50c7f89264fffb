"""repro-lint core: single-parse runner, rule registry, suppressions, baseline.

The framework parses every file exactly once into a :class:`FileContext`
(source, AST, parent map, suppression table) and hands the shared context
to every registered rule — a rule never re-reads or re-parses.  Rules come
in two shapes:

* **file rules** (``file_check``) see one :class:`FileContext` at a time —
  everything that is decidable from a single module;
* **project rules** (``project_check``) see the whole :class:`Project` —
  cross-file analyses such as RL003's kernel-reachability walk.

Whole-program analysis
----------------------
``Project.call_graph()`` builds (once per run, shared by every project
rule) the module-resolving call graph of :mod:`repro_lint.callgraph`.
How the call graph resolves names, in brief: a ``src/``-relative path
maps to its dotted module (``src/repro/apps/executor.py`` →
``repro.apps.executor``); each module's symbol table holds its top-level
functions and classes plus every import binding — ``import a.b as c``,
``from a.b import x as y`` (aliases kept), relative imports resolved
against the importing package, and re-export chains through
``__init__.py`` followed recursively with a cycle guard.  A call site
resolves when its callee is a plain bound name, a dotted path rooted at
an imported module, ``self.m(...)``/``cls.m(...)`` inside a method (then
through resolvable base classes), or ``C.m(...)`` on a project class;
attribute calls on untyped values stay unresolved on purpose —
conservative edges, no guessed types.  Function-local *data* flow
(def-use chains for RL006's seed provenance) lives in
:mod:`repro_lint.dataflow`.

Suppressions
------------
A finding is silenced inline with::

    something_flagged()  # repro-lint: disable=RL003 -- why this is safe

The justification after ``--`` is **mandatory**: a bare ``disable=`` is
itself a finding (RL000), as is a suppression that never matches a finding
— suppressions must document real, current exceptions, not accumulate.  A
comment alone on its own line applies to the next line instead.

Baseline
--------
``baseline.json`` (next to this module) grandfathers findings that are
accepted long-term.  Every entry names its ``path``/``code``, a
``contains`` fragment of the offending source line (line numbers drift;
content does not), and a mandatory ``justification``.  Stale entries —
ones that no longer match any finding — fail the run, so the baseline can
only shrink or be consciously re-justified.
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples", "tools")
DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent / "baseline.json"

#: ruff `select` prefixes pyproject.toml must mirror (checked by
#: tests/test_repro_lint.py); every prefix must cover at least one of
#: :data:`STDLIB_CODES` and every stdlib code must be covered.
RUFF_SELECT = ("E9", "F401", "F811", "W191", "W291", "W292")
#: The hygiene codes this framework enforces itself (the ruff-mirror set).
STDLIB_CODES = ("E902", "E999", "F401", "F811", "W191", "W291", "W292")


@dataclass(frozen=True, order=True)
class Finding:
    """One reported problem, addressed as ``path:line: code message``."""

    relpath: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.relpath}:{self.line}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {"path": self.relpath, "line": self.line,
                "code": self.code, "message": self.message}


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    codes: Tuple[str, ...]
    justification: str
    comment_line: int
    target_line: int
    used: bool = False


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint\s*:\s*disable\s*=\s*([A-Za-z0-9_,\s]+?)"
    r"\s*(?:--\s*(?P<why>.*?))?\s*$")

#: Codes that can never be suppressed or baselined: the mechanisms
#: themselves (RL000) and unparseable files (E999/E902).
UNSILENCEABLE = frozenset({"RL000", "E999", "E902"})


class PathError(Exception):
    """A path argument that names nothing — a hard error, never silence:
    a typo'd path must not lint zero files and exit 0."""


class FileContext:
    """Everything rules may need about one file, computed at most once.

    Parsing (AST + parent map) and the tokenize-based suppression scan
    are **lazy**: they run on first access of :attr:`tree` /
    :attr:`suppressions`, and at most once.
    """

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self._parsed = False
        self._tree: Optional[ast.AST] = None
        self._syntax_error: Optional[Finding] = None
        self.parents: Dict[int, ast.AST] = {}
        self._scanned = False
        self._suppressions: List[Suppression] = []
        self._suppression_findings: List[Finding] = []
        #: scratch space for rules that share expensive per-file results
        self.cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _ensure_parsed(self) -> None:
        if self._parsed:
            return
        self._parsed = True
        try:
            self._tree = ast.parse(self.source, filename=self.relpath)
        except SyntaxError as exc:
            self._syntax_error = Finding(self.relpath, exc.lineno or 0,
                                         "E999",
                                         f"syntax error: {exc.msg}")
        else:
            for node in ast.walk(self._tree):
                for child in ast.iter_child_nodes(node):
                    self.parents[id(child)] = node

    @property
    def tree(self) -> Optional[ast.AST]:
        self._ensure_parsed()
        return self._tree

    @property
    def syntax_error(self) -> Optional[Finding]:
        self._ensure_parsed()
        return self._syntax_error

    @property
    def suppressions(self) -> List[Suppression]:
        self._ensure_scanned()
        return self._suppressions

    @property
    def suppression_findings(self) -> List[Finding]:
        self._ensure_scanned()
        return self._suppression_findings

    def _ensure_scanned(self) -> None:
        if not self._scanned:
            self._scanned = True
            self._parse_suppressions()

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        self._ensure_parsed()
        return self.parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[Tuple[ast.AST, ast.AST]]:
        """Yield ``(child, parent)`` pairs climbing from ``node`` to root."""
        current = node
        parent = self.parent(current)
        while parent is not None:
            yield current, parent
            current, parent = parent, self.parent(parent)

    # ------------------------------------------------------------------
    def _parse_suppressions(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return   # unparseable files already fail with E999
        for tok in tokens:
            if tok.type != tokenize.COMMENT or "repro-lint" not in tok.string:
                continue
            row, col = tok.start
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                self.suppression_findings.append(Finding(
                    self.relpath, row, "RL000",
                    "malformed repro-lint comment; expected "
                    "'# repro-lint: disable=RL00x -- justification'"))
                continue
            codes = tuple(c.strip().upper()
                          for c in match.group(1).split(",") if c.strip())
            why = (match.group("why") or "").strip()
            if not codes or any(c in UNSILENCEABLE for c in codes):
                self.suppression_findings.append(Finding(
                    self.relpath, row, "RL000",
                    f"suppression names no suppressible rule code: "
                    f"{tok.string.strip()!r}"))
                continue
            if not why:
                self.suppression_findings.append(Finding(
                    self.relpath, row, "RL000",
                    f"suppression of {', '.join(codes)} has no "
                    f"justification; write "
                    f"'# repro-lint: disable={codes[0]} -- why'"))
                continue
            standalone = self.lines[row - 1][:col].strip() == ""
            self.suppressions.append(Suppression(
                codes, why, row, row + 1 if standalone else row))


class Project:
    """All parsed files of one run, for cross-file (project) rules."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)
        self.by_path: Dict[str, FileContext] = {
            f.relpath: f for f in self.files}
        #: shared scratch space for cross-rule artefacts (the call graph)
        self.cache: Dict[str, object] = {}

    def call_graph(self):
        """The shared module-resolving :class:`~.callgraph.CallGraph`.

        Built lazily on first request and reused by every project rule
        in the run (RL003 reachability, RL002's forwarded pool
        boundaries, RL004's blocking chains, RL008's coroutine
        resolution).
        """
        graph = self.cache.get("callgraph")
        if graph is None:
            from .callgraph import CallGraph
            graph = CallGraph(self.files)
            self.cache["callgraph"] = graph
        return graph


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------
@dataclass
class Rule:
    """One registered rule: code, catalogue docs, scope, and its check."""

    code: str
    name: str
    summary: str
    explain: str
    scope: Callable[[str], bool] = field(default=lambda relpath: True)
    file_check: Optional[Callable[[FileContext], Iterable[Finding]]] = None
    project_check: Optional[Callable[[Project], Iterable[Finding]]] = None


RULES: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add a rule to the registry (used by the plugin modules at import)."""
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    RULES[rule.code] = rule
    return rule


def load_plugins() -> None:
    """Import every rule module; importing registers its rules."""
    from . import rules as rules   # import side effect is the point


# ---------------------------------------------------------------------------
# file discovery
# ---------------------------------------------------------------------------
def iter_py_files(args: Sequence[str],
                  root: pathlib.Path = REPO) -> List[pathlib.Path]:
    """Resolve path arguments to the .py files to lint.

    A path that exists as neither a file nor a directory raises :class:`PathError` — a typo'd argument
    must fail the gate, not lint nothing and exit 0.  A directory that
    exists but contains **zero** ``.py`` files is the same hard error for
    the same reason (``repro_lint some/empty/dir`` linting nothing and
    exiting 0 is indistinguishable from a pass).
    """
    roots = ([pathlib.Path(a) for a in args] if args
             else [root / r for r in DEFAULT_ROOTS])
    out: List[pathlib.Path] = []
    for r in roots:
        if r.is_file():
            out.append(r)
        elif r.is_dir():
            found = sorted(r.rglob("*.py"))
            if not found:
                raise PathError(f"directory contains no .py files: {r}")
            out.extend(found)
        else:
            raise PathError(f"path does not exist: {r}")
    return out


def to_relpath(path: pathlib.Path, root: pathlib.Path = REPO) -> str:
    """Project-relative posix path (scope matching key); absolute if outside."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
@dataclass
class BaselineEntry:
    path: str
    code: str
    contains: str
    justification: str
    count: int = 1
    matched: int = 0


def load_baseline(path: pathlib.Path) -> Tuple[List[BaselineEntry],
                                               List[Finding]]:
    """Parse and validate the baseline file; config errors are findings."""
    errors: List[Finding] = []
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [], [Finding(str(path), 0, "RL000",
                            f"unreadable baseline: {exc}")]
    entries: List[BaselineEntry] = []
    shown = path.name
    for i, item in enumerate(raw.get("findings", [])):
        extra = sorted(set(item) - {"path", "code", "contains",
                                    "justification", "count"})
        missing = sorted({"path", "code", "contains",
                          "justification"} - set(item))
        if extra or missing:
            errors.append(Finding(shown, 0, "RL000",
                                  f"baseline entry {i}: "
                                  + (f"unknown key(s) {extra}" if extra
                                     else f"missing key(s) {missing}")))
            continue
        if item["code"] in UNSILENCEABLE:
            errors.append(Finding(shown, 0, "RL000",
                                  f"baseline entry {i}: {item['code']} "
                                  f"cannot be baselined"))
            continue
        if not str(item["justification"]).strip():
            errors.append(Finding(
                shown, 0, "RL000",
                f"baseline entry {i} ({item['path']}, {item['code']}): "
                f"empty justification — every grandfathered finding "
                f"must name why it is accepted"))
            continue
        entries.append(BaselineEntry(item["path"], item["code"],
                                     item["contains"],
                                     str(item["justification"]),
                                     int(item.get("count", 1))))
    return entries, errors


def write_baseline(path: pathlib.Path, findings: Sequence[Finding],
                   contexts: Dict[str, FileContext]) -> None:
    """Regenerate the baseline from the current findings (TODO markers)."""
    items = []
    for f in sorted(findings):
        if f.code in UNSILENCEABLE:
            continue
        ctx = contexts.get(f.relpath)
        line_text = ""
        if ctx and 1 <= f.line <= len(ctx.lines):
            line_text = ctx.lines[f.line - 1].strip()
        items.append({"path": f.relpath, "code": f.code,
                      "contains": line_text or f.message,
                      "justification": "TODO: justify or fix"})
    path.write_text(json.dumps({"version": 1, "findings": items},
                               indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
@dataclass
class Result:
    """Outcome of one run: what fires, what was silenced, over how much."""

    findings: List[Finding]
    suppressed: List[Tuple[Finding, Suppression]]
    baselined: List[Tuple[Finding, BaselineEntry]]
    file_count: int
    project: Optional[Project] = None

    @property
    def clean(self) -> bool:
        return not self.findings


def run_sources(files: Sequence[Tuple[str, str]], *,
                baseline: Optional[Sequence[BaselineEntry]] = None,
                select: Optional[Sequence[str]] = None) -> Result:
    """Run every (selected) rule over ``(relpath, source)`` pairs.

    ``select`` limits the run to the named codes (prefix match, like
    ruff's select).  The unused-suppression and stale-baseline checks only
    apply on full runs — on a partial run a suppression for an unselected
    rule is not evidence of rot.
    """
    load_plugins()
    full_run = select is None

    def selected(code: str) -> bool:
        return full_run or any(code.startswith(s) for s in select)

    contexts = [FileContext(relpath, source) for relpath, source in files]
    project = Project(contexts)
    raw: List[Finding] = []
    for ctx in contexts:
        if ctx.syntax_error is not None:
            raw.append(ctx.syntax_error)
        raw.extend(ctx.suppression_findings)
    for code in sorted(RULES):
        rule = RULES[code]
        if not selected(code):
            continue
        if rule.file_check is not None:
            for ctx in contexts:
                if ctx.tree is not None and rule.scope(ctx.relpath):
                    raw.extend(rule.file_check(ctx))
        if rule.project_check is not None:
            raw.extend(rule.project_check(project))
    raw = [f for f in raw if selected(f.code)]

    # inline suppressions
    visible: List[Finding] = []
    suppressed: List[Tuple[Finding, Suppression]] = []
    for f in sorted(raw):
        sup = None
        if f.code not in UNSILENCEABLE:
            ctx = project.by_path.get(f.relpath)
            if ctx is not None:
                sup = next((s for s in ctx.suppressions
                            if f.code in s.codes
                            and s.target_line == f.line), None)
        if sup is not None:
            sup.used = True
            suppressed.append((f, sup))
        else:
            visible.append(f)
    if full_run:
        for ctx in contexts:
            for s in ctx.suppressions:
                if not s.used:
                    visible.append(Finding(
                        ctx.relpath, s.comment_line, "RL000",
                        f"suppression of {', '.join(s.codes)} never "
                        f"matched a finding — remove it (or it is on "
                        f"the wrong line)"))

    # baseline
    baselined: List[Tuple[Finding, BaselineEntry]] = []
    if baseline:
        remaining: List[Finding] = []
        for f in visible:
            entry = next(
                (b for b in baseline
                 if b.matched < b.count and b.path == f.relpath
                 and b.code == f.code
                 and _line_contains(project, f, b.contains)), None)
            if entry is not None:
                entry.matched += 1
                baselined.append((f, entry))
            else:
                remaining.append(f)
        visible = remaining
        if full_run:
            for b in baseline:
                if b.matched == 0:
                    visible.append(Finding(
                        b.path, 0, "RL000",
                        f"stale baseline entry ({b.code}, "
                        f"contains={b.contains!r}): no current finding "
                        f"matches — delete it from baseline.json"))
    return Result(sorted(visible), suppressed, baselined, len(contexts),
                  project)


def _line_contains(project: Project, f: Finding, fragment: str) -> bool:
    ctx = project.by_path.get(f.relpath)
    if ctx is None or not (1 <= f.line <= len(ctx.lines)):
        return False
    return fragment in ctx.lines[f.line - 1]


def run_paths(paths: Sequence[str], *, root: pathlib.Path = REPO,
              baseline: Optional[Sequence[BaselineEntry]] = None,
              select: Optional[Sequence[str]] = None) -> Result:
    """Discover files under ``paths`` and lint them (the CLI's core)."""
    files: List[Tuple[str, str]] = []
    unreadable: List[Finding] = []
    for path in iter_py_files(paths, root):
        relpath = to_relpath(path, root)
        try:
            files.append((relpath, path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(Finding(relpath, 0, "E902",
                                      f"unreadable: {exc}"))
    result = run_sources(files, baseline=baseline, select=select)
    if unreadable:
        result = Result(sorted(result.findings + unreadable),
                        result.suppressed, result.baselined,
                        result.file_count + len(unreadable),
                        result.project)
    return result


def explain(code: str) -> str:
    """The ``--explain`` catalogue entry for one rule code."""
    load_plugins()
    rule = RULES.get(code.upper())
    if rule is None:
        known = ", ".join(sorted(RULES))
        raise KeyError(f"unknown rule {code!r}; known rules: {known}")
    return (f"{rule.code} — {rule.name}\n\n{rule.summary}\n\n"
            f"{rule.explain.strip()}\n")
