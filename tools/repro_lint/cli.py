"""repro-lint command line: ``python -m repro_lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage error (including a nonexistent
path argument or a directory containing no ``.py`` files — a typo'd
path must fail the gate, not lint nothing).

``--fix`` applies the mechanical hygiene fixes (trailing whitespace,
final newline, unambiguous unused imports) in place before linting.
``--changed-since REF`` lints only files ``git diff`` reports changed
against REF (the ``make lint-changed`` fast path).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import List, Optional

from . import engine
from .engine import PathError, load_baseline, write_baseline


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="Project-invariant static analysis "
                    "(rule catalogue: --list-rules, --explain RL00x).")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the "
                             "repo's Python roots: "
                             + ", ".join(engine.DEFAULT_ROOTS) + ")")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--explain", metavar="CODE", action="append",
                        default=[],
                        help="print the catalogue entry for a rule code "
                             "and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every registered rule and exit")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated code prefixes to run "
                             "(e.g. RL001,RL003 or just RL); disables "
                             "the unused-suppression and stale-baseline "
                             "checks")
    parser.add_argument("--fix", action="store_true",
                        help="apply the mechanical hygiene fixes in "
                             "place (trailing whitespace, final newline, "
                             "single-name unused imports) before linting")
    parser.add_argument("--changed-since", metavar="REF",
                        help="lint only .py files git reports changed "
                             "against REF; skips the unused-suppression "
                             "and stale-baseline checks (partial view)")
    parser.add_argument("--baseline", metavar="FILE", type=pathlib.Path,
                        default=engine.DEFAULT_BASELINE,
                        help="baseline file (default: the checked-in "
                             "tools/repro_lint/baseline.json)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline (report everything)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline file from the current "
                             "findings (justifications become TODO "
                             "markers to fill in)")
    parser.add_argument("--project-root", metavar="DIR", type=pathlib.Path,
                        default=engine.REPO,
                        help="root for scope-relative paths (default: "
                             "the repository root)")
    return parser


def _changed_files(ref: str, root: pathlib.Path) -> List[str]:
    """Repo-relative .py paths ``git diff`` reports changed against ref."""
    proc = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=d", ref, "--",
         "*.py"],
        cwd=str(root), capture_output=True, text=True, check=True)
    out: List[str] = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line and (root / line).is_file():
            out.append(str(root / line))
    return out


def _apply_fixes(paths: List[str], root: pathlib.Path) -> int:
    """Rewrite fixable findings in place; returns the fix count."""
    from .fixes import fix_source
    total = 0
    for path in engine.iter_py_files(paths, root):
        relpath = engine.to_relpath(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue   # the lint run reports it as E902
        fixed, applied = fix_source(relpath, source)
        if applied:
            path.write_text(fixed, encoding="utf-8")
            total += applied
    return total


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules or args.explain:
        engine.load_plugins()
        try:
            if args.explain:
                print("\n".join(engine.explain(c) for c in args.explain))
            else:
                for code in sorted(engine.RULES):
                    rule = engine.RULES[code]
                    print(f"{code}  {rule.name}: {rule.summary}")
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0

    paths = args.paths
    subset = False
    if args.changed_since:
        if paths:
            print("repro-lint: error: --changed-since and explicit "
                  "paths are mutually exclusive", file=sys.stderr)
            return 2
        try:
            paths = _changed_files(args.changed_since, args.project_root)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"repro-lint: error: git diff against "
                  f"{args.changed_since!r} failed: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print(f"repro-lint clean: no .py files changed since "
                  f"{args.changed_since}")
            return 0
        subset = True

    if args.fix:
        try:
            fixed = _apply_fixes(paths, args.project_root)
        except PathError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
        print(f"fixed {fixed} issue(s)")

    baseline = None
    baseline_errors: List[engine.Finding] = []
    if not args.no_baseline and not args.write_baseline \
            and args.baseline.exists():
        baseline, baseline_errors = load_baseline(args.baseline)

    select = ([s.strip() for s in args.select.split(",") if s.strip()]
              if args.select else None)
    try:
        result = engine.run_paths(paths, root=args.project_root,
                                  baseline=baseline, select=select,
                                  subset=subset)
    except PathError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    findings = sorted(result.findings + baseline_errors)
    if args.write_baseline:
        contexts = result.project.by_path if result.project else {}
        write_baseline(args.baseline, findings, contexts)
        print(f"baseline written: {len(findings)} finding(s) -> "
              f"{args.baseline}")
        return 0

    if args.format == "json":
        print(json.dumps({
            "findings": [f.as_dict() for f in findings],
            "files": result.file_count,
            "suppressed": len(result.suppressed),
            "baselined": len(result.baselined),
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        silenced = (f" ({len(result.suppressed)} suppressed, "
                    f"{len(result.baselined)} baselined)"
                    if result.suppressed or result.baselined else "")
        if findings:
            print(f"\n{len(findings)} finding(s) in "
                  f"{result.file_count} file(s){silenced}")
        else:
            print(f"repro-lint clean: {result.file_count} "
                  f"file(s){silenced}")
    return 1 if findings else 0
