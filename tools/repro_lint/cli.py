"""repro-lint command line: ``python -m repro_lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage error (including a nonexistent
path argument or a directory containing no ``.py`` files — a typo'd
path must fail the gate, not lint nothing).
"""

from __future__ import annotations

import argparse
import json
import pathlib
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
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the checked-in baseline "
                             "(tools/repro_lint/baseline.json) and report "
                             "everything")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the checked-in baseline from the "
                             "current findings (justifications become "
                             "TODO markers to fill in)")
    parser.add_argument("--project-root", metavar="DIR", type=pathlib.Path,
                        default=engine.REPO,
                        help="root for scope-relative paths (default: "
                             "the repository root)")
    return parser


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

    baseline = None
    baseline_errors: List[engine.Finding] = []
    if not args.no_baseline and not args.write_baseline \
            and engine.DEFAULT_BASELINE.exists():
        baseline, baseline_errors = load_baseline(engine.DEFAULT_BASELINE)

    select = ([s.strip() for s in args.select.split(",") if s.strip()]
              if args.select else None)
    try:
        result = engine.run_paths(args.paths, root=args.project_root,
                                  baseline=baseline, select=select)
    except PathError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    findings = sorted(result.findings + baseline_errors)
    if args.write_baseline:
        contexts = result.project.by_path if result.project else {}
        write_baseline(engine.DEFAULT_BASELINE, findings, contexts)
        print(f"baseline written: {len(findings)} finding(s) -> "
              f"{engine.DEFAULT_BASELINE}")
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
