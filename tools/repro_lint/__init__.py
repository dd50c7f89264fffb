"""repro-lint: project-invariant static analysis for this repository.

A dependency-free, plugin-based analyzer that proves the codebase's
runtime invariants at lint time: determinism (RL001), worker-pool pickle
safety (RL002), the packed hot path never unpacking (RL003), a
never-blocked event loop (RL004), paired shared-memory releases (RL005),
derived seeds (RL006) and async concurrency (RL008) — plus the stdlib
hygiene codes mirroring the ruff config (E9/F401/F811/W191/W291/W292).

Each invariant has one implementation.  RL002 and RL004 run on the
shared call graph, so a direct call is the zero-hop case of the same
check: RL002 follows a callable forwarded through wrappers to the pool,
and RL004 follows a sync helper chain down to a blocking call.  RL008
keeps what only it checks (unawaited coroutines, dropped task handles,
locks held across ``await``).

Run ``python -m repro_lint --help`` (with ``tools/`` on ``PYTHONPATH``);
``--explain RL00x`` prints the catalogue entry for a rule.  See
``engine.py`` for the suppression and baseline mechanics.
"""

from .engine import (
    DEFAULT_BASELINE as DEFAULT_BASELINE,
    DEFAULT_ROOTS as DEFAULT_ROOTS,
    FileContext as FileContext,
    Finding as Finding,
    PathError as PathError,
    Project as Project,
    REPO as REPO,
    RUFF_SELECT as RUFF_SELECT,
    RULES as RULES,
    Rule as Rule,
    STDLIB_CODES as STDLIB_CODES,
    explain as explain,
    iter_py_files as iter_py_files,
    load_baseline as load_baseline,
    load_plugins as load_plugins,
    register as register,
    run_paths as run_paths,
    run_sources as run_sources,
)
from .cli import main as main
