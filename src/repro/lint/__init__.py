"""``repro lint`` — AST-based checker for this repo's own invariants.

PRs 1-4 built fast batched engines whose correctness rests on
repo-wide conventions that used to live only in review comments:
scalar/batch reference parity, byte-deterministic reporting, no
float-equality selection, narrow exception handling, SI-unit suffix
naming.  This package machine-checks them on every commit.

Rule catalogue
--------------
========  ======================================================
RPR001    float-literal ``==`` / ``!=`` comparisons
RPR002    bare/broad ``except`` without re-raise
RPR003    nondeterminism hazards (wall clock, global RNG)
RPR004    ``repro.reference`` parity; no ``solver=`` in production
RPR005    float parameters/fields without SI-unit suffixes
RPR006    perf-counter names outside ``repro.perf.KNOWN_COUNTERS``
RPR007    experiments without benchmark coverage
RPR008    mutable defaults / loose module-level mutable state
========  ======================================================

Findings are suppressed inline with ``# repro: noqa[RPR00n] reason``
or grandfathered in ``lint-baseline.json`` (every entry carries a
justification).  See :mod:`repro.lint.engine` for the framework and
``repro lint --help`` for the CLI.
"""

from __future__ import annotations

from .baseline import Baseline
from .cli import run_lint_command
from .context import ModuleUnit, ProjectContext
from .engine import (LintReport, Rule, all_rules, lint_paths,
                     lint_repository, rule_catalogue)
from .findings import Finding

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "ModuleUnit",
    "ProjectContext",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_repository",
    "rule_catalogue",
    "run_lint_command",
]
