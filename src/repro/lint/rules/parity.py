"""RPR004 / RPR007 — parity and coverage contracts.

RPR004 (reference parity): every batched engine has one public entry
point, and the scalar code it replaced lives in :mod:`repro.reference`
under the production name.  Every public name a reference module binds
(function, class, method, or a twin bound by assignment) must have a
production twin of the same qualified name and be referenced by one
of the equivalence suites (``tests/test_*equivalence*.py``), so each
reference is exercised against its fast path; and no public function
outside ``repro.reference`` may take a ``solver`` parameter — the
switch the reference package replaces.

RPR007 (benchmark coverage): every id registered with
``@experiment(...)`` must be referenced by a
``benchmarks/test_bench_*.py`` module (the bench suites double as the
perf-regression gate), or carry an explicit waiver in
:data:`BENCH_WAIVERS` naming the reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import (REFERENCE_PACKAGE, ModuleUnit, ProjectContext,
                       public_names)
from ..engine import Rule, register
from ..findings import Finding

#: Experiment ids exempt from benchmark coverage, with the reason.
#: Additions need the same review a baseline entry gets.
BENCH_WAIVERS: dict[str, str] = {}


def _iter_functions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _takes_solver(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = func.args
    return any(arg.arg == "solver"
               for arg in args.posonlyargs + args.args + args.kwonlyargs)


@register
class ReferenceParityRule(Rule):
    rule_id = "RPR004"
    title = "reference twin or solver= switch outside the parity contract"
    rationale = ("each batched engine has one entry point; its scalar "
                 "twin lives in repro.reference under the same name and "
                 "is pinned by an equivalence test, and a solver= "
                 "switch in production is an unverified fork")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if not module.package_rel:
            return
        if module.top_package == REFERENCE_PACKAGE:
            yield from self._check_reference(module, context)
            return
        for func in _iter_functions(module.tree):
            if not func.name.startswith("_") and _takes_solver(func):
                yield self.finding(
                    module, func.lineno, func.col_offset,
                    f"public callable {func.name}() takes a solver "
                    f"parameter; call the batched engine directly and "
                    f"keep the scalar twin in repro.{REFERENCE_PACKAGE}")

    def _check_reference(self, module: ModuleUnit,
                         context: ProjectContext) -> Iterator[Finding]:
        if module.package_rel.rsplit(".", 1)[-1].startswith("_"):
            return
        for qualname, node in public_names(module.tree):
            if qualname not in context.production_names:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"reference {qualname} has no production twin of "
                    f"the same name outside repro.{REFERENCE_PACKAGE}")
            elif not context.covered_by_equivalence_tests(
                    qualname.rsplit(".", 1)[-1]):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"reference {qualname} is not referenced by any "
                    f"tests/test_*equivalence*.py suite; add a parity "
                    f"test against its production twin")


@register
class BenchCoverageRule(Rule):
    rule_id = "RPR007"
    title = "experiment without benchmark coverage"
    rationale = ("PRs 1, 3, 4: the bench suites are the perf-regression "
                 "gate; an experiment outside them can silently regress "
                 "the flows the paper's tables time")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if module.top_package != "experiments":
            return
        for func in _iter_functions(module.tree):
            for deco in func.decorator_list:
                if not (isinstance(deco, ast.Call)
                        and isinstance(deco.func, ast.Name)
                        and deco.func.id == "experiment"
                        and deco.args
                        and isinstance(deco.args[0], ast.Constant)
                        and isinstance(deco.args[0].value, str)):
                    continue
                experiment_id = deco.args[0].value
                if experiment_id in BENCH_WAIVERS:
                    continue
                if experiment_id in context.benchmark_string_literals:
                    continue
                yield self.finding(
                    module, deco.lineno, deco.col_offset,
                    f"experiment {experiment_id!r} is not referenced by "
                    f"any benchmarks/test_bench_*.py module; add a bench "
                    f"or a BENCH_WAIVERS entry with a reason")
