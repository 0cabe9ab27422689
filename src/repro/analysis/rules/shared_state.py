"""RA003 — module-level mutable state in pool-dispatched functions.

The plan-in-parent contract (DESIGN.md §6) is what makes ``--workers N``
trustworthy: the parent plans every job and merges every delta; workers
execute plans into *private* state.  A worker function that reads or
writes module-level mutable state re-introduces scheduling dependence —
under threads it is a data race, under shard worker processes it is
silent divergence between parent and worker copies of the module.

This rule finds every function dispatched to a pool — passed to
``<executor>.submit(fn, ...)`` or installed as a pool ``initializer=`` —
resolving through project-internal import aliases (so
``executor.submit(worker_module.run_chunk, ...)`` marks ``run_chunk`` in
its defining module).  Inside each dispatched function, and inside every
same-module function it calls (directly or through other same-module
helpers), it flags, once per (function, name) pair:

* ``global NAME`` rebinding of a module-level name;
* reads of module-level *mutable* bindings — names assigned a
  dict/list/set (display, comprehension, or constructor call) at module
  level, or rebound via ``global`` anywhere in the module.

Reads of module-level constants, functions, classes, and imports are
fine and ignored.  The sanctioned exception — the worker-resident problem
installed once by the pool initializer — is exactly what the justified
suppression comment is for (see ``repro/parallel/worker.py``).
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ModuleUnit, Project, Rule


def _mutable_module_bindings(tree: ast.Module) -> set[str]:
    """Names bound to mutable containers at module level, or rebound
    via ``global`` anywhere in the module."""
    mutable: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            if targets and _is_mutable_value(stmt.value):
                mutable.update(t.id for t in targets)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.value is not None and _is_mutable_value(stmt.value):
                mutable.add(stmt.target.id)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            mutable.update(node.names)
    return mutable


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in (
            "dict",
            "list",
            "set",
            "OrderedDict",
            "defaultdict",
            "deque",
        )
    return False


def _dispatch_targets(
    project: Project, unit: ModuleUnit
) -> set[tuple[str, str]]:
    """(module, function) pairs this unit dispatches to a pool."""
    aliases = project.import_aliases(unit)
    targets: set[tuple[str, str]] = set()

    def resolve(expr: ast.expr) -> tuple[str, str] | None:
        if isinstance(expr, ast.Name):
            return (unit.module, expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            module = aliases.get(expr.value.id)
            if module is not None:
                return (module, expr.attr)
        return None

    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            resolved = resolve(node.args[0])
            if resolved is not None:
                targets.add(resolved)
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                resolved = resolve(keyword.value)
                if resolved is not None:
                    targets.add(resolved)
    return targets


class SharedStateRule(Rule):
    rule_id = "RA003"
    title = "pool-dispatched functions must not touch module-level mutables"
    rationale = (
        "the determinism contract plans in the parent and executes in "
        "workers against private state; shared module state is a race "
        "under threads and silent divergence under shard processes"
    )

    def run(self, project: Project) -> list[Finding]:
        dispatched: set[tuple[str, str]] = set()
        for unit in project.units:
            dispatched.update(_dispatch_targets(project, unit))
        findings: list[Finding] = []
        checked: set[tuple[str, str]] = set()
        for module, function in sorted(dispatched):
            unit = project.by_module.get(module)
            if unit is None:
                continue
            definition = None
            for node in ast.walk(unit.tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == function
                ):
                    definition = node
                    break
            if definition is None:
                continue
            mutable = _mutable_module_bindings(unit.tree)
            helpers = {
                stmt.name: stmt
                for stmt in unit.tree.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            # The dispatched function, then every same-module function it
            # reaches by plain-name calls: a worker runs those too.
            stack = [definition]
            while stack:
                current = stack.pop()
                if (module, current.name) in checked:
                    continue
                checked.add((module, current.name))
                label = f"pool-dispatched {function}()"
                if current is not definition:
                    label = f"{current.name}() (called from {label})"
                findings.extend(self._check_function(unit, current, label, mutable))
                local = _local_names(current)
                stack.extend(
                    helpers[node.func.id]
                    for node in ast.walk(current)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in helpers
                    and node.func.id not in local
                )
        return findings

    def _check_function(
        self,
        unit: ModuleUnit,
        definition: ast.FunctionDef | ast.AsyncFunctionDef,
        label: str,
        mutable: set[str],
    ) -> list[Finding]:
        local = _local_names(definition)
        findings: list[Finding] = []
        seen: set[str] = set()  # kind + name, once per function
        for node in ast.walk(definition):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if "w:" + name not in seen:
                        seen.add("w:" + name)
                        findings.append(
                            self.finding(
                                unit,
                                node.lineno,
                                f"{label} rebinds "
                                f"module global {name!r}; workers must "
                                "write only their private result/delta",
                            )
                        )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable
                and node.id not in local
            ):
                if "r:" + node.id not in seen:
                    seen.add("r:" + node.id)
                    findings.append(
                        self.finding(
                            unit,
                            node.lineno,
                            f"{label} reads "
                            f"module-level mutable {node.id!r} outside "
                            "the plan-in-parent contract",
                        )
                    )
        return findings


def _local_names(definition: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter and locally-assigned names (shadowing module state)."""
    names = {arg.arg for arg in definition.args.args}
    names.update(arg.arg for arg in definition.args.kwonlyargs)
    if definition.args.vararg:
        names.add(definition.args.vararg.arg)
    if definition.args.kwarg:
        names.add(definition.args.kwarg.arg)
    globals_declared: set[str] = set()
    for node in ast.walk(definition):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
    for node in ast.walk(definition):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, ast.Store
        ):
            if node.id not in globals_declared:
                names.add(node.id)
    return names
