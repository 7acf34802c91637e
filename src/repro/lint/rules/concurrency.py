"""Concurrency-hygiene rules for the service and parallel layers.

Two patterns have bitten (or nearly bitten) this codebase:

* **a lock held across a blocking call** — the plan cache's stampede
  guard and the pool's health state machine both follow the rule
  "compute under the lock, block outside it"; one ``future.result()``
  inside a ``with self._lock:`` turns an 8-thread hammer test into a
  deadlock that only reproduces under load;
* **module-level mutable state mutated at runtime** — worker processes
  import the module fresh, so state mutated in the parent silently
  diverges from state the workers see, breaking the bit-identical
  parallel-vs-sequential contract.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.findings import ERROR, Finding, WARNING
from repro.lint.framework import ModuleContext, Rule, register, terminal_name

__all__ = ["LockAcrossBlockingCallRule", "ModuleMutableStateRule"]

#: Concurrency-sensitive subsystems.
CONCURRENCY_SCOPE: tuple[str, ...] = (
    "*/repro/service/*.py",
    "*/repro/parallel/*.py",
    "*/repro/obs/*.py",
)

#: Terminal identifiers that mark a with-context as a lock.
_LOCK_NAME = re.compile(r"(?:^|_)(lock|mutex|rlock|cond|condition)$", re.I)

#: Method names that block (or wake blocked waiters) — calling one
#: while holding a lock is the deadlock/convoy pattern.
_BLOCKING_METHODS = frozenset(
    {
        "result",  # Future.result
        "wait",  # Event/Condition/Future wait
        "sleep",  # time.sleep
        "acquire",  # nested explicit lock acquisition
        "shutdown",  # executor teardown joins workers
        "join",  # Thread/Process join (str.join is filtered below)
        "submit",  # pool dispatch
        "submit_query",
        "run_query",
        "run_shards",
        "set_result",  # wakes followers while the lock is still held
        "set_exception",
    }
)

#: Receivers whose ``join`` is string building, not thread joining.
_STR_JOIN_RECEIVERS = (ast.Constant, ast.JoinedStr)

#: Constructors of mutable containers.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)

#: Mutating method names on containers.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
    }
)


def _is_lock_context(node: ast.expr) -> bool:
    name = terminal_name(node)
    return name is not None and _LOCK_NAME.search(name) is not None


@register
class LockAcrossBlockingCallRule(Rule):
    """CONC001: a blocking call is made while a lock is held."""

    code = "CONC001"
    name = "lock-across-blocking-call"
    severity = ERROR
    description = (
        "a blocking call (.result()/.wait()/sleep()/pool submit/"
        "executor shutdown/future completion) inside a `with <lock>:` "
        "block"
    )
    invariant = (
        "the service and pool never block while holding a lock — the "
        "stampede guard hands futures out and waits outside, the pool "
        "tears executors down after releasing; backed by the 8-thread "
        "concurrency battery and the SIGKILL chaos tests, which "
        "deadlock (flakily) when this is violated"
    )
    include = CONCURRENCY_SCOPE

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._visit(module, module.tree, held=None)

    def _visit(
        self, module: ModuleContext, node: ast.AST, held: str | None
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                # A nested def runs later, not under this lock.
                yield from self._visit(module, child, held=None)
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                lock_name = held
                for item in child.items:
                    if _is_lock_context(item.context_expr):
                        lock_name = terminal_name(item.context_expr)
                yield from self._visit(module, child, held=lock_name)
                continue
            if held is not None and isinstance(child, ast.Call):
                finding = self._check_call(module, child, held)
                if finding is not None:
                    yield finding
            yield from self._visit(module, child, held=held)

    def _check_call(
        self, module: ModuleContext, call: ast.Call, held: str
    ) -> Finding | None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in _BLOCKING_METHODS:
            return None
        if func.attr == "join" and isinstance(func.value, _STR_JOIN_RECEIVERS):
            return None
        return module.finding(
            self,
            call,
            f".{func.attr}() called while holding {held!r}; blocking "
            "calls must happen after the lock is released (capture "
            "state under the lock, block outside)",
        )


@register
class ModuleMutableStateRule(Rule):
    """CONC002: module-level mutable state is mutated at runtime."""

    code = "CONC002"
    name = "module-mutable-state"
    severity = WARNING
    description = (
        "a module-level mutable container is mutated from function "
        "code (runtime), not just populated at import time"
    )
    invariant = (
        "a worker process started by spawn or forkserver re-imports "
        "every module: runtime mutations in the parent are invisible "
        "to it, so shared registries must be import-time-frozen; "
        "backed by tests/parallel/test_pool.py, where a worker-process "
        "run must return the in-process run's plan and counters (both "
        "sides must see the same registry contents)"
    )
    include = (
        "*/repro/service/*.py",
        "*/repro/parallel/*.py",
        "*/repro/core/*.py",
        "*/repro/hyper/*.py",
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        containers = self._module_level_containers(module.tree)
        if not containers:
            return
        for top in module.tree.body:
            for scope in ast.walk(top):
                if not isinstance(
                    scope, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                yield from self._check_function(module, scope, containers)

    def _module_level_containers(self, tree: ast.Module) -> frozenset[str]:
        names: set[str] = set()
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not self._is_mutable_factory(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    names.add(target.id)
        return frozenset(names)

    def _is_mutable_factory(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            return name in _MUTABLE_FACTORIES
        return False

    def _check_function(
        self,
        module: ModuleContext,
        function: ast.AST,
        containers: frozenset[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            hit: str | None = None
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in containers
                ):
                    hit = f"{func.value.id}.{func.attr}(...)"
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                for target in (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                ):
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in containers
                    ):
                        hit = f"{target.value.id}[...] assignment"
            if hit is not None:
                yield module.finding(
                    self,
                    node,
                    f"{hit} mutates module-level state at runtime; "
                    "worker processes see the import-time value only — "
                    "move the state into an instance or freeze it at "
                    "import time",
                )
