"""Determinism rules: unordered iteration must never reach plan state.

The repo's headline guarantee is *bit-identical plans across
backends*: DPsize, DPccp, and the DPconv lattice sweep, in process or
on a planning-pool worker, must produce the same plan, cost, and paper
counters (the counter formulas of Moerkotte & Neumann are the ground
truth), and relabeled twins must map to the same fingerprint. A
single ``for x in some_set`` on one of those paths breaks the
guarantee *probabilistically* — CPython string hashing is seeded per
process, so the differential batteries only catch it when the orders
happen to disagree on a cost tie. These rules catch it structurally.

Python ``dict`` iteration is insertion-ordered and therefore
deterministic whenever the *insertions* are; the nondeterminism
primitive is the ``set`` (and anything derived from one), which is
what these rules track.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import ERROR, Finding
from repro.lint.framework import ModuleContext, Rule, register

__all__ = ["ArbitrarySetElementRule", "UnorderedSetIterationRule"]

#: Paths whose iteration order feeds plan construction, shard merging,
#: or cache fingerprints.
DETERMINISM_SCOPE: tuple[str, ...] = (
    "*/repro/core/*.py",
    "*/repro/hyper/*.py",
    "*/repro/parallel/*.py",
    "*/repro/service/fingerprint.py",
    "*/repro/graph/canonical.py",
)

#: set/frozenset methods that return another set.
_SET_PRODUCING_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference", "copy"}
)

#: Methods only sets have; calling one marks the receiver as a set.
_SET_MARKER_METHODS = frozenset(
    {"add", "discard", "intersection_update", "difference_update",
     "symmetric_difference_update"}
)

#: Annotation tokens that declare a set type.
_SET_ANNOTATION_TOKENS = frozenset(
    {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Consumers that materialize an iterable *in iteration order* — as
#: order-sensitive as a for loop.
_ORDERING_CONSUMERS = frozenset({"list", "tuple"})


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in _SET_ANNOTATION_TOKENS:
            return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _SET_ANNOTATION_TOKENS
        ):
            return True
    return False


class _Scope:
    """Set-typed names visible in one function (or module) scope."""

    def __init__(self, node: ast.AST, inherited: frozenset[str]) -> None:
        self.node = node
        self.set_names: set[str] = set(inherited)
        self._collect(node)

    def _collect(self, scope_node: ast.AST) -> None:
        if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = scope_node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            ):
                if _annotation_is_set(arg.annotation):
                    self.set_names.add(arg.arg)
        for node in self._walk_scope(scope_node):
            if isinstance(node, ast.Assign) and self.is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _annotation_is_set(node.annotation) or (
                    node.value is not None and self.is_set_expr(node.value)
                ):
                    self.set_names.add(node.target.id)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _SET_MARKER_METHODS
                    and isinstance(func.value, ast.Name)
                ):
                    self.set_names.add(func.value.id)

    def _walk_scope(self, scope_node: ast.AST) -> Iterator[ast.AST]:
        """Walk the scope without descending into nested functions."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(scope_node))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def is_set_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` evaluates to a set, as far as names tell us."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            # Set algebra: at least one operand must be a *known* set
            # (bitset ints use the same operators, so a bare guess on
            # the operator would drown the rule in false positives).
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


def _scopes(tree: ast.Module) -> Iterator[_Scope]:
    """Module scope plus every function scope, with inherited names."""

    def visit(node: ast.AST, inherited: frozenset[str]) -> Iterator[_Scope]:
        scope = _Scope(node, inherited)
        yield scope
        for child in scope._walk_scope(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, frozenset(scope.set_names))

    yield from visit(tree, frozenset())


@register
class UnorderedSetIterationRule(Rule):
    """DET001: a ``set`` is iterated (or materialized) unsorted."""

    code = "DET001"
    name = "unordered-set-iteration"
    severity = ERROR
    description = (
        "iteration over a set (for loop, comprehension, list()/tuple()) "
        "in a determinism-critical module without sorted()"
    )
    invariant = (
        "bit-identical plans/counters across DPconv's backends, "
        "against the verbatim reference kernels and between in-process "
        "and worker-process runs, and stable cache fingerprints; "
        "backed by tests/test_differential_optimal.py, the reference "
        "differentials in tests/core/, tests/parallel/test_pool.py and "
        "tests/service/test_fingerprint*.py, which catch order bugs "
        "only probabilistically"
    )
    include = DETERMINISM_SCOPE

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for scope in _scopes(module.tree):
            yield from self._check_scope(module, scope)

    def _check_scope(
        self, module: ModuleContext, scope: _Scope
    ) -> Iterator[Finding]:
        for node in scope._walk_scope(scope.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if scope.is_set_expr(node.iter):
                    yield module.finding(
                        self,
                        node.iter,
                        "for-loop over a set: iteration order is "
                        "hash-seed dependent; wrap the iterable in "
                        "sorted(...) or restructure onto a list",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if scope.is_set_expr(generator.iter):
                        yield module.finding(
                            self,
                            generator.iter,
                            "comprehension over a set: iteration order "
                            "is hash-seed dependent; wrap the iterable "
                            "in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDERING_CONSUMERS
                    and len(node.args) == 1
                    and scope.is_set_expr(node.args[0])
                ):
                    yield module.finding(
                        self,
                        node,
                        f"{func.id}() over a set materializes a "
                        "hash-seed-dependent order; use sorted(...)",
                    )


@register
class ArbitrarySetElementRule(Rule):
    """DET002: an arbitrary element is extracted from a set."""

    code = "DET002"
    name = "arbitrary-set-element"
    severity = ERROR
    description = (
        "set.pop() / next(iter(set)) extracts a hash-seed-dependent "
        "element in a determinism-critical module"
    )
    invariant = (
        "same as DET001 — an 'arbitrary' representative chosen from a "
        "set can steer tie-breaking and shard seeding differently per "
        "process; use min()/max() or sorted()[0] to pin the choice"
    )
    include = DETERMINISM_SCOPE

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for scope in _scopes(module.tree):
            for node in scope._walk_scope(scope.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and not node.args
                    and isinstance(func.value, ast.Name)
                    and func.value.id in scope.set_names
                ):
                    yield module.finding(
                        self,
                        node,
                        f"{func.value.id}.pop() removes an arbitrary set "
                        "element; pop from a sorted list or use "
                        "min()/max() to pin the choice",
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "next"
                    and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "iter"
                    and node.args[0].args
                    and scope.is_set_expr(node.args[0].args[0])
                ):
                    yield module.finding(
                        self,
                        node,
                        "next(iter(<set>)) picks a hash-seed-dependent "
                        "representative; use min()/sorted()[0]",
                    )
