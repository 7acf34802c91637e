"""Cost-model discipline rules.

Join costs are floats accumulated in different association orders by
different backends: the sequential DP adds ``(leaf + leaf) + leaf``,
and the DPconv lattice sweep reduces over a vectorized min-plus table.
Equal *plans* therefore do not guarantee bit-equal *costs* outside the
explicitly contracted paths, so exact ``==`` on a cost is either a
latent flake or an undocumented bit-identity claim — both deserve a
look.

The second rule encodes the DPconv paper's structural precondition
(arXiv 2409.08013): the value-only lattice sweep, LinDP's separable
interval sweep and :class:`~repro.core.base.PlanTable`'s value-only
join step are only exact when the cost model is *separable and
symmetric*. Every consumer of ``separable_join_operator`` must
therefore gate on both halves — the operator being non-``None`` *and*
``symmetric`` — before taking the fast path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import ERROR, Finding, WARNING
from repro.lint.framework import ModuleContext, Rule, register, terminal_name

__all__ = ["ExactFloatCostComparisonRule", "SeparabilityGateRule"]

#: Identifier fragments that mark a float cost value.
_COST_TOKENS = ("cost",)

#: The separable-cost contract attribute.
_SEPARABLE_ATTR = "separable_join_operator"


def _is_cost_expr(node: ast.expr) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return any(token in lowered for token in _COST_TOKENS)


@register
class ExactFloatCostComparisonRule(Rule):
    """COST001: exact ``==``/``!=`` on a float cost."""

    code = "COST001"
    name = "exact-float-cost-comparison"
    severity = WARNING
    description = (
        "exact ==/!= comparison on a cost value; float costs are only "
        "bit-comparable on explicitly contracted paths"
    )
    invariant = (
        "cross-backend equality is 'same plan, same counters, cost "
        "equal up to association noise' (math.isclose); bit-identical "
        "cost is the contract only where a kernel is pinned to its "
        "verbatim reference copy, and such a site belongs in the "
        "baseline with that justification; backed by "
        "tests/test_differential_optimal.py and the reference "
        "differentials in tests/core/test_dpconv_kernels.py and "
        "tests/core/test_ladder_kernels.py"
    )
    include = ("*/repro/*.py",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
            operands = [node.left, *node.comparators]
            if not any(_is_cost_expr(operand) for operand in operands):
                continue
            # Comparing a cost against None (sentinel checks) is fine;
            # so is comparing against a string label.
            if any(
                isinstance(operand, ast.Constant)
                and (operand.value is None or isinstance(operand.value, str))
                for operand in operands
            ):
                continue
            yield module.finding(
                self,
                node,
                "exact ==/!= on a float cost; use math.isclose (or "
                "compare plans/counters) unless bit-identity is the "
                "documented contract for this path",
            )


@register
class SeparabilityGateRule(Rule):
    """COST002: ``separable_join_operator`` consumed without its gate."""

    code = "COST002"
    name = "separability-gate-bypass"
    severity = ERROR
    description = (
        "a function consumes separable_join_operator without checking "
        "both halves of the gate (operator is not None AND "
        "cost_model.symmetric)"
    )
    invariant = (
        "the DPconv value-only sweep, LinDP's separable interval sweep "
        "and PlanTable's value-only join step are exact only for "
        "separable *symmetric* cost models (the split-independence "
        "precondition of arXiv 2409.08013); ungated fast paths "
        "silently misprice DiskCostModel plans — backed by the "
        "DiskCostModel cases of tests/core/test_dpconv.py, "
        "test_ladder_kernels.py and test_join_step.py"
    )
    include = (
        "*/repro/core/*.py",
        "*/repro/parallel/*.py",
        "*/repro/hyper/*.py",
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for top in module.tree.body:
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleContext, function: ast.AST
    ) -> Iterator[Finding]:
        reads: list[ast.AST] = []
        has_none_gate = False
        has_symmetric_read = False
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == _SEPARABLE_ATTR
                and isinstance(node.ctx, ast.Load)
            ):
                reads.append(node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == _SEPARABLE_ATTR
            ):
                reads.append(node)
            elif isinstance(node, ast.Compare) and any(
                isinstance(comparator, ast.Constant)
                and comparator.value is None
                for comparator in node.comparators
            ):
                has_none_gate = True
            elif isinstance(node, ast.Attribute) and node.attr == "symmetric":
                has_symmetric_read = True
        if not reads:
            return
        if has_none_gate and has_symmetric_read:
            return
        missing = []
        if not has_none_gate:
            missing.append("an `is (not) None` check on the operator")
        if not has_symmetric_read:
            missing.append("a `cost_model.symmetric` check")
        for read in reads:
            yield module.finding(
                self,
                read,
                "separable_join_operator consumed without "
                + " and ".join(missing)
                + "; the separable fast path requires both halves of "
                "the gate (split independence holds only for "
                "separable symmetric models)",
            )
