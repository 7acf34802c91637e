"""The lint engine: walk files, run rules, filter pragmas and baseline.

:func:`run_lint` is the one entry point the CLI, the test suite, and
CI all share — ``pytest`` imports it directly (the meta-test asserts
the live tree is clean modulo the committed baseline), so the linter
cannot drift from what the gate actually enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.findings import Finding, severity_rank
from repro.lint.framework import (
    Rule,
    all_rules,
    iter_source_files,
    load_module,
)

__all__ = ["LintResult", "run_lint"]


@dataclass(slots=True)
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: live findings, after pragma and baseline filtering,
            sorted by location.
        baselined: findings absorbed by the committed baseline.
        suppressed: findings silenced by an in-source pragma.
        stale_baseline: baseline entries that matched nothing — debt
            that has been paid and should be deleted from the file.
        files_checked: number of files parsed and checked.
        rules: codes of the rules that ran.
    """

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0
    rules: tuple[str, ...] = ()

    def gate(self, fail_on: str = "warning") -> bool:
        """Whether this result passes the gate.

        ``fail_on`` is the weakest severity that fails the run;
        ``"never"`` always passes. Baselined and pragma-suppressed
        findings never gate.
        """
        if fail_on == "never":
            return True
        threshold = severity_rank(fail_on)
        return all(
            severity_rank(finding.severity) < threshold
            for finding in self.findings
        )


def run_lint(
    paths: Sequence[Path | str],
    *,
    rules: Iterable[Rule] | None = None,
    baseline: Baseline | None = None,
    root: Path | str | None = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) with ``rules``.

    Args:
        paths: files and/or directories to scan.
        rules: rule instances; defaults to every registered rule.
        baseline: grandfathered findings; ``None`` means none.
        root: when given, reported paths are made relative to it (the
            repository root in CI), keeping reports and baselines
            machine-independent.

    Raises:
        LintError: a scanned file cannot be read or parsed.
    """
    active_rules = list(rules) if rules is not None else all_rules()
    base = Path(root) if root is not None else None
    result = LintResult(rules=tuple(rule.code for rule in active_rules))

    for file_path in iter_source_files(Path(p) for p in paths):
        display = _display_path(file_path, base)
        module = load_module(file_path, display)
        result.files_checked += 1
        for rule in active_rules:
            if not rule.applies_to(display):
                continue
            for finding in rule.check(module):
                if module.pragmas.suppresses(finding.rule, finding.line):
                    result.suppressed.append(finding)
                elif baseline is not None and baseline.absorbs(finding):
                    result.baselined.append(finding)
                else:
                    result.findings.append(finding)

    if baseline is not None:
        result.stale_baseline = baseline.stale_entries()
    result.findings.sort(key=lambda f: f.sort_key())
    result.baselined.sort(key=lambda f: f.sort_key())
    result.suppressed.sort(key=lambda f: f.sort_key())
    return result


def _display_path(path: Path, root: Path | None) -> str:
    """Path as reported: relative to ``root`` when possible."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
