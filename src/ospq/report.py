"""Uniform result rows for relation checks.

Every verification routine in this package (classical matrices, symbolic
algebra, numeric representations) produces a flat list of CheckResult rows,
one per relation instance.  A row carries a stable identifier, a boolean
outcome, a residual (``"exact-zero"`` or ``"nonzero"`` for exact checks, a
float for numeric ones, ``None`` for structural ones, which compute none),
and an optional human-readable detail string.  Keeping the shape identical
across layers lets the `ospq` command serialize any mixture of checks into a
single report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# fixed bounds of the matrix checks: relation residuals, entrywise
# deviations, and squared amplitudes against the exact norm-factor ratios
RESIDUAL_TOL = 1e-9
STRUCTURAL_TOL = 1e-12
BRIDGE_TOL = 1e-10

# longest printed residual a failing exact row carries before it is cut
RESIDUAL_TEXT_LIMIT = 200
TRUNCATED_MARK = " [...]"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single relation instance."""

    id: str
    ok: bool
    residual: float | str | None = None
    detail: str = field(default="")

    def to_row(self) -> dict:
        """Serialize to the dict shape used in JSON reports; a row without
        a residual reports null."""
        return {
            "id": self.id,
            "status": "pass" if self.ok else "fail",
            "residual": self.residual,
            "detail": self.detail,
        }


def residual_row(ident: str, residual) -> CheckResult:
    """An exact row: exact zero, or the residual's term count and its
    printed form, cut at RESIDUAL_TEXT_LIMIT characters.  The residual is
    anything with is_zero(), len() and a one-line str()."""
    if residual.is_zero():
        return CheckResult(ident, True, "exact-zero", "")
    text = str(residual)
    if len(text) > RESIDUAL_TEXT_LIMIT:
        text = text[:RESIDUAL_TEXT_LIMIT] + TRUNCATED_MARK
    return CheckResult(ident, False, "nonzero", f"{len(residual)} residual terms: {text}")


def summarize(results: list[CheckResult]) -> dict:
    """Aggregate counts for a batch of check rows."""
    failed = [r.id for r in results if not r.ok]
    return {
        "total": len(results),
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "failing_ids": sorted(failed),
    }
