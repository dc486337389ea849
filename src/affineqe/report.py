"""Verification reports shared by the extension, warp, and CLI layers."""
from __future__ import annotations

from dataclasses import dataclass, field


def fmt_float(x) -> float:
    """x as a float fixed to 17 significant digits, for JSON reports."""
    return float(format(float(x), ".17g"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name,
                "max_residual": fmt_float(self.max_residual),
                "tolerance": self.tolerance,
                "pass": self.passed}


@dataclass
class VerificationReport:
    checks: list
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, max_residual: float, tolerance: float) -> CheckResult:
        result = CheckResult(name, float(max_residual), float(tolerance),
                             float(max_residual) <= float(tolerance))
        self.checks.append(result)
        return result

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks],
                "metadata": self.metadata,
                "pass": self.passed}
