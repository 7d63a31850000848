"""Per-iteration records shared by all iterative solvers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IterationTrace:
    """Per-iteration error/residual history for one solver run."""

    method: str
    errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    fine_solves: int = 0
    meta: dict = field(default_factory=dict)

    def record(self, error=None, residual=None, fine_solves=0):
        if error is not None:
            self.errors.append(float(error))
        if residual is not None:
            self.residuals.append(float(residual))
        self.fine_solves += fine_solves

    @property
    def iterations(self) -> int:
        return max(len(self.errors), len(self.residuals))

    def converged_at(self, tol: float) -> int:
        """First iteration index whose error is below tol, or -1."""
        for k, e in enumerate(self.errors):
            if e < tol:
                return k
        return -1

    def contraction_factors(self, floor: float = 1e-11, skip: int = 2) -> list:
        """Error ratios e_{k+1}/e_k after the first ``skip`` iterations,
        keeping only pairs above the roundoff floor (e_k > floor and
        e_{k+1} > 1e-14)."""
        errs = self.errors
        return [b / a for a, b in zip(errs[skip:-1], errs[skip + 1:])
                if a > floor and b > 1e-14]
