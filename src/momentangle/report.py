"""Verification records: named residuals against tolerances, two renderings.

The machine rendering is the contract: one record per line, tab-separated
``name, residual, tolerance, pass|fail``, floats printed with ``repr`` so
identical runs produce identical bytes. A record passes iff
residual <= tolerance; checks that want a *lower* bound on a quantity store
the margin deficit (bound - value) against tolerance 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# residual tolerances of the standard reports, each in one place: the
# procedures and the projective verification both read them
TOL_LAGRANGIAN = 1e-8
TOL_MINIMAL = 1e-4
TOL_HMINIMAL = 1e-4
TOL_NOETHER = 1e-8
TOL_VO_SYMMETRY = 1e-12
TOL_COAREA_REL = 1e-3
TOL_VARIATION_REL = 1e-3
TOL_VARIATION_CIRCLE = 1e-4
TOL_STATIONARITY = 1e-3
CONTROL_BOUND = 0.1


@dataclass(frozen=True)
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    samples: int | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)
    seed: int | None = None

    def add(
        self,
        name: str,
        residual: float,
        tolerance: float,
        samples: int | None = None,
        detail: str = "",
    ) -> CheckRecord:
        rec = CheckRecord(name, float(residual), float(tolerance), samples, detail)
        self.records.append(rec)
        return rec

    def add_bool(self, name: str, ok: bool, detail: str = "") -> CheckRecord:
        return self.add(name, 0.0 if ok else 1.0, 0.0, detail=detail)

    def add_lower_bound(
        self, name: str, value: float, bound: float, samples: int | None = None, detail: str = ""
    ) -> CheckRecord:
        """Passes iff value >= bound; stores the margin deficit bound - value."""
        return self.add(name, float(bound) - float(value), 0.0, samples, detail)

    def extend(self, other: "VerificationReport") -> None:
        self.records.extend(other.records)

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    def render_machine(self) -> str:
        lines = [
            f"{r.name}\t{r.residual!r}\t{r.tolerance!r}\t{'pass' if r.passed else 'fail'}"
            for r in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def render_human(self) -> str:
        lines = []
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        width = max((len(r.name) for r in self.records), default=4)
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            extra = f"  [{r.samples} samples]" if r.samples is not None else ""
            note = f"  ({r.detail})" if r.detail else ""
            lines.append(
                f"{status}  {r.name.ljust(width)}  residual={r.residual!r}"
                f"  tolerance={r.tolerance!r}{extra}{note}"
            )
        verdict = "PASS" if self.overall else "FAIL"
        lines.append(f"overall: {verdict} ({sum(r.passed for r in self.records)}/{len(self.records)} checks)")
        return "\n".join(lines) + "\n"
