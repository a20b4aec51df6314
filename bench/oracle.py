"""Independent checks of the CLI's CSV output.

Expected values come from the benchmark's own copy of each graph through
numpy: integer traces of A^2 and A^4, codegrees from the integer product
A @ A, and the energy from numpy.linalg.eigvalsh.  Bound checks use the
package's soundness slack, never a looser one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from menergy.report import SOUNDNESS_RTOL

from corpus import Case

# Per-eigenvalue agreement the test suite demands of Jacobi against eigvalsh,
# summed over the n eigenvalues of an energy.
ENERGY_ATOL_PER_VERTEX = 1e-9
# The CSV carries 12 significant digits.
PRINT_RTOL = 1e-11

INTEGER_COLUMNS = ("n", "m", "max_degree", "zagreb", "quad_count", "m2", "m4")


@dataclass(frozen=True)
class Expected:
    n: int
    m: int
    max_degree: int
    zagreb: int
    quad_count: int
    m2: int
    m4: int
    energy: float

    def energy_close(self, value: float) -> bool:
        tol = ENERGY_ATOL_PER_VERTEX * self.n + PRINT_RTOL * self.energy
        return abs(value - self.energy) <= tol

    def slack(self) -> float:
        return SOUNDNESS_RTOL * max(1.0, self.energy)


def expect(case: Case) -> Expected:
    n = case.n
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in case.edges:
        a[i, j] = a[j, i] = 1
    deg = a.sum(axis=1)
    codeg = a @ a
    off = codeg[np.triu_indices(n, 1)]
    pair_sum = int((off * (off - 1) // 2).sum())
    m = int(deg.sum()) // 2
    zagreb = int((deg * deg).sum())
    m2 = int(np.trace(codeg))
    m4 = int(np.trace(codeg @ codeg))
    quad = pair_sum // 2
    if pair_sum % 2 or m4 != 2 * zagreb - 2 * m + 8 * quad or m2 != 2 * m:
        raise RuntimeError(f"oracle moments inconsistent for {case.label}")
    energy = float(np.abs(np.linalg.eigvalsh(a.astype(np.float64))).sum()) if n else 0.0
    return Expected(n, m, int(deg.max(initial=0)), zagreb, quad, m2, m4, energy)


@dataclass
class Outcome:
    """Per-item verdicts of one CLI call, relative bound gaps, and diagnostics."""

    ok: list[bool] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, where: str, what: str) -> bool:
        self.problems.append(f"{where}: {what}")
        return False


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_analyze(text: str, cases: tuple[Case, ...], expected: list[Expected]) -> Outcome:
    """One item per graph: moments, energy, quartic and van Dam soundness, class."""
    out = Outcome()
    rows = _rows(text)
    if len(rows) != len(cases):
        out.fail("analyze", f"{len(rows)} rows for {len(cases)} graphs")
        out.ok = [False] * len(cases)
        return out
    for row, case, exp in zip(rows, cases, expected):
        where = case.label
        good = True
        for col in INTEGER_COLUMNS:
            if row[col] != str(getattr(exp, col)):
                good = out.fail(where, f"{col}={row[col]}, oracle {getattr(exp, col)}")
        energy = float(row["energy"])
        if not exp.energy_close(energy):
            good = out.fail(where, f"energy {energy!r}, oracle {exp.energy!r}")
        upper = float(row["quartic_bound"])
        if upper < exp.energy - exp.slack():
            good = out.fail(where, f"quartic bound {upper!r} below energy {exp.energy!r}")
        if row["van_dam_bound"] and float(row["van_dam_bound"]) < exp.energy - exp.slack():
            good = out.fail(where, f"van Dam bound {row['van_dam_bound']} below energy")
        tag = row["classification"].split("(")[0]
        if case.expected_class is not None and tag != case.expected_class:
            good = out.fail(where, f"class {row['classification']}, expected {case.expected_class}")
        out.ok.append(good)
        if exp.energy > 0:
            out.gaps.append((upper - exp.energy) / exp.energy)
    return out


def check_sweep(
    text: str, cases: tuple[Case, ...], expected: list[Expected], max_degree: int
) -> Outcome:
    """Two items per graph and degree: the certified upper and lower bounds."""
    out = Outcome()
    rows = _rows(text)
    degrees = list(range(2, max_degree + 1, 2))
    if len(rows) != len(cases) * len(degrees):
        out.fail("sweep", f"{len(rows)} rows for {len(cases)} graphs x {len(degrees)} degrees")
        out.ok = [False] * (2 * len(cases) * len(degrees))
        return out
    for index, (case, exp) in enumerate(zip(cases, expected)):
        prev_upper = prev_lower = None
        for degree, row in zip(degrees, rows[index * len(degrees) :]):
            where = f"{case.label} degree {degree}"
            shared = row["graph"] == str(index) and row["degree"] == str(degree)
            if not shared:
                out.fail(where, f"row is graph {row['graph']} degree {row['degree']}")
            energy = float(row["energy"])
            if not exp.energy_close(energy):
                shared = out.fail(where, f"energy {energy!r}, oracle {exp.energy!r}")
            if float(row["quartic_bound"]) < exp.energy - exp.slack():
                shared = out.fail(where, "quartic bound below energy")
            upper = float(row["lp_upper"])
            lower = float(row["lp_lower"])
            up_ok = lo_ok = shared
            if row["upper_certified"] != "true":
                up_ok = out.fail(where, "upper bound not certified")
            if row["lower_certified"] != "true":
                lo_ok = out.fail(where, "lower bound not certified")
            if upper < exp.energy - exp.slack():
                up_ok = out.fail(where, f"upper bound {upper!r} below energy {exp.energy!r}")
            if lower > exp.energy + exp.slack():
                lo_ok = out.fail(where, f"lower bound {lower!r} above energy {exp.energy!r}")
            if prev_upper is not None and upper > prev_upper:
                up_ok = out.fail(where, "upper bound increased with degree")
            if prev_lower is not None and lower < prev_lower:
                lo_ok = out.fail(where, "lower bound decreased with degree")
            out.ok += [up_ok, lo_ok]
            prev_upper, prev_lower = upper, lower
        out.gaps.append((prev_upper - prev_lower) / exp.energy)
    return out
