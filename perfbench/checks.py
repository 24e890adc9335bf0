"""Output checks, run after the timed region.

Each check returns a list of problems; an empty list means the outputs
agree with an independent recomputation.  Chaos verdicts and `series_*`
columns are not checked: their tail certificate is expected to change.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from orliczdyn import dynamics

REL_TOL = 1e-9
CELLS_PER_REPORT = 2
# cocycle factors (points of K times orbit steps) one sampled cell may cost
CELL_BUDGET = 40_000

_EXIT_BY_VERDICT = {"verified": 0, "not_verified_within_bound": 2, "refused": 3}

_CELL = re.compile(r"(fwd|bwd)_(\d+)|(cross|gap)_(fwd|bwd)_s(\d+)_l(\d+)")


def _cell_value(scenario, m: re.Match, n: int, x) -> float:
    """The quantity behind one matched trace column at x, from direct cocycle products."""
    r = scenario.powers
    if m.group(1):
        l = int(m.group(2)) - 1
        op = scenario.operator(l)
        cocycle = op.cocycle_fwd if m.group(1) == "fwd" else op.cocycle_bwd
        return cocycle(r[l] * n, x)
    family, direction = m.group(3), m.group(4)
    s, l = int(m.group(5)) - 1, int(m.group(6)) - 1
    gap = (r[l] - r[s]) * n
    if family == "gap":  # same_weight: plain cocycles of the shared weight
        op = scenario.operator(0)
        return (op.cocycle_fwd if direction == "fwd" else op.cocycle_bwd)(gap, x)
    op_s, op_l = scenario.operator(s), scenario.operator(l)
    if direction == "bwd":
        return op_s.cocycle_bwd(gap, x) * op_l.cocycle_bwd(r[l] * n, x) / op_s.cocycle_bwd(
            r[l] * n, x
        )
    return op_l.cocycle_fwd(gap, x) * op_s.cocycle_bwd(r[s] * n, x) / op_l.cocycle_bwd(
        r[s] * n, x
    )


def trace_cells(outcome, rng) -> list:
    """Sampled fwd/bwd/cross/gap cells against sup over K of direct products.

    Only rows with E_n = K (no deficit) are sampled, and n is capped so a
    cell costs at most CELL_BUDGET cocycle factors.
    """
    report, scenario = outcome.report, outcome.scenario
    columns = [c for c in report.columns if _CELL.fullmatch(c)]
    n_cap = max(1, CELL_BUDGET // (3 * len(scenario.K) * scenario.powers[-1]))
    rows = [row for row in report.rows if row[2] == 0.0 and row[0] <= n_cap]
    if not columns or not rows:
        return []
    problems = []
    for _ in range(CELLS_PER_REPORT):
        column = rng.choice(columns)
        n, values, _ = rng.choice(rows)
        reported = values[report.columns.index(column)]
        m = _CELL.fullmatch(column)
        direct = max(_cell_value(scenario, m, n, x) for x in scenario.K)
        if not math.isclose(direct, reported, rel_tol=REL_TOL):
            problems.append(f"{column} at n={n}: trace {reported!r}, direct {direct!r}")
    return problems


def witness_residuals(outcome) -> list:
    w = outcome.witness
    rho0, rhos = dynamics.verify_witness(
        outcome.scenario, w["vector"], w["f"], w["targets"], w["n"]
    )
    problems = []
    for name, got, want in [("rho_0", w["rho_0"], rho0)] + [
        (f"rho_{i + 1}", g, r) for i, (g, r) in enumerate(zip(w["rho_l"], rhos))
    ]:
        if not math.isclose(got, want, rel_tol=REL_TOL):
            problems.append(f"witness {name}: reported {got!r}, recomputed {want!r}")
    return problems


def periodic_tail(outcome) -> list:
    """N(T^n p - p) must not exceed the tail bound plus the rounding in p.

    The tail bound covers the truncation in exact arithmetic.  Each value
    of p and of T^n p is a product of at most (t_max + 1) n weight factors
    or quotients, so rounding moves |T^n p - p| by at most gamma |p| per
    point, gamma = 2.02 (t_max + 1) n u with u = 2^-53, and the norm by at
    most gamma N(p).
    """
    res = outcome.periodic
    phi = outcome.scenario.phi
    op = outcome.scenario.operator(0)
    residual = (op.apply(res.point, res.n) - res.point).luxemburg_norm(phi)
    rounding = 2.02 * (res.t_max + 1) * res.n * 2.0**-53 * res.point.luxemburg_norm(phi)
    allowed = res.tail_bound * (1.0 + REL_TOL) + rounding
    if residual <= allowed:
        return []
    return [f"periodic point: N(T^n p - p) = {residual!r} > tail bound {res.tail_bound!r}"
            f" + rounding {rounding!r}"]


def check_outcome(outcome, rng) -> list:
    problems = []
    if outcome.report is not None:
        problems += trace_cells(outcome, rng)
    if outcome.witness:
        problems += witness_residuals(outcome)
    if outcome.periodic is not None:
        problems += periodic_tail(outcome)
    return problems


def cli_call(code: int, out_dir: Path, library_verdicts) -> list:
    """Exit code and each report.json verdict of one batch against library runs."""
    problems = []
    for i, want in enumerate(library_verdicts):
        try:
            got = json.loads((out_dir / f"cfg_{i}" / "report.json").read_text())["verdict"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"cfg_{i}: unreadable report.json ({exc})")
            continue
        if got != want:
            problems.append(f"cfg_{i}: report.json verdict {got}, library {want}")
    want_code = max(_EXIT_BY_VERDICT[v] for v in library_verdicts)
    if code != want_code:
        problems.append(f"exit code {code}, library runs imply {want_code}")
    return problems
