"""Run scenario documents through the library or the CLI.

A scenario is parsing its document, building `Scenario`/`K`, and running
the checker or construction.  The result of a library run is an
`Outcome`: everything the output checks and the trace digest need.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from orliczdyn import cli, dynamics
from orliczdyn.orlicz import OrliczVector
from perfbench.scenarios import dumps

# Looked up on the module at call time, so the traced run sees its hooks.
_CHECKERS = {
    "disjoint_transitive": "check_disjoint_transitive",
    "same_weight": "check_same_weight",
    "disjoint_mixing": "check_disjoint_mixing",
    "chaotic": "check_chaotic",
    "disjoint_chaotic": "check_disjoint_chaotic",
}


@dataclass
class Outcome:
    scenario: object
    report: object = None  # ConditionReport of the checker
    witness: dict = field(default_factory=dict)  # n, f, targets, vector, rho_0, rho_l
    periodic: object = None  # dynamics.PeriodicPointResult

    @property
    def verdict(self) -> str:
        return "periodic_point" if self.periodic is not None else self.report.verdict

    def digest(self) -> str:
        """sha256 of trace.csv and vector entries at 15 significant digits.

        Norms enter at 10 digits: their bisection stops at 1e-12 relative,
        and their summation order follows set iteration, which changes
        between interpreter runs.
        """
        h = hashlib.sha256()
        if self.report is not None:
            h.update(self.report.verdict.encode())
            h.update(self.report.trace_csv().encode())
        if self.witness:
            h.update(_entries_text(self.witness["vector"]).encode())
            h.update(("%.10g" % self.witness["rho_0"]).encode())
            h.update(",".join("%.10g" % r for r in self.witness["rho_l"]).encode())
        if self.periodic is not None:
            h.update(_entries_text(self.periodic.point).encode())
            h.update(("%.10g" % self.periodic.tail_bound).encode())
        return h.hexdigest()


def _entries_text(vec: OrliczVector) -> str:
    return ";".join(f"{u}:{v:.15g}" for u, v in vec.to_json_entries())


def run_library(doc: dict) -> Outcome:
    """Parse one document and run its checker or construction in-process."""
    mode, scenario, witness_opts = cli.parse_config(doc)
    out = Outcome(scenario)
    if "periodic_point" in doc:
        E = scenario.K
        out.periodic = dynamics.build_periodic_point(
            scenario.operator(0), scenario.phi, OrliczVector.indicator(E), E,
            int(doc["periodic_point"]["n"]), scenario.t_max,
        )
        out.periodic.point.luxemburg_norm(scenario.phi)
        return out
    if mode == "witness":
        out.report = dynamics.check_disjoint_transitive(scenario)
        n = witness_opts.get("n") or out.report.n_star
        if n is not None:
            f = OrliczVector.indicator(scenario.K)
            targets = [OrliczVector.indicator(scenario.K) for _ in range(scenario.L)]
            v = dynamics.build_witness(scenario, f, targets, n, scenario.K)
            rho0, rhos = dynamics.verify_witness(scenario, v, f, targets, n)
            out.witness = {"n": n, "f": f, "targets": targets, "vector": v,
                           "rho_0": rho0, "rho_l": rhos}
        return out
    out.report = getattr(dynamics, _CHECKERS[mode])(scenario)
    return out


def write_configs(docs, directory: Path) -> list:
    """Write one batch's documents as cfg_<i>.json; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"cfg_{i}.json"
        path.write_text(dumps(doc))
        paths.append(path)
    return paths


def run_cli_batch(paths, out_dir: Path) -> int:
    """One in-process `orliczdyn check` call over several configs."""
    argv = ["check", "--config", *map(str, paths), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)
