"""Print one sha256 over every result of a fixed set of benchmark documents.

    python tests/result_dump.py

The documents are 2 blocks at seeds 11, 22 and 33 of all three benchmark
workloads (192 documents), each run in process through
``perfbench.execute.run_library`` under ``PYTHONHASHSEED=0`` (the script
re-executes itself with it).  For each document the hash covers the
digest, trace.csv, verdict, n_star, reason, sub-verdicts and report.json,
and the float hex of the witness and periodic-point entries, rho_0,
rho_l, the tail bound and the periodic point's norm.  It prints the
document count and the hash.

A change meant to leave every result alone must leave this hash alone.
Compare two commits on one machine: float bits depend on the numpy build,
so hashes from different machines need not agree.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (11, 22, 33)
BLOCKS = 2


def _hex_entries(vec) -> str:
    return ";".join(f"{u}:{float(v).hex()}" for u, v in vec.to_json_entries())


def _record(out) -> str:
    parts = [out.digest(), out.verdict]
    report = out.report
    if report is not None:
        parts += [
            report.trace_csv(),
            repr(report.n_star),
            repr(report.reason),
            json.dumps([dict(sv) for sv in report.sub_verdicts], sort_keys=True),
            json.dumps(report.to_json_dict(), sort_keys=True),
        ]
    if out.witness:
        w = out.witness
        parts += [
            _hex_entries(w["vector"]),
            w["rho_0"].hex(),
            ",".join(r.hex() for r in w["rho_l"]),
        ]
    if out.periodic is not None:
        p = out.periodic
        parts += [
            _hex_entries(p.point),
            p.tail_bound.hex(),
            p.point.luxemburg_norm(out.scenario.phi).hex(),
        ]
    return "\n".join(parts)


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import execute, scenarios

    h = hashlib.sha256()
    count = 0
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            for label, docs in scenarios.generate(workload, seed, BLOCKS):
                for doc in docs if isinstance(docs, list) else [docs]:
                    h.update(f"{workload}/{seed}/{label}\n".encode())
                    h.update(_record(execute.run_library(doc)).encode())
                    count += 1
    print(count, h.hexdigest())


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__], env)
    main()
