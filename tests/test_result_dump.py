"""``result_dump.py`` is run by hand and not collected, so this smoke test
keeps its ``_record`` working against the library: one document of each
benchmark workload, plus a witness document so that every branch of
``_record`` runs, must give the same text on two runs."""

from pathlib import Path

import result_dump

ROOT = Path(__file__).resolve().parents[1]


def test_record_runs_and_repeats(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import execute, scenarios

    docs = []
    for workload in scenarios.WORKLOADS:
        block = scenarios.generate(workload, result_dump.SEEDS[0], 1)
        doc = block[0][1]
        docs.append(doc[0] if isinstance(doc, list) else doc)
        docs += [d for name, d in block if name.startswith("witness")][:1]
    assert len(docs) == 4
    for doc in docs:
        first, second = (result_dump._record(execute.run_library(doc)) for _ in range(2))
        assert first and first == second
