"""The closed loop and the two kinds of workload it drives.

Importing this module imports orliczdyn, so `run.py` imports it only
after putting the checkout's `src/` on the path.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import checks, execute


@dataclass
class Sample:
    index: int  # entry index into the workload's document list
    wall: float
    result: object = None  # execute.Outcome, or (exit code, out dir) for chaos_batch
    error: str | None = None
    digest: str | None = None
    problems: tuple = ()

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def closed_loop(seconds, run_one, n_entries, tracer=None, keep=None, start=0) -> list:
    """Run entries back to back until `seconds` of scenario time have passed.

    Scenario `start` is the first; `keep(sample)` runs between scenarios,
    outside the timed part.
    """
    samples, busy, i = [], 0.0, start
    while busy < seconds:
        idx = i % n_entries
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = run_one(i, idx)
            else:
                result = tracer.run_scenario(i, run_one, i, idx)
            error = None
        except Exception as exc:  # a scenario that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        busy += wall
        sample = Sample(idx, wall, result, error)
        if keep is not None:
            keep(sample)
        samples.append(sample)
        i += 1
    return samples


class LibraryWorkload:
    """transitive_scan and constructions: library calls in-process.

    Outputs are checked once per distinct document; repeats of a document
    must reproduce its digest.
    """

    configs_per_call = 1

    def __init__(self, entries, seed):
        self.entries = entries
        self.seed = seed
        self.first = {}  # entry index -> first Outcome

    def run_one(self, i, idx):
        return execute.run_library(self.entries[idx][1])

    def keep(self, sample):
        if sample.result is None:
            return
        sample.digest = sample.result.digest()
        # keep one Outcome per document, so memory does not grow with the run
        sample.result = self.first.setdefault(sample.index, sample.result)

    def check(self, samples):
        rng = random.Random(f"check/{self.seed}")
        problems, digests = {}, {}
        for idx in sorted(self.first):
            try:
                problems[idx] = checks.check_outcome(self.first[idx], rng)
            except Exception as exc:
                problems[idx] = [f"check raised {type(exc).__name__}: {exc}"]
        for s in samples:
            if s.error is None:
                want = digests.setdefault(s.index, s.digest)
                s.problems = tuple(problems[s.index]) + (
                    () if s.digest == want else ("outputs differ between runs of one document",)
                )

    def verdicts(self, samples):
        return [s.result.verdict for s in samples if s.result is not None]

    def close(self):
        pass


class CliWorkload:
    """chaos_batch: multi-config `orliczdyn check` calls through cli.main."""

    def __init__(self, entries, seed, out_root: Path):
        os.environ["ORLICZ_DYN_THREADS"] = str(len(os.sched_getaffinity(0)))
        self.entries = entries
        self.configs_per_call = len(entries[0][1])
        out_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="chaos_batch-", dir=out_root))
        self.paths = [
            execute.write_configs(docs, self.work / "configs" / f"entry_{k}")
            for k, (_, docs) in enumerate(entries)
        ]
        self.library = {}  # entry index -> library verdicts of its configs

    def run_one(self, i, idx):
        out_dir = self.work / "out" / f"call_{i}"
        return execute.run_cli_batch(self.paths[idx], out_dir), out_dir

    def keep(self, sample):
        pass

    def check(self, samples):
        for s in samples:
            if s.error is not None:
                continue
            if s.index not in self.library:
                docs = self.entries[s.index][1]
                self.library[s.index] = [execute.run_library(d).verdict for d in docs]
            code, out_dir = s.result
            s.problems = tuple(checks.cli_call(code, out_dir, self.library[s.index]))

    def verdicts(self, samples):
        return [v for s in samples if s.index in self.library for v in self.library[s.index]]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
