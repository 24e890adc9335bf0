"""orliczdyn benchmark: closed-loop scenario workloads with per-layer traces.

    python3 perfbench/run.py --workload transitive_scan --seed 1 --seconds 34 --trace 0

One client runs the workload's seeded scenario documents back to back
for --seconds of scenario time (a closed loop; only chaos_batch uses
threads, through the CLI's own pool).  Outputs are checked after the
timed region.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced segments, and reports the per-layer metrics plus
the tracing overhead.  --workload all runs every workload
in its own process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Full results (provenance, per-scenario
digests, spans) go to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9  # fresh-interpreter imports, spread over the timed loop
BLOCKS = 4  # template blocks per seed; the loop cycles through them
# A traced run alternates untraced and traced segments, so both see the
# same drift in machine speed.
TRACE_SEGMENTS = 10

END_TO_END = {
    "scenarios_per_s": "1/s",
    "scenario_s_p50": "s",
    "scenario_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import orliczdyn; print(time.perf_counter() - t)"
)


def _import_package():
    """Import orliczdyn from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import orliczdyn
    except ImportError as exc:
        sys.exit(f"error: cannot import orliczdyn from {SRC}: {exc}")
    if Path(orliczdyn.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: orliczdyn was imported from {orliczdyn.__file__}, not {SRC}")


def import_time() -> float:
    """Wall time of `import orliczdyn` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", _SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout)


def tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def _git_rev() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, n_samples, n_entries) -> dict:
    import numpy
    import orliczdyn

    h = hashlib.sha256()
    for path in sorted((SRC / "orliczdyn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "git_rev": _git_rev(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "accel_backend": orliczdyn.ACCEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenarios": n_samples,
        "distinct_documents": n_entries,
    }


def end_to_end(samples, setup_s, rss_mb, configs_per_call) -> tuple:
    walls = [s.wall for s in samples if s.error is None] or [float("nan")]
    done = sum(1 for s in samples if s.error is None) * configs_per_call
    tail_s, pct = tail(walls)
    metrics = {
        "scenarios_per_s": done / sum(s.wall for s in samples),
        "scenario_s_p50": statistics.median(walls),
        "scenario_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - sum(s.failed for s in samples) / len(samples),
    }
    notes = {"scenario_s_tail": f"p{pct:.1f} of {len(walls)} samples"}
    return metrics, notes


def run_workload(args) -> int:
    from perfbench import scenarios, tracing
    from perfbench.workloads import CliWorkload, LibraryWorkload, closed_loop

    entries = scenarios.generate(args.workload, args.seed, BLOCKS)
    if args.workload == "chaos_batch":
        work = CliWorkload(entries, args.seed, OUT)
    else:
        work = LibraryWorkload(entries, args.seed)
    tracer = None
    try:
        work.run_one(-1, 0)  # warm-up, untimed
        if args.trace == 0:
            setup, busy = [import_time()], 0.0

            def keep(sample):
                nonlocal busy
                work.keep(sample)
                busy += sample.wall
                if len(setup) < SETUP_REPEATS and busy >= len(setup) * args.seconds / SETUP_REPEATS:
                    setup.append(import_time())

            samples = closed_loop(args.seconds, work.run_one, len(entries), keep=keep)
        else:
            tracer = tracing.Tracer()
            plain, traced = [], []
            for segment in range(TRACE_SEGMENTS):
                seconds = args.seconds / TRACE_SEGMENTS
                start = len(plain) + len(traced)
                if segment % 2 == 0:
                    plain += closed_loop(seconds, work.run_one, len(entries),
                                         keep=work.keep, start=start)
                    continue
                tracer.install()
                try:
                    traced += closed_loop(seconds, work.run_one, len(entries), tracer,
                                          keep=work.keep, start=start)
                finally:
                    tracer.uninstall()
            samples = plain + traced
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work.check(samples)
        verdicts = work.verdicts(samples)
    finally:
        work.close()

    if tracer is None:
        values, notes = end_to_end(samples, statistics.median(setup), rss_mb,
                                   work.configs_per_call)
        units = END_TO_END
    else:
        values, notes = tracing.layer_metrics(tracer, len(traced)), {}

        def rate(part):
            return len(part) / sum(s.wall for s in part)

        values["trace.overhead_frac"] = rate(plain) / rate(traced) - 1.0
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    failed = sum(s.failed for s in samples)
    prov = provenance(args, len(samples), len(entries))
    mix = {v: verdicts.count(v) for v in sorted(set(verdicts))}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("verdicts " + json.dumps(mix, sort_keys=True))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {values[name]:14.6g} {unit}{note}")
    if tracer is not None:
        scen = values["trace.scenario_s"] or 1.0
        shares = {k: f"{v / scen:.1%}" for k, v in values.items()
                  if k.endswith("_s") and k != "trace.scenario_s" and v}
        print("share of traced scenario time " + json.dumps(shares))
        if tracer.absent:
            print("absent hooks: " + ", ".join(tracer.absent), file=sys.stderr)
    for s in [s for s in samples if s.failed][:5]:
        text = s.error or "; ".join(s.problems)
        print(f"FAILED entry {s.index} ({entries[s.index][0]}): {text}", file=sys.stderr)

    record = {
        "provenance": prov,
        "verdicts": mix,
        "metrics": values,
        "notes": notes,
        "samples": [[s.index, entries[s.index][0], s.wall, s.digest, s.error or list(s.problems)]
                    for s in samples],
        "absent_hooks": tracer.absent if tracer else [],
        "spans": tracer.spans if tracer else [],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from perfbench.scenarios import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print("\n".join(lines))
            return proc.returncode
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    _import_package()
    from perfbench.scenarios import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
