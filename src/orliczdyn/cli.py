"""Batch experiment runner.

``orliczdyn check --config scenario.json --out results/`` parses a
scenario document, dispatches the selected checker, writes report.json
and trace.csv, prints a one-line verdict and exits with 0 (verified),
2 (not verified within bound), 3 (refused) or 1 (error).

``orliczdyn trace`` writes only the per-n trace CSV.

ORLICZ_DYN_THREADS caps the worker count when several configs are given
(0 or unset means auto).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import dynamics
from .dynamics import (
    ConditionReport,
    Scenario,
    VERDICT_NOT_VERIFIED,
    VERDICT_REFUSED,
    VERDICT_VERIFIED,
    build_witness,
    verify_witness,
)
from .group import CompactSet, GroupError, GroupModel
from .orlicz import OrliczVector
from .translation import Weight, WeightError
from .young import YoungFunctionError, young_from_config

MODES = (
    "disjoint_transitive",
    "same_weight",
    "disjoint_mixing",
    "chaotic",
    "disjoint_chaotic",
    "witness",
)

_EXIT_BY_VERDICT = {VERDICT_VERIFIED: 0, VERDICT_NOT_VERIFIED: 2, VERDICT_REFUSED: 3}


class ConfigError(Exception):
    pass


def _field(doc: dict, name: str, caster, default=None, required=True):
    key = name.rpartition(".")[2]  # a dotted name locates a nested field in messages
    if key not in doc:
        if required:
            raise ConfigError(f"field '{name}' is missing")
        return default
    try:
        return caster(doc[key])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"field '{name}' is invalid: {exc}") from exc


def _parse_set(model: GroupModel, doc) -> CompactSet:
    if isinstance(doc, dict) and "box" in doc:
        box = doc["box"]
        return CompactSet.box(model, box["lo"], box["hi"])
    if isinstance(doc, dict) and "points" in doc:
        return CompactSet.from_elements(
            model, (model.element(c) for c in doc["points"])
        )
    raise ConfigError("field 'K' must carry a 'box' or 'points' entry")


def parse_config(doc: dict):
    """Returns (mode, Scenario, witness options or None)."""
    mode = _field(doc, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    model = _field(doc, "group", _group)
    phi = _field(doc, "young", young_from_config)
    a = _field(doc, "a", lambda c: model.element(c))
    weights = _field(doc, "weights", _weights)
    powers = _field(doc, "powers", lambda rs: tuple(_positive_int(r) for r in rs))
    K = _field(doc, "K", lambda d: _parse_set(model, d))
    epsilon = _field(doc, "epsilon", float)
    n_max = _field(doc, "n_max", _positive_int)
    t_max = _field(doc, "t_max", _positive_int, default=50, required=False)
    cap = _field(doc, "e_k_deficit_cap", float, default=0.0, required=False)
    try:
        scenario = Scenario(
            model=model,
            phi=phi,
            a=a,
            weights=weights,
            powers=powers,
            K=K,
            epsilon=epsilon,
            n_max=n_max,
            t_max=t_max,
            e_deficit_cap=cap,
        )
    except dynamics.ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    witness_opts = _parse_witness(doc, scenario) if mode == "witness" else None
    return mode, scenario, witness_opts


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    return value


def _int_at_least(value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    return value


def _positive_int(value) -> int:
    return _int_at_least(value, 1)


def _nonnegative_int(value) -> int:
    return _int_at_least(value, 0)


def _group(doc) -> GroupModel:
    doc = _object(doc)
    if doc.get("kind") == "int_lattice":
        _field(doc, "group.d", _positive_int)
    return GroupModel.from_config(doc)


def _table_keys(entries) -> None:
    """The keys of [[key, value], ...] must be distinct lists of integers."""
    keys = []
    for key, _ in entries:
        if not isinstance(key, list) or not all(
            isinstance(u, int) and not isinstance(u, bool) for u in key
        ):
            raise ValueError(f"table key {key!r} must be a list of integers")
        keys.append(tuple(key))
    if len(set(keys)) < len(keys):
        raise ValueError("table keys must be distinct")


def _weights(docs) -> tuple:
    out = []
    for i, doc in enumerate(docs):
        doc = _object(doc)
        if doc.get("rule") == "clamp_exp":
            _field(doc, f"weights[{i}].coord", _nonnegative_int)
        if doc.get("rule") == "table":
            _field(doc, f"weights[{i}].entries", _table_keys)
        out.append(Weight.from_config(doc))
    return tuple(out)


def _parse_witness(doc: dict, scenario: Scenario) -> dict:
    """{"n": int >= 1 or None, "f": vector, "targets": vectors}; f and each
    target default to the indicator of K."""
    wdoc = _field(doc, "witness", _object, default={}, required=False)
    model, K, L = scenario.model, scenario.K, scenario.L

    def vector(entries):
        v = OrliczVector.from_json_entries(model, entries)
        if any(x not in K for x in v.support):
            raise ValueError("support escapes K")
        return v

    def targets(ts):
        if len(ts) not in (0, L):
            raise ValueError(f"need one target per operator ({L}) or none, got {len(ts)}")
        return [vector(t) for t in ts]

    return {
        "n": _field(wdoc, "witness.n", _positive_int, required=False),
        "f": _field(wdoc, "witness.f", vector, OrliczVector.indicator(K), required=False),
        "targets": _field(
            wdoc,
            "witness.targets",
            targets,
            [OrliczVector.indicator(K) for _ in range(L)],
            required=False,
        ),
    }


def run_scenario(mode: str, scenario: Scenario, witness_opts, override: bool):
    """Dispatch one checker; returns (report, extra json fields)."""
    extra = {}
    if mode == "disjoint_transitive":
        report = dynamics.check_disjoint_transitive(scenario, override=override)
    elif mode == "same_weight":
        report = dynamics.check_same_weight(scenario, override=override)
    elif mode == "disjoint_mixing":
        report = dynamics.check_disjoint_mixing(scenario, override=override)
    elif mode == "chaotic":
        report = dynamics.check_chaotic(scenario, op_index=0, override=override)
    elif mode == "disjoint_chaotic":
        report = dynamics.check_disjoint_chaotic(scenario, override=override)
    elif mode == "witness":
        report = dynamics.check_disjoint_transitive(scenario, override=override)
        n = witness_opts["n"] or report.n_star
        if n is not None:
            f, targets = witness_opts["f"], witness_opts["targets"]
            v = build_witness(scenario, f, targets, n, scenario.K)
            rho0, rhos = verify_witness(scenario, v, f, targets, n)
            extra["witness"] = {
                "n": n,
                "rho_0": rho0,
                "rho_l": rhos,
                "vector": v.to_json_entries(),
            }
    else:  # pragma: no cover - guarded by parse_config
        raise ConfigError(f"unhandled mode {mode!r}")
    return report, extra


def _write_outputs(outdir: Path, report: ConditionReport, extra: dict, formats):
    outdir.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        doc = report.to_json_dict()
        doc.update(extra)
        (outdir / "report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    if "csv" in formats:
        (outdir / "trace.csv").write_text(report.trace_csv())


def _run_one(config_path: Path, outdir: Path, formats, override: bool, trace_only: bool) -> int:
    try:
        doc = json.loads(config_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {config_path}: {exc}")
        return 1
    try:
        mode, scenario, witness_opts = parse_config(doc)
        report, extra = run_scenario(mode, scenario, witness_opts, override)
    except (ConfigError, dynamics.DynamicsError, GroupError, WeightError, YoungFunctionError) as exc:
        print(f"error: {config_path}: {exc}")
        return 1
    if trace_only:
        _write_outputs(outdir, report, extra, formats={"csv"})
    else:
        _write_outputs(outdir, report, extra, formats=formats)
    reason = f" reason: {report.reason}" if report.reason else ""
    print(
        f"{report.verdict}: mode={report.mode} n_star={report.n_star}"
        f" config={config_path.name} out={outdir}{reason}"
    )
    return _EXIT_BY_VERDICT[report.verdict]


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("ORLICZ_DYN_THREADS", "0")
    try:
        cap = int(cap)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orliczdyn",
        description="dynamics condition checks for weighted translations on Orlicz spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check", "run a checker and write report.json / trace.csv"),
        ("trace", "write only the per-n trace CSV"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", nargs="+", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--format", default="json,csv")
        p.add_argument(
            "--override-diagnostics",
            action="store_true",
            help="run the sweep even when the refusal diagnostics fire",
        )
    args = parser.parse_args(argv)
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    if not formats <= {"json", "csv"}:
        print(f"error: field 'format' must be a subset of json,csv, got {args.format!r}")
        return 1
    trace_only = args.command == "trace"
    configs = list(args.config)
    jobs = []
    for cfg in configs:
        outdir = args.out if len(configs) == 1 else args.out / cfg.stem
        jobs.append((cfg, outdir))
    if len(jobs) == 1:
        codes = [_run_one(jobs[0][0], jobs[0][1], formats, args.override_diagnostics, trace_only)]
    else:
        with ThreadPoolExecutor(max_workers=_worker_count(len(jobs))) as pool:
            codes = list(
                pool.map(
                    lambda j: _run_one(j[0], j[1], formats, args.override_diagnostics, trace_only),
                    jobs,
                )
            )
    if any(c == 1 for c in codes):
        return 1
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
