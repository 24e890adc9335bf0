"""Batch experiment runner, and the one reader of scenario documents.

``orliczdyn check --config scenario.json --out results/`` parses a
scenario document, dispatches the selected checker, writes report.json
and trace.csv, prints a one-line verdict and exits with 0 (verified),
2 (not verified within bound), 3 (refused) or 1 (error).

Every field has a caster that type-checks it, and ``GROUPS``, ``YOUNG``
and ``WEIGHTS`` map each group kind, Young family and weight rule to its
constructor and the casters of its fields.  A malformed field exits 1
with a message that names it (``weights[1].entries``, ``young.p``).

``orliczdyn trace`` is ``orliczdyn check --format csv``: it writes only
the per-n trace CSV.

The configs of one call run on a thread pool of one worker per CPU, at
most one per config.  Each writes to ``--out`` (one config) or to
``--out/<stem>``; a call whose configs share a stem exits 1 before
running any of them, and so does an empty ``--format``.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .group import CompactSet, GroupError, GroupModel, row_index, unit_entries
from .orlicz import OrliczVector
from .translation import ClampExpWeight, ConstantWeight, TableWeight, WeightError
from .young import CustomYoung, PowerLogYoung, PowerYoung, YoungFunctionError

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
    return _cast(name, caster, doc[key])


def _cast(name: str, caster, value):
    """``caster(value)``; a failure exits naming the field ``name``."""
    try:
        return caster(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"field '{name}' is invalid: {exc}") from exc


def _parse_set(model: GroupModel, doc) -> CompactSet:
    if isinstance(doc, dict) and "box" in doc:
        box = _field(doc, "K.box", _object)
        return CompactSet.box(
            model, _field(box, "K.box.lo", _coords), _field(box, "K.box.hi", _coords)
        )
    if isinstance(doc, dict) and "points" in doc:
        points = _field(doc, "K.points", lambda ps: [model.element(_coords(c)) for c in _list(ps)])
        return CompactSet.from_elements(model, points)
    raise ConfigError("field 'K' must carry a 'box' or 'points' entry")


def parse_config(doc: dict):
    """Returns (mode, Scenario, witness options or None)."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    mode = _field(doc, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    model = _field(doc, "group", lambda d: _build(d, "group", "kind", GROUPS))
    phi = _field(doc, "young", lambda d: _build(d, "young", "family", YOUNG))
    a = _field(doc, "a", lambda c: model.element(_coords(c)))
    weights = _field(doc, "weights", lambda ds: tuple(
        _build(d, f"weights[{i}]", "rule", WEIGHTS) for i, d in enumerate(_list(ds))))
    powers = _field(doc, "powers", lambda rs: tuple(_positive_int(r) for r in _list(rs)))
    K = _field(doc, "K", lambda d: _parse_set(model, d))
    epsilon = _field(doc, "epsilon", _number)
    n_max = _field(doc, "n_max", _positive_int)
    t_max = _field(doc, "t_max", _positive_int, default=Scenario.t_max, required=False)
    cap = _field(doc, "e_k_deficit_cap", _number, default=Scenario.e_deficit_cap, required=False)
    try:
        scenario = Scenario(model, phi, a, weights, powers, K, epsilon, n_max, t_max, cap)
    except dynamics.ScenarioError as exc:
        raise ConfigError(_message(exc)) from exc
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


def _number(value) -> float:
    """A finite JSON number (integer or not) as a float; NaN, infinities,
    booleans and text are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _coords(value) -> list:
    """A list of JSON numbers, returned as given."""
    for c in _list(value):
        _number(c)
    return value


def _positive_int(value) -> int:
    return _int_at_least(value, 1)


def _nonnegative_int(value) -> int:
    return _int_at_least(value, 0)


def _samples(value) -> list:
    """A custom Young grid: a list of [number, number] pairs."""
    if not isinstance(value, list) or not all(isinstance(s, list) and len(s) == 2 for s in value):
        raise ValueError(f"expected a list of [number, number] pairs, got {value!r}")
    return [(_number(t), _number(y)) for t, y in value]


# kind, family or rule -> (constructor, {keyword: caster of the field of that name})
GROUPS = {
    "int_line": (GroupModel.int_line, {}),
    "int_lattice": (GroupModel.int_lattice, {"d": _positive_int}),
    "heisenberg_int": (GroupModel.heisenberg_int, {}),
    "lattice_line": (GroupModel.lattice_line, {"h": _number}),
    "heisenberg_lattice": (GroupModel.heisenberg_lattice, {"h": _number}),
}
YOUNG = {
    "power": (PowerYoung, {"p": _number}),
    "powerlog": (PowerLogYoung, {"alpha": _number}),
    "custom": (CustomYoung, {"samples": _samples}),
}
WEIGHTS = {
    "constant": (ConstantWeight, {"c": _number}),
    "clamp_exp": (
        ClampExpWeight,
        {"base": _number, "coord": _nonnegative_int, "lo": _number, "hi": _number},
    ),
    "table": (
        lambda entries, default: TableWeight.from_arrays(*entries, default),
        {"entries": unit_entries, "default": _number},
    ),
}


def _build(doc, name: str, tag: str, schema: dict):
    """The object that the document ``name`` describes: its field ``tag``
    picks a row of ``schema``, whose casters read the constructor's
    keyword arguments."""
    doc = _cast(name, _object, doc)
    choice = _field(doc, f"{name}.{tag}", str)
    if choice not in schema:
        raise ConfigError(f"field '{name}.{tag}' must be one of {tuple(schema)}, got {choice!r}")
    make, casters = schema[choice]
    kwargs = {key: _field(doc, f"{name}.{key}", cast) for key, cast in casters.items()}
    try:
        return make(**kwargs)
    except Exception as exc:
        raise ConfigError(f"field '{name}' is invalid: {exc}") from exc


def _parse_witness(doc: dict, scenario: Scenario) -> dict:
    """{"n": int >= 1 or None, "f": vector, "targets": vectors}; f and each
    target default to the indicator of K.  An n whose walks, |K| points of
    r_l n steps, exceed the desk-scale cap of the sweep's tables is refused;
    the sweep's own n_star never is."""
    wdoc = _field(doc, "witness", _object, default={}, required=False)
    model, K, L = scenario.model, scenario.K, scenario.L

    def walk(n):
        steps = len(K) * max(scenario.powers) * _positive_int(n)
        if steps > dynamics._MAX_TABLE_CELLS:
            raise ValueError(
                f"walks of {steps} point steps exceed the desk-scale cap of "
                f"{dynamics._MAX_TABLE_CELLS}"
            )
        return n

    def vector(entries):
        v = OrliczVector.from_arrays(model, *unit_entries(entries, model.dim))
        if (row_index(v.units, K.units) < 0).any():
            raise ValueError("support escapes K")
        return v

    def targets(ts):
        if len(_list(ts)) not in (0, L):
            raise ValueError(f"need one target per operator ({L}) or none, got {len(ts)}")
        return [_cast(f"witness.targets[{i}]", vector, t) for i, t in enumerate(ts)]

    return {
        "n": _field(wdoc, "witness.n", walk, required=False),
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
    """Run the checker ``dynamics.check_<mode>``, looked up at call time
    (``witness`` runs ``check_disjoint_transitive`` and then builds its
    vector); returns (report, extra json fields)."""
    extra = {}
    checker = "disjoint_transitive" if mode == "witness" else mode
    report = getattr(dynamics, "check_" + checker)(scenario, override=override)
    if mode == "witness":
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
    return report, extra


def _strict_json(value):
    """``value`` with every non-finite float spelt as trace.csv spells it
    ("inf", "-inf", "nan"), so that report.json stays strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "%.15g" % value
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_outputs(outdir: Path, report: ConditionReport, extra: dict, formats):
    outdir.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        doc = _strict_json({**report.to_json_dict(), **extra})
        (outdir / "report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    if "csv" in formats:
        (outdir / "trace.csv").write_text(report.trace_csv())


def _message(exc: Exception) -> str:
    """The text of an error; a ``Scenario`` refusal names its document field."""
    name = exc.field if isinstance(exc, dynamics.ScenarioError) else None
    name = "e_k_deficit_cap" if name == "e_deficit_cap" else name
    return str(exc) if name is None else f"field '{name}' is invalid: {exc}"


def _run_one(config_path: Path, outdir: Path, formats, override: bool) -> int:
    try:
        doc = json.loads(config_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {config_path}: {exc}")
        return 1
    try:
        mode, scenario, witness_opts = parse_config(doc)
        report, extra = run_scenario(mode, scenario, witness_opts, override)
    except (ConfigError, dynamics.DynamicsError, GroupError, WeightError, YoungFunctionError) as exc:
        print(f"error: {config_path}: {_message(exc)}")
        return 1
    _write_outputs(outdir, report, extra, formats)
    reason = f" reason: {report.reason}" if report.reason else ""
    print(
        f"{report.verdict}: mode={report.mode} n_star={report.n_star}"
        f" config={config_path.name} out={outdir}{reason}"
    )
    return _EXIT_BY_VERDICT[report.verdict]


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
    if not formats or not formats <= {"json", "csv"}:
        print(f"error: field 'format' must name json, csv or both, got {args.format!r}")
        return 1
    if args.command == "trace":
        formats = {"csv"}
    configs = args.config
    outs = [args.out if len(configs) == 1 else args.out / cfg.stem for cfg in configs]
    first = {}
    for cfg, out in zip(configs, outs):
        if out in first:
            print(f"error: configs {first[out]} and {cfg} would both write {out}")
            return 1
        first[out] = cfg
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(configs))) as pool:
        codes = list(pool.map(
            lambda cfg, out: _run_one(cfg, out, formats, args.override_diagnostics), configs, outs
        ))
    return 1 if 1 in codes else max(codes)


if __name__ == "__main__":
    sys.exit(main())
