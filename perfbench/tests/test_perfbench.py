"""Tests for the benchmark itself: python3 -m pytest perfbench/tests -q"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from orliczdyn import cli, group
from perfbench import checks, execute, scenarios, tracing
from perfbench import run


def _doc(workload, name, seed=0):
    return scenarios.TEMPLATES[workload][name][0](random.Random(seed))


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [scenarios.dumps(e) for e in scenarios.generate(workload, 7, 2)]
    again = [scenarios.dumps(e) for e in scenarios.generate(workload, 7, 2)]
    other = [scenarios.dumps(e) for e in scenarios.generate(workload, 8, 2)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_every_block_has_the_same_template_mix(workload):
    def mix(seed):
        return sorted(label for label, _ in scenarios.generate(workload, seed, 1)
                      for label in label.split("+"))

    assert mix(1) == mix(2) == mix(3)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_every_document_parses(workload):
    for seed in (1, 2):
        for _, entry in scenarios.generate(workload, seed, 1):
            for doc in entry if workload == "chaos_batch" else [entry]:
                mode, scenario, _ = cli.parse_config(json.loads(scenarios.dumps(doc)))
                assert mode in cli.MODES


def _transitive_outcome():
    return execute.run_library(_doc("transitive_scan", "heis_transitive"))


def test_trace_cells_pass_then_flag_a_perturbed_value():
    out = _transitive_outcome()
    assert out.report.verdict == "verified"
    assert checks.trace_cells(out, random.Random(0)) == []
    rows = tuple((n, tuple(v * (1 + 1e-6) for v in values), d)
                 for n, values, d in out.report.rows)
    out.report = dataclasses.replace(out.report, rows=rows)
    problems = checks.trace_cells(out, random.Random(0))
    assert len(problems) == checks.CELLS_PER_REPORT


def test_periodic_tail_pass_then_flag_a_perturbed_bound():
    out = execute.run_library(_doc("constructions", "periodic_short_tail"))
    assert out.periodic.tail_bound > 1e-12  # well above rounding
    assert checks.periodic_tail(out) == []
    out.periodic = dataclasses.replace(out.periodic, tail_bound=out.periodic.tail_bound / 10)
    assert checks.periodic_tail(out)


def test_witness_residuals_recompute():
    out = execute.run_library(_doc("constructions", "witness_heis"))
    assert checks.witness_residuals(out) == []
    out.witness["rho_l"] = [r * 2 for r in out.witness["rho_l"]]
    assert checks.witness_residuals(out)


def test_cli_call_matches_library_verdicts(tmp_path):
    _, docs = scenarios.generate("chaos_batch", 3, 1)[0]
    paths = execute.write_configs(docs, tmp_path / "cfg")
    code = execute.run_cli_batch(paths, tmp_path / "out")
    verdicts = [execute.run_library(d).verdict for d in docs]
    assert checks.cli_call(code, tmp_path / "out", verdicts) == []
    flipped = ["refused" if v != "refused" else "verified" for v in verdicts]
    assert checks.cli_call(code, tmp_path / "out", flipped)


def test_digest_repeats_for_one_document():
    doc = _doc("chaos_batch", "heis_table")
    assert execute.run_library(doc).digest() == execute.run_library(doc).digest()


def test_all_hooks_resolve_and_uninstall_restores():
    original = group.GroupElement.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert group.GroupElement.__mul__ is not original
        tracer.run_scenario(0, execute.run_library, _doc("constructions", "witness_heis"))
    finally:
        tracer.uninstall()
    assert group.GroupElement.__mul__ is original
    m = tracing.layer_metrics(tracer, 1)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["group.mul_calls"] > 0 and m["translation.apply_point_steps"] > 0
    assert m["orlicz.norm_calls"] == 3  # rho_0, rho_1, rho_2
    assert 0 < m["dynamics.self_s"] < m["dynamics.check_s"] <= m["trace.scenario_s"]


def test_missing_hook_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([tracing.Hook("gone", "orliczdyn._accel.no_such_kernel"),
                    tracing.Hook("gone", "orliczdyn.no_such_module.f")])
    tracer.uninstall()
    assert tracer.absent == ["orliczdyn._accel.no_such_kernel", "orliczdyn.no_such_module.f"]
    assert tracing.layer_metrics(tracer, 1)["trace.absent_hooks"] == 2


def test_self_time_subtracts_child_coverage():
    # parent 0..10 with overlapping children 1..4 and 3..6 (threads) and 8..9
    spans = [(1, "p", 0.0, 10.0, None, 0), (2, "c", 1.0, 4.0, 1, 0),
             (3, "c", 3.0, 6.0, 1, 0), (4, "c", 8.0, 9.0, 1, 0), (5, "p", 8.2, 8.8, 4, 0)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0 - 0.6)
    assert [s[0] for s in tracing.outermost(spans)] == [1, 2, 3, 4]


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        tracing.LAYER_METRICS
    )
