import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orliczdyn import dynamics
from orliczdyn.cli import main, parse_config
from orliczdyn.group import GroupModel
from orliczdyn.orlicz import OrliczVector
from orliczdyn.translation import ClampExpWeight, ConstantWeight, TableWeight
from orliczdyn.young import CustomYoung, PowerLogYoung, PowerYoung

STEP_W = {"rule": "clamp_exp", "base": 2.0, "coord": 0, "lo": -1.0, "hi": 1.0}
SAMPLES_TEXT = [["0", "0"], [True, "1"], [2, 4]]
HEIS_W = {"rule": "clamp_exp", "base": 2.0, "coord": 2, "lo": -1.0, "hi": 1.0}


def z_config(**overrides):
    doc = {
        "mode": "disjoint_transitive",
        "group": {"kind": "int_line"},
        "young": {"family": "power", "p": 2.0},
        "a": [1],
        "weights": [STEP_W, STEP_W],
        "powers": [1, 2],
        "K": {"box": {"lo": [-3], "hi": [3]}},
        "epsilon": 0.01,
        "n_max": 32,
    }
    doc.update(overrides)
    return doc


def heis_config(**overrides):
    doc = {
        "mode": "disjoint_transitive",
        "group": {"kind": "heisenberg_int"},
        "young": {"family": "power", "p": 2.0},
        "a": [1, 0, 2],
        "weights": [HEIS_W, HEIS_W],
        "powers": [1, 2],
        "K": {"box": {"lo": [-3, -3, -3], "hi": [3, 3, 3]}},
        "epsilon": 0.001,
        "n_max": 64,
    }
    doc.update(overrides)
    return doc


def run_cli(tmp_path, doc, command="check", name="cfg.json", extra=()):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


class TestCheck:
    def test_heisenberg_verified(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, heis_config())
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "verified"
        assert report["n_star"] <= 64
        assert "verified" in capsys.readouterr().out
        assert (out / "trace.csv").exists()

    def test_report_carries_aperiodicity_certificate(self, tmp_path):
        doc = heis_config(K={"box": {"lo": [-6, -6, -6], "hi": [6, 6, 6]}}, n_max=24)
        run_cli(tmp_path, doc)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        trace = (tmp_path / "out" / "trace.csv").read_text()
        assert report["aperiodicity"] == {"status": "aperiodic", "bound": 6}
        run_cli(tmp_path, doc, extra=["--override-diagnostics"])
        assert json.loads((tmp_path / "out" / "report.json").read_text())["aperiodicity"] is None
        assert (tmp_path / "out" / "trace.csv").read_text() == trace
        code, out = run_cli(tmp_path, z_config(n_max=5))
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["aperiodicity"] == {"status": "not_within_bound", "bound": None}

    def test_flat_weight_exit_3(self, tmp_path, capsys):
        doc = z_config(weights=[{"rule": "constant", "c": 1.0}] * 2)
        code, out = run_cli(tmp_path, doc)
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert "sup(w)" in report["reason"] and "<= 1" in report["reason"]
        assert "<= 1" in capsys.readouterr().out

    def test_identity_element_exit_3(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, z_config(a=[0]))
        assert code == 3
        assert "periodic" in capsys.readouterr().out

    def test_not_verified_exit_2(self, tmp_path):
        doc = z_config(weights=[{"rule": "constant", "c": 2.0}] * 2, mode="same_weight")
        code, _ = run_cli(tmp_path, doc)
        assert code == 2

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        doc = z_config()
        del doc["epsilon"]
        code, _ = run_cli(tmp_path, doc)
        assert code == 1
        assert "'epsilon'" in capsys.readouterr().out

    def test_bad_mode_named(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, z_config(mode="transitive"))
        assert code == 1
        assert "'mode'" in capsys.readouterr().out

    def test_mismatched_weights_powers(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, z_config(powers=[1]))
        assert code == 1

    def test_unreadable_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["check", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == 1

    def test_override_flag(self, tmp_path):
        doc = z_config(weights=[{"rule": "constant", "c": 1.0}] * 2, n_max=8)
        code, _ = run_cli(tmp_path, doc, extra=("--override-diagnostics",))
        assert code == 2  # sweep runs, nothing verifies

    def test_chaotic_mode(self, tmp_path):
        code, out = run_cli(tmp_path, z_config(mode="chaotic", n_max=16))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "chaotic" and report["n_star"] <= 16

    def test_disjoint_chaotic_mode(self, tmp_path):
        code, out = run_cli(tmp_path, heis_config(mode="disjoint_chaotic", epsilon=0.01, n_max=32, t_max=16))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["sub_verdicts"]) == 2

    def test_witness_mode(self, tmp_path):
        doc = z_config(
            mode="witness",
            young={"family": "power", "p": 1.0},
            K={"points": [[0]]},
            witness={"n": 4},
        )
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["witness"]["rho_0"] == 0.1328125
        assert report["witness"]["vector"] == [[[-8], 0.0078125], [[-4], 0.125], [[0], 1.0]]

    def test_integer_points_past_2_53_stay_distinct(self, tmp_path):
        code, out = run_cli(tmp_path, z_config(K={"points": [[2**53 + 1], [2**53]]}))
        assert code == 2  # not verified: the weight is 2 far right of its window
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["set_size"] == 2

    @pytest.mark.parametrize(
        "witness,field",
        [
            ({"n": "x"}, "'witness.n'"),
            ({"n": {"bad": 1}}, "'witness.n'"),
            ({"n": -1}, "'witness.n'"),
            ({"n": 0}, "'witness.n'"),
            (5, "'witness'"),
            ({"f": [[1]]}, "'witness.f'"),
            ({"targets": [[[[0], 1.0]]]}, "'witness.targets'"),
            ({"f": [[[5], 1.0]]}, "'witness.f'"),
            ({"targets": [[[[0], 1.0]], [[[3], 1.0]]]}, "'witness.targets[1]'"),
            ({"f": [[[0.0], 1.0]]}, "'witness.f'"),
            ({"f": [[[False], 0.5]]}, "'witness.f'"),
            ({"f": [[[0], "2"]]}, "'witness.f'"),
            ({"f": [[[0], True]]}, "'witness.f'"),
            ({"f": [[[0], 1.0], [[0], 1.5]]}, "'witness.f'"),
            ({"targets": [[[[0], 1.0]], [[[0], "1"]]]}, "'witness.targets[1]'"),
            ({"targets": [[[[0.0], 1.0]], [[[0], 1.0]]]}, "'witness.targets[0]'"),
            ({"targets": [[[[0], 1.0], [[0], -1.0]], [[[0], 1.0]]]}, "'witness.targets[0]'"),
            ({"targets": [5, 5]},
             "'witness.targets[0]' is invalid: expected a list of [key, value] pairs"),
            ({"n": 10**20}, "'witness.n'"),
            ({"n": 10**12}, "'witness.n'"),
            ({"targets": 5}, "'witness.targets' is invalid: expected a list, got 5"),
        ],
        ids=[
            "n_text",
            "n_object",
            "n_negative",
            "n_zero",
            "not_object",
            "f_entry",
            "targets_count",
            "f_escapes_K",
            "target_escapes_K",
            "f_unit_fraction",
            "f_unit_bool",
            "f_value_text",
            "f_value_bool",
            "f_repeated_key",
            "target_value_text",
            "target_unit_fraction",
            "target_repeated_key",
            "target_not_pairs",
            "n_overflows",
            "n_past_cap",
            "targets_not_list",
        ],
    )
    def test_malformed_witness_exit_1(self, tmp_path, capsys, witness, field):
        doc = z_config(mode="witness", K={"points": [[0]]}, witness=witness)
        code, out = run_cli(tmp_path, doc)
        assert code == 1
        assert field in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"n_max": 16.9}, "'n_max'"),
            ({"n_max": "16"}, "'n_max'"),
            ({"n_max": True}, "'n_max'"),
            ({"t_max": 20.5}, "'t_max'"),
            ({"powers": [1.7, 2]}, "'powers'"),
            ({"powers": [True, 2]}, "'powers'"),
            ({"group": {"kind": "int_lattice", "d": 2.9}}, "'group.d'"),
            ({"group": {"kind": "int_lattice", "d": "2"}}, "'group.d'"),
            ({"weights": [dict(STEP_W, coord=0.5), STEP_W]}, "'weights[0].coord'"),
            ({"weights": [STEP_W, dict(STEP_W, coord=-1)]}, "'weights[1].coord'"),
        ],
        ids=[
            "n_max_fraction",
            "n_max_text",
            "n_max_bool",
            "t_max_fraction",
            "powers_fraction",
            "powers_bool",
            "d_fraction",
            "d_text",
            "coord_fraction",
            "coord_negative",
        ],
    )
    def test_integer_fields_exit_1(self, tmp_path, capsys, overrides, field):
        code, out = run_cli(tmp_path, z_config(**overrides))
        assert code == 1
        assert field in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"epsilon": True}, "'epsilon'"),
            ({"epsilon": "0.01"}, "'epsilon'"),
            ({"e_k_deficit_cap": False}, "'e_k_deficit_cap'"),
            ({"e_k_deficit_cap": "0"}, "'e_k_deficit_cap'"),
            ({"weights": [{"rule": "constant", "c": "3"}] * 2}, "'weights[0].c'"),
            ({"weights": [STEP_W, dict(STEP_W, base=True)]}, "'weights[1].base'"),
            ({"weights": [dict(STEP_W, lo="-1"), STEP_W]}, "'weights[0].lo'"),
            ({"weights": [dict(STEP_W, hi=None), STEP_W]}, "'weights[0].hi'"),
            (
                {"weights": [STEP_W, {"rule": "table", "entries": [], "default": "2.0"}]},
                "'weights[1].default'",
            ),
            (
                {"weights": [STEP_W, {"rule": "table", "entries": [[[1], True]], "default": 2.0}]},
                "'weights[1].entries'",
            ),
            (
                {"weights": [STEP_W, {"rule": "table", "entries": [[[1], "3"]], "default": 2.0}]},
                "'weights[1].entries'",
            ),
            ({"young": {"family": "power", "p": "2"}}, "'young.p'"),
            ({"young": {"family": "power", "p": True}}, "'young.p'"),
            ({"young": {"family": "powerlog", "alpha": True}}, "'young.alpha'"),
            ({"group": {"kind": "lattice_line", "h": True}}, "'group.h'"),
            ({"group": {"kind": "lattice_line", "h": "1"}}, "'group.h'"),
            ({"a": [True]}, "'a'"),
            ({"a": [False]}, "'a'"),
            ({"K": {"points": [[True], [0]]}}, "'K.points'"),
            ({"K": {"points": [["1"]]}}, "'K.points'"),
            ({"K": {"points": [[None]]}}, "'K.points'"),
            ({"K": {"box": {"lo": [-3], "hi": [True]}}}, "'K.box.hi'"),
            ({"K": {"box": {"lo": ["-3"], "hi": [3]}}}, "'K.box.lo'"),
            ({"K": {"box": {"lo": [-3]}}}, "'K.box.hi'"),
            ({"K": {"box": [[-3], [3]]}}, "'K.box'"),
            ({"young": {"family": "custom", "samples": SAMPLES_TEXT}}, "'young.samples'"),
            ({"young": {"family": "custom", "samples": [[0, 0], [1, 1, 1]]}}, "'young.samples'"),
            ({"young": {"family": "custom", "samples": {"0": 0}}}, "'young.samples'"),
            ({"group": {"kind": "free_group"}}, "'group.kind'"),
            ({"young": {"family": "exp"}}, "'young.family'"),
            ({"weights": [STEP_W, {"rule": "gauss"}]}, "'weights[1].rule'"),
            ({"weights": [STEP_W, {"rule": "constant", "c": -1.0}]}, "'weights[1]' is invalid"),
            ({"weights": [STEP_W, dict(STEP_W, lo=1, hi=-1)]}, "'weights[1]' is invalid"),
            ({"group": {"kind": "lattice_line", "h": -1}}, "'group' is invalid"),
            ({"young": {"family": "power", "p": 0.5}}, "'young' is invalid"),
            ({"weights": [5, 5]}, "'weights[0]' is invalid: expected an object, got 5"),
            ({"K": {"ball": 1}}, "'K'"),
            ({"a": 5}, "'a'"),
            ({"n_max": 10**12}, "'n_max'"),
            ({"weights": 5}, "'weights' is invalid: expected a list, got 5"),
            ({"powers": 5}, "'powers' is invalid: expected a list, got 5"),
            ({"K": {"points": 5}}, "'K.points' is invalid: expected a list, got 5"),
            (
                {"weights": [dict(STEP_W, coord=5), STEP_W]},
                "'weights[0]' is invalid: weights[0] cannot be evaluated: "
                "coordinate 5 is not below the model's dimension 1",
            ),
            # a series at t_max 10^9 outgrows the table cap; at t_max 8 it fits
            ({"mode": "chaotic", "t_max": 10**9}, "field 't_max' is invalid: orbit tables"),
            ({"mode": "chaotic", "n_max": 10**6, "t_max": 8}, "field 'n_max' is invalid: orbit"),
        ],
        ids=[
            "epsilon_bool",
            "epsilon_text",
            "cap_bool",
            "cap_text",
            "c_text",
            "base_bool",
            "lo_text",
            "hi_null",
            "default_text",
            "table_value_bool",
            "table_value_text",
            "p_text",
            "p_bool",
            "alpha_bool",
            "h_bool",
            "h_text",
            "a_bool",
            "a_false",
            "points_bool",
            "points_text",
            "points_null",
            "box_hi_bool",
            "box_lo_text",
            "box_hi_missing",
            "box_not_object",
            "samples_text_and_bool",
            "samples_not_pairs",
            "samples_not_list",
            "group_kind_unknown",
            "young_family_unknown",
            "weight_rule_unknown",
            "constant_refused",
            "clamp_window_refused",
            "h_refused",
            "p_refused",
            "weight_not_object",
            "K_neither_box_nor_points",
            "a_not_list",
            "n_max_past_cap",
            "weights_not_list",
            "powers_not_list",
            "points_not_list",
            "coord_past_dimension",
            "t_max_past_cap",
            "n_max_past_cap_at_t_max_8",
        ],
    )
    def test_number_fields_exit_1(self, tmp_path, capsys, overrides, field):
        code, out = run_cli(tmp_path, z_config(**overrides))
        assert code == 1
        assert field in capsys.readouterr().out
        assert not out.exists()

    def test_witness_n_at_the_cap_runs(self, tmp_path, capsys, monkeypatch):
        # |K| = 1 and max power 2: witness.n = 100 walks 200 point steps; the
        # sweep's two tables of 2 * n_max + 1 = 65 cells stay under the cap too
        monkeypatch.setattr(dynamics, "_MAX_TABLE_CELLS", 200)
        doc = z_config(mode="witness", K={"points": [[0]]}, witness={"n": 100})
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        assert json.loads((out / "report.json").read_text())["witness"]["n"] == 100
        doc["witness"]["n"] = 101
        (tmp_path / "past").mkdir()
        code, out = run_cli(tmp_path / "past", doc)
        assert code == 1
        assert "field 'witness.n' is invalid" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "c,n,code",
        [(1e10, 40, 2), (0.5, 600, 3)],
        ids=["image_overflows", "vector_overflows"],
    )
    def test_overflowed_witness_writes_strict_json(self, tmp_path, c, n, code):
        # T^{2n} of the witness, or S^{2n} of a target, overflows to inf: its
        # norm is inf, written as trace.csv writes it, and the verdict stands
        doc = z_config(mode="witness", weights=[{"rule": "constant", "c": c}] * 2,
                       K={"box": {"lo": [-1], "hi": [1]}}, n_max=4, witness={"n": n})
        got, out = run_cli(tmp_path, doc)
        assert got == code

        def refuse(name):
            raise ValueError(f"report.json holds the non-JSON constant {name}")

        witness = json.loads((out / "report.json").read_text(), parse_constant=refuse)["witness"]
        assert witness["rho_l"] == ["inf", "inf"]
        if c < 1:
            assert witness["rho_0"] == "inf" and "inf" in {v for _, v in witness["vector"]}

    def test_integer_valued_numbers_accepted(self, tmp_path):
        doc = z_config(epsilon=1, young={"family": "power", "p": 2},
                       weights=[dict(STEP_W, base=2, lo=-1, hi=1)] * 2)
        code, out = run_cli(tmp_path, doc)
        (tmp_path / "floats").mkdir()
        want_code, want_out = run_cli(tmp_path / "floats", z_config(epsilon=1.0))
        assert code == want_code == 0
        assert (out / "trace.csv").read_text() == (want_out / "trace.csv").read_text()

    @pytest.mark.parametrize(
        "entries",
        [
            [[[1.7], 0.5]],
            [[[True], 0.25]],
            [[[1], 0.5], [[1.0], 0.25]],
            [[[1], 0.5], [[True], 0.25]],
            [[[1], 0.5], [[1], 0.25]],
            [[["1"], 0.5]],
            [[1, 0.5]],
            [[[1], 0.5], [[1, 0], 0.25]],
        ],
        ids=[
            "fraction",
            "bool",
            "float_twin",
            "bool_twin",
            "duplicate",
            "text",
            "not_a_list",
            "mixed_lengths",
        ],
    )
    def test_table_keys_exit_1(self, tmp_path, capsys, entries):
        table = {"rule": "table", "entries": entries, "default": 2.0}
        code, out = run_cli(tmp_path, z_config(weights=[STEP_W, table]))
        assert code == 1
        assert "'weights[1].entries'" in capsys.readouterr().out
        assert not out.exists()

    def test_table_keys_off_the_model_dimension_exit_1(self, tmp_path, capsys):
        # keys [0] and [1] never match a point of Z^2, yet would set sup w = 3
        table = {"rule": "table", "entries": [[[0], 3.0], [[1], 3.0]], "default": 2.0}
        doc = z_config(group={"kind": "int_lattice", "d": 2}, a=[1, 0], weights=[table],
                       powers=[1], K={"box": {"lo": [-1, -1], "hi": [1, 1]}})
        code, out = run_cli(tmp_path, doc)
        assert code == 1
        assert "field 'weights[0]' is invalid: weights[0] cannot be evaluated" in (
            capsys.readouterr().out
        )
        assert not out.exists()

    def test_bad_config_does_not_sink_batch(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(z_config()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(z_config(mode="witness", witness={"n": "x"})))
        out = tmp_path / "out"
        assert main(["check", "--config", str(good), str(bad), "--out", str(out)]) == 1
        assert json.loads((out / "good" / "report.json").read_text())["verdict"] == "verified"
        assert not (out / "bad").exists()
        assert "'witness.n'" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"x"'])
    def test_document_not_an_object_exit_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
        assert "scenario document must be a JSON object" in capsys.readouterr().out
        assert not out.exists()

    def test_document_not_an_object_does_not_sink_batch(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(z_config()))
        bad = tmp_path / "bad.json"
        bad.write_text("5")
        out = tmp_path / "out"
        assert main(["check", "--config", str(good), str(bad), "--out", str(out)]) == 1
        assert json.loads((out / "good" / "report.json").read_text())["verdict"] == "verified"
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("verified: ") and "config=good.json" in l for l in lines)
        assert any("bad.json: scenario document must be a JSON object" in l for l in lines)

    def test_deficit_cap_nan_exit_1(self, tmp_path, capsys):
        doc = z_config(group={"kind": "lattice_line", "h": 0.5}, a=[0.5],
                       K={"box": {"lo": [-1], "hi": [1]}}, e_k_deficit_cap=math.nan)
        code, out = run_cli(tmp_path, doc)
        assert code == 1
        assert "field 'e_k_deficit_cap' is invalid" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"epsilon": math.inf}, "epsilon"),
            ({"epsilon": math.nan}, "epsilon"),
            ({"e_k_deficit_cap": math.inf}, "e_k_deficit_cap"),
            ({"group": {"kind": "lattice_line", "h": math.inf}}, "group.h"),
            ({"weights": [dict(STEP_W, lo=-math.inf), STEP_W]}, "weights[0].lo"),
            ({"weights": [STEP_W, dict(STEP_W, hi=math.inf)]}, "weights[1].hi"),
            ({"weights": [STEP_W, {"rule": "constant", "c": math.inf}]}, "weights[1].c"),
            (
                {"weights": [STEP_W, {"rule": "table", "entries": [[[1], math.inf]],
                                      "default": 2}]},
                "weights[1].entries",
            ),
            ({"young": {"family": "custom", "samples": [[0, 0], [1, math.nan], [2, 4]]}},
             "young.samples"),
            ({"young": {"family": "custom", "samples": [[0, 0], [1, 1], [math.inf, 4]]}},
             "young.samples"),
            ({"young": {"family": "power", "p": math.inf}}, "young.p"),
            ({"a": [math.inf]}, "a"),
            ({"K": {"box": {"lo": [-3], "hi": [math.inf]}}}, "K.box.hi"),
            ({"mode": "witness", "witness": {"f": [[[0], math.nan]]}}, "witness.f"),
            ({"mode": "witness", "witness": {"f": [[[0], math.inf]]}}, "witness.f"),
            ({"mode": "witness", "witness": {"targets": [[[[0], -math.inf]], []]}},
             "witness.targets[0]"),
        ],
        ids=[
            "epsilon_inf",
            "epsilon_nan",
            "cap_inf",
            "h_inf",
            "lo_minus_inf",
            "hi_inf",
            "c_inf",
            "table_value_inf",
            "samples_nan",
            "samples_inf",
            "p_inf",
            "a_inf",
            "box_inf",
            "witness_f_nan",
            "witness_f_inf",
            "witness_target_minus_inf",
        ],
    )
    def test_non_finite_numbers_exit_1(self, tmp_path, capsys, overrides, field):
        # the document is written with json.dumps, so it holds NaN, Infinity
        # and -Infinity, which Python's json reads back
        doc = z_config(group={"kind": "lattice_line", "h": 0.5}, a=[0.5])
        doc.update(overrides)
        code, out = run_cli(tmp_path, doc)
        assert code == 1
        assert f"field '{field}' is invalid" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,field,message",
        [
            ({"epsilon": -0.01}, "epsilon", "epsilon must be positive"),
            ({"e_k_deficit_cap": -1.0}, "e_k_deficit_cap", "deficit cap must be nonnegative"),
            ({"e_k_deficit_cap": 1.0, "group": {"kind": "int_line"}, "a": [1]},
             "e_k_deficit_cap", "counting-measure models"),
            ({"powers": [2, 1]}, "powers", "strictly increasing"),
            ({"powers": [1]}, "powers", "equally many weights and powers"),
            ({"K": {"points": []}}, "K", "positive measure"),
            (
                {"group": {"kind": "heisenberg_lattice", "h": 0.5}, "a": [1, 0.5, 0],
                 "weights": [HEIS_W, HEIS_W], "K": {"box": {"lo": [0] * 3, "hi": [0] * 3}}},
                "a",
                "a's y-coordinate times h",
            ),
            ({"weights": [STEP_W], "powers": [1]}, "weights", "at least two operators"),
            ({"mode": "disjoint_mixing", "weights": [STEP_W], "powers": [1]}, "weights",
             "at least two operators"),
            ({"mode": "same_weight", "weights": [STEP_W], "powers": [1]}, "weights",
             "at least two operators"),
            ({"mode": "disjoint_chaotic", "weights": [STEP_W], "powers": [1]}, "weights",
             "at least two operators"),
            ({"mode": "chaotic", "t_max": 7}, "t_max", "t_max >= 8"),
            ({"mode": "disjoint_chaotic", "t_max": 7}, "t_max", "t_max >= 8"),
        ],
        ids=[
            "epsilon_negative",
            "cap_negative",
            "cap_on_counting_model",
            "powers_decreasing",
            "powers_too_few",
            "K_empty",
            "a_off_heisenberg_lattice",
            "transitive_one_operator",
            "mixing_one_operator",
            "same_weight_one_operator",
            "disjoint_chaotic_one_operator",
            "chaotic_short_t_max",
            "disjoint_chaotic_short_t_max",
        ],
    )
    def test_scenario_refusals_name_their_field(self, tmp_path, capsys, overrides, field, message):
        doc = z_config(group={"kind": "lattice_line", "h": 0.5}, a=[0.5])
        doc.update(overrides)
        code, out = run_cli(tmp_path, doc)
        assert code == 1
        printed = capsys.readouterr().out
        assert f"field '{field}' is invalid: " in printed and message in printed
        assert not out.exists()

    def test_large_young_exponent_runs(self, tmp_path):
        # phi(t) = t^1100 / 1100 overflows float inside the norm's bracket search
        for young in ({"family": "power", "p": 1100}, {"family": "powerlog", "alpha": 1100}):
            code, out = run_cli(tmp_path, z_config(mode="witness", young=young))
            assert code in (0, 2)
            report = json.loads((out / "report.json").read_text())
            witness = report["witness"]
            assert all(math.isfinite(r) for r in [witness["rho_0"], *witness["rho_l"]])

    def test_format_json_only(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(z_config()))
        out = tmp_path / "out"
        code = main(["check", "--config", str(cfg), "--out", str(out), "--format", "json"])
        assert code == 0
        assert (out / "report.json").exists() and not (out / "trace.csv").exists()

    def test_bad_format_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(z_config()))
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o"), "--format", "xml"])
        assert code == 1

    @pytest.mark.parametrize("fmt", [",", ""])
    def test_empty_format_exit_1(self, tmp_path, capsys, fmt):
        code, out = run_cli(tmp_path, z_config(), extra=("--format", fmt))
        assert code == 1
        assert "field 'format'" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("twice", [True, False], ids=["same_file", "same_stem"])
    def test_colliding_outputs_exit_1(self, tmp_path, capsys, twice):
        # both would write out/cfg, the last writer winning: refuse before running
        c1 = tmp_path / "cfg.json"
        c1.write_text(json.dumps(z_config()))
        c2 = c1 if twice else tmp_path / "b" / "cfg.json"
        c2.parent.mkdir(exist_ok=True)
        c2.write_text(json.dumps(z_config(a=[0])))
        out = tmp_path / "out"
        assert main(["check", "--config", str(c1), str(c2), "--out", str(out)]) == 1
        assert f"configs {c1} and {c2}" in capsys.readouterr().out
        assert not out.exists()

    def test_multiple_configs(self, tmp_path, capsys):
        c1 = tmp_path / "one.json"
        c1.write_text(json.dumps(z_config()))
        c2 = tmp_path / "two.json"
        c2.write_text(json.dumps(z_config(a=[0])))
        out = tmp_path / "out"
        code = main(["check", "--config", str(c1), str(c2), "--out", str(out)])
        assert code == 3  # worst verdict wins
        assert (out / "one" / "report.json").exists()
        assert (out / "two" / "report.json").exists()


def parsed(**overrides):
    """The scenario that parse_config builds from a z_config document."""
    return parse_config(z_config(**overrides))[1]


class TestSchema:
    """Each group kind, Young family and weight rule of a document builds
    the object its direct constructor call gives."""

    def test_group_kinds(self):
        for group, model in [
            ({"kind": "int_line"}, GroupModel.int_line()),
            ({"kind": "int_lattice", "d": 2}, GroupModel.int_lattice(2)),
            ({"kind": "heisenberg_int"}, GroupModel.heisenberg_int()),
            ({"kind": "lattice_line", "h": 0.5}, GroupModel.lattice_line(0.5)),
            ({"kind": "heisenberg_lattice", "h": 0.5}, GroupModel.heisenberg_lattice(0.5)),
        ]:
            dim = model.dim
            scenario = parsed(group=group, a=[1] + [0] * (dim - 1),
                              K={"box": {"lo": [-1] * dim, "hi": [1] * dim}})
            assert scenario.model == model

    def test_young_families(self):
        assert parsed(young={"family": "power", "p": 3}).phi == PowerYoung(3.0)
        assert parsed(young={"family": "powerlog", "alpha": 2.5}).phi == PowerLogYoung(2.5)
        samples = [[0, 0], [1.0, 1], [2, 4.0]]
        phi = parsed(young={"family": "custom", "samples": samples}).phi
        want = CustomYoung(samples)
        assert type(phi) is CustomYoung
        assert np.array_equal(phi.grid_t, want.grid_t) and np.array_equal(phi.grid_y, want.grid_y)

    def test_weight_rules(self):
        table = {"rule": "table", "entries": [[[2], 0.5], [[-1], 4]], "default": 2}
        weights = parsed(weights=[{"rule": "constant", "c": 2}, STEP_W, table],
                         powers=[1, 2, 3]).weights
        assert weights == (
            ConstantWeight(2.0),
            ClampExpWeight(base=2.0, coord=0, lo=-1.0, hi=1.0),
            TableWeight({(2,): 0.5, (-1,): 4.0}, default=2.0),
        )

    def test_witness_vectors(self):
        entries = [[[0], 1.0], [[-2], 0.125]]
        doc = z_config(mode="witness", K={"box": {"lo": [-3], "hi": [3]}},
                       witness={"f": entries, "targets": [entries, []]})
        _, scenario, opts = parse_config(doc)
        model = scenario.model
        f = OrliczVector(model, {model.element([-2]): 0.125, model.element([0]): 1.0})
        assert opts["f"] == f and opts["targets"] == [f, OrliczVector.zero(model)]
        assert opts["f"].to_json_entries() == sorted(entries)


class TestTrace:
    def test_trace_only_writes_csv(self, tmp_path):
        code, out = run_cli(tmp_path, heis_config(), command="trace")
        assert code == 0
        assert (out / "trace.csv").exists() and not (out / "report.json").exists()

    def test_backward_column_value(self, tmp_path):
        doc = z_config(K={"points": [[0]]}, n_max=8)
        code, out = run_cli(tmp_path, doc, command="trace")
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        row3 = lines[3].split(",")
        assert row3[0] == "3"
        assert float(row3[header.index("bwd_1")]) == 0.25

    def test_single_row(self, tmp_path):
        doc = z_config(K={"points": [[0]]}, n_max=1)
        code, out = run_cli(tmp_path, doc, command="trace")
        assert code == 2  # nothing decays below epsilon after one step
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_header_column_count(self, tmp_path):
        L = 2
        code, out = run_cli(tmp_path, heis_config(n_max=8, epsilon=0.5), command="trace")
        header = (out / "trace.csv").read_text().split("\n")[0].split(",")
        assert len(header) == 1 + (2 * L + L * (L - 1)) + 1
        code, out2 = run_cli(
            tmp_path,
            heis_config(mode="disjoint_chaotic", n_max=8, epsilon=0.5, t_max=8),
            name="chaos.json",
        )
        header2 = (out2 / "trace.csv").read_text().split("\n")[0].split(",")
        assert len(header2) == 1 + (2 * L + L * (L - 1) + L) + 1


class TestDispatch:
    def test_checkers_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        calls = []
        for name in ("check_chaotic", "check_disjoint_transitive"):
            def wrapper(*args, _inner=getattr(dynamics, name), _name=name, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(dynamics, name, wrapper)
        run_cli(tmp_path, z_config(mode="chaotic", t_max=10), name="chaotic.json")
        run_cli(tmp_path, z_config(mode="witness"), name="witness.json")
        assert calls == ["check_chaotic", "check_disjoint_transitive"]

    @pytest.mark.parametrize(
        "doc,code",
        [(z_config(), 0), (z_config(a=[0]), 3), (z_config(epsilon=True), 1)],
        ids=["verified", "refused", "error"],
    )
    def test_trace_is_check_with_csv_format(self, tmp_path, capsys, doc, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        runs = []
        for argv in (["trace"], ["check", "--format", "csv"]):
            shutil.rmtree(out, ignore_errors=True)
            got = main([*argv, "--config", str(cfg), "--out", str(out)])
            csv = (out / "trace.csv").read_bytes() if out.exists() else None
            runs.append((got, capsys.readouterr().out, csv, sorted(out.glob("*"))))
        assert runs[0] == runs[1]
        assert runs[0][0] == code and (runs[0][2] is None) == (code == 1)


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        doc = heis_config(n_max=24)
        _, out1 = run_cli(tmp_path, doc, name="a.json")
        first_json = (out1 / "report.json").read_bytes()
        first_csv = (out1 / "trace.csv").read_bytes()
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(doc))
        out2 = tmp_path / "out2"
        main(["check", "--config", str(cfg), "--out", str(out2)])
        assert (out2 / "report.json").read_bytes() == first_json
        assert (out2 / "trace.csv").read_bytes() == first_csv


def test_module_entry_point(tmp_path):
    """`python -m orliczdyn check` runs the CLI in a fresh interpreter."""
    cfg = tmp_path / "line.json"
    cfg.write_text(json.dumps(z_config()))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "orliczdyn", "check", "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = "verified: mode=disjoint_transitive n_star=14 config=line.json"
    assert proc.stdout.startswith(verdict)
    assert (out / "report.json").exists() and (out / "trace.csv").exists()


def test_readme_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    code, out = run_cli(tmp_path, doc)
    report = json.loads((out / "report.json").read_text())
    assert code == 0 and report["verdict"] == "verified" and report["n_star"] == 14
