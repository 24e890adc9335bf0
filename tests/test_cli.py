import json

import pytest

from orliczdyn.cli import main

STEP_W = {"rule": "clamp_exp", "base": 2.0, "coord": 0, "lo": -1.0, "hi": 1.0}
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
            ({"targets": [[[[0], 1.0]], [[[3], 1.0]]]}, "'witness.targets'"),
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
        "entries",
        [
            [[[1.7], 0.5]],
            [[[True], 0.25]],
            [[[1], 0.5], [[1.0], 0.25]],
            [[[1], 0.5], [[True], 0.25]],
            [[[1], 0.5], [[1], 0.25]],
            [[["1"], 0.5]],
            [[1, 0.5]],
        ],
        ids=["fraction", "bool", "float_twin", "bool_twin", "duplicate", "text", "not_a_list"],
    )
    def test_table_keys_exit_1(self, tmp_path, capsys, entries):
        table = {"rule": "table", "entries": entries, "default": 2.0}
        code, out = run_cli(tmp_path, z_config(weights=[STEP_W, table]))
        assert code == 1
        assert "'weights[1].entries'" in capsys.readouterr().out
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
