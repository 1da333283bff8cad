import contextlib
import copy
import hashlib
import importlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replab
from replab import GameParams, MonitoringStructure, cli, equilibria, fei, verifier
from replab.cli import main
from replab.errors import ConfigParse, ValidationError, Violation

from conftest import child_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_record(out, name):
    """The manifest record of the run that last wrote ``out/name``."""
    return json.loads((out / "manifest.json").read_text())["outputs"][name]


def assert_one_json_error(code, err, error):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


class TestCheckFei:
    def test_json_certificate(self, capsys):
        code, out, _ = run(
            capsys, "check-fei", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["witness"]["v_bar"] == pytest.approx(0.6857142857142857)
        assert payload["witness"]["s_star"] == ["Pass"]

    def test_sweep_csv(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "check-fei", "--binary-precision", "0.75", "--kappa", "0.2",
            "--sweep", "0.30:0.45:0.01", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "fei_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "delta,holds,slack,v_bar"
        holds = [row.split(",")[1] for row in lines[1:]]
        deltas = [float(row.split(",")[0]) for row in lines[1:]]
        # frontier at 4/11: flip between the 0.36 and 0.37 cells
        flip = next(i for i, h in enumerate(holds) if h == "true")
        assert deltas[flip] == pytest.approx(0.37, abs=1e-9)
        assert holds[flip - 1] == "false"
        assert (tmp_path / "manifest.json").exists()

    # the axis takes no field name, and an empty one is no axis
    @pytest.mark.parametrize("sweep", ["delta", "kappa=0.1:0.2:0.1", "delta=0.3:x:0.1",
                                       "delta=0.4", ""])
    def test_bad_sweep_is_config_error(self, capsys, sweep):
        code, out, err = run(
            capsys, "check-fei", "--binary-precision", "0.75", "--kappa", "0.2",
            "--sweep", sweep,
        )
        assert out == ""
        assert_one_json_error(code, err, "ConfigParse")

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "check-fei", "--binary-precision", "0.75",
            "--kappa", "1.5", "--delta", "0.4",
        )
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "binary_precision": 0.75, "kappa": 0.2, "delta": 0.3,
            "pi0": 0.3, "c": 0.05,
        }))
        code, out, _ = run(capsys, "check-fei", "--config", str(cfg))
        assert code == 0 and json.loads(out)["holds"] is False
        code, out, _ = run(capsys, "check-fei", "--config", str(cfg), "--delta", "0.4")
        assert code == 0 and json.loads(out)["holds"] is True

    def test_toml_config_with_explicit_signals(self, capsys, tmp_path):
        cfg = tmp_path / "model.toml"
        cfg.write_text(
            "kappa = 0.2\ndelta = 0.4\npi0 = 0.3\nc = 0.05\n"
            "[[signals]]\nname = \"Fail\"\nf0 = 0.75\nf1 = 0.25\n"
            "[[signals]]\nname = \"Pass\"\nf0 = 0.25\nf1 = 0.75\n"
        )
        code, out, _ = run(capsys, "check-fei", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_config_parse_error(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "check-fei", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"] == "ConfigParse"

    @pytest.mark.parametrize("text, error", [
        ('{"binary_precision": 0.75, "kappa": "x"}', "ValidationError"),
        ('{"signals": [{"name": "A", "f1": 0.5}, {"name": "B", "f0": 1, "f1": 0.5}]}',
         "ValidationError"),
        ("[1, 2]", "ConfigParse"),
        ('{"binary_precision": "abc"}', "ValidationError"),
        ('{"kapa": 0.9, "delta": 0.4, "binary_precision": 0.75}', "ValidationError"),
    ])
    def test_mistyped_config_exits_2(self, capsys, tmp_path, text, error):
        cfg = tmp_path / "model.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "check-fei", "--config", str(cfg))
        assert out == ""
        assert_one_json_error(code, err, error)

    def test_unknown_toml_table_exits_2(self, capsys, tmp_path):
        # a field the model does not know is refused, not silently left out
        cfg = tmp_path / "model.toml"
        cfg.write_text("binary_precision = 0.75\ndelta = 0.4\n[extra]\nkappa = 0.9\n")
        code, out, err = run(capsys, "check-fei", "--config", str(cfg))
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert json.loads(err)["message"] == "BadModel: unknown model fields: ['extra']"

    def test_integer_toml_config_hashes_as_floats(self, capsys, tmp_path):
        cfg = tmp_path / "model.toml"
        cfg.write_text("binary_precision = 0.75\nkappa = 0.2\ndelta = 0.3\npi0 = 0.3\nc = 0\n")
        flags = ["--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.3",
                 "--pi0", "0.3", "--c", "0.0"]
        manifests = []
        for name, inputs in (("toml", ["--config", str(cfg)]), ("flags", flags)):
            code, _, _ = run(capsys, "bound-outside-option", *inputs,
                             "--out", str(tmp_path / name))
            assert code == 0
            manifests.append(manifest_record(tmp_path / name, "bound.csv"))
        assert manifests[0]["config"] == manifests[1]["config"]
        assert repr(manifests[0]["config"]["c"]) == "0.0"
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]


class TestHorizon:
    def test_reports_t_and_gap(self, capsys):
        code, out, _ = run(
            capsys, "horizon", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon_T"] == 8
        assert payload["min_gap"] == pytest.approx(0.14, abs=1e-9)

    def test_fei_holding_instance_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "horizon", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.4",
        )
        assert code == 2
        assert json.loads(err)["error"] == "FeiHoldsNoHorizon"


class TestConstructVerifySimulate:
    @pytest.fixture()
    def automaton_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "construct", "--kind", "non-efe", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.5", "--pi0", "0.3", "--c", "0.05",
            "--out", str(tmp_path),
        )
        assert code == 0
        return tmp_path / "automaton-non-efe.json"

    def test_verify_passes_on_construction(self, capsys, automaton_file):
        code, out, _ = run(capsys, "verify", "--automaton", str(automaton_file))
        assert code == 0
        assert out.startswith("PASSED")

    def test_verify_corrupted_automaton_exits_3(self, capsys, automaton_file, tmp_path):
        payload = json.loads(automaton_file.read_text())
        payload["states"][0]["effort_prob"] = min(
            1.0, payload["states"][0]["effort_prob"] + 0.05
        )
        bad = tmp_path / "corrupted.json"
        bad.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--automaton", str(bad))
        assert code == 3
        assert out.startswith("FAILED")

    def test_simulate_outputs_and_reproducibility(self, capsys, automaton_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run(
                capsys, "simulate", "--automaton", str(automaton_file),
                "--paths", "500", "--horizon", "60", "--seed", "7",
                "--per-period-csv", "--out", str(out_dir),
            )
            assert code == 0
        stats_a = (out_a / "simulation_stats.json").read_bytes()
        stats_b = (out_b / "simulation_stats.json").read_bytes()
        assert stats_a == stats_b
        csv_a = (out_a / "per_period.csv").read_bytes()
        assert csv_a == (out_b / "per_period.csv").read_bytes()
        header = csv_a.decode().splitlines()[0]
        assert header == "t,mean_effort,replace_rate,mean_belief,favorable_replacements"
        manifest_a = manifest_record(out_a, "per_period.csv")
        manifest_b = manifest_record(out_b, "per_period.csv")
        assert manifest_a["config_hash"] == manifest_b["config_hash"]
        assert manifest_a["outputs"] == ["simulation_stats.json", "per_period.csv"]

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--paths", "10", "--horizon", "5"],
    ])
    @pytest.mark.parametrize("field, value", [("to", 99999), ("signal", "Maybe")])
    def test_malformed_transition_exits_2(
        self, capsys, automaton_file, tmp_path, command, field, value
    ):
        payload = json.loads(automaton_file.read_text())
        payload["transitions"][0][field] = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, command[0], "--automaton", str(bad), *command[1:])
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--paths", "10", "--horizon", "5"],
    ])
    def test_initial_out_of_range_exits_2(self, capsys, automaton_file, tmp_path, command):
        payload = json.loads(automaton_file.read_text())
        payload["initial"] = 99999
        bad = tmp_path / "bad-initial.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, command[0], "--automaton", str(bad), *command[1:])
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"
        assert "BadInitial" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--seed", str(2**64)],
        ["--paths", "0"],
        ["--horizon", "0"],
    ])
    def test_simulate_bad_sizes_and_seeds_exit_2(self, capsys, automaton_file, flags):
        code, out, err = run(
            capsys, "simulate", "--automaton", str(automaton_file),
            "--paths", "10", "--horizon", "5", *flags,
        )
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--paths", "10", "--horizon", "5"],
    ])
    @pytest.mark.parametrize("field", ["params_echo", "states", "transitions", "initial"])
    def test_missing_field_exits_2(self, capsys, automaton_file, tmp_path, command, field):
        payload = json.loads(automaton_file.read_text())
        del payload[field]
        bad = tmp_path / "missing-field.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, command[0], "--automaton", str(bad), *command[1:])
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert "MissingField" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--paths", "10", "--horizon", "5"],
    ])
    @pytest.mark.parametrize("where, key, value", [
        ("params_echo", "delta", 1.5),
        ("params_echo", "pi0", float("nan")),
        ("params_echo", "kappa", "0.2"),
        ("params_echo", "delta", 10**400),
        ("params_echo", "kapa", 0.2),
        ("state", "replace_prob", float("nan")),
        ("state", "replace_prob", -0.25),
        ("state", "effort_prob", float("inf")),
        ("state", "effort_prob", 1.5),
        ("state", "belief", float("nan")),
        ("state", "belief", None),
        ("state", "belief", 10**400),
        ("state", "id", 999),
        ("state", "regime", 3),
        ("state", "regime", []),
    ])
    def test_invalid_echo_or_state_exits_2(
        self, capsys, automaton_file, tmp_path, command, where, key, value
    ):
        payload = json.loads(automaton_file.read_text())
        target = payload["params_echo"] if where == "params_echo" else payload["states"][1]
        target[key] = value
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(payload))  # NaN and Infinity are valid Python JSON
        code, out, err = run(capsys, command[0], "--automaton", str(bad), *command[1:])
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--paths", "10", "--horizon", "5"],
    ])
    @pytest.mark.parametrize("key, value", [
        ("kind", 3), ("kind", None), ("complete", "false"), ("complete", 0),
    ])
    def test_mistyped_kind_or_complete_exits_2(
        self, capsys, automaton_file, tmp_path, command, key, value
    ):
        # a string "false" is truthy: it used to pass as complete
        payload = json.loads(automaton_file.read_text())
        payload[key] = value
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, command[0], "--automaton", str(bad), *command[1:])
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert "BadAutomatonFile" in json.loads(err)["message"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
    def test_verify_bad_tolerance_exits_2(self, capsys, automaton_file, tol):
        # a NaN tolerance would pass every check, an infinite one any automaton
        code, out, err = run(capsys, "verify", "--automaton", str(automaton_file),
                             f"--tol={tol}")
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")

    def test_construct_negative_depth_exits_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "construct", "--kind", "non-efe", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.5", "--pi0", "0.3", "--c", "0.05",
            "--depth", "-1", "--out", str(tmp_path),
        )
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert not (tmp_path / "automaton-non-efe.json").exists()

    def test_construct_that_fails_verification_writes_nothing(self, capsys, tmp_path):
        # at c = 0.5 a certain-replacement state's belief exceeds e*, so the
        # voter would rather keep the incumbent there
        code, out, err = run(
            capsys, "construct", "--kind", "non-efe", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.5", "--pi0", "0.3", "--c", "0.5",
            "--out", str(tmp_path),
        )
        assert (code, err) == (3, "")
        assert out.startswith("FAILED") and "voter_ic at 7" in out and out.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--kind", "fe"], ["--kind", "non-efe", "--depth", "0"],
        ["--kind", "non-efe", "--depth", "1"], ["--kind", "non-efe", "--a0", "0.9"],
    ])
    def test_constructions_pass_their_own_verification(self, capsys, tmp_path, flags):
        code, out, _ = run(capsys, "construct", *flags, "--binary-precision", "0.75",
                           "--kappa", "0.2", "--delta", "0.5", "--pi0", "0.3", "--c", "0.05",
                           "--out", str(tmp_path))
        assert code == 0 and out.startswith("wrote")
        assert run(capsys, "verify", "--automaton", out.split()[1])[0] == 0

    @pytest.mark.parametrize("flag, error", [
        ("verify --automaton", "ValidationError"),
        ("simulate --automaton", "ValidationError"),
        ("check-fei --config", "ConfigParse"),
    ])
    @pytest.mark.parametrize("wrap", ["{}", '{{"states": {}}}'])
    def test_deeply_nested_file_exits_2(self, capsys, tmp_path, flag, error, wrap):
        # nesting past the JSON parser's recursion limit is a bad file, not a crash
        deep = tmp_path / "deep.json"
        deep.write_text(wrap.format("[" * 100_000 + "]" * 100_000))
        code, out, err = run(capsys, *flag.split(), str(deep))
        assert out == ""
        assert_one_json_error(code, err, error)
        assert error == "ConfigParse" or "BadAutomatonFile" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"params_echo": 1, '
                                      '"states": [], "transitions": [], "initial": 0}'])
    def test_malformed_file_exits_2(self, capsys, tmp_path, command, text):
        bad = tmp_path / "malformed.json"
        bad.write_text(text)
        code, out, err = run(capsys, command, "--automaton", str(bad))
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["simulate", "--paths", "10", "--horizon", "5"],
    ])
    @pytest.mark.parametrize("key, value", [
        ("v_hat", "0.5"), ("v_bar", 10**400), ("x", None), ("a0", float("nan")),
        ("s_star", "Good"),
    ])
    def test_mistyped_meta_skips_its_checks(
        self, capsys, automaton_file, tmp_path, command, key, value
    ):
        # meta feeds only optional cross-checks; a mistyped entry skips them
        payload = json.loads(automaton_file.read_text())
        payload["meta"][key] = value
        bad = tmp_path / "meta.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, command[0], "--automaton", str(bad), *command[1:])
        assert code == 0 and err == ""

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_meta_that_is_not_an_object_exits_2(self, capsys, automaton_file, tmp_path, command):
        payload = json.loads(automaton_file.read_text())
        payload["meta"] = [1]
        bad = tmp_path / "meta.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, command, "--automaton", str(bad))
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert "meta is not a JSON object" in json.loads(err)["message"]

    def test_simulate_without_unique_stationary_law_exits_2(
        self, capsys, tmp_path, two_closed_classes, ref_params, binary75
    ):
        automaton = tmp_path / "two-classes.json"
        automaton.write_text(json.dumps(
            equilibria.automaton_to_dict(two_closed_classes, ref_params, binary75)))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--automaton", str(automaton),
                             "--out", str(out_dir))
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert "NoUniqueStationaryLaw" in json.loads(err)["message"]
        assert list(out_dir.iterdir()) == []

    def test_simulate_manifest_counts(self, capsys, automaton_file, tmp_path):
        code, _, _ = run(
            capsys, "simulate", "--automaton", str(automaton_file),
            "--paths", "500", "--horizon", "20", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        counts = manifest_record(tmp_path, "simulation_stats.json")["counts"]
        assert counts == {"batches": 1, "workers": 1}
        stats = json.loads((tmp_path / "simulation_stats.json").read_text())
        assert "counts" not in stats and "batches" not in stats

    @pytest.mark.parametrize("argv", [
        ["check-fei", "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.4"],
        ["horizon", "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.3"],
        ["bound-outside-option", "--binary-precision", "0.75", "--kappa", "0.2",
         "--delta", "0.3", "--pi0", "0.3", "--c", "0.05"],
        ["verify", "--automaton", "{automaton}"],
        # one path has no standard error, so its z-score is infinite
        ["simulate", "--automaton", "{automaton}", "--paths", "1", "--horizon", "50",
         "--seed", "3"],
        ["simulate", "--automaton", "{automaton}", "--paths", "20", "--horizon", "50",
         "--seed", "3"],
    ])
    def test_stdout_is_strict_json(self, capsys, automaton_file, argv):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        argv = [arg.format(automaton=automaton_file) for arg in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        report = out[out.index("{"):]  # verify prints its PASSED line first
        assert isinstance(json.loads(report, parse_constant=refuse), dict)

    @pytest.mark.parametrize("name", ["automaton-non-efe.json", "missing.json"])
    def test_per_period_csv_needs_out(self, capsys, automaton_file, name):
        # refused before the automaton is read, so a missing file is no matter
        code, out, err = run(capsys, "simulate", "--automaton",
                             str(automaton_file.parent / name), "--per-period-csv")
        assert out == ""
        assert_one_json_error(code, err, "ConfigParse")

    def test_missing_automaton_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--automaton", str(tmp_path / "missing.json")
        )
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFound"

    @pytest.mark.parametrize("command, error", [
        (["verify", "--automaton", "{dir}"], "IsADirectory"),
        (["simulate", "--automaton", "{automaton}", "--paths", "10", "--horizon", "5",
          "--out", "{file}"], "FileExists"),
    ])
    def test_bad_path_exits_2(self, capsys, automaton_file, tmp_path, command, error):
        (tmp_path / "file").write_text("")
        paths = {"dir": tmp_path, "file": tmp_path / "file", "automaton": automaton_file}
        argv = [arg.format(**paths) for arg in command]
        code, out, err = run(capsys, *argv)
        assert out == ""
        assert_one_json_error(code, err, error)


class TestBoundsCommands:
    def test_bound_outside_option(self, capsys):
        code, out, _ = run(
            capsys, "bound-outside-option", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.3", "--pi0", "0.3", "--c", "0.05",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon_T"] == 8
        assert payload["bound_value"] == pytest.approx(0.9913494616, abs=1e-6)

    def test_bound_requires_failing_fei(self, capsys):
        code, _, err = run(
            capsys, "bound-outside-option", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.4",
        )
        assert code == 2
        assert json.loads(err)["error"] == "FeiHoldsNoBound"

    def test_bound_sweep_csv(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "bound-sweep", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.3", "--pi0", "0.3,0.03,0.003", "--c", "0,0.05",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "bound_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "pi0,c,T,eta_star,bound"
        assert len(lines) == 7

    def test_bound_sweep_allows_rounding_between_adjacent_priors(self, capsys, tmp_path):
        # g at the smaller prior rounds a few ulps above g at the larger one
        code, _, err = run(
            capsys, "bound-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
            "--delta", "0.3", "--pi0", "0.1416769592301532,0.14167695923015317", "--c", "0",
            "--out", str(tmp_path),
        )
        assert code == 0 and err == ""
        lines = (tmp_path / "bound_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("grid", [",", ""])
    def test_bad_grid_is_config_error(self, capsys, grid):
        code, out, err = run(
            capsys, "bound-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
            "--delta", "0.3", "--pi0", grid, "--c", "0",
        )
        assert out == ""
        assert_one_json_error(code, err, "ConfigParse")

    @pytest.mark.parametrize("pi0_grid, c_grid, message", [
        ("0.3,5", "0,-1", "c=-1.0 must be >= 0"),
        ("0.3,5", "0", "pi0=5.0 not in (0.0, 1.0)"),
        ("0.3", "0,-1", "c=-1.0 must be >= 0"),
        ("0.3,0.03", "0,0.05,-1", "c=-1.0 must be >= 0"),
        ("0.3,0.03,nan", "0,0.05", "pi0=nan not in (0.0, 1.0)"),
        ("0.3", "0,inf,-1", "c=inf must be >= 0"),
        ("0.3,-inf", "0", "pi0=-inf not in (0.0, 1.0)"),
        ("inf,0.3", "nan,0", "pi0=inf not in (0.0, 1.0); ParamOutOfRange: c=nan must be >= 0"),
    ])
    def test_every_grid_cell_is_validated(self, capsys, pi0_grid, c_grid, message):
        # an impossible prior or a negative cost past the first cell is refused,
        # as the first such cell in grid order (pi0 outer) is on its own
        code, out, err = run(
            capsys, "bound-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
            "--delta", "0.3", "--pi0", pi0_grid, "--c", c_grid,
        )
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")
        assert json.loads(err)["message"] == f"ParamOutOfRange: {message}"


class TestPhaseSweep:
    def test_dichotomy_table(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
            "--delta", "0.30:0.45:0.01", "--pi0", "0.3", "--c", "0.05",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "phase_sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "binary_precision", "kappa", "delta", "pi0", "c", "fei_holds",
            "fe_construction_verified", "non_efe_construction_verified",
            "outside_option_bound",
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 16  # inclusive endpoints
        for row in rows:
            if row[5] == "true":
                assert row[6] == "true" and row[7] == "true" and row[8] == ""
            else:
                assert row[6] == "" and row[7] == "" and float(row[8]) > 0
        flips = [float(r[2]) for i, r in enumerate(rows[1:], 1)
                 if rows[i - 1][5] != r[5]]
        assert flips == [pytest.approx(0.37, abs=1e-9)]

    def test_rows_ordered_by_grid_index(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "phase-sweep", "--binary-precision", "0.75",
            "--kappa", "0.1:0.3:0.1", "--delta", "0.4:0.6:0.1",
            "--pi0", "0.3", "--c", "0.05", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "phase_sweep.csv").read_text().strip().splitlines()
        keys = [(float(r.split(",")[1]), float(r.split(",")[2])) for r in lines[1:]]
        assert keys == sorted(keys)

    def test_pi0_and_c_are_axes_in_grid_order(self, capsys, tmp_path):
        # cells run precision -> pi0 -> c -> kappa -> delta, a list axis is
        # taken as given, and each row is what the cell gives on its own
        code, _, _ = run(capsys, "phase-sweep", "--binary-precision", "0.8,0.7",
                         "--pi0", "0.1:0.3:0.2", "--c", "0.2,0", "--kappa", "0.2",
                         "--delta", "0.3,0.5", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "phase_sweep.csv").read_text().splitlines()[1:]
        cells = list(itertools.product([0.8, 0.7], [0.1, 0.3], [0.2, 0.0], [0.2], [0.3, 0.5]))
        assert len(lines) == len(cells) == 16
        for line, (p, pi0, c, kappa, delta) in zip(lines, cells):
            params, monitoring = GameParams(kappa, delta, pi0, c), MonitoringStructure.binary(p)
            holds = replab.check_fei(params, monitoring).holds
            verified = [verifier.verify(build, params, monitoring).passed for build in (
                replab.construct_full_effort(params, monitoring),
                replab.construct_non_efe(params, monitoring)[0],
            )] if holds else [None, None]
            bound = None if holds else replab.outside_option_bound(params, monitoring).bound_value
            row = [p, kappa, delta, pi0, c, holds, *verified, bound]
            assert line == ",".join(map(cli._fmt, row))
        assert manifest_record(tmp_path, "phase_sweep.csv")["config"] == {
            "binary_precision": "0.8,0.7", "pi0": "0.1:0.3:0.2", "c": "0.2,0",
            "kappa": "0.2", "delta": "0.3,0.5"}

    def test_pi0_and_c_default_to_0_3_and_0(self, capsys):
        # phase-sweep reads no config, and its defaults are not the model's
        code, out, _ = run(capsys, "phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
                           "--delta", "0.3")
        assert code == 0
        assert [float(x) for x in out.splitlines()[1].split(",")[3:5]] == [0.3, 0.0]

    # at c = 0.7 = 1 - pi0 the non-efe construction needs a smaller c; just
    # below it, no a0 is feasible; at pi0 one ulp below 1 the tree's belief
    # key rounds to 1, where no effort is voter-indifferent. The full-effort
    # automaton still builds.
    @pytest.mark.parametrize("pi0, c, refusal", [
        ("0.3", "0.7", "ReplacementCostTooLargeForConstruction"),
        ("0.3", "0.6999999999999", "NoFeasibleA0"),
        ("0.9999999999999999", "0", "IndifferenceOutOfRange"),
    ])
    def test_construction_refusal_leaves_its_column_empty(
        self, capsys, tmp_path, pi0, c, refusal
    ):
        model = ("--binary-precision", "0.75", "--kappa", "0.2", "--pi0", pi0, "--c", c)
        code, _, err = run(capsys, "construct", "--kind", "non-efe", *model, "--delta", "0.6")
        assert_one_json_error(code, err, refusal)
        code, _, _ = run(capsys, "phase-sweep", *model, "--delta", "0.3:0.6:0.3",
                         "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "phase_sweep.csv").read_text().strip().splitlines()
        failing, holding = (line.split(",")[5:] for line in lines[1:])
        assert failing[:3] == ["false", "", ""] and float(failing[3]) > 0
        assert holding == ["true", "true", "", ""]

    def test_validation_error_in_a_construction_refuses_the_sweep(self, capsys, monkeypatch):
        def invalid(*args, **kwargs):
            raise ValidationError([Violation("BadState", "not an automaton")])

        monkeypatch.setattr(equilibria, "construct_non_efe", invalid)
        code, out, err = run(capsys, "phase-sweep", "--binary-precision", "0.75", "--kappa",
                             "0.2", "--delta", "0.5", "--pi0", "0.3", "--c", "0.05")
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")

    # delta = 0.5 keeps incentives, so the cell constructs and verifies;
    # at delta = 0.3 they fail, and the cell never reaches either check
    @pytest.mark.parametrize("delta", ["0.5", "0.3"])
    @pytest.mark.parametrize("flag", ["--tol=nan", "--tol=inf", "--tol=-1e-3", "--depth=-1"])
    def test_bad_tolerance_or_depth_exits_2(self, capsys, flag, delta):
        code, out, err = run(
            capsys, "phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
            "--delta", delta, "--pi0", "0.3", "--c", "0.05", flag,
        )
        assert out == ""
        assert_one_json_error(code, err, "ValidationError")


_MODEL = ("--binary-precision", "0.75", "--kappa", "0.2", "--pi0", "0.3", "--c", "0.05")
_HOLDING = (*_MODEL, "--delta", "0.5")  # full-effort incentives hold
_FAILING = (*_MODEL, "--delta", "0.3")  # they fail
_BOUND_FAILING = (*_MODEL[:4], "--delta", "0.3")  # bound-sweep's pi0 and c are its axes
_TABLES = [
    (["check-fei", *_MODEL, "--sweep", "0.3:0.5:0.1"], "fei_sweep.csv"),
    (["bound-sweep", *_BOUND_FAILING, "--pi0", "0.3,0.03", "--c", "0,0.05"], "bound_sweep.csv"),
    (["phase-sweep", *_MODEL, "--delta", "0.3:0.5:0.2"], "phase_sweep.csv"),
]


def _run_capped(*argv, timeout=10, address_space=2**30):
    """The CLI in a child process with a timeout (10 s by default) and an
    address space of ``address_space`` bytes (1 GiB by default), so that a
    command that never ends fails the test instead of hanging it or
    exhausting the host's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "replab.cli", *argv], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap, env=child_env())


@pytest.mark.probe
@pytest.mark.parametrize("argv", [
    ["check-fei", "--kappa", "0.2", "--sweep", "0.3:0.45:nan"],
    ["check-fei", "--kappa", "0.2", "--sweep", "nan:0.45:0.01"],
    ["phase-sweep", "--kappa", "0.2", "--delta", "0.3:inf:0.01"],
    ["phase-sweep", "--kappa", "0.2", "--delta=-inf:0.45:0.01"],
    ["phase-sweep", "--kappa", "0.2:0.3:inf", "--delta", "0.4"],
])
def test_non_finite_range_exits_2(argv):
    # each of these used to loop forever, appending grid points
    done = _run_capped(*argv, "--binary-precision", "0.75")
    assert done.stdout == ""
    assert_one_json_error(done.returncode, done.stderr, "ConfigParse")


@pytest.mark.probe
@pytest.mark.parametrize("argv", [
    ["check-fei", "--kappa", "0.2", "--sweep", "0.3:0.45:1e-12"],
    ["phase-sweep", "--kappa", "0.2", "--delta", "0.3:0.45:1e-12"],
    ["phase-sweep", "--kappa", "0.1:0.2:1e-4", "--delta", "0.3:0.4:1e-4"],  # 1001 x 1001
    # an endless axis beside a reversed one, which has no point: refused either way
    ["phase-sweep", "--kappa=-1e308:1e308:1e-300", "--delta", "0.5:0.4:0.1"],
])
def test_oversized_grid_exits_2(argv):
    # each of these used to build its axes until memory ran out
    done = _run_capped(*argv, "--binary-precision", "0.75")
    assert done.stdout == ""
    assert_one_json_error(done.returncode, done.stderr, "ConfigParse")


@pytest.mark.probe
@pytest.mark.parametrize("model", [
    # one ulp from the full-effort frontier, where every float cutoff slack is
    # negative but the float failure gap is negative (this looped forever) or
    # 0.0 (this raised ZeroDivisionError)
    ["--binary-precision", "0.8913017037078852", "--kappa", "0.21043439909162676",
     "--delta", "0.2612542990737442"],
    ["--binary-precision", "0.9880201247111328", "--kappa", "0.7154691081002402",
     "--delta", "0.7266511944590155"],
])
def test_frontier_check_fei_ends_cleanly(model):
    done = _run_capped("check-fei", *model, timeout=20)
    assert "Traceback" not in done.stderr
    if done.returncode == 0:
        assert done.stderr == "" and "holds" in json.loads(done.stdout)
    else:
        assert done.stdout == ""
        assert_one_json_error(done.returncode, done.stderr, "ResolutionTooCoarse")


@pytest.mark.parametrize("argv, holds", [
    (["phase-sweep", "--delta", "0.2612542990737442:0.8:0.5", "--pi0", "0.3", "--c", "0.05"], 5),
    (["check-fei", "--sweep", "0.2612542990737442:0.8:0.5"], 1),
])
def test_frontier_cell_is_left_undecided(capsys, argv, holds):
    # the first cell lies within rounding of the frontier; it used to refuse
    # the whole sweep, and a single check of it still does
    model = ["--binary-precision", "0.8913017037078852", "--kappa", "0.21043439909162676"]
    code, out, err = run(capsys, *argv, *model)
    assert (code, err) == (0, "")
    _, frontier, holding = [line.split(",") for line in out.splitlines()]
    assert set(frontier[holds:]) == {""} and holding[holds] == "true"
    code, out, err = run(capsys, "check-fei", *model, "--delta", "0.2612542990737442")
    assert out == ""
    assert_one_json_error(code, err, "ResolutionTooCoarse")


@pytest.mark.probe
def test_huge_horizon_bound_is_a_ceiling():
    # T = 14,411,518,807,585,590 closed minimize_g's bracket at eta = 1.0,
    # which belief_growth_bound refused with a traceback
    done = _run_capped(
        "bound-outside-option", "--binary-precision", "0.7720012339414994",
        "--kappa", "0.5026126433462983", "--delta", "0.7631559794384524", "--pi0", "0.3",
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    bound, c = json.loads(done.stdout), cli._MODEL_DEFAULTS["c"]
    assert bound["horizon_T"] == 14_411_518_807_585_590
    assert bound["eta_star"] < 1.0
    assert c < bound["bound_value"] <= 1.0 + c


@pytest.mark.parametrize("spec", [
    "0.60:0.90:0.05", "0.10:0.30:0.05", "0.20:0.90:0.05",  # the benchmark's phase grid
    "0.5:0.5:0.1",
    "0.5:0.5:1e-17",  # a step below the float spacing at 0.5 repeats the point
])
def test_range_points_are_clipped_steps(spec):
    a, b, step = map(float, spec.split(":"))
    count = round((b - a) / step) + 1
    assert cli._parse_range(spec) == sorted({min(a + k * step, b) for k in range(count)})


def test_axis_cap_is_on_points(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ConfigParse):  # ten million points: refused without building one
        cli._grid_axes("0:1:1e-7")
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(cli, "MAX_GRID_CELLS", 1000)
    assert len(cli._grid_axes("0:999:1")[0]) == 1000
    with pytest.raises(ConfigParse):
        cli._grid_axes("0:1000:1")


def test_grid_cap_is_on_cells():
    # a million cells pass, one axis point more does not; neither is run
    kappas, deltas = cli._grid_axes("0:0.999:0.001", "1:1.999:0.001")
    assert len(kappas) == len(deltas) == 1000 and kappas[-1] == 0.999
    with pytest.raises(ConfigParse):
        cli._grid_axes("0:1:0.001", "1:1.999:0.001")


@pytest.mark.parametrize("argv, message", [
    (["phase-sweep", "--binary-precision", "0.9:0.6:0.05", "--kappa", "0.2", "--delta", "0.5"],
     "a > b leaves no point"),
    (["check-fei", "--binary-precision", "0.75", "--kappa", "0.2",
      "--sweep", "0.9:0.1:0.1"], "a > b leaves no point"),
    (["check-fei", "--binary-precision", "0.75", "--kappa", "0.2", "--sweep", "1:2"],
     "bad range '1:2'; expected a:b:step"),
    (["phase-sweep", "--binary-precision", "0.75", "--kappa", "0:1:0", "--delta", "0.5"],
     "range step must be positive"),
    (["phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0:1:-0.1"],
     "range step must be positive"),
])
def test_reversed_range_exits_2(capsys, argv, message):
    # a > b has no point: refused, not printed as a header-only table; so is
    # a range that is not a:b:step or has no positive step
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_json_error(code, err, "ConfigParse")
    assert message in json.loads(err)["message"]
    assert cli._parse_range("0.5:0.5:0.1") == [0.5]  # a == b is one point


def test_bound_sweep_grid_cap_is_on_cells(capsys):
    # 1,001 x 1,000 (pi0, c) cells: refused before any cell is computed
    pi0s = ",".join(str(0.1 + k * 1e-4) for k in range(1001))
    cs = ",".join(str(k * 1e-5) for k in range(1000))
    code, out, err = run(capsys, "bound-sweep", "--binary-precision", "0.75", "--kappa", "0.2",
                         "--delta", "0.3", "--pi0", pi0s, "--c", cs)
    assert out == ""
    assert_one_json_error(code, err, "ConfigParse")
    assert "grid has more than 1000000 cells" in json.loads(err)["message"]


def test_axis_list_is_taken_as_given():
    assert cli._parse_range("0.3") == [0.3]
    assert cli._parse_range("0.3,0.1,,0.3,") == [0.3, 0.1, 0.3]  # order and repeats kept


@pytest.mark.parametrize("command, name, flag, spec, points", [
    (["check-fei", *_MODEL], "fei_sweep.csv", "--sweep", "0.3:0.5:0.1", "0.3,0.4,0.5"),
    (["bound-sweep", *_BOUND_FAILING, "--c", "0"], "bound_sweep.csv", "--pi0",
     "0.1:0.5:0.2", "0.1,0.30000000000000004,0.5"),
    (["bound-sweep", *_BOUND_FAILING, "--pi0", "0.3"], "bound_sweep.csv", "--c",
     "0:0.1:0.05", "0,0.05,0.1"),
    (["phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.3,0.5"],
     "phase_sweep.csv", "--c", "0:0.1:0.05", "0,0.05,0.1"),
])
def test_a_range_and_its_points_write_one_table(capsys, tmp_path, command, name, flag, spec,
                                               points):
    tables = []
    for axis in (spec, points):
        assert run(capsys, *command, flag, axis, "--out", str(tmp_path))[0] == 0
        tables.append((tmp_path / name).read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command, config, axes", [
    (["bound-sweep", *_BOUND_FAILING, "--pi0", "0.3", "--c", "0"], {"pi0": 5, "c": -1},
     {"pi0": "0.3", "c": "0"}),
    (["check-fei", *_MODEL, "--sweep", "0.4"], {"delta": 1.5}, {"delta": "0.4"}),
])
def test_a_sweep_never_checks_a_scalar_its_axis_replaces(capsys, tmp_path, command, config,
                                                        axes):
    # the axis wins over the config, so the config's invalid value for the
    # swept field is neither checked nor recorded
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, *command, "--config", str(path))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2  # the header and one row
    assert run(capsys, *command, "--config", str(path), "--out", str(tmp_path))[0] == 0
    record, = json.loads((tmp_path / "manifest.json").read_text())["outputs"].values()
    assert {key: record["config"][key] for key in axes} == axes


def test_check_fei_delta_beside_its_sweep_is_refused(capsys):
    code, out, err = run(capsys, "check-fei", *_MODEL, "--delta", "0.9", "--sweep", "0.4")
    assert out == ""
    assert_one_json_error(code, err, "ConfigParse")
    assert json.loads(err)["message"] == "--sweep is the delta axis; drop --delta"


def test_check_fei_list_obeys_the_cell_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_CELLS", 3)
    code, out, err = run(capsys, "check-fei", *_MODEL, "--sweep", "0.3,0.4,0.5,0.6")
    assert out == ""
    assert_one_json_error(code, err, "ConfigParse")
    assert "grid has more than 3 cells" in json.loads(err)["message"]


def test_out_of_memory_exits_2(capsys, reference_payload, tmp_path, monkeypatch):
    def exhausted(*_):
        raise MemoryError("Unable to allocate 728. GiB for an array")

    monkeypatch.setattr(cli, "run_simulation", exhausted)
    automaton = tmp_path / "automaton.json"
    automaton.write_text(json.dumps(reference_payload))
    code, out, err = run(capsys, "simulate", "--automaton", str(automaton))
    assert out == ""
    assert_one_json_error(code, err, "OutOfMemory")
    assert "728. GiB" in json.loads(err)["message"]


@pytest.mark.probe
@pytest.mark.parametrize("size, error", [
    pytest.param(["--paths", "100000000000", "--horizon", "2"], "BadSimulationConfig",
                 id="size0"),
    pytest.param(["--paths", "1", "--horizon", "100000000"], "OutOfMemory", id="size1"),
    pytest.param(["--paths", "10000000000000000000"], "BadSimulationConfig", id="size2"),
    pytest.param(["--paths", "1", "--horizon", "4611686018427387904"], "OutOfMemory",
                 id="size3"),  # past numpy's index range
    pytest.param(["--paths", "4000000000", "--horizon", "2"], "OutOfMemory", id="size4"),
])
def test_oversized_simulation_exits_2(reference_payload, tmp_path, size, error):
    # under _run_capped's address-space limit the run's arrays cannot be had;
    # 2^32 paths or more are refused before anything is allocated
    automaton = tmp_path / "automaton.json"
    automaton.write_text(json.dumps(reference_payload))
    done = _run_capped("simulate", "--automaton", str(automaton), *size)
    assert done.stdout == ""
    if error == "OutOfMemory":
        assert_one_json_error(done.returncode, done.stderr, "OutOfMemory")
    else:
        assert_one_json_error(done.returncode, done.stderr, "ValidationError")
        assert error in json.loads(done.stderr)["message"]


@pytest.mark.probe
def test_long_chain_simulates_within_the_memory_cap(tmp_path, ref_params, binary75):
    # Fail moves on and Pass stays, with replacement at rate 0.5 from every
    # state: the direct oracle's dense renewal row and ones row made SuperLU's
    # fill superlinear, and this chain ran out of _run_capped's 1 GiB
    n = 16_000
    chain = replab.EquilibriumAutomaton(
        replace_prob=[0.5] * n, effort_prob=[0.5] * n, belief=[0.3] * n,
        next_state=[[min(i + 1, n - 1), i] for i in range(n)], regime=["Chain"] * n,
        initial=0, signals=binary75.signals, kind="custom",
    )
    automaton = tmp_path / "chain.json"
    automaton.write_text(json.dumps(equilibria.automaton_to_dict(chain, ref_params, binary75)))
    done = _run_capped("simulate", "--automaton", str(automaton), "--paths", "10",
                       "--horizon", "5")
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.probe
def test_long_horizon_simulates_within_the_memory_cap(reference_payload, tmp_path):
    # one batch held the whole horizon's uniforms, 293 MiB at horizon 2,500,
    # and ran out of 384 MiB; a window of periods takes the same at any horizon.
    # OpenBLAS reserved 40 MiB of address space for each pool thread beyond
    # the first, so on 2 CPUs this ran out of 192 MiB before replab held the
    # pool to one thread
    automaton = tmp_path / "automaton.json"
    automaton.write_text(json.dumps(reference_payload))
    done = _run_capped("simulate", "--automaton", str(automaton), "--paths", "3840",
                       "--horizon", "2500", timeout=60, address_space=192 * 2**20)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["horizon"] == 2500


def _two_fail_tree(capsys, tmp_path, depth: int, states: int) -> Path:
    """The TWO_FAIL non-EFE tree at ``depth``, written under ``tmp_path``."""
    config = tmp_path / "two-fail.json"
    config.write_text(json.dumps(_TWO_FAIL))
    code, out, _ = run(capsys, "construct", "--kind", "non-efe", "--config", str(config),
                       "--depth", str(depth), "--out", str(tmp_path))
    assert code == 0 and out.endswith(f"({states} states)\n")
    return tmp_path / "automaton-non-efe.json"


@pytest.mark.probe
def test_large_tree_simulates_within_the_memory_cap(capsys, tmp_path):
    # the tally held a horizon x states occupancy row per worker, 108 MiB
    # here, and ran out of 512 MiB; the belief limb sums take the same at
    # any state count
    automaton = _two_fail_tree(capsys, tmp_path, 60, 28_380)
    done = _run_capped("simulate", "--automaton", str(automaton), "--paths", "3840",
                       "--horizon", "500", "--seed", "1", timeout=60,
                       address_space=512 * 2**20)
    assert (done.returncode, done.stderr) == (0, "")


_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_needs_2_cpus = pytest.mark.skipif(_CPUS < 2, reason="needs 2 CPUs for 2 BLAS threads")
_needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="counts threads in Linux's /proc/self/task")


def _threads_after_import(prelude: str = "", **extra: str) -> list:
    """[thread count, BLAS thread variables set] in a child Python that runs
    ``prelude`` and then imports replab, with none of the three variables
    set in its environment but ``extra``."""
    env = {k: v for k, v in child_env(**extra).items() if k in extra or k not in _BLAS_THREAD_VARS}
    probe = (f"{prelude}import json, os, replab; print(json.dumps([len(os.listdir("
             f"'/proc/self/task')), {{k: os.environ[k] for k in {_BLAS_THREAD_VARS!r} "
             f"if k in os.environ}}]))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60, env=env)
    return json.loads(done.stdout)


@pytest.mark.probe
@_needs_proc
def test_import_loads_numpy_with_one_blas_thread():
    # OpenBLAS started a thread per CPU that only spun: 2 threads and 0.13 s
    # of CPU in every CLI process on 2 CPUs. The pin leaves no variable behind
    assert _threads_after_import() == [1, {}]


@pytest.mark.probe
@_needs_proc
@_needs_2_cpus
@pytest.mark.parametrize("variable", _BLAS_THREAD_VARS)
def test_caller_sized_blas_pool_is_kept(variable):
    assert _threads_after_import(**{variable: "2"}) == [2, {variable: "2"}]


@pytest.mark.probe
@_needs_proc
@_needs_2_cpus
def test_numpy_imported_first_keeps_its_pool():
    threads, variables = _threads_after_import("import numpy; ")
    assert threads > 1 and variables == {}


# the reference non-efe automaton with FirstRegime state 2's Fail edge sent back to
# the initial state, so verify solves a cyclic value block with scipy's splu
_CYCLIC_VERIFY = """\
import sys
from dataclasses import replace
from replab import GameParams, MonitoringStructure, construct_non_efe, verify
monitoring, params = MonitoringStructure.binary(0.75), GameParams(0.2, 0.5, 0.3, 0.05)
automaton = construct_non_efe(params, monitoring)[0]
next_state = automaton.next_state.copy()
next_state[2, monitoring.index("Fail")] = automaton.initial
assert automaton.regime[2] == "FirstRegime" and "scipy.linalg" not in sys.modules
verify(replace(automaton, next_state=next_state), params, monitoring)
assert "scipy.linalg" in sys.modules
"""


@pytest.mark.probe
@_needs_proc
@_needs_2_cpus
def test_cyclic_verify_loads_scipy_with_one_blas_thread():
    # scipy's wheels bundle an OpenBLAS of their own, which loaded with its
    # default pool once import replab had restored the environment: 2 threads
    assert _threads_after_import(_CYCLIC_VERIFY) == [1, {}]
    # a caller's size holds for both pools: the main thread and one more in each
    assert _threads_after_import(_CYCLIC_VERIFY, OPENBLAS_NUM_THREADS="2") == [
        3, {"OPENBLAS_NUM_THREADS": "2"}]


@pytest.mark.probe
@_needs_2_cpus
def test_stats_are_identical_for_any_blas_thread_count(capsys, tmp_path):
    # mean_belief was a BLAS product over the states, whose last bit
    # followed OpenBLAS's thread split at horizon 500 on this tree
    automaton = _two_fail_tree(capsys, tmp_path, 25, 6206)
    stats = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "replab.cli", "simulate", "--automaton", str(automaton),
             "--paths", "3840", "--horizon", "500", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert (done.returncode, done.stderr) == (0, "")
        stats.append((out / "simulation_stats.json").read_bytes())
    assert stats[0] == stats[1]


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    sweep = ["phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.5"]
    for argv in (["verify", "--automaton", "a.json"], sweep):
        assert parser.parse_args(argv).tol == verifier.DEFAULT_TOL == 1e-8
    for argv in (["construct", "--kind", "non-efe"], sweep):
        assert parser.parse_args(argv).depth == equilibria.DEFAULT_DEPTH == 200


class TestOutputPath:
    """main alone writes a command's files and manifest under --out, and
    prints its text."""

    @pytest.mark.parametrize("command", [
        pytest.param(["check-fei", *_HOLDING], id="check-fei"),
        *(pytest.param(argv, id=name) for argv, name in _TABLES),
        pytest.param(["construct", "--kind", "fe", *_HOLDING], id="construct-fe"),
        pytest.param(["construct", "--kind", "non-efe", *_HOLDING], id="construct-non-efe"),
        pytest.param(["verify", "--automaton", "{automaton}"], id="verify"),
        pytest.param(["simulate", "--automaton", "{automaton}", "--paths", "20",
                      "--horizon", "10"], id="simulate"),
        pytest.param(["simulate", "--automaton", "{automaton}", "--paths", "20",
                      "--horizon", "10", "--per-period-csv"], id="simulate-per-period"),
        pytest.param(["bound-outside-option", *_FAILING], id="bound-outside-option"),
    ])
    def test_out_holds_exactly_the_manifest_outputs(
        self, capsys, reference_payload, tmp_path, command
    ):
        automaton = tmp_path / "automaton.json"
        automaton.write_text(json.dumps(reference_payload))
        out = tmp_path / "out"
        argv = [arg.format(automaton=automaton) for arg in command]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 0 and err == ""
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])
        for record in outputs.values():  # one run wrote every file
            assert record["command"] == command[0]
            assert sorted(record["outputs"]) == sorted(outputs)

    @pytest.mark.parametrize("command, name", _TABLES, ids=[n for _, n in _TABLES])
    def test_table_without_out_prints_the_file_rows(self, capsys, tmp_path, command, name):
        code, printed, _ = run(capsys, *command)
        assert code == 0
        assert run(capsys, *command, "--out", str(tmp_path))[:2] == (0, "")
        written = (tmp_path / name).read_bytes().decode()
        assert "\r" not in printed and written.count("\r\n") == written.count("\n")
        assert printed == written.replace("\r\n", "\n")

    def test_construct_without_out_writes_to_the_working_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "construct", "--kind", "fe", *_HOLDING)
        assert code == 0
        assert out.startswith("wrote automaton-fe.json (")
        assert manifest_record(tmp_path, "automaton-fe.json")["outputs"] == ["automaton-fe.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["automaton-fe.json", "manifest.json"]

    def test_two_commands_into_one_directory_keep_both_records(self, capsys, tmp_path):
        for kind in ("fe", "non-efe"):
            assert run(capsys, "construct", "--kind", kind, *_HOLDING, "--depth", "20",
                       "--out", str(tmp_path))[0] == 0
        assert run(capsys, "bound-outside-option", *_FAILING, "--out", str(tmp_path))[0] == 0
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == ["automaton-fe.json", "automaton-non-efe.json", "bound.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*outputs, "manifest.json"])
        assert outputs["automaton-non-efe.json"]["outputs"] == ["automaton-non-efe.json"]
        assert outputs["bound.csv"]["command"] == "bound-outside-option"
        assert outputs["automaton-fe.json"]["config"]["delta"] == 0.5
        assert outputs["bound.csv"]["config"]["delta"] == 0.3
        # a command that rewrites a file replaces that file's record only
        assert run(capsys, "construct", "--kind", "fe", *_FAILING[:-1], "0.6",
                   "--out", str(tmp_path))[0] == 0
        rewritten = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert rewritten["automaton-fe.json"]["config"]["delta"] == 0.6
        assert rewritten["automaton-non-efe.json"] == outputs["automaton-non-efe.json"]

    @pytest.mark.parametrize("name, runs, config", [
        # 13 states at --depth 3 and 172 at the default depth
        ("automaton-non-efe.json", [["construct", "--kind", "non-efe", *_HOLDING, "--depth", "3"],
                                    ["construct", "--kind", "non-efe", *_HOLDING]],
         {"kind": "non-efe", "depth": 3, "a0": None}),
        ("automaton-non-efe.json", [["construct", "--kind", "non-efe", *_HOLDING, "--a0", "0.7"],
                                    ["construct", "--kind", "non-efe", *_HOLDING]],
         {"depth": equilibria.DEFAULT_DEPTH, "a0": 0.7}),
        # the grids, not the unused model defaults pi0 0.5 and c 0
        ("bound_sweep.csv", [["bound-sweep", *_BOUND_FAILING, "--pi0", "0.3,0.1", "--c", "0"],
                             ["bound-sweep", *_BOUND_FAILING, "--pi0", "0.01", "--c", "0.5"]],
         {"pi0": "0.3,0.1", "c": "0"}),
        ("fei_sweep.csv", [["check-fei", *_MODEL, "--sweep", "0.3:0.5:0.1"],
                           ["check-fei", *_MODEL, "--sweep", "0.3,0.4"]],
         {"delta": "0.3:0.5:0.1", "kappa": 0.2}),
    ])
    def test_runs_that_write_different_files_have_different_records(
        self, capsys, tmp_path, name, runs, config
    ):
        records, files = [], []
        for k, argv in enumerate(runs):
            assert run(capsys, *argv, "--out", str(tmp_path / str(k)))[0] == 0
            records.append(manifest_record(tmp_path / str(k), name))
            files.append((tmp_path / str(k) / name).read_bytes())
        assert files[0] != files[1]
        assert records[0]["config_hash"] != records[1]["config_hash"]
        assert {key: records[0]["config"][key] for key in config} == config

    # not JSON, not an object, or an object whose outputs are not one
    @pytest.mark.parametrize("text", ["{not json", "[]", '{"outputs": []}', '{"outputs": "x"}'])
    def test_unreadable_manifest_is_replaced(self, capsys, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        assert run(capsys, "construct", "--kind", "fe", *_HOLDING, "--out", str(tmp_path))[0] == 0
        assert list(json.loads((tmp_path / "manifest.json").read_text())["outputs"]) == [
            "automaton-fe.json"
        ]

    @pytest.mark.parametrize("argv, name", [
        (["check-fei", *_HOLDING], "fei_certificate.json"),
        (["phase-sweep", "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.5"],
         "phase_sweep.csv"),
    ])
    def test_too_deep_manifest_is_replaced(self, capsys, tmp_path, argv, name):
        # nesting past the JSON parser's recursion limit is unreadable, not a crash
        (tmp_path / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert list(json.loads((tmp_path / "manifest.json").read_text())["outputs"]) == [name]


@pytest.fixture(scope="module")
def reference_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "construct", "--kind", "non-efe", "--binary-precision", "0.75",
            "--kappa", "0.2", "--delta", "0.5", "--pi0", "0.3", "--c", "0.05",
            "--out", str(out),
        ])
    assert code == 0
    return json.loads((out / "automaton-non-efe.json").read_text())


def _json_paths(node, prefix=()):
    """Key paths to every node of a JSON tree, lists cut to two items."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node[:2]) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.just(10**400), st.floats(),
    st.text(max_size=3),
    st.just([]), st.just({}), st.just([1]),
)


def _mutate_one_field(payload, data):
    """Replace one field of a JSON tree by junk, or delete it."""
    path = data.draw(st.sampled_from(list(_json_paths(payload))))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JUNK)


def _assert_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_automaton_file_exits_cleanly(reference_payload, tmp_path_factory, data):
    # one field replaced by junk or deleted: verify and simulate either run
    # or end in exit 2 with one JSON error line, never in a traceback
    payload = copy.deepcopy(reference_payload)
    _mutate_one_field(payload, data)
    bad = tmp_path_factory.mktemp("mutated") / "automaton.json"
    bad.write_text(json.dumps(payload))
    command = data.draw(st.sampled_from([
        ["verify"], ["simulate", "--paths", "20", "--horizon", "30"],
    ]))
    _assert_exits_cleanly([command[0], "--automaton", str(bad), *command[1:]])


# sha256 of the files these commands write, pinned so that a change to the
# construction, the file writer or the verifier that moves one byte fails
_PINNED = {
    "reference": "83666a70d5fbce62546a36f361f7ce7c6e3846cf21beeba012720a05346e38ab",
    "two-fail-25": "15c2924065844f4222684bc82998e646326f83c1492cc7f1c8447dd5ba0ea162",
    "two-fail-25-verification":
        "898396456de85de95cfb049c98686d545cb80e507a2066e491ee6367c11967b3",
    "zam": "380b3fc9a19147a99cd4e82bd9d5250c0271920a7932296b4700565760f67228",
    "phase-sweep-24": "898d7c77070d5ffaad5242c8a51e3952d8e873e17b7c7c99b1b97651f04949af",
    "simulation-stats": "3dbabd868c16341f4f751159e1aa827058061821aa3e927be83e55e3c860f109",
    "per-period": "da09f15ef5bc1e37a91d7a915dd7a953ae523c975d1c1dd84b52bdab946ea9b5",
    "fei-holds": "cb824b7e0bf3e336e8ca27aec9f89cb6c0c88dccd794be9073d62d59f3a08efc",
    "fei-fails": "0d31164a4900ef008584fd97117dbedfb50c2580a601f80fef1202380161d25b",
    "bound": "d02e28893de9eba643dd731f47c703b96d3676096918933dc14830e954de829d",
    "bound-sweep": "1aa38643f442fc480697ed8d57978e0351b1154c4b663ef7d8c56628f511fc0f",
}
_TWO_FAIL = {"kappa": 0.1, "delta": 0.7, "pi0": 0.3, "c": 0.05, "signals": [
    {"name": "A", "f0": 0.1, "f1": 0.4}, {"name": "B", "f0": 0.2, "f1": 0.3},
    {"name": "C", "f0": 0.3, "f1": 0.2}, {"name": "D", "f0": 0.4, "f1": 0.1},
]}
# signal names out of sorted order: a file lists transitions by signal name
_ZAM = {"kappa": 0.1, "delta": 0.6, "pi0": 0.3, "c": 0.05, "signals": [
    {"name": "Z", "f0": 0.2, "f1": 0.5}, {"name": "A", "f0": 0.2, "f1": 0.3},
    {"name": "M", "f0": 0.6, "f1": 0.2},
]}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedFiles:
    def test_reference_automaton(self, capsys, tmp_path):
        assert run(capsys, "construct", "--kind", "non-efe", *_HOLDING,
                   "--out", str(tmp_path))[0] == 0
        assert _sha256(tmp_path / "automaton-non-efe.json") == _PINNED["reference"]

    def test_two_fail_depth_25_automaton_and_verification(self, capsys, tmp_path):
        config = tmp_path / "two-fail.json"
        config.write_text(json.dumps(_TWO_FAIL))
        code, out, _ = run(capsys, "construct", "--kind", "non-efe", "--config", str(config),
                           "--depth", "25", "--out", str(tmp_path))
        assert code == 0 and out.endswith("(6206 states)\n")
        automaton = tmp_path / "automaton-non-efe.json"
        assert _sha256(automaton) == _PINNED["two-fail-25"]
        assert run(capsys, "verify", "--automaton", str(automaton),
                   "--out", str(tmp_path / "verified"))[0] == 0
        verification = tmp_path / "verified" / "verification.json"
        assert _sha256(verification) == _PINNED["two-fail-25-verification"]

    def test_phase_sweep_across_verification_blocks(self, capsys, tmp_path):
        # 24 cells, 16 holding and 8 failing, certified in several blocks
        assert cli.PHASE_BLOCK_CELLS < 24
        fei.check_fei.cache_clear()
        code, _, _ = run(capsys, "phase-sweep", "--binary-precision", "0.6:0.9:0.15",
                         "--kappa", "0.1:0.3:0.2", "--delta", "0.3:0.9:0.2", "--pi0", "0.3",
                         "--c", "0.05", "--out", str(tmp_path))
        assert code == 0
        table = (tmp_path / "phase_sweep.csv").read_text()
        assert (table.count("true,true,true"), table.count("false,,,")) == (16, 8)
        assert _sha256(tmp_path / "phase_sweep.csv") == _PINNED["phase-sweep-24"]
        # each cell decides full-effort incentives once, however often it asks
        assert fei.check_fei.cache_info().misses == 24

    def test_simulation_stats_and_per_period(self, capsys, reference_payload, tmp_path):
        automaton = tmp_path / "automaton-non-efe.json"
        automaton.write_text(json.dumps(reference_payload))
        assert run(capsys, "simulate", "--automaton", str(automaton), "--paths", "3000",
                   "--horizon", "300", "--seed", "7", "--per-period-csv",
                   "--out", str(tmp_path))[0] == 0
        assert _sha256(tmp_path / "simulation_stats.json") == _PINNED["simulation-stats"]
        assert _sha256(tmp_path / "per_period.csv") == _PINNED["per-period"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_simulation_pins_hold_for_any_worker_count(self, capsys, reference_payload,
                                                       tmp_path, monkeypatch, workers):
        # 3000 paths in batches of 700: up to three ranges of two or three batches
        sim_module = importlib.import_module("replab.simulate")
        monkeypatch.setattr(sim_module, "_cpus", lambda: workers)
        monkeypatch.setattr(sim_module, "_BATCH", 700)
        monkeypatch.setattr(sim_module, "_BLOCK", 50)
        self.test_simulation_stats_and_per_period(capsys, reference_payload, tmp_path)
        counts = manifest_record(tmp_path, "simulation_stats.json")["counts"]
        assert counts["workers"] == workers

    def test_simulation_pins_hold_through_tied_codes(self, capsys, reference_payload, tmp_path,
                                                     monkeypatch):
        # the pinned run decides some votes or actions on a 16-bit code equal
        # to its cut, and so on the redrawn double; one worker, so that every
        # redraw is counted in this process
        sim_module = importlib.import_module("replab.simulate")
        redraw, tied = sim_module._redraw, []

        def counted(seek, paths, t, slot):
            tied.extend((t, slot) for _ in paths)
            return redraw(seek, paths, t, slot)

        monkeypatch.setattr(sim_module, "_cpus", lambda: 1)
        monkeypatch.setattr(sim_module, "_redraw", counted)
        self.test_simulation_stats_and_per_period(capsys, reference_payload, tmp_path)
        assert len(tied) >= 1

    @pytest.mark.parametrize("model, name", [(_HOLDING, "fei-holds"), (_FAILING, "fei-fails")])
    def test_fei_certificate(self, capsys, tmp_path, model, name):
        assert run(capsys, "check-fei", *model, "--out", str(tmp_path))[0] == 0
        assert _sha256(tmp_path / "fei_certificate.json") == _PINNED[name]

    def test_bound_and_bound_sweep(self, capsys, tmp_path):
        assert run(capsys, "bound-outside-option", *_FAILING, "--out", str(tmp_path))[0] == 0
        assert run(capsys, "bound-sweep", *_BOUND_FAILING, "--pi0", "0.1,0.3,0.5,0.3",
                   "--c", "0,0.05", "--out", str(tmp_path))[0] == 0
        assert _sha256(tmp_path / "bound.csv") == _PINNED["bound"]
        assert _sha256(tmp_path / "bound_sweep.csv") == _PINNED["bound-sweep"]

    def test_unsorted_signal_names_round_trip(self, capsys, tmp_path):
        config = tmp_path / "zam.json"
        config.write_text(json.dumps(_ZAM))
        assert run(capsys, "construct", "--kind", "non-efe", "--config", str(config),
                   "--out", str(tmp_path))[0] == 0
        path = tmp_path / "automaton-non-efe.json"
        assert _sha256(path) == _PINNED["zam"]
        payload = json.loads(path.read_text())
        edges = [(t["from"], t["signal"]) for t in payload["transitions"]]
        assert edges == sorted(edges) and edges[:3] == [(0, "A"), (0, "M"), (0, "Z")]
        assert replab.automaton_to_dict(*replab.automaton_from_dict(payload)) == payload


def _refused(payload, capsys, tmp_path) -> str:
    """The message ``verify`` refuses ``payload`` with, one JSON line, exit 2."""
    bad = tmp_path / "refused.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--automaton", str(bad))
    assert out == ""
    assert_one_json_error(code, err, "ValidationError")
    return json.loads(err)["message"]


class TestLoaderRefusals:
    def test_states_out_of_id_order_load(self, reference_payload, capsys, tmp_path):
        payload = copy.deepcopy(reference_payload)
        payload["states"].reverse()
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--automaton", str(path))
        assert code == 0 and out.startswith("PASSED")
        auto, params, monitoring = replab.automaton_from_dict(payload)
        assert replab.automaton_to_dict(auto, params, monitoring) == reference_payload

    def test_bad_ids_and_edges_in_file_order(self, reference_payload, capsys, tmp_path):
        payload = copy.deepcopy(reference_payload)
        payload["states"].reverse()
        next(s for s in payload["states"] if s["id"] == 5)["id"] = True
        payload["transitions"][3]["signal"] = "Maybe"
        payload["transitions"][10]["to"] = 99999
        payload["transitions"][20]["to"] = True
        payload["transitions"].append({"from": 400, "signal": "Pass", "to": 0})
        assert _refused(payload, capsys, tmp_path) == (
            "BadStateIds: state ids must be 0 .. n-1; "
            "BadTransition: 1 --Maybe--> 1: unknown signal 'Maybe'; "
            "BadTransition: 5 --Fail--> 99999: state outside [0, 172); "
            "BadTransition: 10 --Fail--> True: state outside [0, 172); "
            "BadTransition: 400 --Pass--> 0: state outside [0, 172)"
        )

    def test_bad_states_are_named_by_their_ids(self, reference_payload, capsys, tmp_path):
        payload = copy.deepcopy(reference_payload)
        payload["states"].reverse()
        payload["states"][0]["id"] = "x"  # state 171, now sorted first
        payload["states"][3]["belief"] = 2.0
        payload["states"][7]["regime"] = 4
        assert _refused(payload, capsys, tmp_path) == (
            "BadState: belief is not a number in [0, 1] in 1 state(s), first 2.0 at state 168; "
            "BadState: regime is not a string in 1 state(s), first at state 164; "
            "BadStateIds: state ids must be 0 .. n-1"
        )

    def test_first_malformed_row_is_reported(self, reference_payload, capsys, tmp_path):
        payload = copy.deepcopy(reference_payload)
        del payload["states"][2]["belief"]
        del payload["states"][5]["id"]
        assert "KeyError('belief')" in _refused(payload, capsys, tmp_path)
        payload = copy.deepcopy(reference_payload)
        del payload["transitions"][2]["to"]
        payload["transitions"][5] = 7
        assert "KeyError('to')" in _refused(payload, capsys, tmp_path)


_CONFIGS = (
    {"kappa": 0.2, "delta": 0.5, "pi0": 0.3, "c": 0.05, "signals": [
        {"name": "Fail", "f0": 0.75, "f1": 0.25}, {"name": "Pass", "f0": 0.25, "f1": 0.75},
    ]},
    {"binary_precision": 0.75, "kappa": 0.2, "delta": 0.3, "pi0": 0.3, "c": 0.05},
)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_config_file_exits_cleanly(tmp_path_factory, data):
    # the same for one field of a valid --config and the model commands
    config = copy.deepcopy(data.draw(st.sampled_from(_CONFIGS)))
    _mutate_one_field(config, data)
    work = tmp_path_factory.mktemp("config")
    (work / "model.json").write_text(json.dumps(config))
    command = data.draw(st.sampled_from([
        ["check-fei"], ["bound-outside-option"],
        ["construct", "--kind", "fe", "--out", str(work)],
        ["construct", "--kind", "non-efe", "--depth", "20", "--out", str(work)],
    ]))
    _assert_exits_cleanly([*command, "--config", str(work / "model.json")])


@pytest.mark.probe
def test_import_leaves_scipy_solvers_unloaded():
    # the CLI, a phase sweep with holding and failing cells and a simulation
    # on a lumpable automaton need neither solver
    probe = """
import contextlib, io, sys
import replab.cli
from replab import GameParams, MonitoringStructure, construct_non_efe
from replab.simulate import SimulationConfig, analytic_long_run_effort, simulate

def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules)

replab.cli.build_parser()
print(loaded())
with contextlib.redirect_stdout(io.StringIO()) as table:
    assert replab.cli.main(["phase-sweep", "--binary-precision", "0.6:0.9:0.3", "--kappa",
                            "0.1:0.3:0.2", "--delta", "0.3:0.8:0.5", "--c", "0.05"]) == 0
assert "true,true,true" in table.getvalue() and "false,,," in table.getvalue()
print(loaded())
params, monitoring = GameParams(0.2, 0.5, 0.3, 0.05), MonitoringStructure.binary(0.75)
auto, _ = construct_non_efe(params, monitoring)
simulate(auto, params, monitoring, SimulationConfig(horizon=5, paths=3, master_seed=1))
assert analytic_long_run_effort(auto, params, monitoring).method == "lumped"
print(loaded())
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=child_env(),
    ).stdout
    assert out.split() == ["[]", "[]", "[]"]


@pytest.mark.probe
@pytest.mark.parametrize("cyclic", [False, True], ids=["constructed", "cyclic"])
def test_scipy_sparse_loads_only_for_a_cyclic_value_block(reference_payload, tmp_path, cyclic):
    # constructed automata are solved sinks first; only a cycle needs a sparse LU,
    # and only a run that loaded scipy records its version in the manifest
    payload = copy.deepcopy(reference_payload)
    if cyclic:  # FirstRegime state 2's fail edge back to the initial state
        edge = next(t for t in payload["transitions"] if (t["from"], t["signal"]) == (2, "Fail"))
        edge["to"] = payload["initial"]
    automaton, out = tmp_path / "automaton.json", tmp_path / "out"
    automaton.write_text(json.dumps(payload))
    commands = [["verify", "--automaton", str(automaton), "--out", str(out)]]
    if not cyclic:
        commands.append(["phase-sweep", "--binary-precision", "0.6:0.9:0.3",
                         "--kappa", "0.1:0.3:0.2", "--delta", "0.4:0.8:0.4", "--out", str(out)])
    probe = """
import contextlib, io, json, sys
from replab.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code)
print("scipy.sparse" in sys.modules, "scipy" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                          capture_output=True, text=True, check=True, timeout=60,
                          env=child_env())
    lines = done.stdout.split("\n")
    runs = json.loads((out / "manifest.json").read_text())["outputs"]
    versions = {name: record["versions"]["scipy"] for name, record in runs.items()}
    if cyclic:
        import scipy

        assert lines[:2] == ["verify 3", "True True"]
        assert versions == {"verification.json": scipy.__version__}
    else:  # 5 of the 8 cells hold, and both of their constructions verify
        assert lines[:3] == ["verify 0", "phase-sweep 0", "False False"]
        assert (out / "phase_sweep.csv").read_text().count("true,true,true") == 5
        assert versions == {"verification.json": None, "phase_sweep.csv": None}


class TestArgparseContract:
    def test_verify_has_no_depth_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--depth" not in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert_one_json_error(exc.value.code, capsys.readouterr().err, "ConfigParse")

    @pytest.mark.parametrize("argv", [
        ["check-fei", "--kappa", "abc"],  # a mistyped value
        ["simulate", "--paths", "10"],  # a missing required flag
        [],  # no subcommand
        # bound-sweep's axes are --pi0 and --c, and no flag spells them twice
        ["bound-sweep", *_BOUND_FAILING, "--pi0-grid", "0.3", "--c", "0"],
        ["bound-sweep", *_BOUND_FAILING, "--pi0", "0.3", "--c-grid", "0"],
    ])
    def test_bad_flag_is_one_json_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_json_error(exc.value.code, captured.err, "ConfigParse")

    def test_bound_sweep_takes_pi0_and_c_as_its_axes(self, capsys):
        with pytest.raises(SystemExit):
            main(["bound-sweep", "--help"])
        usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
        assert usage == ("usage: replab bound-sweep [-h] [--config CONFIG] [--binary-precision "
                         "BINARY_PRECISION] [--kappa KAPPA] [--delta DELTA] --pi0 PI0 --c C "
                         "[--out OUT]")

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: replab simulate [-h] --automaton")

    def test_missing_model_inputs_is_config_error(self, capsys):
        code, _, err = run(capsys, "check-fei", "--kappa", "0.2", "--delta", "0.4")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigParse"


def _readme_section(title):
    """The text of README's ``## title`` section."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split(f"\n## {title}\n")[1].split("\n## ")[0]


def _readme_commands():
    """Each ``replab ...`` command in the ``sh`` blocks of README's CLI
    section, continuations joined, with simulate's --paths lowered to keep
    the run short."""
    commands = []
    for block in _readme_section("CLI").split("```sh\n")[1:]:
        joined = block.split("```")[0].replace("\\\n", " ")
        commands += [line.split()[1:] for line in joined.splitlines()
                     if line.startswith("replab ")]
    for argv in commands:
        if argv[0] == "simulate":
            argv[argv.index("--paths") + 1] = "1000"
    return commands


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # in order, since later examples read what earlier ones wrote
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.probe
def test_readme_examples_run_in_children(tmp_path):
    # the CLI section's commands as python -m replab.cli, then the Library
    # example, each in a child that finds replab only through child_env
    library = _readme_section("Library example").split("```python\n")[1].split("```")[0]
    assert "paths=100_000" in library
    runs = [["-m", "replab.cli", *argv] for argv in _readme_commands()]
    runs.append(["-c", library.replace("paths=100_000", "paths=1_000")])
    for argv in runs:
        done = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True,
                              text=True, timeout=60, env=child_env())
        assert (done.returncode, done.stderr) == (0, ""), argv
