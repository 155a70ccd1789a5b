"""Tests for the sweep / simulate / bound command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdbound
from qkdbound import cli

from qkdbound.bounds import (
    ObservedStatistics,
    TagCounts,
    bound_inputs_from_source,
    evaluate_point,
    per_tag_bounds,
)
from qkdbound.cli import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    load_counts,
    main,
)
from qkdbound.simulator import (
    ChannelParams,
    RunConfig,
    simulate_asymptotic,
    simulate_finite,
)
from qkdbound.source import ProtocolProbs, SETTINGS_BB84, SourceSpec


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path) as fh:
        lines = fh.readlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    reader = csv.reader(ln for ln in lines if not ln.startswith("#"))
    header = next(reader)
    return meta, header, list(reader)


class TestSweep:
    def test_basic_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--loss-start", "0", "--loss-end", "20",
                        "--loss-step", "10", "--epsilon-u", "0,1e-3",
                        "--protocol", "both", "--out", str(out)])
        assert code == EXIT_OK
        meta, header, rows = read_csv(out)
        assert header == ["protocol", "loss_db", "epsilon_u", "delta",
                          "Delta", "l_c", "Y_Z", "e_bit", "e_ph_u", "rate"]
        assert len(rows) == 2 * 3 * 2  # protocols x losses x epsilons
        assert any("channel_model" in m for m in meta)
        # rates in 9-significant-digit scientific notation
        assert all("e" in r[-1] and len(r[-1].split("e")[0]) == 10
                   for r in rows)

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--loss-start", "10", "--loss-end", "10",
                "--loss-step", "5", "--epsilon-u", "1e-6"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == EXIT_OK
        assert run_cli(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_is_config_error(self):
        assert run_cli(["sweep", "--loss-start", "10", "--loss-end", "0"]) \
            == EXIT_CONFIG

    def test_negative_step_is_config_error(self):
        assert run_cli(["sweep", "--loss-step", "-1"]) == EXIT_CONFIG

    def test_config_file_and_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss_start": 10.0, "loss_end": 10.0,
                                   "loss_step": 5.0, "epsilon_u": [1e-3]}))
        out1 = tmp_path / "from_file.csv"
        assert run_cli(["sweep", "--config", str(cfg),
                        "--out", str(out1)]) == EXIT_OK
        _, _, rows = read_csv(out1)
        assert len(rows) == 1 and rows[0][2] == "0.001"
        # CLI flag overrides the file value
        out2 = tmp_path / "override.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--epsilon-u", "0",
                        "--out", str(out2)]) == EXIT_OK
        _, _, rows = read_csv(out2)
        assert rows[0][2] == "0.0"

    def test_step_below_float_precision_is_config_error(self):
        # 1 dB is below the float spacing at 1e17: the grid cannot advance
        env = dict(os.environ, PYTHONPATH=str(
            Path(qkdbound.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "qkdbound.cli", "sweep",
             "--loss-start", "1e17", "--loss-end", "1.00000000000001e17",
             "--loss-step", "1"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "does not advance" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sweep_beyond_row_limit_is_config_error(self):
        # 1e12 losses: the step check used to walk them all and never end
        env = dict(os.environ, PYTHONPATH=str(
            Path(qkdbound.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "qkdbound.cli", "sweep",
             "--loss-end", "1e9", "--loss-step", "1e-3"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert (f"sweep of 1000000000001 rows exceeds the limit of "
                f"{cli.MAX_SWEEP_ROWS} rows") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("loss_end, code", [("10", EXIT_OK),
                                                ("15", EXIT_CONFIG)])
    def test_row_limit_counts_losses_sources_and_protocols(
            self, tmp_path, monkeypatch, capsys, loss_end, code):
        # 3 or 4 losses x 2 sources x 2 protocols against a limit of 12
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 12)
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--protocol", "both", "--loss-end",
                        loss_end, "--loss-step", "5", "--epsilon-u", "0,1e-6",
                        "--out", str(out)]) == code
        if code == EXIT_OK:
            assert len(read_csv(out)[2]) == 12
        else:
            assert not out.exists()
            assert "sweep of 16 rows exceeds the limit of 12 rows" \
                in capsys.readouterr().err

    def test_whole_number_in_config_file_reads_as_flag(self, tmp_path):
        # an int used to stay an int and print "5" where the flag gives "5.0"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss_start": 0, "loss_end": 10,
                                   "loss_step": 5, "pd": 0,
                                   "epsilon_u": [0]}))
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert run_cli(["sweep", "--config", str(cfg),
                        "--out", str(from_file)]) == EXIT_OK
        assert run_cli(["sweep", "--loss-start", "0", "--loss-end", "10",
                        "--loss-step", "5", "--pd", "0", "--epsilon-u", "0",
                        "--out", str(from_flags)]) == EXIT_OK
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert run_cli(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file_is_io_error(self):
        assert run_cli(["sweep", "--config", "/no/such/file.json"]) == EXIT_IO

    @pytest.mark.parametrize("flag", ["--delta", "--cap-delta", "--epsilon-u",
                                      "--f"])
    def test_nan_parameter_is_config_error(self, flag, capsys):
        # NaN used to pass every range check and yield e_ph_u = 0
        assert run_cli(["sweep", "--loss-end", "10", flag, "nan"]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--loss-start", "--loss-end",
                                      "--loss-step"])
    def test_non_finite_loss_grid_flag_is_named(self, flag, value, capsys):
        # an infinite step used to be refused as "loss must be nonnegative"
        assert run_cli(["sweep", f"{flag}={value}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} = {value} is not finite" in captured.err

    def test_config_field_sweep_does_not_read(self, tmp_path, capsys):
        # used to exit 0, ignoring the loss
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss_db": 5}))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--loss-end", "5", "--config", str(cfg),
                        "--out", str(out)]) == EXIT_CONFIG
        assert ("config error: config file field loss_db is not read by "
                "sweep") in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_protocol_in_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": "BB84"}))
        assert run_cli(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("field, value", [
        ("protocol", ["bb84"]),
        ("loss_start", "0"),
        ("loss_end", True),
        ("loss_step", "5"),
        ("epsilon_u", ["1e-6"]),
        ("delta", [0.063, True]),
        ("cap_delta", "0.03"),
        ("lc", 2.7),  # used to run with l_c = 2
        ("pd", "1e-8"),
        ("f", True),  # used to run and print "f: True"
        ("mode", 1),
        ("n", 1000.7),  # used to run n = 1000 and print 1000.7
        ("seed", 1.0),
        ("loss_db", None),
        ("delta", [10 ** 400]),  # no float holds it
    ])
    def test_config_value_of_wrong_type_is_config_error(self, tmp_path,
                                                        capsys, field,
                                                        value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "finite", "n": 1000,
                                   "loss_end": 5, field: value}))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg),
                        "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert f"config error: {field} = " in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["asymptotic", "finite"])
    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    def test_correlation_length_beyond_float_range(self, tmp_path, capsys,
                                                   mode, via_config):
        # used to end in "int too large to convert to float" (exit 4)
        args = ["sweep", "--loss-end", "0", "--mode", mode, "--n", "1000"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lc": [10 ** 400]}))
            args += ["--config", str(cfg)]
        else:
            args += ["--lc", str(10 ** 400)]
        out = tmp_path / "sweep.csv"
        assert run_cli(args + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "correlation_length" in captured.err
        assert captured.out == "" and not out.exists()

    def test_correlation_length_at_float_range_runs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--loss-end", "0", "--lc", str(10 ** 308),
                        "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert len(rows) == 1 and rows[0][5] == str(10 ** 308)

    def test_empty_sifted_key_in_column_is_compute_error(self, tmp_path,
                                                         capsys):
        # at 400 dB without dark counts the last point detects nothing
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--pd", "0", "--loss-start", "0",
                        "--loss-end", "400", "--loss-step", "400",
                        "--out", str(out)]) == EXIT_COMPUTE
        assert not out.exists()
        assert "computation error" in capsys.readouterr().err


class TestSimulateAndBound:
    def _simulate(self, tmp_path, seed=5):
        out = tmp_path / f"counts_{seed}.json"
        code = run_cli(["simulate", "--loss-db", "10", "--n", "100000",
                        "--seed", str(seed), "--lc", "2",
                        "--epsilon-u", "1e-6", "--out", str(out)])
        assert code == EXIT_OK
        return out

    def test_documents_byte_identical(self, tmp_path):
        a = self._simulate(tmp_path, seed=5)
        b = tmp_path / "again.json"
        run_cli(["simulate", "--loss-db", "10", "--n", "100000", "--seed",
                 "5", "--lc", "2", "--epsilon-u", "1e-6", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tag_blocks_partition_rounds(self, tmp_path):
        doc = json.loads(self._simulate(tmp_path).read_text())
        assert doc["schema"] == "qkdbound-counts/2"
        assert len(doc["per_tag"]) == 3
        assert sum(t["n_w"] for t in doc["per_tag"]) == doc["n"]

    @pytest.mark.parametrize("protocol", ["bb84", "three-state"])
    def test_schema_1_twin_replays_unchanged(self, tmp_path, protocol):
        # /1 also carried probs.p_za and channel.theta_mis, which bound
        # never read
        new = tmp_path / "new.json"
        assert run_cli(["simulate", "--protocol", protocol, "--n", "100000",
                        "--lc", "2", "--out", str(new)]) == EXIT_OK
        doc = json.loads(new.read_text())
        assert doc["schema"] == "qkdbound-counts/2"
        assert "p_za" not in doc["probs"]
        assert "theta_mis" not in doc["channel"]
        doc["schema"] = "qkdbound-counts/1"
        doc["probs"]["p_za"] = 0.5
        doc["channel"]["theta_mis"] = 0.0
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert load_counts(str(old))[1:] == load_counts(str(new))[1:]
        reports = []
        for path in (new, old):
            report = tmp_path / (path.stem + ".txt")
            assert run_cli(["bound", str(path), "--out", str(report)]) \
                == EXIT_OK
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_replay_matches_in_process_pipeline(self, tmp_path):
        path = self._simulate(tmp_path)
        doc, stats, probs = load_counts(str(path))
        spec = SourceSpec(delta=0.063, Delta=0.03, epsilon_u=1e-6,
                          correlation_length=2)
        cfg = RunConfig(n=100000, seed=5, l_c=2, protocol="bb84",
                        probs=ProtocolProbs.uniform(SETTINGS_BB84))
        direct = simulate_finite(cfg, spec, ChannelParams(10.0))
        assert stats == direct
        replayed = evaluate_point(stats, probs, spec, "bb84", 1.16)
        in_proc = evaluate_point(direct, cfg.probs, spec, "bb84", 1.16)
        assert replayed == in_proc

    def test_bound_command_reports(self, tmp_path, capsys):
        path = self._simulate(tmp_path)
        assert run_cli(["bound", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "e_ph_u:" in text and "rate:" in text
        assert text.count("e_ph_u[tag") == 3

    def test_bound_missing_file_is_io_error(self):
        assert run_cli(["bound", "/no/such/counts.json"]) == EXIT_IO

    def test_bound_bad_schema_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        assert run_cli(["bound", str(path)]) == EXIT_CONFIG

    def test_bound_empty_sifted_key_is_compute_error(self, tmp_path):
        out = tmp_path / "dead.json"
        assert run_cli(["simulate", "--loss-db", "300", "--pd", "0",
                        "--n", "1000", "--seed", "1", "--lc", "0",
                        "--out", str(out)]) == EXIT_OK
        assert run_cli(["bound", str(out)]) == EXIT_COMPUTE

    def test_simulate_rejects_n_beyond_int64(self, capsys):
        assert run_cli(["simulate", "--n", str(10 ** 20)]) == EXIT_CONFIG
        assert "int64" in capsys.readouterr().err

    def test_simulate_rejects_tags_beyond_limit(self, tmp_path, capsys):
        # one record per tag: l_c = 199,999 used to take 724 MB
        out = tmp_path / "counts.json"
        assert run_cli(["simulate", "--n", "20000", "--lc", "10000",
                        "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "l_c = 10000" in captured.err
        assert "at most 10000" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", [["sweep", "--delta", "4"],
                                         ["simulate", "--delta", "-4"]])
    def test_delta_beyond_pi_is_refused(self, tmp_path, capsys, command):
        # a delta of ~1e14 used to print an e_ph_u below the true rate
        out = tmp_path / "out"
        assert run_cli(command + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "delta" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["per_tag"][0]["n_x"].__setitem__("0X", [-50, 10 ** 9]),
         "negative count"),
        (lambda d: d["per_tag"][1]["n_x"]["1X"].__setitem__(
            0, d["per_tag"][1]["n_w"]), "exceed n_w"),
        (lambda d: d["per_tag"][2].__setitem__(
            "n_err_z", d["per_tag"][2]["n_det_z"] + 1), "exceeds n_det_z"),
        (lambda d: d.__setitem__("n", d["n"] + 1), "do not sum to n"),
        (lambda d: d.__setitem__("l_c", 1), "needs 2 tag blocks"),
        (lambda d: d["per_tag"][1]["n_x"].pop("1X"),
         "n_x must have one entry per bb84 setting"),
        (lambda d: d["per_tag"][0]["n_x"].__setitem__("0X", [5]),
         "is not a pair of counts"),
        (lambda d: d["per_tag"][0]["n_x"].__setitem__("2X", [0, 0]),
         "n_x must have one entry per bb84 setting"),
        (lambda d: d.update(protocol="three_state", probs=dict(
            d["probs"], p_j={"0Z": 0.25, "1Z": 0.25, "0X": 0.5})),
         "n_x must have one entry per three_state setting"),
        (lambda d: d["probs"]["p_j"].__setitem__(
            "2X", d["probs"]["p_j"].pop("1X")), "probs.p_j must have one"),
        (lambda d: d["per_tag"][0]["n_x"]["0Z"].__setitem__(0, 12.7),
         "12.7 is not an integer count"),
        (lambda d: d.__setitem__("per_tag", dict(enumerate(d["per_tag"]))),
         "per_tag must be a list"),
        (lambda d: d["source"].pop("delta"), "missing field 'delta'"),
        (lambda d: d["source"].__setitem__("Delta", "0.03"),
         "'Delta' = '0.03' is not a finite number"),
        # used to print an e_ph_u below the true rate at |delta| ~ 1e14
        (lambda d: d["source"].__setitem__("delta", 3.5),
         "delta = 3.5 must lie in [-pi, pi]"),
        (lambda d: d["channel"].pop("f"), "missing field 'f'"),
        (lambda d: d["channel"].__setitem__("f", "1.16"),
         "'f' = '1.16' is not a finite number"),
        (lambda d: d["source"].__setitem__("correlation_length", 0),
         "differs from source.correlation_length"),
        (lambda d: d.update(n=d["n"] - d["per_tag"][0]["n_w"], per_tag=[
            dict(d["per_tag"][0], n_w=0, n_det_z=0, n_err_z=0,
                 n_x={j: [0, 0] for j in d["per_tag"][0]["n_x"]}),
            *d["per_tag"][1:]]), "no rounds"),
        # each used to end in a division by zero (exit 4)
        (lambda d: d["probs"].__setitem__("p_zb", 1), "p_zb in (0, 1)"),
        (lambda d: d["probs"].__setitem__("p_zb", 0), "p_zb in (0, 1)"),
        (lambda d: d["probs"]["p_j"].update({"0X": 0.5, "1X": 0}),
         "every p_j > 0"),
        # used to end in "int too large to convert to float" (exit 4)
        (lambda d: d["source"].__setitem__("epsilon_u", 10 ** 400),
         "is not a finite number"),
        # each used to exit 0
        (lambda d: [t.__setitem__("w", 7) for t in d["per_tag"]],
         "tag block 0 has w = 7"),
        (lambda d: d["per_tag"][1].__setitem__("w", -3),
         "tag block 1 has w = -3"),
    ], ids=["negative", "x_plus_sifted_above_n_w", "errors_above_sifted",
            "n_w_sum", "l_c_blocks", "tag_lacks_setting", "short_pair",
            "setting_outside_protocol", "three_state_with_1x",
            "p_j_settings", "non_integer_count", "per_tag_not_list",
            "missing_source_field", "non_numeric_source_field",
            "delta_beyond_pi",
            "missing_f", "non_numeric_f", "l_c_vs_correlation_length",
            "empty_tag", "p_zb_one", "p_zb_zero", "p_j_zero",
            "int_beyond_float", "w_not_position", "negative_w"])
    def test_bound_rejects_inconsistent_counts(self, tmp_path, capsys, edit,
                                               message):
        path = self._simulate(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert run_cli(["bound", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert "rate:" not in captured.out

    def test_counts_beyond_int64(self, tmp_path, capsys):
        # summed in int64, these counts would wrap
        path = self._simulate(tmp_path)
        doc = json.loads(path.read_text())
        scale = 10 ** 25
        doc["n"] *= scale
        for t in doc["per_tag"]:
            for key in ("n_w", "n_det_z", "n_err_z"):
                t[key] *= scale
            t["n_x"] = {j: [c * scale for c in pair]
                        for j, pair in t["n_x"].items()}
        path.write_text(json.dumps(doc))
        assert run_cli(["bound", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        per_tag = [TagCounts(**dict(t, n_x={j: tuple(pair) for j, pair
                                            in t["n_x"].items()}))
                   for t in doc["per_tag"]]
        probs = ProtocolProbs(**doc["probs"])
        stats = ObservedStatistics.from_tags(doc["n"], per_tag, probs)
        spec = SourceSpec(**doc["source"])
        report = evaluate_point(stats, probs, spec, doc["protocol"],
                                doc["channel"]["f"])
        assert f"e_ph_u: {report.e_ph_u:.8e}" in lines
        c_upper, pvir, eps = bound_inputs_from_source(spec, doc["protocol"])
        assert [ln for ln in lines if ln.startswith("e_ph_u[tag")] == [
            f"e_ph_u[tag {w}]: {e:.8e}" for w, e in
            enumerate(per_tag_bounds(stats, probs, c_upper, pvir, eps))]
        doc["n"] += 1
        path.write_text(json.dumps(doc))
        assert run_cli(["bound", str(path)]) == EXIT_CONFIG
        assert "do not sum to n" in capsys.readouterr().err

    def test_counts_beyond_float_range(self, tmp_path, capsys):
        # used to end in "int too large to convert to float" (exit 4)
        path = tmp_path / "counts.json"
        assert run_cli(["simulate", "--n", "100000", "--lc", "9",
                        "--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text())
        scale = 10 ** 400
        doc["n"] *= scale
        for t in doc["per_tag"]:
            for key in ("n_w", "n_det_z", "n_err_z"):
                t[key] *= scale
            t["n_x"] = {j: [c * scale for c in pair]
                        for j, pair in t["n_x"].items()}
        path.write_text(json.dumps(doc))
        assert run_cli(["bound", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "is not an integer count" in captured.err
        assert "rate:" not in captured.out

    @pytest.mark.parametrize("flag", ["--delta", "--cap-delta", "--epsilon-u",
                                      "--f"])
    def test_simulate_nan_parameter_is_config_error(self, tmp_path, flag):
        out = tmp_path / "counts.json"
        assert run_cli(["simulate", "--n", "1000", flag, "nan",
                        "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_simulate_non_finite_loss_is_config_error(self, tmp_path, capsys,
                                                      value):
        # an infinite loss used to be written as "loss_db": Infinity
        out = tmp_path / "counts.json"
        assert run_cli(["simulate", "--n", "1000", f"--loss-db={value}",
                        "--out", str(out)]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_field_simulate_does_not_read(self, tmp_path, capsys):
        # used to exit 0, ignoring the loss
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss_end": 5}))
        out = tmp_path / "counts.json"
        assert run_cli(["simulate", "--n", "1000", "--config", str(cfg),
                        "--out", str(out)]) == EXIT_CONFIG
        assert ("config error: config file field loss_end is not read by "
                "simulate") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--seed", "-1"],
        ["sweep", "--mode", "finite", "--seed", "-3", "--n", "1000",
         "--loss-end", "0"]], ids=["simulate", "sweep"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, args):
        # used to print numpy's "expected non-negative integer"
        out = tmp_path / "out"
        assert run_cli(args + ["--out", str(out)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rejects_both_protocols(self):
        assert run_cli(["simulate", "--protocol", "both"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag, values", [
        ("--epsilon-u", "0,1e-6"), ("--delta", "0.063,0.5"),
        ("--cap-delta", "0.03,0.05"), ("--lc", "0,3")])
    def test_simulate_rejects_several_values(self, tmp_path, capsys, flag,
                                             values):
        # only the first value used to be simulated, silently
        out = tmp_path / "counts.json"
        assert run_cli(["simulate", "--n", "1000", flag, values,
                        "--out", str(out)]) == EXIT_CONFIG
        assert "simulate takes one" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["BB84", "bb-84"])
    def test_bound_unknown_protocol_is_config_error(self, tmp_path, capsys,
                                                    name):
        path = self._simulate(tmp_path)
        doc = json.loads(path.read_text())
        doc["protocol"] = name
        path.write_text(json.dumps(doc))
        assert run_cli(["bound", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unknown protocol" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("text", [
    '{"n": [1, 2', "[" * 100_000 + "]" * 100_000], ids=["truncated", "deep"])
@pytest.mark.parametrize("command", ["bound", "sweep", "simulate"])
def test_malformed_json_input_is_config_error(tmp_path, capsys, command, text):
    # the deep file used to end in a RecursionError traceback (exit 1)
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ([command, str(path)] if command == "bound"
            else [command, "--config", str(path)])
    assert run_cli(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def _empty_tag_list(tmp_path):
    counts = tmp_path / "counts.json"
    assert run_cli(["simulate", "--n", "1000", "--out", str(counts)]) \
        == EXIT_OK
    doc = dict(json.loads(counts.read_text()), per_tag=[], l_c=-1)
    counts.write_text(json.dumps(doc))
    return ["bound", str(counts)]


def _list_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    return ["sweep", "--config", str(cfg)]


@pytest.mark.parametrize("argv, out_name, code, printed", [
    (_list_config, "r.csv", EXIT_CONFIG,
     "config error: config file {tmp}/cfg.json: top level must be an object"),
    (["sweep", "--epsilon-u", ","], "r.csv", EXIT_CONFIG,
     "config error: epsilon_u list must be nonempty"),
    (["sweep", "--loss-start=-1e308", "--loss-end", "1e308",
      "--loss-step", "1e300"], "r.csv", EXIT_CONFIG,
     "config error: loss grid bounds must be finite"),
    (["sweep", "--loss-start", "1e17", "--loss-end", "1.00000000000001e17",
      "--loss-step", "1"], "r.csv", EXIT_CONFIG,
     "config error: loss step 1.0 does not advance the loss at float "
     "precision near 1e+17"),
    (["sweep", "--loss-end", "0"], "missing/dir/r.csv", EXIT_IO,
     "I/O error: cannot write {tmp}/missing/dir/r.csv"),
    (_empty_tag_list, "report.txt", EXIT_CONFIG,
     "config error: a tagged run needs at least one tag block"),
], ids=["config_not_object", "empty_list_flag", "loss_span_not_finite",
        "loss_step_stalls", "out_not_writable", "empty_tag_list"])
def test_refusal_is_named_without_output(tmp_path, capsys, argv, out_name,
                                         code, printed):
    if callable(argv):
        argv = argv(tmp_path)
        capsys.readouterr()
    out = tmp_path / out_name
    assert run_cli(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(printed.format(tmp=tmp_path))
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("name", ["BB84", "bb-84"])
def test_unknown_protocol_names_raise(name):
    spec = SourceSpec()
    with pytest.raises(ValueError, match="unknown protocol"):
        RunConfig(n=10, seed=1, l_c=0, protocol=name,
                  probs=ProtocolProbs.uniform(SETTINGS_BB84))
    with pytest.raises(ValueError, match="unknown protocol"):
        simulate_asymptotic(spec, ProtocolProbs.uniform(SETTINGS_BB84),
                            ChannelParams(10.0), protocol=name)
    with pytest.raises(ValueError, match="unknown protocol"):
        bound_inputs_from_source(spec, name)


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    counts = tmp_path / "counts.json"
    simulate = ["simulate", "--n", "10000", "--lc", "2", "--seed", "3"]
    sweep = ["sweep", "--protocol", "both", "--loss-end", "20",
             "--epsilon-u", "0,1e-6"]
    assert run_cli(simulate + ["--out", str(counts)]) == EXIT_OK

    def fresh(argv, name):
        """Output of ``argv`` as the first call of a process."""
        cli._parser.cache_clear()
        path = tmp_path / f"fresh_{name}"
        assert run_cli(argv + ["--out", str(path)]) == EXIT_OK
        return path.read_bytes()

    want = {"sweep": fresh(sweep, "sweep"),
            "bound": fresh(["bound", str(counts)], "bound"),
            "simulate": fresh(simulate, "simulate")}

    cli._parser.cache_clear()
    got = {}

    def call(argv, name):
        path = tmp_path / name
        assert run_cli(argv + ["--out", str(path)]) == EXIT_OK
        got[name] = path.read_bytes()

    call(sweep, "sweep")
    bound_calls = []
    original = cli.cmd_bound

    def recorded(args):
        bound_calls.append(args.counts)
        return original(args)

    monkeypatch.setattr(cli, "cmd_bound", recorded)
    call(["bound", str(counts)], "bound")
    assert bound_calls == [str(counts)]
    call(simulate, "simulate")
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--n", "1.5"])
    assert exc.value.code == EXIT_CONFIG
    call(sweep, "sweep again")
    assert cli._parser.cache_info().misses == 1
    assert got == dict(want, **{"sweep again": want["sweep"]})


@pytest.mark.parametrize("message, printed", [
    ("Unable to allocate 6.00 GiB", "out of memory: Unable to allocate 6.00 GiB"),
    ("", "out of memory")])
@pytest.mark.parametrize("command", ["sweep", "simulate", "bound"])
def test_memory_error_is_compute_error(monkeypatch, capsys, command, message,
                                       printed):
    # used to end in a traceback (exit 1)
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, f"cmd_{command}", exhausted)
    argv = [command] + (["counts.json"] if command == "bound" else [])
    assert run_cli(argv) == EXIT_COMPUTE
    assert capsys.readouterr().err == f"computation error: {printed}\n"


@pytest.mark.parametrize("command", ["sweep", "simulate", "bound"])
def test_arithmetic_error_is_compute_error(monkeypatch, capsys, command):
    def overflowed(args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, f"cmd_{command}", overflowed)
    argv = [command] + (["counts.json"] if command == "bound" else [])
    assert run_cli(argv) == EXIT_COMPUTE
    assert capsys.readouterr().err == "computation error: math range error\n"
