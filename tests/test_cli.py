import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghzlab
from ghzlab.chip import HeaterCalibration
from ghzlab.cli import COMMANDS, _density_matrix_text, main
from ghzlab.config import (MAX_COUNT, PhaseScanSpec, default_config, dump_config,
                           load_config, parse_config)
from ghzlab.errors import ConfigError
from ghzlab.qmath import PauliLabel


@pytest.fixture()
def ideal_config(tmp_path):
    cfg = default_config()
    cfg["source"]["g2"] = 0.0
    cfg["source"]["overlaps"] = {"AB": 1.0, "AC": 1.0, "BD": 1.0, "CD": 1.0}
    cfg["source"]["eta"] = 1.0
    cfg["chip"]["reflectivities"] = [0.5, 0.5, 0.5, 0.5]
    path = tmp_path / "config.json"
    path.write_text(dump_config(cfg))
    return path


def read_json(path):
    return json.loads(Path(path).read_text())


class TestConfig:
    def test_default_parses_and_validates(self):
        parse_config(default_config())

    def test_round_trip_idempotent(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(dump_config(default_config()))
        cfg = load_config(path)
        again = dump_config(cfg.raw)
        cfg2 = parse_config(json.loads(again))
        assert dump_config(cfg2.raw) == again

    def test_schema_required(self):
        with pytest.raises(ConfigError):
            parse_config({"seed": 1})

    def test_range_violation_rejected(self):
        cfg = default_config()
        cfg["source"]["g2"] = 0.9
        with pytest.raises(ConfigError):
            parse_config(cfg)

    @pytest.mark.parametrize("block, key, value", [
        ("tomography", "resamples", True),
        ("tomography", "resamples", 2.0),
        ("tomography", "resamples", -1),
        ("ablation", "resamples", "3"),
        ("qss", "rounds", 0),
        ("bell_sweep", "photon", 2),
        ("simulate", "settings", ["z", "z", "z"]),
        ("simulate", "settings", ["z", "z", "z", 1]),
        ("phase_scan", "points", 4),
        ("phase_scan", "points", 13.0),
        ("phase_scan", "power_max_mw", float("inf")),
        ("phase_scan", "offset_rad", None),
        ("bell_sweep", "scales", [1.0, float("nan")]),
        ("bell_sweep", "scales", [1.5]),
        ("bell_sweep", "scales", 0.5),
        ("qss", "public_fraction", "x"),
        ("qss", "public_fraction", True),
        ("ablation", "detector_pattern", [1.0] * 7 + [0.0]),
        ("ablation", "detector_pattern", [1.0] * 9),
        ("phase_scan", "points", MAX_COUNT + 1),
        ("qss", "rounds", 2 ** 70),
        ("phase_scan", "rad_per_mw", 1e307),
    ])
    def test_command_blocks_validated(self, block, key, value):
        cfg = default_config()
        cfg[block][key] = value
        with pytest.raises(ConfigError, match=re.escape(f"{block}.{key}")):
            parse_config(cfg)

    def test_command_blocks_parsed(self):
        cfg = default_config()
        cfg["simulate"]["settings"] = ["x", "-z", "y", "x+z"]
        cfg["bell_sweep"]["photon"] = "b"
        cfg["qss"]["rounds"] = 7
        cfg["tomography"]["resamples"] = 0
        cfg["ablation"]["resamples"] = 3
        cfg["phase_scan"]["points"] = 5
        cfg["bell_sweep"]["scales"] = [1, 0.5, 0]
        cfg["qss"]["public_fraction"] = 1
        cfg["ablation"]["detector_pattern"] = [1, 0.5, 0.9, 1, 0.6, 1, 1, 0.7]
        parsed = parse_config(cfg)
        assert parsed.simulate_labels == (PauliLabel.X, PauliLabel.MINUS_Z,
                                          PauliLabel.Y, PauliLabel.XPZ)
        assert parsed.bell_sweep_photon == "B"
        assert parsed.qss_rounds == 7
        assert parsed.tomography_resamples == 0
        assert parsed.ablation_resamples == 3
        assert parsed.phase_scan == PhaseScanSpec(28.0, 78.0, 5, 0.126264,
                                                  -0.3848165328204134)
        assert parsed.bell_sweep_scales == (1.0, 0.5, 0.0)
        assert parsed.qss_public_fraction == 1.0
        assert parsed.ablation_detector_pattern == (1.0, 0.5, 0.9, 1.0, 0.6, 1.0, 1.0, 0.7)
        assert parse_config(default_config()).ablation_detector_pattern is None

    def test_counts_accepted_up_to_max(self):
        cfg = default_config()
        cfg["phase_scan"]["points"] = MAX_COUNT
        cfg["qss"]["rounds"] = MAX_COUNT
        parsed = parse_config(cfg)
        assert parsed.phase_scan.points == MAX_COUNT
        assert parsed.qss_rounds == MAX_COUNT

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_exact_probabilities_must_be_bool(self, value):
        cfg = default_config()
        cfg["exact_probabilities"] = value
        with pytest.raises(ConfigError, match="exact_probabilities"):
            parse_config(cfg)

    def test_config_init_command(self, tmp_path, capsys):
        out = tmp_path / "emitted.json"
        assert main(["config-init", "--out", str(out)]) == 0
        parsed = load_config(out)
        assert parsed.seed == default_config()["seed"]
        assert main(["config-init"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "ghzlab-config/v1"


class TestCommands:
    def test_simulate_ideal(self, ideal_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(ideal_config), "--out", str(out)]) == 0
        dist = read_json(out / "distribution.json")
        assert dist["outcomes"]["0101"] == pytest.approx(1 / 16, abs=1e-12)
        assert dist["success_probability"] == pytest.approx(1 / 8, abs=1e-12)
        csv_lines = (out / "distribution.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 17
        parsed = {row.split(",")[0]: float(row.split(",")[1])
                  for row in csv_lines[1:]}
        assert parsed["0101"] == pytest.approx(1 / 16, abs=1e-12)
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "simulate"
        assert "distribution.json" in manifest["results"]

    def test_rate_reports_value_and_discrepancy(self, ideal_config, tmp_path):
        out = tmp_path / "rate"
        assert main(["rate", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "rate.json")
        assert payload["four_fold_rate_hz"] == pytest.approx(14.0, abs=0.1)
        assert "0.5 Hz" in payload["note"]

    def test_witness_ideal(self, ideal_config, tmp_path):
        out = tmp_path / "wit"
        assert main(["witness", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "witness.json")
        assert payload["witness"] == pytest.approx(-1.0, abs=1e-9)
        assert payload["entangled"] is True

    def test_bell_ideal(self, ideal_config, tmp_path):
        out = tmp_path / "bell"
        assert main(["bell", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "bell.json")
        assert payload["value"] == pytest.approx(6 * math.sqrt(2), abs=1e-9)
        assert payload["violated"] is True

    def test_calibrate_round_trip(self, ideal_config, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "calibrate.json")
        achieved = np.asarray(payload["achieved_phi_rad"])
        target = np.asarray(payload["target_phi_rad"])
        assert np.abs(np.angle(np.exp(1j * (achieved - target)))).max() < 1e-6

    def test_calibrate_dead_channels_reachable_targets(self, ideal_config, tmp_path):
        calibration = tmp_path / "calibration.txt"
        calibration.write_text(HeaterCalibration(dead_channels=frozenset({3, 15})).to_text())
        cfg = json.loads(ideal_config.read_text())
        cfg["heater_calibration_file"] = str(calibration)
        cfg["calibrate"] = {
            "alpha_targets_rad": [3.6940040976435435, 4.652319908239959,
                                  0.9384200757462816, 0.36140040109333854],
            "phi_targets_rad": [2.8989276862255293, 1.946945875016669,
                                0.5280263919227022, 1.093640597805258],
        }
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "calibrate.json")
        for key in ("alpha", "phi"):
            miss = (np.asarray(payload[f"achieved_{key}_rad"])
                    - np.asarray(payload[f"target_{key}_rad"]))
            assert np.abs(np.angle(np.exp(1j * miss))).max() < 1e-6

    def test_calibrate_writes_nothing_to_stdout(self, ideal_config, tmp_path):
        # output from C code goes through stdio's own buffer, so only a
        # separate process with stdout on a pipe sees whether anything escapes
        cfg = json.loads(ideal_config.read_text())
        rng = np.random.default_rng(41)
        src = str(Path(ghzlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for i in range(3):
            cfg["calibrate"] = {
                "alpha_targets_rad": rng.uniform(0, 2 * math.pi, 4).tolist(),
                "phi_targets_rad": rng.uniform(0, 2 * math.pi, 4).tolist(),
            }
            path = tmp_path / f"cal{i}.json"
            path.write_text(dump_config(cfg))
            proc = subprocess.run(
                [sys.executable, "-m", "ghzlab.cli", "calibrate", "--config", str(path),
                 "--out", str(tmp_path / f"out{i}")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            assert proc.stdout == b""

    def test_bell_default_exact_has_zero_standard_error(self, tmp_path):
        path = tmp_path / "default.json"
        path.write_text(dump_config(default_config()))
        out = tmp_path / "bell"
        assert main(["bell", "--config", str(path), "--out", str(out)]) == 0
        assert read_json(out / "bell.json")["standard_error"] == 0.0

    def test_qss_small(self, ideal_config, tmp_path):
        cfg = json.loads(ideal_config.read_text())
        cfg["qss"]["rounds"] = 200
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "qss"
        assert main(["qss", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "qss.json")
        assert payload["qber"] == 0.0
        assert payload["secure"] is True
        lines = (out / "transcript.csv").read_text().strip().splitlines()
        assert len(lines) == 201

    def test_phase_scan(self, ideal_config, tmp_path):
        out = tmp_path / "scan"
        assert main(["phase-scan", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "fit.json")
        assert payload["amplitude"] == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
        assert payload["power_at_max_mw"] == pytest.approx(52.81, abs=1e-3)

    def test_tomography_sampled_smoke(self, ideal_config, tmp_path):
        cfg = json.loads(ideal_config.read_text())
        cfg["exact_probabilities"] = False
        cfg["shots_per_setting"] = 60
        cfg["tomography"]["resamples"] = 0
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "tomo"
        assert main(["tomography", "--config", str(ideal_config), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["fidelity"] > 0.9
        assert report["mle_converged"] is True
        assert report["mle_certificate"] <= 1e-6
        rho = read_json(out / "rho.json")
        assert len(rho["real"]) == 16
        assert (out / "rho.txt").read_text().startswith("# real part")
        counts = read_json(out / "tomography.json")
        assert len(counts["records"]) == 81

    def test_tomography_one_shot_converges(self, ideal_config, tmp_path):
        """One shot per setting: resamples that empty a setting still have a fit."""
        cfg = json.loads(ideal_config.read_text())
        cfg["exact_probabilities"] = False
        cfg["shots_per_setting"] = 1
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "tomo"
        assert main(["tomography", "--config", str(ideal_config), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["mle_converged"] is True
        assert report["mle_certificate"] <= 1e-6
        assert 0.0 < report["fidelity_error"] < 1.0

    def test_density_matrix_text_has_no_negative_zero(self):
        rho = np.full((16, 16), -1e-17 - 1e-17j)
        rho[0, 0], rho[0, 1], rho[1, 0] = 0.5, -0.25 + 1e-6j, -0.25 - 1e-6j
        text = _density_matrix_text(rho)
        assert "-0.0000" not in text
        assert "-0.2500" in text
        rows = [line for line in text.splitlines() if line.startswith("0000")]
        assert rows[0].split()[1:4] == ["0.5000", "-0.2500", "0.0000"]
        assert rows[1].split()[1:4] == ["0.0000", "0.0000", "0.0000"]

    def test_bell_sweep(self, ideal_config, tmp_path):
        cfg = json.loads(ideal_config.read_text())
        cfg["bell_sweep"]["scales"] = [1.0, 0.0]
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "sweep"
        assert main(["bell-sweep", "--config", str(ideal_config), "--out", str(out)]) == 0
        payload = read_json(out / "sweep.json")
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["bell_value"] > payload["rows"][1]["bell_value"]

    def test_bell_sweep_is_exact_whatever_the_sampling(self, ideal_config, tmp_path):
        cfg = json.loads(ideal_config.read_text())
        cfg["bell_sweep"]["scales"] = [1.0, 0.5]
        outs = []
        for exact in (True, False):
            cfg["exact_probabilities"], cfg["shots_per_setting"] = exact, 1
            ideal_config.write_text(dump_config(cfg))
            outs.append(tmp_path / f"sweep-{exact}")
            assert main(["bell-sweep", "--config", str(ideal_config),
                         "--out", str(outs[-1])]) == 0
        assert (outs[0] / "sweep.json").read_bytes() == \
            (outs[1] / "sweep.json").read_bytes()


class TestDeterminismAndExitCodes:
    @pytest.mark.parametrize("command", ["simulate", "witness", "bell", "phase-scan",
                                         "tomography"])
    def test_rerun_byte_identical(self, ideal_config, tmp_path, command):
        cfg = json.loads(ideal_config.read_text())
        cfg["exact_probabilities"] = False
        cfg["tomography"]["resamples"] = 3
        ideal_config.write_text(dump_config(cfg))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main([command, "--config", str(ideal_config),
                         "--out", str(out)]) == 0
        names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in out2.iterdir()
                               if p.name != "manifest.json")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("path, value", [
        ("detectors", {"efficiencies": [2.0] * 8}),
        ("seed", -1),
        ("seed", math.inf),
        ("seed", 1.7),
        ("seed", True),
        ("shots_per_setting", 2.9),
        ("source.g2", "0.1"),
        ("source.overlaps", [1, 2]),
        ("chip.path_phases", [math.nan] * 8),
        ("chip.path_phases", [0.0] * 7 + [-math.inf]),
        ("rate.repetition_rate_hz", math.nan),
        ("rate.repetition_rate_hz", math.inf),
    ], ids=["efficiency-2", "seed-negative", "seed-inf", "seed-float", "seed-bool",
            "shots-float", "g2-string", "overlaps-list", "path-phase-nan",
            "path-phase-minus-inf", "repetition-rate-nan", "repetition-rate-inf"])
    def test_invalid_config_exit_2(self, tmp_path, capsys, path, value):
        bad = tmp_path / "bad.json"
        cfg = default_config()
        *blocks, key = path.split(".")
        target = cfg
        for block in blocks:
            target = target[block]
        target[key] = value
        bad.write_text(dump_config(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}")

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("update", [
        {"calibrate": {"alpha_targets_rad": [0.0, 0.0]}},
        {"calibrate": {"phi_targets_rad": [0.0, "abc", 0.0, 0.0]}},
        {"calibrate": {"alpha_targets_rad": [0.0, float("nan"), 0.0, 0.0]}},
        {"heater_calibration_file": "no-such-dir/calibration.txt"},
    ], ids=["length-2", "non-numeric", "nan", "missing-calibration-file"])
    def test_bad_calibrate_input_exit_2(self, ideal_config, tmp_path, capsys, update):
        cfg = json.loads(ideal_config.read_text())
        cfg.update(update)
        ideal_config.write_text(dump_config(cfg))
        assert main(["calibrate", "--config", str(ideal_config),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("key", ["alpha_row", "resistances"])
    def test_non_finite_calibration_file_exit_2(self, ideal_config, tmp_path, capsys,
                                                key):
        lines = HeaterCalibration().to_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith(key + " "))
        lines[i] = " ".join([key, "nan"] + lines[i].split()[2:])
        calibration = tmp_path / "calibration.txt"
        calibration.write_text("\n".join(lines) + "\n")
        cfg = json.loads(ideal_config.read_text())
        cfg["heater_calibration_file"] = str(calibration)
        ideal_config.write_text(dump_config(cfg))
        assert main(["calibrate", "--config", str(ideal_config),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command, update", [
        ("tomography", {"tomography": {"resamples": "many"}}),
        ("qss", {"qss": {"rounds": 0}}),
        ("bell-sweep", {"bell_sweep": {"photon": "E"}}),
        ("simulate", {"simulate": {"settings": ["x", "q", "z", "z"]}}),
        ("phase-scan", {"phase_scan": {"points": 0}}),
        ("phase-scan", {"phase_scan": {"rad_per_mw": "x"}}),
        ("qss", {"qss": {"public_fraction": 1.5}}),
        ("qss", {"qss": {"public_fraction": -0.5}}),
        ("bell-sweep", {"bell_sweep": {"scales": ["a"]}}),
        ("ablation", {"ablation": {"detector_pattern": [1, 2]}}),
        ("phase-scan", {"phase_scan": {"points": 2 ** 70}}),
        ("qss", {"qss": {"rounds": 2 ** 70}}),
        ("phase-scan", {"phase_scan": {"power_min_mw": -1e308, "power_max_mw": 1e308}}),
    ], ids=["tomography-resamples", "qss-rounds", "bell-sweep-photon",
            "simulate-label", "phase-scan-points", "phase-scan-rad-per-mw",
            "qss-public-fraction-high", "qss-public-fraction-negative",
            "bell-sweep-scales", "ablation-detector-pattern",
            "phase-scan-points-huge", "qss-rounds-huge", "phase-scan-span-overflow"])
    def test_bad_command_block_exit_2(self, ideal_config, tmp_path, capsys,
                                      command, update):
        cfg = json.loads(ideal_config.read_text())
        for block, values in update.items():
            cfg[block].update(values)
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(ideal_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    # The ``config-init`` source and chip, for runs on its context.
    _INIT_CONTEXT = {key: default_config()[key] for key in ("source", "chip")}

    def test_numerical_failure_exit_3(self, ideal_config, tmp_path):
        cfg = json.loads(ideal_config.read_text())
        # a scan that never moves the phase makes the cosine fit degenerate
        cfg["phase_scan"]["rad_per_mw"] = 0.0
        cfg["phase_scan"]["offset_rad"] = 0.0
        ideal_config.write_text(dump_config(cfg))
        out = tmp_path / "fail"
        assert main(["phase-scan", "--config", str(ideal_config),
                     "--out", str(out)]) == 3

    @pytest.mark.parametrize("command, update", [
        ("qss", {"qss": {"rounds": 1}, "seed": 2}),
        ("bell", {"detectors": {"efficiencies": [1e-300] * 8}}),
        ("tomography", {"shots_per_setting": 10 ** 400}),
        ("bell", {"detectors": {"efficiencies": [1e-4] * 8}}),
        ("simulate", {"detectors": {"efficiencies": [1e-4] * 8}}),
        ("phase-scan", {"phase_scan": {"power_min_mw": 28.0, "power_max_mw": 28.0},
                        "exact_probabilities": False}),
        ("phase-scan", {"phase_scan": {"power_min_mw": 28.0,
                                       "power_max_mw": 1.7976931348623157e308}}),
        ("phase-scan", {**_INIT_CONTEXT, "exact_probabilities": False, "phase_scan": {
            "points": 5, "rad_per_mw": 0.2564, "offset_rad": -2.0}}),
        ("phase-scan", {**_INIT_CONTEXT, "exact_probabilities": False, "phase_scan": {
            "points": 5, "rad_per_mw": 0.0005, "offset_rad": 0.3}}),
        ("phase-scan", {**_INIT_CONTEXT, "exact_probabilities": False, "phase_scan": {
            "rad_per_mw": 0.0, "offset_rad": 0.0}}),
    ], ids=["qss-nothing-sifted", "no-post-selected-mass", "shots-overflow",
            "bell-cancellation", "simulate-cancellation", "phase-scan-one-power",
            "phase-scan-linspace-overflow", "phase-scan-alias-band-top",
            "phase-scan-alias-band-bottom", "phase-scan-alias-no-phase"])
    def test_degenerate_run_exit_3(self, ideal_config, tmp_path, capsys, command, update):
        cfg = json.loads(ideal_config.read_text())
        for key, value in update.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        ideal_config.write_text(dump_config(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(ideal_config),
                         "--out", str(tmp_path / "o")]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert len(err.splitlines()) == 1
        assert not any((tmp_path / "o").iterdir())


def test_context_only_commands_never_enumerate(tmp_path, enumeration_calls):
    """``load_config`` builds a context, but only simulating commands enumerate."""
    path = tmp_path / "config.json"
    assert main(["config-init", "--out", str(path)]) == 0
    for command in ("calibrate", "rate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    assert enumeration_calls == []


def test_commands_run_without_scipy(tmp_path):
    """Every command runs with ``import scipy`` failing; numpy is the only dependency."""
    script = """
import importlib.abc, json, sys
from pathlib import Path

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from ghzlab.cli import COMMANDS, main
out = sys.argv[1]
config = out + "/config.json"
assert main(["config-init", "--out", config]) == 0
cfg = json.loads(Path(config).read_text())
cfg["tomography"]["resamples"] = 2
Path(config).write_text(json.dumps(cfg))
for command in COMMANDS:
    assert main([command, "--config", config, "--out", out + "/" + command]) == 0, command
    versions = json.loads(Path(out, command, "manifest.json").read_text())["versions"]
    assert sorted(versions) == ["ghzlab", "numpy"], versions
"""
    src = str(Path(ghzlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()


_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 63, 1e300, 5e-324]),
    st.integers(-(2 ** 70), 2 ** 70), st.floats(allow_nan=False),
    st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))
_SEEDS = st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64),
                   st.floats(), st.sampled_from([10 ** 400, True, "1"]))


def _slots(node):
    """Every (container, key) pair below ``node``, through objects and lists."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


def _mutate(data, cfg):
    """One type swap, odd value, deletion, truncation, extra key or odd seed."""
    slots = list(_slots(cfg))
    kind = data.draw(st.sampled_from(["replace", "delete", "truncate", "extra", "seed"]))
    if kind in ("replace", "delete"):
        container, key = data.draw(st.sampled_from(slots))
        if kind == "replace":
            container[key] = data.draw(_ODD_VALUES)
        else:
            del container[key]
    elif kind == "truncate":
        lists = [c[k] for c, k in slots if isinstance(c[k], list) and c[k]]
        if lists:
            values = data.draw(st.sampled_from(lists))
            del values[data.draw(st.integers(0, len(values) - 1)):]
    elif kind == "extra":
        target = data.draw(st.sampled_from([cfg] + [c[k] for c, k in slots
                                                    if isinstance(c[k], dict)]))
        target[data.draw(st.text(max_size=4))] = data.draw(_ODD_VALUES)
    else:
        cfg["seed"] = data.draw(_SEEDS)


def _int_above(value, cap) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > cap


# (block, key, cap, limit): valid counts above ``cap`` make a run long, so
# they are capped; counts above the parser's ``limit`` are left for it to
# reject.
_CAPPED_COUNTS = (("qss", "rounds", 20, MAX_COUNT), ("phase_scan", "points", 13, MAX_COUNT),
                  ("tomography", "resamples", 0, math.inf),
                  ("ablation", "resamples", 0, math.inf))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_config_exits_0_2_or_3(data):
    """The CLI contract on a mutated ``config-init`` document: no command raises."""
    cfg = json.loads(dump_config(default_config()))
    cfg["qss"]["rounds"] = 20
    cfg["tomography"]["resamples"] = 0
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, cfg)
    # Large valid counts make a run long, so sampling stays off and the
    # counts are capped.
    if cfg.get("exact_probabilities") is False:
        cfg["exact_probabilities"] = True
    for block, key, cap, limit in _CAPPED_COUNTS:
        if (isinstance(cfg.get(block), dict) and _int_above(cfg[block].get(key), cap)
                and cfg[block][key] <= limit):
            cfg[block][key] = cap
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(dump_config(cfg))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3)


@settings(max_examples=40, deadline=None)
@given(points=st.integers(5, 13), band_fraction=st.floats(0.0, 1.5),
       offset=st.floats(-math.pi, math.pi), seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_phase_scan_exits_0_or_3(points, band_fraction, offset, seed):
    """A sampled ``config-init`` phase scan, its frequency up to 1.5 times the band
    edge pi/spacing: a numerical failure, or a fit in the band whose amplitude
    exceeds the largest witness by at most ten times the witness's range.  (A
    scan that barely moves the phase is fitted near a cosine's peak, so its
    amplitude is the witness's level, which its noise range alone can miss.)"""
    cfg = json.loads(dump_config(default_config()))
    scan = cfg["phase_scan"]
    band = math.pi * (points - 1) / (scan["power_max_mw"] - scan["power_min_mw"])
    scan.update(points=points, rad_per_mw=band_fraction * band, offset_rad=offset)
    cfg.update(exact_probabilities=False, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "o"
        path.write_text(dump_config(cfg))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["phase-scan", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code == 0:
            fit = read_json(out / "fit.json")
            power, wit = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1).T
            assert 0.0 < fit["rad_per_mw"] <= math.pi * (points - 1) / np.ptp(power)
            assert fit["amplitude"] <= np.abs(wit).max() + 10.0 * np.ptp(wit)
