"""Command line front end tests.

Everything drives ``main(argv)`` directly; no subprocesses. Sweep invocations
are kept to one or two cells with a couple of trials so the module runs in
seconds.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from afdmest import cli, harness
from afdmest.cli import _FLAGS, _coerce, _parse_config_file, main
from afdmest.harness import CSV_HEADER, SCHEMA_VERSION, ExperimentConfig, RmseReport


class TestConfigFile:
    def test_parses_flat_key_value(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# full-line comment\n"
            "\n"
            "trials_per_point = 4\n"
            "snr_db_list = 0,10,20  # trailing comment\n"
            "estimators=joint,integer_only\n"
        )
        got = _parse_config_file(str(p))
        assert got == {
            "trials_per_point": "4",
            "snr_db_list": "0,10,20",
            "estimators": "joint,integer_only",
        }

    def test_rejects_line_without_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("trials_per_point\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            _parse_config_file(str(p))

    def test_coerce_types(self):
        assert _coerce("c_list", "8, 10") == (8, 10)
        assert _coerce("snr_db_list", "0,2.5") == (0.0, 2.5)
        assert _coerce("estimators", "joint") == ("joint",)
        assert _coerce("trials_per_point", "7") == 7
        assert _coerce("master_seed", "42") == 42

    def test_coerce_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            _coerce("bogus", "1")


SWEEP_FAST = [
    "sweep",
    "--quiet",
    "--snr-db",
    "20",
    "--trials",
    "2",
    "--frames",
    "1",
    "--estimators",
    "joint",
]


class TestSweepCommand:
    def test_writes_csv_and_json(self, tmp_path):
        csv_p = tmp_path / "r.csv"
        json_p = tmp_path / "r.json"
        rc = main(SWEEP_FAST + ["--out-csv", str(csv_p), "--out-json", str(json_p)])
        assert rc == 0

        lines = csv_p.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2  # one cell, one estimator

        obj = json.loads(json_p.read_text())
        assert obj["schema_version"] == SCHEMA_VERSION == 3
        assert "oracle_oversample" not in obj["config"]
        assert "fir_half_width" not in obj["config"]
        assert obj["config"]["trials_per_point"] == 2
        assert obj["config"]["snr_db_list"] == [20.0]
        assert [r["estimator"] for r in obj["rows"]] == ["joint"]

    def test_stdout_when_no_csv_path(self, capsys):
        rc = main(SWEEP_FAST)
        assert rc == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == CSV_HEADER
        assert out.err == ""  # --quiet kills the progress lines

    def test_progress_lines_on_stderr(self, capsys):
        argv = [a for a in SWEEP_FAST if a != "--quiet"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "cell 1/1 done" in err

    def test_cli_flag_overrides_config_file(self, tmp_path):
        cfg_p = tmp_path / "exp.cfg"
        cfg_p.write_text(
            "trials_per_point = 5\n"
            "snr_db_list = 0\n"
            "estimators = integer_only\n"
            "master_seed = 9\n"
        )
        json_p = tmp_path / "r.json"
        rc = main(
            [
                "sweep",
                "--quiet",
                "--config",
                str(cfg_p),
                "--trials",
                "2",
                "--frames",
                "1",
                "--out-csv",
                str(tmp_path / "r.csv"),
                "--out-json",
                str(json_p),
            ]
        )
        assert rc == 0
        cfg = json.loads(json_p.read_text())["config"]
        assert cfg["trials_per_point"] == 2  # flag wins
        assert cfg["snr_db_list"] == [0.0]  # file survives where no flag given
        assert cfg["estimators"] == ["integer_only"]
        assert cfg["master_seed"] == 9

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            main(SWEEP_FAST[:-1] + ["psychic"])

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_oversample_flag_rejected(self, capsys, tmp_path):
        """The oracle oversampling knob was never read by a sweep; neither its
        flag nor its config key is accepted."""
        with pytest.raises(SystemExit) as exc:
            main(SWEEP_FAST + ["--oversample", "16"])
        assert exc.value.code == 2
        assert "--oversample" in capsys.readouterr().err
        cfg_p = tmp_path / "exp.cfg"
        cfg_p.write_text("oracle_oversample = 16\n")
        with pytest.raises(ValueError, match="unknown config key"):
            main(SWEEP_FAST + ["--config", str(cfg_p)])

    def test_fir_half_width_flag_rejected(self, capsys, tmp_path):
        """Every run used 16 taps a side; the knob and its key are gone."""
        with pytest.raises(SystemExit) as exc:
            main(SWEEP_FAST + ["--fir-half-width", "4"])
        assert exc.value.code == 2
        assert "--fir-half-width" in capsys.readouterr().err
        cfg_p = tmp_path / "exp.cfg"
        cfg_p.write_text("fir_half_width = 4\n")
        with pytest.raises(ValueError, match="unknown config key"):
            main(SWEEP_FAST + ["--config", str(cfg_p)])


# per field: a flag value and the value it parses to
SAMPLES = {
    "n": ("512", 512),
    "k_max": ("2", 2),
    "l_max": ("2", 2),
    "n_prefix": ("40", 40),
    "c_list": ("8,12", (8, 12)),
    "snr_db_list": ("1.5,7", (1.5, 7.0)),
    "ep_ei_db_list": ("12,14", (12.0, 14.0)),
    "trials_per_point": ("3", 3),
    "estimates_per_trial": ("2", 2),
    "estimators": ("two_d_search,joint", ("two_d_search", "joint")),
    "master_seed": ("7", 7),
    "workers": ("2", 2),
}
READS = {
    "sweep": set(_FLAGS),
    "validate": {"n", "k_max", "l_max", "n_prefix", "c_list", "master_seed"},
    "profile-dump": {"n", "k_max", "l_max", "n_prefix", "c_list", "master_seed", "ep_ei_db_list"},
}


class TestFlagTable:
    def test_covers_every_config_field(self):
        assert set(_FLAGS) == {f.name for f in fields(ExperimentConfig)} == set(SAMPLES)

    @pytest.mark.parametrize("key", _FLAGS)
    def test_flag_and_config_key_parse_alike(self, key, tmp_path, monkeypatch):
        """sweep parses a field's flag and its config-file key to the same
        value, with the same element types."""
        seen = []
        monkeypatch.setattr(
            cli, "run_sweep", lambda cfg, progress: seen.append(cfg) or RmseReport(cfg, [])
        )
        raw, parsed = SAMPLES[key]
        cfg_p = tmp_path / "exp.cfg"
        cfg_p.write_text(f"{key} = {raw}\n")
        assert main(["sweep", "--quiet", _FLAGS[key][0], raw]) == 0
        assert main(["sweep", "--quiet", "--config", str(cfg_p)]) == 0
        by_flag, by_file = (getattr(cfg, key) for cfg in seen)
        assert repr(by_flag) == repr(by_file) == repr(parsed)

    @pytest.mark.parametrize(
        "command,key", [(c, k) for c in READS for k in _FLAGS if k not in READS[c]]
    )
    def test_rejects_flags_it_does_not_read(self, command, key, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, _FLAGS[key][0], SAMPLES[key][0]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {_FLAGS[key][0]}" in capsys.readouterr().err

    def test_bad_value_exits_two_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--c", "8,x"])
        assert exc.value.code == 2
        assert "argument --c" in capsys.readouterr().err

    def test_config_file_keeps_keys_the_command_does_not_read(self, tmp_path, monkeypatch):
        """A config file shared by the subcommands may set every field; each
        reads its own, and a key that is no field is still an error."""
        seen = []
        monkeypatch.setattr(cli, "validate_mode", lambda cfg, draws: seen.append(cfg) or (True, []))
        cfg_p = tmp_path / "exp.cfg"
        cfg_p.write_text("".join(f"{k} = {raw}\n" for k, (raw, _) in SAMPLES.items()))
        assert main(["validate", "--config", str(cfg_p)]) == 0
        expect = {k: parsed for k, (_, parsed) in SAMPLES.items() if k in READS["validate"]}
        assert seen == [ExperimentConfig(**expect)]
        cfg_p.write_text("trials = 3\n")
        with pytest.raises(ValueError, match="unknown config key 'trials'"):
            main(["validate", "--config", str(cfg_p)])


class TestValidateCommand:
    def test_exit_zero_and_report(self, capsys):
        rc = main(["validate", "--draws", "5", "--seed", "11"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(out) == 4
        assert all(line.startswith("PASS") for line in out)

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_rejects_draws_below_one(self, draws):
        with pytest.raises(ValueError, match="draws must be >= 1"):
            main(["validate", "--draws", draws])

    def test_exit_one_when_a_check_fails(self, capsys, monkeypatch):
        """An envelope model off by one bin fails its own check and no other."""

        def shifted(grid, m_src, ch):
            return np.roll(harness.exact_profile(grid, m_src, ch), 1)

        monkeypatch.setattr(harness, "envelope_profile", shifted)
        rc = main(["validate", "--draws", "5", "--seed", "11"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert [line.split(":")[0] for line in out] == [
            "PASS transform-round-trip",
            "PASS integer-channel-decode",
            "FAIL envelope-fidelity",
            "PASS gate-curve",
        ]


def parse_dump(text):
    lines = text.strip().splitlines()
    assert lines[0] == "j,measured,exact_model,envelope"
    rows = [line.split(",") for line in lines[1:]]
    j = np.array([int(r[0]) for r in rows])
    cols = np.array([[float(v) for v in r[1:]] for r in rows])
    return j, cols[:, 0], cols[:, 1], cols[:, 2]


class TestProfileDump:
    def test_stdout_profile_matches_models(self, capsys):
        rc = main(["profile-dump"])
        assert rc == 0
        j, measured, exact, env = parse_dump(capsys.readouterr().out)
        # decode band plus one comb period of margin on each side
        assert j[0] == -12 and j[-1] == 35
        # defaults are delay 1.5, Doppler 2.25. The half-sample delay splits
        # the energy across the taps at j = 2+8 and j = 2+16; the late one
        # wins the near-tie here, and every column agrees on it.
        k = int(np.argmax(measured))
        assert j[k] == 18
        assert int(np.argmax(exact)) == k
        assert int(np.argmax(env)) == k
        # measured column is rescaled onto the exact-sum scale
        assert measured[k] == pytest.approx(exact[k], rel=0.05)
        for a, b in ((measured, exact), (measured, env)):
            a0, b0 = a - a.mean(), b - b.mean()
            corr = float(np.dot(a0, b0) / (np.linalg.norm(a0) * np.linalg.norm(b0)))
            assert corr > 0.99

    def test_out_file_and_channel_flags(self, tmp_path):
        p = tmp_path / "prof.csv"
        rc = main(
            ["profile-dump", "--delay", "2.0", "--doppler", "-1.0", "--out", str(p)]
        )
        assert rc == 0
        j, measured, exact, env = parse_dump(p.read_text())
        # integer channel: every model puts the whole peak on one bin
        k = int(np.argmax(measured))
        assert j[k] == -1 + 8 * 2
        assert measured[k] == pytest.approx(256.0, rel=1e-6)
        assert exact[k] == pytest.approx(256.0, abs=1e-9)
        assert env[k] == pytest.approx(256.0, abs=1e-9)

    @pytest.mark.parametrize("flag", ["--c", "--ep-ei-db"])
    def test_one_c_and_one_pilot_ratio(self, flag):
        with pytest.raises(ValueError, match="one C and one pilot ratio"):
            main(["profile-dump", flag, "8,12"])

    def test_with_data_still_peaks_on_pilot(self, capsys):
        """Data symbols leak into the readout region but must not bury the
        pilot: the peak stays on one of the two split taps."""
        rc = main(["profile-dump", "--with-data", "--seed", "4"])
        assert rc == 0
        j, measured, exact, env = parse_dump(capsys.readouterr().out)
        assert j[int(np.argmax(measured))] in (10, 18)
