"""Monte Carlo runner tests.

Sweeps here are deliberately tiny (a handful of trials, two frames each) so
the whole module stays in the sub-minute range; the statistical quality of
the RMSE numbers is the acceptance suite's job, not this one. What these
tests pin down is the plumbing: seeding, row layout, serialization, and the
promise that worker count never changes the numbers.
"""

import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from afdmest import harness
from afdmest.baselines import integer_only, two_d_search
from afdmest.channel import LosChannel, apply_los_channel
from afdmest.core import (
    AfdmGrid,
    add_prefix,
    daft_demodulate,
    daft_modulate,
    strip_prefix,
)
from afdmest.estimator import PilotLayout, build_pilot_frame, joint_estimate
from afdmest.harness import (
    CSV_HEADER,
    SCHEMA_VERSION,
    ExperimentConfig,
    RmseReport,
    _BLAS_THREAD_VARS,
    _worker_pool,
    _wrap_doppler,
    csv_lines,
    emit,
    noise_variance,
    run_sweep,
    run_trial,
    validate_mode,
)


def tiny_config(**overrides):
    base = dict(
        c_list=(8,),
        snr_db_list=(10.0, 20.0),
        ep_ei_db_list=(10.0,),
        trials_per_point=3,
        estimates_per_trial=2,
        estimators=("joint", "integer_only"),
        master_seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_grid_for_sets_pad_from_c(self):
        cfg = ExperimentConfig(c_list=(8, 10, 26))
        for c in cfg.c_list:
            g = cfg.grid_for(c)
            assert g.n_seg == c
            assert g.doppler_pad == c - 2 * cfg.k_max

    @pytest.mark.parametrize(
        "bad",
        [
            dict(trials_per_point=0),
            dict(estimates_per_trial=0),
            dict(c_list=()),
            dict(snr_db_list=()),
            dict(ep_ei_db_list=()),
            dict(estimators=()),
            dict(estimators=("joint", "psychic")),
            dict(c_list=(6,)),  # needs C > 2*k_max = 6
            dict(workers=0),
            dict(c_list=(8, 200)),  # C = 200 has no valid grid at N = 256
            dict(n_prefix=10),  # below l_max + the FIR half-width
            dict(master_seed=-1),  # np.random.SeedSequence takes no negative seed
            dict(estimators=("joint", "joint")),  # two rows, each timing both calls
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 256.0),
            ("k_max", 3.0),
            ("l_max", 3.0),
            ("n_prefix", 40.0),
            ("c_list", (8, 12.0)),
            ("trials_per_point", 2.5),
            ("estimates_per_trial", 2.0),
            ("master_seed", 77.0),
            ("workers", 1.0),
        ],
    )
    def test_rejects_a_non_integer_field(self, field, value):
        """A float in an integer field raises TypeError naming the field
        when the config is built, instead of an error in the middle of a
        sweep."""
        name = "c_list entry" if field == "c_list" else field
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field", ["snr_db_list", "ep_ei_db_list"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, field, value):
        """A NaN or infinite SNR or pilot-to-data ratio fails when the config
        is built, naming its field, instead of a row computed from
        noise-free frames or an error in the middle of the sweep."""
        with pytest.raises(ValueError, match=f"{field} entries must be finite"):
            tiny_config(**{field: (10.0, value)})


class TestNoiseVariance:
    def test_matches_frame_power_formula(self):
        """SNR divides mean frame power: (pilot energy + data slots) / N."""
        grid = AfdmGrid()
        layout = PilotLayout()
        n_data = layout.data_slots(grid).size
        power = (layout.pilot_amplitude**2 + n_data) / grid.n
        assert noise_variance(grid, layout, 0.0) == pytest.approx(power)
        assert noise_variance(grid, layout, 10.0) == pytest.approx(power / 10.0)
        assert noise_variance(grid, layout, 30.0) == pytest.approx(power / 1000.0)

    def test_stronger_pilot_raises_power(self):
        grid = AfdmGrid()
        lo = noise_variance(grid, PilotLayout(ep_ei_db=0.0), 20.0)
        hi = noise_variance(grid, PilotLayout(ep_ei_db=20.0), 20.0)
        assert hi > lo


class TestWrapDoppler:
    def test_wraps_to_half_open_band(self):
        e = np.array([0.0, 0.4, 0.6, 1.0, -0.7, 3.2])
        w = _wrap_doppler(e)
        assert np.all(np.abs(w) <= 0.5 + 1e-15)
        np.testing.assert_allclose(w, [0.0, 0.4, -0.4, 0.0, 0.3, 0.2], atol=1e-12)


class TestRunTrial:
    def setup_method(self):
        self.cfg = tiny_config()
        self.grid = self.cfg.grid_for(8)
        self.layout = PilotLayout()

    def _run(self, seed_key, estimators=("joint", "integer_only")):
        ss = np.random.SeedSequence(self.cfg.master_seed, spawn_key=seed_key)
        nv = noise_variance(self.grid, self.layout, 20.0)
        return run_trial(self.grid, self.layout, nv, estimators, 2, ss)

    def test_deterministic_for_same_seed(self):
        # everything except the wall-clock element repeats exactly
        truth_a, res_a = self._run((0, 0))
        truth_b, res_b = self._run((0, 0))
        assert truth_a == truth_b
        for name in res_a:
            assert res_a[name][:3] == res_b[name][:3]

    def test_different_trials_draw_different_channels(self):
        truth_a, _ = self._run((0, 0))
        truth_b, _ = self._run((0, 1))
        assert truth_a != truth_b

    def test_estimator_list_does_not_perturb_shared_frames(self):
        """Estimators consume no randomness, so dropping one from the list
        must leave the other's numbers untouched."""
        _, both = self._run((0, 2))
        _, alone = self._run((0, 2), estimators=("joint",))
        assert both["joint"][:3] == alone["joint"][:3]

    def test_truth_within_configured_ranges(self):
        for t in range(5):
            (delay, doppler), res = self._run((1, t))
            assert 0.0 <= delay <= self.grid.l_max
            assert -self.grid.k_max <= doppler <= self.grid.k_max
            for name in ("joint", "integer_only"):
                d_hat, k_hat, pspr, sec = res[name]
                assert np.isfinite(d_hat) and np.isfinite(k_hat)
                assert pspr > 1.0
                assert sec >= 0.0

    def test_stacked_trial_gives_the_frame_at_a_time_estimates(self):
        """run_trial draws each frame's data and noise in the order a loop
        over single frames draws them and pushes the frames through as one
        stack; every estimator's means equal, bit for bit, those of the loop
        that builds, passes and estimates one frame at a time."""
        names = ("joint", "integer_only", "two_d_search")
        nv = noise_variance(self.grid, self.layout, 10.0)
        key = (3, 1)
        _, got = run_trial(
            self.grid, self.layout, nv, names, 4,
            np.random.SeedSequence(self.cfg.master_seed, spawn_key=key),
        )
        g, lay = self.grid, self.layout
        rng = np.random.default_rng(np.random.SeedSequence(self.cfg.master_seed, spawn_key=key))
        delay = rng.uniform(0.0, g.l_max)
        doppler = rng.uniform(-g.k_max, g.k_max)
        ch = LosChannel(np.exp(2j * np.pi * rng.uniform()), delay, doppler, nv)
        ests = {name: [] for name in names}
        for _ in range(4):
            s = add_prefix(g, daft_modulate(g, build_pilot_frame(g, lay, rng)))
            r = strip_prefix(g, apply_los_channel(g, s, ch, rng=rng))
            ests["joint"].append(joint_estimate(g, r, lay))
            ests["integer_only"].append(integer_only(g, daft_demodulate(g, r), lay))
            ests["two_d_search"].append(two_d_search(g, daft_demodulate(g, r), lay))
        for name, kept in ests.items():
            expect = tuple(
                float(np.mean([getattr(e, field) for e in kept]))
                for field in ("delay", "doppler", "pspr")
            )
            assert got[name][:3] == expect, name

    def test_a_chunk_gives_each_trial_its_own_results(self):
        """Trials stacked in one chunk, each over a channel of its own, come
        out as each trial run alone, every estimator bit for bit."""
        names = ("joint", "integer_only", "two_d_search")
        nv = noise_variance(self.grid, self.layout, 10.0)
        seeds = [np.random.SeedSequence(self.cfg.master_seed, spawn_key=(2, t)) for t in range(3)]
        chunk = harness._run_chunk(self.grid, self.layout, nv, names, 2, seeds)
        assert len(chunk) == len(seeds)
        for seed, (truth, res) in zip(seeds, chunk):
            alone_truth, alone = run_trial(self.grid, self.layout, nv, names, 2, seed)
            assert truth == alone_truth
            assert {name: v[:3] for name, v in res.items()} == {
                name: v[:3] for name, v in alone.items()
            }

    def test_joint_beats_integer_decode_at_high_snr(self):
        ss = np.random.SeedSequence(5)
        nv = noise_variance(self.grid, self.layout, 40.0)
        d_err = {"joint": [], "integer_only": []}
        for t in range(6):
            ss_t = np.random.SeedSequence(5, spawn_key=(0, t))
            (delay, doppler), res = run_trial(
                self.grid, self.layout, nv, ("joint", "integer_only"), 2, ss_t
            )
            for name in d_err:
                d_err[name].append(abs(res[name][0] - delay))
        assert np.mean(d_err["joint"]) < np.mean(d_err["integer_only"])


class TestRunSweep:
    def test_row_grid_and_order(self):
        cfg = tiny_config(snr_db_list=(10.0, 20.0), ep_ei_db_list=(0.0, 10.0))
        report = run_sweep(cfg)
        # cells iterate C (outer), then SNR, then pilot ratio; estimators
        # appear in config order inside each cell
        assert len(report.rows) == 2 * 2 * len(cfg.estimators)
        seen = [(r["snr_db"], r["ep_ei_db"], r["estimator"]) for r in report.rows]
        expect = [
            (snr, ep, name)
            for snr in (10.0, 20.0)
            for ep in (0.0, 10.0)
            for name in cfg.estimators
        ]
        assert seen == expect
        for row in report.rows:
            assert row["C"] == 8
            assert row["trials"] == cfg.trials_per_point
            assert row["delay_rmse"] >= 0.0
            assert row["doppler_rmse"] <= 0.5 + 1e-12
            assert row["wall_ms"] > 0.0

    def test_progress_callback_sees_every_cell(self):
        cfg = tiny_config()
        calls = []
        run_sweep(cfg, progress=lambda done, total, ms: calls.append((done, total)))
        assert calls == [(1, 2), (2, 2)]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        """Workers start with every BLAS thread variable at 1, whatever the
        parent has, and the parent's environment is left as it was."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with _worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, _BLAS_THREAD_VARS, timeout=120))
        assert seen == ["1"] * len(_BLAS_THREAD_VARS)
        assert dict(os.environ) == before

    def test_worker_death_mid_task_raises_instead_of_hanging(self, monkeypatch):
        """A worker that dies while it runs a task (a crash, an OOM kill)
        raises the error that names the guard, and the parent's environment
        is put back; a multiprocessing.Pool would wait for its result forever."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        before = dict(os.environ)
        with pytest.raises(RuntimeError, match='if __name__ == "__main__":'):
            with _worker_pool(2) as pool:
                list(pool.map(os._exit, [1, 1], timeout=60))
        assert dict(os.environ) == before

    def test_unguarded_script_fails_instead_of_hanging(self, tmp_path):
        """A script that starts a two-worker sweep at module level, with no
        ``if __name__ == "__main__":`` guard, kills each spawned worker as it
        imports the script. run_sweep raises an error that names the guard,
        rather than wait forever on a pool that keeps respawning workers."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from afdmest import ExperimentConfig, run_sweep\n"
            "run_sweep(ExperimentConfig(snr_db_list=(10.0,), trials_per_point=2,\n"
            "                           estimates_per_trial=1, workers=2))\n"
        )
        src = str(Path(harness.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            # the script and every worker it spawned share one process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        assert proc.returncode != 0
        # the last exception line of stderr: unindented "Name: message"; the
        # resource tracker's leaked-semaphore warning, which may follow it,
        # starts with its file path
        raised = [line for line in err.splitlines() if re.match(r"[A-Za-z_][\w.]*: ", line)]
        assert raised[-1].startswith("RuntimeError: ")
        assert 'if __name__ == "__main__":' in raised[-1]

    def test_package_import_leaves_the_executor_unloaded(self):
        """``import afdmest`` loads no concurrent.futures module: only a
        sweep with more than one worker pays for importing the executor."""
        code = (
            "import sys, afdmest\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n"
        )
        src = str(Path(harness.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout == "[]\n"

    def test_worker_count_is_invisible_in_results(self):
        cfg1 = tiny_config(workers=1)
        cfg2 = tiny_config(workers=2)
        rows1 = run_sweep(cfg1).rows
        rows2 = run_sweep(cfg2).rows
        for a, b in zip(rows1, rows2):
            for key in a:
                if key == "wall_ms":
                    continue
                assert a[key] == b[key], key

    def test_chunking_is_invisible_in_results(self, monkeypatch):
        """One trial per chunk, the default chunks (all five trials of a
        cell in one) and two workers (chunks of three and two) give one
        CSV."""
        cfg = tiny_config(trials_per_point=5)
        sizes = []
        run_chunk = harness._run_chunk

        def spy(*args):
            sizes.append(len(args[-1]))
            return run_chunk(*args)

        monkeypatch.setattr(harness, "_run_chunk", spy)
        default = strip_wall_ms(csv_lines(run_sweep(cfg)))
        assert sizes == [5, 5]
        pooled = strip_wall_ms(csv_lines(run_sweep(tiny_config(trials_per_point=5, workers=2))))
        monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 1)
        sizes.clear()
        single = strip_wall_ms(csv_lines(run_sweep(cfg)))
        assert sizes == [1] * 10
        assert single == default == pooled

    def test_no_more_workers_than_trials(self, monkeypatch):
        """One trial per cell runs in the calling process: no pool is
        started, and the CSV is the one-worker CSV."""

        def no_pool(workers):
            raise AssertionError(f"pool of {workers} started for one trial")

        serial = csv_lines(run_sweep(tiny_config(workers=1, trials_per_point=1)))
        monkeypatch.setattr(harness, "_worker_pool", no_pool)
        capped = csv_lines(run_sweep(tiny_config(workers=4, trials_per_point=1)))
        assert strip_wall_ms(capped) == strip_wall_ms(serial)


def strip_wall_ms(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestSerialization:
    def test_csv_shape_and_header(self):
        report = run_sweep(tiny_config())
        lines = csv_lines(report)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        for line in lines:
            assert len(line.split(",")) == 9

    def test_csv_reproducible_up_to_wall_clock(self):
        a = csv_lines(run_sweep(tiny_config()))
        b = csv_lines(run_sweep(tiny_config()))
        assert strip_wall_ms(a) == strip_wall_ms(b)

    def test_small_sweep_rows_pinned(self):
        """Every column but wall_ms of a three-estimator sweep, as recorded
        before the trial plumbing was last rewritten: a change to the draws,
        the estimators or the aggregation moves some number here."""
        cfg = tiny_config(
            snr_db_list=(0.0, 20.0),
            estimators=("joint", "integer_only", "two_d_search"),
            master_seed=2024,
        )
        # (estimator, snr_db, ep_ei_db, C, delay_rmse, doppler_rmse, trials, mean_pspr);
        # joint's delay_rmse re-recorded when the gate came to read the late
        # tap's share in closed form
        expect = [
            ("joint", 0.0, 10.0, 8, 0.8767778807211221, 0.25899665686446666, 3, 18.592887965096292),
            ("integer_only", 0.0, 10.0, 8, 0.25290372574699665, 0.2918853550509565, 3, 10.491467841199706),
            ("two_d_search", 0.0, 10.0, 8, 0.07517782860291755, 0.1260689960132108, 3, 16.398117156954743),
            ("joint", 20.0, 10.0, 8, 0.03084890148727692, 0.007749059219147947, 3, 333.7280052013742),
            ("integer_only", 20.0, 10.0, 8, 0.32187225231723543, 0.17848242829341746, 3, 82.76301430017607),
            ("two_d_search", 20.0, 10.0, 8, 0.03823845931541414, 0.007432267844738708, 3, 329.77830318580544),
        ]
        cols = CSV_HEADER.split(",")[:-1]
        rows = run_sweep(cfg).rows
        assert len(rows) == len(expect)
        for row, want in zip(rows, expect):
            for col, value in zip(cols, want):
                if isinstance(value, float):
                    assert row[col] == pytest.approx(value, rel=1e-12, abs=0.0), col
                else:
                    assert row[col] == value, col

    def test_empty_rows_yield_header_only(self):
        report = RmseReport(config=tiny_config(), rows=[])
        assert csv_lines(report) == [CSV_HEADER]

    def test_emit_writes_both_files(self, tmp_path):
        report = run_sweep(tiny_config())
        csv_p = tmp_path / "out.csv"
        json_p = tmp_path / "out.json"
        emit(report, csv_path=csv_p, json_path=json_p)

        text = csv_p.read_text()
        assert text.endswith("\n")
        assert text.splitlines() == csv_lines(report)

        obj = json.loads(json_p.read_text())
        assert obj["schema_version"] == SCHEMA_VERSION
        assert obj["config"]["master_seed"] == 77
        assert obj["config"]["c_list"] == [8]
        assert len(obj["rows"]) == len(report.rows)
        assert obj["rows"][0]["estimator"] == report.rows[0]["estimator"]
        assert obj["rows"][0]["delay_rmse"] == report.rows[0]["delay_rmse"]

    def test_emit_csv_only(self, tmp_path):
        report = RmseReport(config=tiny_config(), rows=[])
        p = tmp_path / "solo.csv"
        emit(report, csv_path=p)
        assert p.read_text() == CSV_HEADER + "\n"


class TestValidateMode:
    def test_flat_envelope_is_named_without_warnings(self, monkeypatch):
        """A constant envelope profile has no correlation: the check fails
        and its detail line says why, instead of printing nan with numpy
        RuntimeWarnings."""
        monkeypatch.setattr(harness, "envelope_profile", lambda grid, pilot, ch: np.ones(grid.n))
        grids = (ExperimentConfig().grid_for(8),)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, detail = harness.check_envelope_fidelity(grids, np.random.default_rng(1), 3)
        assert not ok
        assert "none at C=8 (3/3 flat profiles)" in detail
        assert "nan" not in detail

    def test_all_checks_pass_on_default_model(self):
        cfg = ExperimentConfig(master_seed=3)
        ok, lines = validate_mode(cfg, draws=6)
        assert ok, "\n".join(lines)
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)
        names = [line.split(" ", 1)[1].split(":")[0] for line in lines]
        assert names == [
            "transform-round-trip",
            "integer-channel-decode",
            "envelope-fidelity",
            "gate-curve",
        ]
