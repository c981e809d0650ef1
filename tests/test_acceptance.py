"""End-to-end shipping checklist.

Ten checks, each printing one ``[criterion N] PASS/FAIL: detail`` line via
the session ``checklist`` fixture; the lines are replayed in the terminal
summary. Every check pins the budget it ships with; criteria 1, 2, 3 and 9
are the model checks ``afdmest validate`` runs, budgets included, taken
from ``harness``. A FAIL line plus a failing assert is the intended outcome
for a target the implementation genuinely does not meet; nothing here
loosens a budget to turn a run green.

The Monte Carlo checks (6 through 8) dominate the runtime at about 12 s
combined on 2 vCPU (11 to 14 s over three runs); the rest finish in under
a second together. One fixed seed covers all of them so reruns reproduce
these numbers bit for bit.
"""

import time

import numpy as np

from afdmest import harness
from afdmest.channel import LosChannel, apply_los_channel, oversampled_oracle
from afdmest.core import AfdmGrid, add_prefix, daft_modulate, strip_prefix
from afdmest.estimator import PilotLayout, build_pilot_frame, joint_estimate
from afdmest.harness import ExperimentConfig, csv_lines, run_sweep

SEED = 20260819


def test_01_transform_round_trip(checklist):
    grids = (AfdmGrid(n=64), AfdmGrid(n=256))
    rng = np.random.default_rng(SEED)
    assert checklist(1, *harness.check_transform_round_trip(grids, rng, 100))


def test_02_integer_channel_exactness(checklist):
    assert checklist(2, *harness.check_integer_decode((AfdmGrid(),), None, 1))


def test_03_envelope_tracks_exact_sum(checklist):
    grids = tuple(AfdmGrid(doppler_pad=c - 6) for c in (8, 10, 18, 26))
    rng = np.random.default_rng(0)
    assert checklist(3, *harness.check_envelope_fidelity(grids, rng, 100))


def test_04_fir_channel_approaches_oracle(checklist):
    """Both tap counts are measured against one fixed reference, the
    continuous-time oracle; each drawn delay is rounded to the 1/16 grid."""
    grid = AfdmGrid()
    layout = PilotLayout()
    rng = np.random.default_rng(0)
    errs = {4: [], 16: []}
    for _ in range(50):
        ch = LosChannel(
            gain=np.exp(2j * np.pi * rng.uniform()),
            delay=np.round(rng.uniform(0, grid.l_max) * 16) / 16,
            doppler=rng.uniform(-grid.k_max, grid.k_max),
        )
        x = build_pilot_frame(grid, layout, rng)
        s = add_prefix(grid, daft_modulate(grid, x))
        ora = oversampled_oracle(grid, x, ch)
        for w in errs:
            fir = strip_prefix(grid, apply_los_channel(grid, s, ch, w))
            errs[w].append(float(np.linalg.norm(fir - ora) / np.linalg.norm(ora)))
    e_coarse = float(np.mean(errs[4]))
    e_fine = float(np.mean(errs[16]))
    passed = e_fine < e_coarse and e_fine < 1e-2
    assert checklist(
        4,
        passed,
        f"mean rel RMS over 50 channels against the continuous-time oracle, "
        f"delays on the 1/16 grid: W=4 {e_coarse:.3f} -> W=16 {e_fine:.3f} "
        f"(decrease required; final budget 1e-2). The FIR is a band-limited delay: its "
        f"gap to the wrap model grows with the tap count toward the 0.30 of "
        f"an ideal band-limited delay",
    )


def test_05_noise_free_fractional_consistency(checklist):
    grid = AfdmGrid()
    layout = PilotLayout()
    x = build_pilot_frame(grid, layout)
    fracs = np.linspace(0.1, 0.9, 9)
    worst_i = 0.0
    worst_k = 0.0
    for iota in fracs:
        for kappa in fracs:
            ch = LosChannel(delay=1.0 + iota, doppler=2.0 + kappa)
            r = oversampled_oracle(grid, x, ch)
            est = joint_estimate(grid, r, layout)
            worst_i = max(worst_i, abs(est.delay - ch.delay))
            k_err = est.doppler - ch.doppler
            worst_k = max(worst_k, abs(k_err - round(k_err)))
    passed = worst_k < 5e-3 and worst_i < 2e-2
    assert checklist(
        5,
        passed,
        f"9x9 fractional grid at l=1, k=2: worst |delay err| {worst_i:.2e} "
        f"(budget 2e-2), worst circular |Doppler err| {worst_k:.2e} "
        f"(budget 5e-3)",
    )


def test_06_error_floor_separation(checklist):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        c_list=(8,),
        snr_db_list=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        ep_ei_db_list=(10.0,),
        trials_per_point=500,
        estimates_per_trial=10,
        estimators=("joint", "integer_only"),
        master_seed=SEED,
    )
    rep = run_sweep(cfg)
    dt = time.perf_counter() - t0
    joint = {r["snr_db"]: r["delay_rmse"] for r in rep.rows if r["estimator"] == "joint"}
    base = {
        r["snr_db"]: r["delay_rmse"] for r in rep.rows if r["estimator"] == "integer_only"
    }
    snrs = sorted(joint)
    # monotone non-increase with two standard errors of Monte Carlo slack;
    # se(RMSE) ~ RMSE / sqrt(2 * trials)
    mono = all(
        joint[b] <= joint[a] * (1.0 + 2.0 / np.sqrt(2.0 * cfg.trials_per_point))
        for a, b in zip(snrs, snrs[1:])
    )
    sep = base[30.0] / joint[30.0]
    passed = mono and sep >= 3.0 and dt < 900.0
    assert checklist(
        6,
        passed,
        f"joint delay RMSE {joint[snrs[0]]:.3f} -> {joint[snrs[-1]]:.3f} over "
        f"0..30 dB, monotone within slack = {mono}; 30 dB separation vs "
        f"integer-only {sep:.1f}x (budget 3x; baseline floor "
        f"{base[30.0]:.3f}); {dt:.0f} s (budget 900 s)",
    )


def test_07_segment_count_insensitivity(checklist):
    cfg = ExperimentConfig(
        c_list=(10, 18, 26),
        snr_db_list=(10.0, 15.0, 20.0, 25.0, 30.0),
        ep_ei_db_list=(10.0,),
        trials_per_point=300,
        estimates_per_trial=10,
        estimators=("joint",),
        master_seed=SEED,
    )
    rep = run_sweep(cfg)
    d = {(r["C"], r["snr_db"]): r["delay_rmse"] for r in rep.rows}
    k = {(r["C"], r["snr_db"]): r["doppler_rmse"] for r in rep.rows}
    worst = 0.0
    for snr in cfg.snr_db_list:
        for table in (d, k):
            vals = [table[(c, snr)] for c in cfg.c_list]
            worst = max(worst, max(vals) / min(vals))
    passed = worst < 2.0
    assert checklist(
        7,
        passed,
        f"delay and Doppler RMSE across C in (10, 18, 26): worst "
        f"cross-C ratio {worst:.2f} at any SNR >= 10 dB (budget 2.0)",
    )


def test_08_pilot_energy_trend(checklist):
    cfg = ExperimentConfig(
        c_list=(8,),
        snr_db_list=(20.0,),
        ep_ei_db_list=(0.0, 10.0, 20.0, 30.0, 40.0),
        trials_per_point=300,
        estimates_per_trial=10,
        estimators=("joint",),
        master_seed=SEED,
    )
    rep = run_sweep(cfg)
    d = {r["ep_ei_db"]: r["delay_rmse"] for r in rep.rows}
    k = {r["ep_ei_db"]: r["doppler_rmse"] for r in rep.rows}
    improves = d[0.0] > d[10.0] > d[20.0] and k[0.0] > k[10.0] > k[20.0]
    flat_hi = (
        max(d[30.0], d[40.0]) / min(d[30.0], d[40.0]) < 2.0
        and max(k[30.0], k[40.0]) / min(k[30.0], k[40.0]) < 2.0
    )
    dopp_below = all(k[ep] < d[ep] for ep in cfg.ep_ei_db_list)
    passed = improves and flat_hi and dopp_below
    assert checklist(
        8,
        passed,
        f"delay RMSE {d[0.0]:.3f} / {d[10.0]:.3f} / {d[20.0]:.3f} over pilot "
        f"boosts 0/10/20 dB (must improve = {improves}); 30 vs 40 dB within "
        f"2x = {flat_hi}; Doppler below delay everywhere = {dopp_below}",
    )


def test_09_gate_curve_and_inversion(checklist):
    assert checklist(9, *harness.check_gate_curve((), np.random.default_rng(SEED), 200))


def test_10_sweep_determinism(checklist):
    cfg = ExperimentConfig(
        c_list=(8,),
        snr_db_list=(0.0, 20.0),
        ep_ei_db_list=(10.0,),
        trials_per_point=20,
        estimates_per_trial=2,
        estimators=("joint", "integer_only"),
        master_seed=4242,
    )

    def stripped():
        lines = csv_lines(run_sweep(cfg))
        return [",".join(line.split(",")[:-1]) for line in lines]

    a, b = stripped(), stripped()
    passed = a == b
    assert checklist(
        10,
        passed,
        f"two identical-config sweeps, {len(a)} CSV lines byte-identical "
        f"after dropping the wall-clock column = {passed}",
    )
