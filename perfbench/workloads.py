"""Workload definitions and inputs shared by the benchmark's processes.

Why each workload exists is recorded in BENCHMARK.json. The frame-stream
workloads share one set-up: k_max = l_max = 3, QPSK data, SNR cycling
through SNR_CYCLE_DB, all frames drawn from the seed before timing starts.

Every call into afdmest goes through an attribute of one of its layer
modules (the dict `load_afdmest` returns), looked up at call time, so the
traced run sees it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SNR_CYCLE_DB = (0.0, 10.0, 20.0, 30.0)
K_MAX = 3
L_MAX = 3
N_PREFIX = 36
EP_EI_DB = 10.0
ESTIMATORS = ("joint", "integer_only", "two_d_search")
SWEEP_ESTIMATORS = ESTIMATORS[:2]

WORKLOADS = {
    # joint and integer_only on every frame, two_d_search on every
    # `two_d_every`-th frame of the drawn set
    "frames_n256": {
        "kind": "frames", "n": 256, "c": [8], "frames": 256, "two_d_every": 16,
        "reference_frames": 256,
    },
    "frames_n4096": {
        "kind": "frames", "n": 4096, "c": [8], "frames": 32, "two_d_every": 8,
        "reference_frames": 32,
    },
    # `trials` x `frames` per (C, SNR) cell. The w2 run also sweeps once with
    # one worker before timing and requires the same CSV digest. It is left
    # out of BENCHMARK.json: with BLAS threads oversubscribed in the pool, one
    # sweep of the same grid took anywhere from 9.7 to 83 s.
    "sweep_n256": {
        "kind": "sweep", "n": 256, "c": [8, 12], "trials": 3, "frames": 10,
        "workers": 1, "reference_frames": 256,
    },
    "sweep_n256_w2": {
        "kind": "sweep", "n": 256, "c": [8, 12], "trials": 3, "frames": 10,
        "workers": 2, "reference_frames": 256,
    },
}


def load_afdmest() -> dict:
    """The layer modules of the afdmest package in this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import afdmest
    from afdmest import baselines, channel, core, effective, estimator, harness

    if not Path(afdmest.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"afdmest imported from {afdmest.__file__}, not {SRC}")
    return dict(core=core, channel=channel, effective=effective,
                estimator=estimator, baselines=baselines, harness=harness)


def grids(m: dict, spec: dict) -> list:
    """The grids a workload runs on, one per segment count C."""
    out = []
    for c in spec["c"]:
        grid = m["core"].AfdmGrid(
            n=spec["n"], k_max=K_MAX, l_max=L_MAX, doppler_pad=c - 2 * K_MAX,
            n_prefix=N_PREFIX,
        )
        grid.validate()
        out.append(grid)
    return out


def pilot_layout(m: dict):
    return m["estimator"].PilotLayout(ep_ei_db=EP_EI_DB)


def draw_frames(m: dict, grid, layout, count: int, seed: int) -> list:
    """Received frame bodies with QPSK data and their drawn truth, built
    with the library's default transform path, as run_trial builds them."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        snr = SNR_CYCLE_DB[i % len(SNR_CYCLE_DB)]
        ch = m["channel"].LosChannel(
            gain=np.exp(2j * np.pi * rng.uniform()),
            delay=rng.uniform(0.0, grid.l_max),
            doppler=rng.uniform(-grid.k_max, grid.k_max),
            noise_var=m["harness"].noise_variance(grid, layout, snr),
        )
        x = m["estimator"].build_pilot_frame(grid, layout, rng)
        s = m["core"].add_prefix(grid, m["core"].daft_modulate(grid, x))
        r = m["channel"].apply_los_channel(grid, s, ch, rng=rng)
        frames.append((m["core"].strip_prefix(grid, r), ch.delay, ch.doppler, snr))
    return frames


def estimate(m: dict, name: str, grid, r, layout):
    if name == "joint":
        return m["estimator"].joint_estimate(grid, r, layout)
    y = m["core"].daft_demodulate(grid, r)
    if name == "integer_only":
        return m["baselines"].integer_only(grid, y, layout)
    return m["baselines"].two_d_search(grid, y, layout)


def warm_up(m: dict, spec: dict, seed: int) -> None:
    """Set-up as a user pays it: on each grid of the workload, draw one
    frame and run every estimator of the workload on it once, so that
    whatever the program builds lazily and caches is built."""
    names = ESTIMATORS if spec["kind"] == "frames" else SWEEP_ESTIMATORS
    layout = pilot_layout(m)
    for grid in grids(m, spec):
        ((r, _, _, _),) = draw_frames(m, grid, layout, 1, seed)
        for name in names:
            estimate(m, name, grid, r, layout)
