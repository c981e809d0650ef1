"""Monte Carlo experiment runner: RMSE-vs-SNR sweeps and validation mode.

A sweep walks the grid of (C, SNR, pilot-to-data ratio) cells. Each cell
runs ``trials_per_point`` independent trials; a trial draws one channel
(delay uniform on [0, l_max], Doppler uniform on [-k_max, k_max], gain of
unit modulus with random phase), then each frame's data and noise, frame
by frame, in the order one frame at a time would draw them, and passes
its ``estimates_per_trial`` frames through its own channel. Each
estimator's per-frame composite estimates are averaged over the trial's
frames; the trial error is that average minus the truth, and the cell
reports RMSE over trials.

The unit of work is a chunk of a cell's trials: each trial draws as above
from its own seed, then the chunk's frames go through modulation, the
prefix, the prefix strip and every configured estimator as one stack. A
chunk adds trials while its frames hold at most ``_CHUNK_SAMPLES`` samples
(frames x N), and holds at least one trial; with more than one worker it
holds at most ceil(trials / workers) trials, so every worker gets work.
Every frame comes out as it would alone, so chunking does not change the
results.

Everything is seeded through one master seed with per-(cell, trial) spawn
keys, so results are byte-reproducible regardless of worker count or
completion order. Wall-clock columns are the only nondeterministic output.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import baselines
from .channel import FIR_HALF_WIDTH, LosChannel, _noise, apply_los_channel
from .core import (
    AfdmGrid,
    _check_integer,
    add_prefix,
    daft_demodulate,
    daft_modulate,
    strip_prefix,
)
from .effective import elg_theory, envelope_profile, exact_profile
from .estimator import (
    PilotLayout,
    _gate,
    build_pilot_frame,
    joint_estimate,
)

__all__ = [
    "ExperimentConfig",
    "RmseReport",
    "CSV_HEADER",
    "SCHEMA_VERSION",
    "noise_variance",
    "run_trial",
    "run_sweep",
    "csv_lines",
    "emit",
    "validate_mode",
]

CSV_HEADER = "estimator,snr_db,ep_ei_db,C,delay_rmse,doppler_rmse,trials,mean_pspr,wall_ms"
SCHEMA_VERSION = 3

# estimator name -> the Estimate of (F,) columns of an (F, N) stack of
# frame bodies, each estimator on the whole stack (each baseline on the
# stack it demodulates itself); each looks its functions up when called, so
# a patched attribute is seen
ESTIMATORS = {
    "joint": lambda g, r, lay: joint_estimate(g, r, lay),
    "integer_only": lambda g, r, lay: baselines.integer_only(g, daft_demodulate(g, r), lay),
    "two_d_search": lambda g, r, lay: baselines.two_d_search(g, daft_demodulate(g, r), lay),
}

# a chunk of a cell's trials holds at most this many frame samples (frames
# x N) and at least one trial: every 3 x 10-frame cell of the N=256 sweeps
# is one chunk, and at N=4096 a chunk is one trial
_CHUNK_SAMPLES = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one experiment. Building one runs
    ``validate``, so a config that exists is valid and no consumer checks it."""

    n: int = 256
    k_max: int = 3
    l_max: int = 3
    c_list: tuple[int, ...] = (8,)
    n_prefix: int = 36
    snr_db_list: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    ep_ei_db_list: tuple[float, ...] = (10.0,)
    trials_per_point: int = 200
    estimates_per_trial: int = 10
    estimators: tuple[str, ...] = ("joint", "integer_only")
    master_seed: int = 1234
    workers: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # n, k_max, l_max and n_prefix are the grid's, and grid_for below
        # refuses a non-integer one with the same TypeError
        for name in ("trials_per_point", "estimates_per_trial", "master_seed", "workers"):
            _check_integer(name, getattr(self, name))
        for c in self.c_list:
            _check_integer("c_list entry", c)
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.estimates_per_trial < 1:
            raise ValueError("estimates_per_trial must be >= 1")
        for lst, name in (
            (self.c_list, "c_list"),
            (self.snr_db_list, "snr_db_list"),
            (self.ep_ei_db_list, "ep_ei_db_list"),
            (self.estimators, "estimators"),
        ):
            if len(lst) == 0:
                raise ValueError(f"{name} must be non-empty")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError("estimators must not repeat")
        for name in ("snr_db_list", "ep_ei_db_list"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} entries must be finite")
        for c in self.c_list:
            self.grid_for(c)  # raises for a C no valid grid can take
        # every trial runs the FIR channel, whose memory at the largest
        # delay must fit in the prefix
        if self.n_prefix < self.l_max + FIR_HALF_WIDTH:
            raise ValueError(
                f"n_prefix must be >= l_max + {FIR_HALF_WIDTH} (the FIR half-width)"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # np.random.SeedSequence would reject it later, in a pool worker
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def grid_for(self, c: int) -> AfdmGrid:
        return AfdmGrid(
            n=self.n,
            k_max=self.k_max,
            l_max=self.l_max,
            doppler_pad=c - 2 * self.k_max,
            n_prefix=self.n_prefix,
        )


@dataclass
class RmseReport:
    """Sweep results: one row dict per (estimator, cell)."""

    config: ExperimentConfig
    rows: list


def noise_variance(grid: AfdmGrid, layout: PilotLayout, snr_db: float) -> float:
    """Per-sample complex noise variance for the requested SNR.

    SNR is defined against the mean transmitted frame power including the
    pilot: P = (pilot energy + data energy) / N, with unit-energy data
    symbols in every data slot.
    """
    power = (layout.pilot_amplitude**2 + layout.data_slots(grid).size) / grid.n
    return power / 10.0 ** (snr_db / 10.0)


def run_trial(
    grid: AfdmGrid,
    layout: PilotLayout,
    noise_var: float,
    estimators: tuple,
    frames: int,
    seed_seq: np.random.SeedSequence,
):
    """One channel draw, ``frames`` received frames, every estimator on each.

    Draws the channel, then frame by frame its data (one
    ``build_pilot_frame`` call) and its noise, in the order a frame-at-a-time
    loop draws them. The ``frames`` frames then go through modulation, the
    prefix, the noise-free channel, the noise and the prefix strip as one
    (frames, N) stack, and each estimator runs once on the received stack;
    every frame comes out as it would alone. This is a chunk of one trial
    (``_run_chunk``).

    Returns ((delay, doppler) truth, {name: (delay_hat, doppler_hat,
    mean_pspr, seconds)}): plain means of the estimator's delay, Doppler and
    PSPR over all of the trial's frames, flagged ones too (nothing is
    dropped), and its seconds in the estimator.
    """
    return _run_chunk(grid, layout, noise_var, estimators, frames, [seed_seq])[0]


def _run_chunk(grid, layout, noise_var, estimators, frames, seed_seqs) -> list:
    """``run_trial`` of every seed of ``seed_seqs``, as a list in seed order.

    Each trial draws from its own seed as ``run_trial`` does and passes
    its frames through its own channel; modulation, the prefix, the prefix
    strip and each estimator run once on the stack of all the trials'
    frames. Each trial's means are over its own rows, in frame order, and
    an estimator's seconds on the stack are shared equally by the trials.
    """
    rows = len(seed_seqs) * frames
    x = np.empty((rows, grid.n), dtype=complex)
    noise = np.zeros((rows, grid.n + grid.n_prefix), dtype=complex)
    channels = []
    for t, seed_seq in enumerate(seed_seqs):
        rng = np.random.default_rng(seed_seq)
        delay = rng.uniform(0.0, grid.l_max)
        doppler = rng.uniform(-grid.k_max, grid.k_max)
        gain = np.exp(2j * np.pi * rng.uniform())
        channels.append(LosChannel(gain=gain, delay=delay, doppler=doppler, noise_var=noise_var))
        for f in range(t * frames, (t + 1) * frames):
            x[f] = build_pilot_frame(grid, layout, rng)
            if noise_var > 0:
                noise[f] = _noise(noise.shape[1:], noise_var, rng)
    s = add_prefix(grid, daft_modulate(grid, x))
    for t, ch in enumerate(channels):
        trial = slice(t * frames, (t + 1) * frames)
        s[trial] = apply_los_channel(grid, s[trial], replace(ch, noise_var=0.0))
    if noise_var > 0:
        s += noise
    body = strip_prefix(grid, s)

    out = [((ch.delay, ch.doppler), {}) for ch in channels]
    for name in estimators:
        t0 = time.perf_counter()
        est = ESTIMATORS[name](grid, body, layout)
        seconds = (time.perf_counter() - t0) / len(seed_seqs)
        columns = np.stack([est.delay, est.doppler, est.pspr]).reshape(3, len(out), frames)
        for (_, res), means in zip(out, columns.mean(axis=-1).T.tolist()):
            res[name] = (*means, seconds)
    return out


def _chunk(grid, layout, noise_var, estimators, frames, master_seed, cell_idx, trials):
    """``_run_chunk`` on the seeds spawned for (cell_idx, t), t in trials."""
    seeds = [np.random.SeedSequence(master_seed, spawn_key=(cell_idx, t)) for t in trials]
    return _run_chunk(grid, layout, noise_var, estimators, frames, seeds)


# thread-count variables of the BLAS builds numpy may link against
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(workers: int):
    """A pool of fresh (spawned) worker processes whose BLAS runs one thread.

    The workers already run trials in parallel; BLAS threads inside each
    of them oversubscribe the cores, and a sweep ran slower with two
    workers than with one. Spawned workers load BLAS afresh, so they read
    the thread variables, which are set to 1 while the pool lives; then
    the parent's environment is put back.

    A worker that dies, whenever it dies, raises RuntimeError. A common
    cause: a spawned worker imports the caller's main module, and a script
    that starts a sweep outside an ``if __name__ == "__main__":`` guard
    kills every worker in that import.
    """
    # imported here: concurrent.futures.process takes about 11 ms to load,
    # which every ``import afdmest`` would pay; only a pooled sweep needs it
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update({name: "1" for name in _BLAS_THREAD_VARS})
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            yield pool
    except BrokenProcessPool as exc:
        raise RuntimeError(
            "a sweep worker died; a script that calls run_sweep with "
            'workers > 1 must call it under if __name__ == "__main__":'
        ) from exc
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _wrap_doppler(e: np.ndarray) -> np.ndarray:
    # score on the circle: integer shifts of the compensation phase are
    # indistinguishable to the fractional loop, so errors wrap to [-1/2, 1/2]
    return e - np.round(e)


def run_sweep(cfg: ExperimentConfig, progress=None) -> RmseReport:
    """Run the full experiment grid and aggregate RMSE per cell.

    Every cell maps chunks of its trials (see the module docstring) over
    one ``_worker_pool`` that lives for the whole sweep, or over the calling
    process with one worker; a worker that dies raises RuntimeError.
    """
    cells = [
        (c, snr, ep)
        for c in cfg.c_list
        for snr in cfg.snr_db_list
        for ep in cfg.ep_ei_db_list
    ]
    rows = []
    trials = cfg.trials_per_point
    # a cell maps its chunks over the pool, so workers past the trial
    # count would only start and sit idle
    workers = min(cfg.workers, trials)
    per_chunk = max(1, _CHUNK_SAMPLES // (cfg.estimates_per_trial * cfg.n))
    per_chunk = min(per_chunk, -(-trials // workers))
    chunks = [range(t, min(t + per_chunk, trials)) for t in range(0, trials, per_chunk)]
    with _worker_pool(workers) if workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.map
        for cell_idx, (c, snr, ep) in enumerate(cells):
            grid = cfg.grid_for(c)
            layout = PilotLayout(pilot_index=0, ep_ei_db=ep)
            nv = noise_variance(grid, layout, snr)
            chunk = partial(
                _chunk, grid, layout, nv, tuple(cfg.estimators),
                cfg.estimates_per_trial, cfg.master_seed, cell_idx,
            )
            t0 = time.perf_counter()
            results = [res for part in mapper(chunk, chunks) for res in part]
            overhead_ms = (time.perf_counter() - t0) * 1e3

            for name in cfg.estimators:
                d_err = np.array([res[name][0] - truth[0] for truth, res in results])
                k_err = _wrap_doppler(
                    np.array([res[name][1] - truth[1] for truth, res in results])
                )
                mean_pspr = float(np.mean([res[name][2] for _, res in results]))
                est_ms = 1e3 * sum(res[name][3] for _, res in results)
                rows.append(
                    {
                        "estimator": name,
                        "snr_db": snr,
                        "ep_ei_db": ep,
                        "C": c,
                        "delay_rmse": float(np.sqrt(np.mean(d_err**2))),
                        "doppler_rmse": float(np.sqrt(np.mean(k_err**2))),
                        "trials": cfg.trials_per_point,
                        "mean_pspr": mean_pspr,
                        "wall_ms": est_ms,
                    }
                )
            if progress is not None:
                progress(cell_idx + 1, len(cells), overhead_ms)
    return RmseReport(config=cfg, rows=rows)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def csv_lines(report: RmseReport) -> list:
    """Report rows rendered as CSV lines, header first."""
    cols = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return lines


def emit(report: RmseReport, csv_path=None, json_path=None) -> None:
    """Write the report as CSV (one row per cell/estimator) and/or JSON."""
    if csv_path is not None:
        with open(csv_path, "w") as f:
            f.write("\n".join(csv_lines(report)) + "\n")
    if json_path is not None:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "config": asdict(report.config),
            "rows": report.rows,
        }
        with open(json_path, "w") as f:
            json.dump(obj, f, indent=2, sort_keys=True)
            f.write("\n")


# --- validation mode -------------------------------------------------------
# Model checks shared by ``afdmest validate`` and the acceptance suite. Each
# takes its grids, an rng and a draw count, holds its own budget and returns
# (passed, detail).


def check_transform_round_trip(grids, rng, draws: int) -> tuple[bool, str]:
    """The DAFT is unitary: ``draws`` random frames per grid come back."""
    t0 = time.perf_counter()
    worst = 0.0
    for grid in grids:
        for _ in range(draws):
            x = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            y = daft_demodulate(grid, daft_modulate(grid, x))
            worst = max(worst, float(np.max(np.abs(y - x))))
    dt = time.perf_counter() - t0
    labels = [f"N={g.n}" for g in grids]
    if len(set(labels)) < len(labels):
        labels = [f"N={g.n} C={g.n_seg}" for g in grids]
    return worst < 1e-10 and dt < 10.0, (
        f"round-trip sup-norm {worst:.2e} over {draws} frames at "
        f"{' and '.join(labels)} (budget 1e-10), {dt:.1f} s (budget 10 s)"
    )


def check_integer_decode(grids, rng, draws: int) -> tuple[bool, str]:
    """Every integer channel of each grid's search box moves the pilot to
    one bin, and ``joint_estimate`` reads it back exactly. Deterministic:
    the rng and the draw count are not used."""
    layout = PilotLayout()
    count = 0
    worst_side = 0.0
    decode_ok = True
    for grid in grids:
        s = add_prefix(grid, daft_modulate(grid, build_pilot_frame(grid, layout)))
        for l in range(grid.l_max + 1):
            for k in range(-grid.k_max, grid.k_max + 1):
                ch = LosChannel(delay=float(l), doppler=float(k))
                r = strip_prefix(grid, apply_los_channel(grid, s, ch))
                y = np.abs(daft_demodulate(grid, r))
                peak = int(np.argmax(y))
                expect = (layout.pilot_index - (k + grid.n_seg * l)) % grid.n
                worst_side = max(worst_side, float(np.partition(y, -2)[-2] / y[peak]))
                est = joint_estimate(grid, r, layout)
                decode_ok &= (
                    peak == expect
                    and est.delay_int == l
                    and est.delay_frac == 0.0
                    and est.doppler_int == k
                    and abs(est.doppler - k) < 5e-3
                    and not est.flagged
                )
                count += 1
    return decode_ok and worst_side < 1e-9, (
        f"all {count} integer channels decode exactly = {decode_ok}, worst "
        f"sidelobe/peak {worst_side:.2e} (budget 1e-9)"
    )


def check_envelope_fidelity(grids, rng, draws: int) -> tuple[bool, str]:
    """The envelope is within eps*N of the exact profile at its two largest
    bins, eps = 2(l+1)/N + (pi*C/N)^2/6 (derived in envelope_magnitude).
    Exact bins closer than 2*eps*N are a tie it cannot order, so there its
    peak may land on the exact runner-up; elsewhere it must hit the peak.
    Every one of ``draws`` channels per grid must agree, and the mean
    profile correlation per grid must exceed 0.99. A flat profile has no
    correlation; the check fails and names it.
    """
    t0 = time.perf_counter()
    passed = True
    bands = []
    mean_corr = []
    for grid in grids:
        n, c = grid.n, grid.n_seg
        hits = flips = 0
        worst = 0.0
        corrs = []
        for _ in range(draws):
            ch = LosChannel(
                delay=rng.uniform(0, grid.l_max),
                doppler=rng.uniform(-grid.k_max, grid.k_max),
            )
            ex = exact_profile(grid, 0, ch)
            en = envelope_profile(grid, 0, ch)
            band = (2.0 * (ch.delay_int + 1) / n + (np.pi * c / n) ** 2 / 6.0) * n
            top, second = np.argsort(ex)[::-1][:2]
            err = max(abs(ex[top] - en[top]), abs(ex[second] - en[second]))
            worst = max(worst, float(err / band))
            peak = int(np.argmax(en))
            tie_flip = peak == second and ex[top] - ex[second] < 2.0 * band
            flips += int(tie_flip)
            hits += int(err <= band and (peak == top or tie_flip))
            # a constant profile has zero variance: corrcoef would be 0/0
            if np.ptp(ex) > 0.0 and np.ptp(en) > 0.0:
                corrs.append(np.corrcoef(ex, en)[0, 1])
        flat = draws - len(corrs)
        mean_corr.append(
            f"none at C={c} ({flat}/{draws} flat profiles)" if flat else f"{np.mean(corrs):.4f}"
        )
        passed = passed and hits == draws and not flat and np.mean(corrs) > 0.99
        bands.append(
            f"C={c}: {hits}/{draws} ({flips} tie-band flips, worst "
            f"|exact-envelope|/(eps*N) {worst:.2f})"
        )
    dt = time.perf_counter() - t0
    return passed and dt < 120.0, (
        "peak and top-two error within the eps*N band per C "
        + ", ".join(bands)
        + f" (budget {draws}/{draws}); mean profile correlation "
        + ", ".join(mean_corr)
        + f" (budget 0.99); {dt:.0f} s (budget 120 s)"
    )


def check_gate_curve(grids, rng, draws: int) -> tuple[bool, str]:
    """The early/late gate curve balances at 1/2 and falls strictly over 981
    nodes on [0.01, 0.99], and the estimator's gate reads back ``draws``
    random delay fractions x from their envelope taps |sinc(x - l)| at the
    bracket's larger tap and one comb period either side. Grid-free: the
    grids are not used."""
    at_half = abs(elg_theory(0.5))
    nodes = np.linspace(0.01, 0.99, 981)
    strictly_down = bool(np.all(np.diff(elg_theory(nodes)) < 0.0))
    xs = rng.uniform(0.011, 0.989, draws)
    peak = (xs > 0.5).astype(np.int64)
    floor, iota = _gate(peak, np.abs(np.sinc(xs[:, None] - (peak[:, None] + [-1, 0, 1]))))
    worst_rt = float(np.max(np.abs(floor + iota - xs)))
    return at_half < 1e-9 and strictly_down and worst_rt < 1e-3, (
        f"balance point |A(0.5)| = {at_half:.1e} (budget 1e-9); strictly "
        f"decreasing over all {nodes.size} nodes = {strictly_down}; "
        f"gate's worst round-trip error {worst_rt:.2e} (budget 1e-3)"
    )


MODEL_CHECKS = (
    ("transform-round-trip", check_transform_round_trip),  # criterion 1
    ("integer-channel-decode", check_integer_decode),  # criterion 2
    ("envelope-fidelity", check_envelope_fidelity),  # criterion 3
    ("gate-curve", check_gate_curve),  # criterion 9
)


def validate_mode(cfg: ExperimentConfig, draws: int = 25) -> tuple[bool, list]:
    """Run ``MODEL_CHECKS`` on ``cfg``'s grids; returns (all_ok, report lines).

    The checks are acceptance criteria 1, 2, 3 and 9, here with ``draws``
    draws each from one rng seeded by ``cfg.master_seed``. Raises
    ValueError for ``draws`` below 1.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    grids = tuple(cfg.grid_for(c) for c in cfg.c_list)
    rng = np.random.default_rng(cfg.master_seed)
    results = [(name, *check(grids, rng, draws)) for name, check in MODEL_CHECKS]
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    return all(ok for _, ok, _ in results), lines
