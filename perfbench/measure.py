"""Measure one workload in this process; print the raw result as one JSON line.

Run by perfbench/run.py in a fresh process per workload:

    python3 perfbench/measure.py '<workload spec as JSON>' SEED SECONDS TRACE

The benchmark drives only afdmest's public API. Every call goes through a
module attribute looked up at call time, so the traced run (TRACE = 1)
sees it. With TRACE = 0 nothing is wrapped and the end-to-end figures are
measured; with TRACE = 1 traced and untraced frames (sweeps) alternate, the
per-layer figures come from the spans of the traced ones and the untraced
ones give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import provenance
import speed
import tracer as tracing
from workloads import (EP_EI_DB, ESTIMATORS, K_MAX, L_MAX, N_PREFIX, SNR_CYCLE_DB,
                       SWEEP_ESTIMATORS, draw_frames, estimate, grids, load_afdmest,
                       pilot_layout, warm_up)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Error ceilings on the 30 dB frames of a run. Rounding to the integer comb
# leaves an RMSE of about 0.29 in both; joint must stay well below that,
# integer_only must not decode wrongly. Over seeds 0 to 24 at N=256 the
# highest values were: joint RMSE 0.091 delay and 0.022 Doppler, joint
# median error 0.019 and 0.011, integer_only RMSE 0.32 and 0.33. Sweep
# rows (RMSE over per-trial means) are held to the RMSE ceilings.
BUDGET_30DB = {
    "joint": {"delay_rmse": 0.15, "doppler_rmse": 0.04,
              "delay_err_p50": 0.04, "doppler_err_p50": 0.025},
    "integer_only": {"delay_rmse": 0.45, "doppler_rmse": 0.45},
}
# The accuracy metrics are taken on frames drawn from this fixed seed, not
# from the run's seed, and only on its 20 and 30 dB frames: on one fixed
# draw they change only when the estimates do, and above 20 dB fine
# estimation, not the occasional integer decode error at 0 dB, sets them.
REFERENCE_SEED = 0
REFERENCE_MIN_SNR_DB = 20.0


def wrap_doppler(e: float) -> float:
    # integer shifts of the compensation phase are indistinguishable to the
    # fractional loop, so Doppler errors wrap to [-1/2, 1/2] as in the harness
    return e - round(e)


def rmse(errors: list) -> float:
    return math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan


def error_stats(delay: list, doppler: list) -> dict:
    """RMSE and median absolute error of delay and Doppler errors."""
    def p50(errors):
        return statistics.median(abs(e) for e in errors) if errors else math.nan
    return {"delay_rmse": rmse(delay), "doppler_rmse": rmse(doppler),
            "delay_err_p50": p50(delay), "doppler_err_p50": p50(doppler)}


def tail(samples_ms: list) -> dict:
    """Highest percentile of TAIL_PERCENTILES with at least 10 samples beyond it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": p, "samples": n,
                    "beyond": n - rank}
    return {"value": None, "percentile": None, "samples": n, "beyond": 0}


def peak_rss_mib(children: bool) -> float:
    """Peak resident memory of this process, plus its largest child when asked."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def core_work(n: int, grids_used: int) -> dict:
    """Computed (not measured) work of the core layer at frame length n.

    Dense path: one N x N complex128 matrix read per matvec, 8 real flops per
    complex multiply-add. daft_demodulate as implemented forms U.conj().T
    first, so it reads U, writes its conjugate and reads that again, three
    matrix passes. FFT path: an N-point FFT (5 N log2 N flops) and two
    chirp multiplies (6 N flops each), touching five N-vectors.
    """
    return {
        "matrix_bytes": 16 * n * n,
        "cache_bytes": 16 * n * n * grids_used,
        "dense_matvec_bytes": 16 * n * n + 2 * 16 * n,
        "dense_matvec_flops": 8 * n * n,
        "demodulate_bytes": 3 * 16 * n * n + 2 * 16 * n,
        "fft_path_bytes": 5 * 16 * n,
        "fft_path_flops": 5 * n * math.log2(n) + 12 * n,
    }


def alloc_peak_bytes(fn, *args) -> int:
    """Peak bytes Python and NumPy allocate during one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- frame streams ---------------------------------------------------------


def frame_stream(m, grid, layout, frames, spec, seconds, tracer=None) -> dict:
    """Closed loop, one caller: the next estimate is requested only after
    the previous one returns. Every frame gets joint and integer_only, every
    `two_d_every`-th frame of the set also two_d_search. Visits every frame
    once, then goes on until `seconds` have passed. Repeat visits to a frame
    must reproduce the first visit's estimate exactly.

    With a tracer, every other frame is traced (the parity flips with each
    pass over the set, so every frame is seen both ways), and the untraced
    frames in between measure the tracing overhead under the same
    conditions."""
    ref = speed.Reference()
    first = {name: {} for name in ESTIMATORS}
    calls = {name: [] for name in ESTIMATORS}  # (start, seconds, traced)
    fails = {name: {"raised": 0, "non_finite": 0, "flagged": 0} for name in ESTIMATORS}
    mismatches = 0
    traced_frames = 0
    clock = time.perf_counter
    ref.sample()
    t_start = clock()
    i = 0
    while i < len(frames) or clock() - t_start < seconds:
        ref.maybe_sample()
        k = i % len(frames)
        r = frames[k][0]
        traced = tracer is not None and (i + i // len(frames)) % 2 == 1
        if traced:
            tracer.frame = i
            tracer.install()
            traced_frames += 1
        names = ESTIMATORS if k % spec["two_d_every"] == 0 else ESTIMATORS[:2]
        try:
            for name in names:
                t0 = clock()
                try:
                    est = estimate(m, name, grid, r, layout)
                except Exception:  # counted as failed; the run carries on
                    if sum(fails[name].values()) == 0:
                        traceback.print_exc(file=sys.stderr)
                    fails[name]["raised"] += 1
                    out = None
                else:
                    out = (est.delay, est.doppler, est.pspr, est.flagged)
                calls[name].append((t0, clock() - t0, traced))
                if out is not None:
                    if not (math.isfinite(out[0]) and math.isfinite(out[1])):
                        fails[name]["non_finite"] += 1
                    elif out[3]:
                        fails[name]["flagged"] += 1
                if k in first[name]:
                    mismatches += first[name][k] != out
                else:
                    first[name][k] = out
        finally:
            if traced:
                tracer.restore()
        i += 1
    t_end = clock()
    ref.sample()

    def latencies(scaled: bool, traced: bool) -> dict:
        return {name: [ref.scaled(t0, t0 + dt) if scaled else dt
                       for t0, dt, tr in v if tr == traced] for name, v in calls.items()}

    return {
        "wall": ref.scaled(t_start, t_end), "raw_wall": t_end - t_start, "frames": i,
        "lat": latencies(True, False), "raw_lat": latencies(False, False),
        "traced_lat": latencies(True, True), "traced_frames": traced_frames,
        "first": first, "fails": fails, "mismatches": mismatches, "ref": ref,
    }


def accuracy(frames: list, first: dict) -> dict:
    """Error statistics (error_stats) of delay and wrapped Doppler against
    the drawn truth, over the first visit of each frame: over all frames
    ("all"), the 30 dB frames ("30") and the frames from
    REFERENCE_MIN_SNR_DB up ("hi")."""
    out = {}
    for name, ests in first.items():
        errs = {"all": ([], []), "30": ([], []), "hi": ([], [])}
        for k, est in ests.items():
            if est is None or not (math.isfinite(est[0]) and math.isfinite(est[1])):
                continue
            _, delay, doppler, snr = frames[k]
            groups = ["all"]
            if snr == SNR_CYCLE_DB[-1]:
                groups.append("30")
            if snr >= REFERENCE_MIN_SNR_DB:
                groups.append("hi")
            for g in groups:
                errs[g][0].append(est[0] - delay)
                errs[g][1].append(wrap_doppler(est[1] - doppler))
        out[name] = {g: error_stats(*v) for g, v in errs.items()}
    return out


def reference_accuracy(m: dict, spec: dict) -> dict:
    """Joint error statistics on the frames from REFERENCE_MIN_SNR_DB up,
    out of `reference_frames` frames drawn from REFERENCE_SEED and split
    evenly over the workload's grids."""
    first, frames = {"joint": {}}, []
    layout = pilot_layout(m)
    for grid in grids(m, spec):
        count = spec["reference_frames"] // len(spec["c"])
        for r, delay, doppler, snr in draw_frames(m, grid, layout, count, REFERENCE_SEED):
            est = m["estimator"].joint_estimate(grid, r, layout)
            first["joint"][len(frames)] = (est.delay, est.doppler, est.pspr, est.flagged)
            frames.append((r, delay, doppler, snr))
    return accuracy(frames, first)["joint"]["hi"]


def run_frames(m: dict, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer(m) if trace else None
    with tracer or contextlib.nullcontext():
        warm_up(m, spec, seed)
        (grid,) = grids(m, spec)
        layout = pilot_layout(m)
        if tracer is not None:
            tracer.phase = "inputs"
        frames = draw_frames(m, grid, layout, spec["frames"], seed)
    if not trace:
        run = frame_stream(m, grid, layout, frames, spec, seconds)
        return frames_result(frames, run, grid, reference_accuracy(m, spec))
    tracer.phase = "timed"
    run = frame_stream(m, grid, layout, frames, spec, seconds, tracer)
    return layer_result(m, spec, tracer, run, run["traced_frames"])


def stream_metrics(run: dict, lat_key: str, wall_key: str) -> dict:
    lat = run[lat_key]
    fps = {name: len(v) / sum(v) if v else math.nan for name, v in lat.items()}
    return {
        "frames_per_s": run["frames"] / run[wall_key],
        "joint_frames_per_s": fps["joint"],
        "integer_only_frames_per_s": fps["integer_only"],
        "two_d_search_frames_per_s": fps["two_d_search"],
        "joint_frame_ms_p50": 1e3 * statistics.median(lat["joint"]),
        "joint_frame_ms_tail": tail([1e3 * t for t in lat["joint"]]),
    }


def frames_result(frames, run, grid, ref: dict) -> dict:
    acc = accuracy(frames, run["first"])
    attempted = sum(len(v) for v in run["lat"].values())
    hard = sum(f["raised"] + f["non_finite"] for f in run["fails"].values())
    flagged = sum(f["flagged"] for f in run["fails"].values())
    checks = [
        (f"repeat visits reproduce the first estimate ({run['mismatches']} mismatches)",
         run["mismatches"] == 0),
    ]
    for name, budgets in BUDGET_30DB.items():
        for key, budget in budgets.items():
            got = acc[name]["30"][key]
            checks.append((f"{name} {key} at 30 dB {got:.4f} <= {budget}",
                           bool(got <= budget)))
    timed = stream_metrics(run, "lat", "wall")
    return {
        "kind": "frames",
        "metrics": {
            "peak_rss_mib": peak_rss_mib(children=False),
            **{k: timed[k] for k in ("frames_per_s", "joint_frames_per_s",
                                     "integer_only_frames_per_s", "joint_frame_ms_p50")},
            **{f"joint_{k}": v for k, v in ref.items()},
        },
        "printed": {
            "two_d_search_frames_per_s": timed["two_d_search_frames_per_s"],
            "joint_frame_ms_tail": timed["joint_frame_ms_tail"],
            "unscaled": stream_metrics(run, "raw_lat", "raw_wall"),
            "speed_factor": run["ref"].factor_p50(),
            "failed_frac": (hard + flagged) / attempted,
            "failures": run["fails"],
            "frames_timed": run["frames"],
            "distinct_frames": len(frames),
            "accuracy": acc,
        },
        "attempted": attempted,
        "failed": hard,
        "checks": checks,
        "work": core_work(grid.n, 1),
    }


# --- sweeps ----------------------------------------------------------------


def sweep_config(m: dict, spec: dict, seed: int, workers: int):
    return m["harness"].ExperimentConfig(
        n=spec["n"], k_max=K_MAX, l_max=L_MAX, c_list=tuple(spec["c"]),
        n_prefix=N_PREFIX, snr_db_list=SNR_CYCLE_DB, ep_ei_db_list=(EP_EI_DB,),
        trials_per_point=spec["trials"], estimates_per_trial=spec["frames"],
        estimators=SWEEP_ESTIMATORS, master_seed=seed, workers=workers,
    )


def csv_digest(m: dict, report) -> str:
    """SHA-256 of the sweep CSV with the wall-clock column removed."""
    lines = m["harness"].csv_lines(report)
    drop = lines[0].split(",").index("wall_ms")
    kept = [",".join(f for j, f in enumerate(line.split(",")) if j != drop) for line in lines]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()


def timed_sweeps(m, cfg, spec, seconds, tracer=None) -> tuple:
    """At least one sweep, then more until `seconds` have passed; with a
    tracer, every other sweep is traced. The speed reference is sampled
    after every grid cell, through run_sweep's progress callback. Returns
    the untraced and the traced sweeps, each as (wall s, wall s at nominal
    speed, report, speed factor of each cell), and the reference."""
    ref = speed.Reference()
    clock = time.perf_counter
    sweeps = []
    cells = []
    cell_start = 0.0

    def progress(done, total, overhead_ms):
        nonlocal cell_start
        cells.append((cell_start, clock()))
        ref.sample()
        cell_start = clock()

    ref.sample()
    t_start = clock()
    while len(sweeps) < (2 if tracer else 1) or clock() - t_start < seconds:
        traced = tracer is not None and len(sweeps) % 2 == 1
        cells = []
        with tracer if traced else contextlib.nullcontext():
            t0 = cell_start = clock()
            report = m["harness"].run_sweep(cfg, progress=progress)
            t1 = clock()
        sweeps.append((t0, t1, report, cells, traced))
    runs = {False: [], True: []}
    for t0, t1, report, cells, traced in sweeps:
        runs[traced].append((t1 - t0, ref.scaled(t0, t1), report,
                             [ref.scaled(a, b) / (b - a) for a, b in cells]))
    return runs[False], runs[True], ref


def run_sweep(m: dict, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer(m) if trace else None
    cfg = sweep_config(m, spec, seed, spec["workers"])
    with tracer or contextlib.nullcontext():
        warm_up(m, spec, seed)
    reference = None
    if spec["workers"] > 1:
        reference = csv_digest(m, m["harness"].run_sweep(sweep_config(m, spec, seed, 1)))
    if not trace:
        runs, _, _ = timed_sweeps(m, cfg, spec, seconds)
        return sweep_result(m, spec, cfg, runs, reference, reference_accuracy(m, spec))
    tracer.phase = "timed"
    untraced, traced, ref = timed_sweeps(m, cfg, spec, seconds, tracer)
    frames = tracing.summarize(tracer.spans, "timed").get(
        "estimator.build_pilot_frame", {}).get("calls", 0)
    run = {"untraced": untraced, "traced": traced, "ref": ref}
    return layer_result(m, spec, tracer, run, frames)


def sweep_metrics(runs: list, cfg, scaled: bool) -> dict:
    """Sweep timings; with `scaled` converted to nominal speed, each grid
    cell's estimator times by that cell's own speed factor."""
    per_cell = cfg.trials_per_point * cfg.estimates_per_trial
    frames_total = len(cfg.c_list) * len(cfg.snr_db_list) * per_cell
    walls, est_s, cell_ms = [], {name: [] for name in cfg.estimators}, []
    for raw_wall, scaled_wall, report, factors in runs:
        walls.append(scaled_wall if scaled else raw_wall)
        # run_sweep appends one row per estimator for each cell in turn
        row_factor = [factors[i // len(cfg.estimators)] if scaled else 1.0
                      for i in range(len(report.rows))]
        for name in cfg.estimators:
            est_s[name].append(sum(1e-3 * r["wall_ms"] * f for r, f in
                                   zip(report.rows, row_factor) if r["estimator"] == name))
        cell_ms += [r["wall_ms"] * f / per_cell for r, f in zip(report.rows, row_factor)
                    if r["estimator"] == "joint"]
    sweep_s = statistics.median(walls)
    return {
        "sweep_s": sweep_s,
        "frames_per_s": frames_total / sweep_s,
        "joint_frames_per_s": frames_total / statistics.median(est_s["joint"]),
        "integer_only_frames_per_s": frames_total / statistics.median(est_s["integer_only"]),
        "joint_frame_ms_p50": statistics.median(cell_ms),
    }


def busy_share(report, wall: float, workers: int) -> float:
    """Summed estimator time of the rows over wall time x workers."""
    return 1e-3 * sum(r["wall_ms"] for r in report.rows) / (wall * workers)


def sweep_result(m, spec, cfg, runs, reference, ref: dict) -> dict:
    per_cell = cfg.trials_per_point * cfg.estimates_per_trial
    rows = runs[0][2].rows
    joint_rows = [r for r in rows if r["estimator"] == "joint"]
    bad_rows = [r for _, _, rep, _ in runs for r in rep.rows
                if not all(math.isfinite(r[k]) for k in ("delay_rmse", "doppler_rmse"))]
    digests = [csv_digest(m, rep) for _, _, rep, _ in runs]
    checks = [(f"{len(runs)} sweeps give one CSV digest", len(set(digests)) == 1)]
    if reference is not None:
        checks.append((f"workers={cfg.workers} digest equals the workers=1 digest",
                       digests[0] == reference))
    for r in joint_rows:
        if r["snr_db"] == SNR_CYCLE_DB[-1]:
            for key in ("delay_rmse", "doppler_rmse"):
                got, budget = r[key], BUDGET_30DB["joint"][key]
                checks.append((f"joint {key} at 30 dB, C={r['C']}: {got:.4f} <= {budget}",
                               bool(got <= budget)))
    attempted = len(runs) * len(rows) * per_cell
    busy = [busy_share(rep, w, cfg.workers) for w, _, rep, _ in runs]
    timed = sweep_metrics(runs, cfg, scaled=True)
    return {
        "kind": "sweep",
        "metrics": {
            "peak_rss_mib": peak_rss_mib(children=cfg.workers > 1),
            **{k: v for k, v in timed.items() if k != "sweep_s"},
            **{f"joint_{k}": v for k, v in ref.items()},
        },
        "printed": {
            "sweep_s": timed["sweep_s"],
            "sweeps": len(runs),
            "unscaled": sweep_metrics(runs, cfg, scaled=False),
            "speed_factor": statistics.median(s / w for w, s, _, _ in runs),
            "failed_frac": len(bad_rows) * per_cell / attempted,
            "busy_share": statistics.median(busy),
            "csv_sha256": digests[0],
            "sweep_joint_rmse": {
                "delay": rmse([r["delay_rmse"] for r in joint_rows]),
                "doppler": rmse([r["doppler_rmse"] for r in joint_rows]),
            },
        },
        "attempted": attempted,
        "failed": len(bad_rows) * per_cell,
        "checks": checks,
        "work": core_work(spec["n"], len(spec["c"])),
    }


# --- per-layer figures -------------------------------------------------------


def joint_path(tracer, run: dict, kind: str, cfg, span_cost_us: float) -> dict:
    """Joint time per frame, untraced and traced, and the traced self times
    summed along joint's blocking path; all in ms at nominal speed."""
    roots = tracing.root_totals(tracer.spans, "timed", "estimator.joint_estimate")
    sums = [run["ref"].scaled(t0, t0 + total) for t0, total, _ in roots]
    if kind == "frames":
        untraced_ms = 1e3 * statistics.median(run["lat"]["joint"])
        traced_ms = 1e3 * statistics.median(run["traced_lat"]["joint"])
    else:
        untraced_ms = sweep_metrics(run["untraced"], cfg, scaled=True)["joint_frame_ms_p50"]
        traced_ms = sweep_metrics(run["traced"], cfg, scaled=True)["joint_frame_ms_p50"]
    spans = statistics.median(n for _, _, n in roots) if roots else 0
    return {
        "self_sum_ms": 1e3 * statistics.median(sums) if sums else 0.0,
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "spans": spans,
        "predicted_overhead_ms": 1e-3 * spans * span_cost_us,
    }


def layer_result(m, spec, tracer, run: dict, frames: int) -> dict:
    stats = tracing.summarize(tracer.spans, "timed", run["ref"].scaled)
    setup = tracing.summarize(tracer.spans, "setup")
    l3 = provenance.cache_sizes().get("L3", 0)
    work = core_work(spec["n"], len(spec["c"]))
    span_cost = tracing.span_cost_us()
    cfg = sweep_config(m, spec, 0, spec["workers"]) if spec["kind"] == "sweep" else None
    path = joint_path(tracer, run, spec["kind"], cfg, span_cost)
    grid = grids(m, spec)[0]
    ((r, _, _, _),) = draw_frames(m, grid, pilot_layout(m), 1, REFERENCE_SEED)
    demodulate_alloc = alloc_peak_bytes(m["core"].daft_demodulate, grid, r)

    def self_ms(name):
        return stats[name]["self_ms_p50"] if name in stats else 0.0

    def per_frame(name):
        if name not in stats or not frames:
            return 0.0
        if stats[name]["calls_per_frame"] is not None:
            return stats[name]["calls_per_frame"]
        return stats[name]["calls"] / frames

    notes = ["self times at nominal speed (perfbench/speed.py); core.daft_matrix.build_s "
             "unscaled; bytes and flops computed from array sizes, not measured, "
             "core.daft_demodulate.bytes_per_call for the dense path as implemented "
             "(U.conj().T @ r: three matrix passes); core.daft_demodulate.alloc_peak_bytes "
             f"measured (tracemalloc) over one call at N={grid.n}"]
    if spec["kind"] == "frames":
        flagged = run["fails"]["two_d_search"]["flagged"]
        two_d_calls = len(run["lat"]["two_d_search"]) + len(run["traced_lat"]["two_d_search"])
        busy, run_sweep_s = 0.0, 0.0
        attempted = sum(len(run[key][name]) for key in ("lat", "traced_lat")
                        for name in ESTIMATORS)
        failed = sum(f["raised"] + f["non_finite"] for f in run["fails"].values())
        checks = [(f"traced and untraced visits give the same estimates "
                   f"({run['mismatches']} mismatches)", run["mismatches"] == 0)]
        notes.append("calls_per_frame: median over the frames that call the function")
    else:
        sweeps = run["untraced"] + run["traced"]
        flagged, two_d_calls, failed = 0, 0, 0
        busy = statistics.median(busy_share(rep, w, cfg.workers) for w, _, rep, _ in run["traced"])
        run_sweep_s = stats["harness.run_sweep"]["total_s"] / stats["harness.run_sweep"]["calls"]
        attempted = sum(len(rep.rows) for _, _, rep, _ in sweeps) * spec["trials"] * spec["frames"]
        digests = {csv_digest(m, rep) for _, _, rep, _ in sweeps}
        checks = [(f"traced and untraced sweeps give one CSV digest ({len(sweeps)} sweeps)",
                   len(digests) == 1)]
        notes.append("calls_per_frame: calls / frames built in the traced sweeps")
        if cfg.workers > 1:
            notes.append("spans inside pool workers cannot be reached from outside; "
                         "layer figures below run_sweep read 0 for this workload")
    gap = path["self_sum_ms"] - path["untraced_ms"]
    overhead = path["traced_ms"] - path["untraced_ms"]
    if path["spans"]:
        notes.append(
            f"joint blocking path: traced self times sum to {path['self_sum_ms']:.4f} ms per "
            f"frame (p50) against {path['untraced_ms']:.4f} ms untraced, a gap of "
            f"{gap:+.4f} ms; measured tracing overhead {overhead:+.4f} ms, predicted "
            f"{path['predicted_overhead_ms']:.4f} ms ({path['spans']} spans x "
            f"{span_cost:.2f} us): {'within' if abs(gap) <= abs(overhead) + path['predicted_overhead_ms'] else 'OUTSIDE'}"
            " the overhead")
    n_spans = sum(s["calls"] for s in stats.values())
    metrics = {
        "core.daft_matrix.build_s": setup.get("core.daft_matrix", {}).get("total_s", 0.0),
        "core.daft_matrix.bytes": work["matrix_bytes"],
        "core.daft_matrix.cache_bytes": work["cache_bytes"],
        "core.daft_matrix.l3_ratio": work["matrix_bytes"] / l3 if l3 else 0.0,
        "core.daft_demodulate.calls": stats.get("core.daft_demodulate", {}).get("calls", 0),
        "core.daft_demodulate.self_ms_p50": self_ms("core.daft_demodulate"),
        "core.daft_demodulate.bytes_per_call": work["demodulate_bytes"],
        "core.daft_demodulate.alloc_peak_bytes": demodulate_alloc,
        "core.dense_matvec.flops": work["dense_matvec_flops"],
        "core.fft_path.bytes": work["fft_path_bytes"],
        "core.fft_path.flops": work["fft_path_flops"],
        "core.daft_modulate.self_ms_p50": self_ms("core.daft_modulate"),
        "core.add_prefix.self_ms_p50": self_ms("core.add_prefix"),
        "channel.apply_los_channel.self_ms_p50": self_ms("channel.apply_los_channel"),
        "estimator.joint_estimate.self_ms_p50": self_ms("estimator.joint_estimate"),
        "estimator.estimate_doppler_frac.self_ms_p50": self_ms("estimator.estimate_doppler_frac"),
        "estimator.pspr.calls_per_frame": per_frame("estimator.pspr"),
        "estimator.pspr.self_ms_p50": self_ms("estimator.pspr"),
        "estimator.integer_estimate.self_ms_p50": self_ms("estimator.integer_estimate"),
        "estimator.estimate_delay_frac.self_ms_p50": self_ms("estimator.estimate_delay_frac"),
        "estimator.compensate.self_ms_p50": self_ms("estimator.compensate"),
        "estimator.build_pilot_frame.self_ms_p50": self_ms("estimator.build_pilot_frame"),
        "baselines.integer_only.self_ms_p50": self_ms("baselines.integer_only"),
        "effective.effective_column.calls_per_frame": per_frame("effective.effective_column"),
        "effective.effective_column.self_ms_p50": self_ms("effective.effective_column"),
        "baselines.two_d_search.flagged_frac": flagged / two_d_calls if two_d_calls else 0.0,
        "harness.run_sweep.wall_s": run_sweep_s,
        "harness.busy_share": busy,
        "trace.span_cost_us": span_cost,
        "trace.spans_per_frame": n_spans / frames if frames else 0.0,
        "trace.overhead_ms_per_frame": overhead,
        "trace.joint_self_sum_ms_p50": path["self_sum_ms"],
        "trace.joint_untraced_ms_p50": path["untraced_ms"],
    }
    return {"kind": spec["kind"], "metrics": metrics, "spans": tracer.spans,
            "notes": notes, "printed": {}, "attempted": attempted, "failed": failed,
            "checks": checks, "work": work}


def main(argv: list) -> int:
    spec = json.loads(argv[0])
    seed, seconds, trace = int(argv[1]), float(argv[2]), argv[3] == "1"
    m = load_afdmest()
    run = run_frames if spec["kind"] == "frames" else run_sweep
    result = run(m, spec, seed, seconds, trace)
    result["provenance"] = provenance.collect(ROOT, seed)
    spans = result.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{spec['name']}-seed{seed}.tsv.gz"
        tracing.write_spans(spans, path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
