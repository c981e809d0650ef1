"""afdmest benchmark: frame streams, large N and sweeps, end to end and per layer.

One workload per run, the form BENCHMARK.json describes:

    python3 perfbench/run.py --workload frames_n256 --seed 1 --seconds 20 --trace 0

Every workload in turn, each in fresh processes, with one table of the
end-to-end metrics and the check that the one- and two-worker sweeps write
the same CSV (wall-clock column removed):

    python3 perfbench/run.py --all --seed 1 --seconds 20

A run measures set-up time in SETUP_REPEATS fresh processes
(perfbench/setup_probe.py) and everything else in one more fresh process
(perfbench/measure.py). It prints provenance, every metric by name and
unit, the correctness checks and the computed core-layer work, and as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. Details and traced spans go to
perfbench/out/. Thread variables such as OPENBLAS_NUM_THREADS are passed
through as found and never set here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 5


def child(script: str, *args: str) -> str:
    """Run a benchmark script in a fresh process; its stdout on success."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{script} exited with code {proc.returncode}")
    return proc.stdout


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes plus one measuring process; the raw result with setup_s,
    the median probe time at nominal speed (see perfbench/speed.py)."""
    spec = dict(spec, name=name)
    arg = json.dumps(spec)
    probes = [json.loads(child("setup_probe.py", arg, str(seed)))
              for _ in range(SETUP_REPEATS)]
    out = child("measure.py", arg, str(seed), repr(seconds), "1" if trace else "0")
    raw = json.loads(out.splitlines()[-1])
    setups = [p["elapsed_s"] for p in probes]
    factor = speed.factor([k for p in probes for k in p["kernel_s"]])
    raw["metrics"]["setup_s"] = statistics.median(setups) * factor
    raw["setup_samples_s"] = setups
    raw["setup_speed_factor"] = factor
    return raw


def result_line(raw: dict, contract: dict, trace: bool) -> dict:
    """The contract's result object; every listed metric must be present."""
    listed = contract["per_layer" if trace else "end_to_end"]
    return {
        "correct": all(ok for _, ok in raw["checks"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def mib(b: float) -> str:
    return f"{b / 2**20:.3f} MiB"


def report(name: str, raw: dict, result: dict, seconds: float) -> None:
    prov = raw["provenance"]
    print(f"== workload {name}  seed {prov['seed']}  seconds {seconds}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"setup_s samples (fresh processes, unscaled): {raw['setup_samples_s']}, "
          f"speed factor {raw['setup_speed_factor']!r}")
    for metric, v in result["metrics"].items():
        print(f"  {metric} = {v['value']!r} {v['unit']}")
    p = raw["printed"]
    if "unscaled" in p:
        print(f"  speed factor (median) {p['speed_factor']!r}; timings above are at "
              f"nominal speed, see perfbench/speed.py; unscaled: "
              f"{json.dumps(p['unscaled'])}")
    if p and raw["kind"] == "frames":
        t = p["joint_frame_ms_tail"]
        print(f"  two_d_search_frames_per_s = {p['two_d_search_frames_per_s']!r} 1/s")
        print(f"  joint_frame_ms_tail = {t['value']!r} ms "
              f"(p{t['percentile']}, {t['samples']} samples, {t['beyond']} beyond)")
        print(f"  sweep_s: not applicable to a frame stream")
        print(f"  frames timed {p['frames_timed']} over {p['distinct_frames']} distinct frames")
        print(f"  failures by estimator {json.dumps(p['failures'])}")
        print(f"  errors by estimator and SNR group on this seed's frames "
              f"{json.dumps(p['accuracy'])}")
    elif p and raw["kind"] == "sweep":
        print(f"  sweep_s = {p['sweep_s']!r} s (median of {p['sweeps']} sweeps)")
        print("  two_d_search_frames_per_s, joint_frame_ms_tail: not applicable to a sweep")
        print(f"  busy_share = {p['busy_share']!r}")
        print(f"  sweep CSV sha256 (wall_ms removed) = {p['csv_sha256']}")
        print(f"  joint RMSE of this seed's sweep, pooled over cells "
              f"{json.dumps(p['sweep_joint_rmse'])}")
    if "joint_delay_rmse" in result["metrics"]:
        print("  joint_delay_rmse, joint_doppler_rmse, joint_delay_err_p50, "
              "joint_doppler_err_p50: joint on the 20 and 30 dB frames of the fixed "
              "reference draw (seed 0), the same frames on every run")
    if "failed_frac" in p:
        print(f"  failed_frac = {p['failed_frac']!r} (raised, non-finite or flagged, "
              f"of {raw['attempted']} calls; raised or non-finite: {raw['failed']})")
    w, l3 = raw["work"], raw["provenance"]["cache_bytes"].get("L3", 0)
    print(f"computed: dense N x N matrix {mib(w['matrix_bytes'])} (16 N^2 B), "
          f"{w['matrix_bytes'] / l3 if l3 else float('nan'):.3g}x the L3 of {mib(l3)}; "
          f"matrix cache resident {mib(w['cache_bytes'])}")
    print(f"computed: per dense matvec {w['dense_matvec_bytes']} B, "
          f"{w['dense_matvec_flops']} flop; per daft_demodulate as implemented "
          f"(U.conj().T @ r) {w['demodulate_bytes']} B; per FFT-path transform "
          f"{w['fft_path_bytes']} B, {w['fft_path_flops']:.0f} flop")
    for label, ok in raw["checks"]:
        print(f"check {'PASS' if ok else 'FAIL'}: {label}")
    for note in raw.get("notes", []):
        print(f"note: {note}")
    if "spans_file" in raw:
        print(f"spans written to {raw['spans_file']}")


def run_one(name: str, seed: int, seconds: float, trace: bool, contract: dict):
    raw = measure(name, WORKLOADS[name], seed, seconds, trace)
    result = result_line(raw, contract, trace)
    report(name, raw, result, seconds)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"raw": raw, "result": result}, f, indent=1)
    return raw, result


def run_all(seed: int, seconds: float, trace: bool, contract: dict) -> int:
    names = list(WORKLOADS)
    runs = {name: run_one(name, seed, seconds, trace, contract) for name in names}
    print("\n== summary")
    listed = contract["per_layer" if trace else "end_to_end"]
    print("metric".ljust(44) + "".join(n.rjust(16) for n in names))
    for m in listed:
        cells = [f"{runs[n][1]['metrics'][m['name']]['value']:.6g}".rjust(16) for n in names]
        print(f"{m['name']} [{m['unit']}]".ljust(44) + "".join(cells))
    extra = (("two_d_search_frames_per_s", "1/s"), ("joint_frame_ms_tail", "ms"),
             ("sweep_s", "s"), ("failed_frac", "ratio"))
    for name, unit in extra:
        cells = []
        for n in names:
            v = runs[n][0]["printed"].get(name)
            if isinstance(v, dict):
                v = v["value"]
            cells.append(("n/a" if v is None else f"{v:.6g}").rjust(16))
        print(f"{name} [{unit}]".ljust(44) + "".join(cells))
    ok = all(result["correct"] for _, result in runs.values())
    digests = {n: runs[n][0]["printed"].get("csv_sha256") for n in names}
    sweeps = [n for n in ("sweep_n256", "sweep_n256_w2") if digests.get(n)]
    if len(sweeps) == 2:
        same = digests[sweeps[0]] == digests[sweeps[1]]
        print(f"check {'PASS' if same else 'FAIL'}: sweep CSV digests of "
              f"{' and '.join(sweeps)} are equal ({digests[sweeps[0]][:16]}..)")
        ok = ok and same
    print(f"all checks {'PASS' if ok else 'FAIL'}")
    with open(OUT / f"all-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({n: r for n, (_, r) in runs.items()}, f, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "afdmest").is_dir():
        print(f"no afdmest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), contract)
    _, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), contract)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
