"""Command line front end.

Three subcommands:

* ``sweep``        Monte Carlo RMSE grid, CSV/JSON out.
* ``validate``     model self-checks, exit code 1 on any failure.
* ``profile-dump`` pilot readout profile of one channel next to the exact
                   sum and the closed-form envelope, for plotting.

Every experiment knob can come from a flat key=value config file
(``--config``) and be overridden by a command line flag. Keys match the
ExperimentConfig field names; list-valued fields take comma-separated
values, e.g. ``snr_db_list=0,10,20``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .channel import LosChannel, apply_los_channel
from .core import add_prefix, daft_demodulate, daft_modulate, strip_prefix
from .effective import envelope_profile, exact_profile
from .estimator import PilotLayout, build_pilot_frame, profile_bins, read_profile
from .harness import ExperimentConfig, csv_lines, emit, run_sweep, validate_mode

_LIST_FIELDS = {
    "c_list": int,
    "snr_db_list": float,
    "ep_ei_db_list": float,
    "estimators": str,
}


def _parse_config_file(path: str) -> dict:
    """Flat key=value format, '#' starts a comment, blank lines ignored."""
    out = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def _coerce(key: str, raw: str):
    if key in _LIST_FIELDS:
        conv = _LIST_FIELDS[key]
        return tuple(conv(tok.strip()) for tok in raw.split(",") if tok.strip())
    for f in fields(ExperimentConfig):
        if f.name == key:
            return type(getattr(ExperimentConfig(), key))(raw)
    raise ValueError(f"unknown config key {key!r}")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    # CLI flags override the file; only flags the user actually set (non-None)
    for key in (f.name for f in fields(ExperimentConfig)):
        cli = getattr(args, key, None)
        if cli is not None:
            values[key] = tuple(cli) if key in _LIST_FIELDS else cli
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--n", type=int, dest="n", help="frame length")
    p.add_argument("--k-max", type=int, dest="k_max", help="max |integer Doppler|")
    p.add_argument("--l-max", type=int, dest="l_max", help="max integer delay")
    p.add_argument("--n-prefix", type=int, dest="n_prefix", help="prefix length")
    p.add_argument(
        "--c",
        dest="c_list",
        type=lambda s: [int(t) for t in s.split(",")],
        help="comma list of wrap counts C",
    )
    p.add_argument(
        "--snr-db",
        dest="snr_db_list",
        type=lambda s: [float(t) for t in s.split(",")],
        help="comma list of SNR points (dB)",
    )
    p.add_argument(
        "--ep-ei-db",
        dest="ep_ei_db_list",
        type=lambda s: [float(t) for t in s.split(",")],
        help="comma list of pilot-to-data ratios (dB)",
    )
    p.add_argument("--trials", type=int, dest="trials_per_point")
    p.add_argument(
        "--frames",
        type=int,
        dest="estimates_per_trial",
        help="frames averaged per trial",
    )
    p.add_argument(
        "--estimators",
        dest="estimators",
        type=lambda s: [t.strip() for t in s.split(",")],
        help="comma list: joint,integer_only,two_d_search",
    )
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--fir-half-width", type=int, dest="fir_half_width")
    p.add_argument("--oversample", type=int, dest="oracle_oversample")
    p.add_argument("--workers", type=int, dest="workers")


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _build_config(args)

    def progress(done, total, ms):
        if not args.quiet:
            print(f"cell {done}/{total} done ({ms:.0f} ms)", file=sys.stderr)

    report = run_sweep(cfg, progress=progress)
    if args.out_csv:
        emit(report, csv_path=args.out_csv)
    else:
        print("\n".join(csv_lines(report)))
    if args.out_json:
        emit(report, json_path=args.out_json)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    ok, lines = validate_mode(cfg, draws=args.draws)
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_profile_dump(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    grid = cfg.grid_for(cfg.c_list[0])
    layout = PilotLayout(pilot_index=0, ep_ei_db=cfg.ep_ei_db_list[0])
    ch = LosChannel(
        gain=1.0,
        delay=args.delay,
        doppler=args.doppler,
        noise_var=0.0,
    )
    rng = np.random.default_rng(cfg.master_seed) if args.with_data else None
    x = build_pilot_frame(grid, layout, rng)
    s = add_prefix(grid, daft_modulate(grid, x))
    r = strip_prefix(grid, apply_los_channel(grid, s, ch, cfg.fir_half_width))
    y = daft_demodulate(grid, r)
    j = profile_bins(grid)
    # measured readout rescaled onto the exact-sum scale (peak near N)
    measured = read_profile(grid, y, layout) * grid.n / layout.pilot_amplitude
    exact = read_profile(grid, exact_profile(grid, layout.pilot_index, ch), layout)
    env = read_profile(grid, envelope_profile(grid, layout.pilot_index, ch), layout)
    lines = ["j,measured,exact_model,envelope"]
    for idx, jj in enumerate(j):
        lines.append(f"{jj},{measured[idx]:.10g},{exact[idx]:.10g},{env[idx]:.10g}")
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afdmest",
        description="chirp-multicarrier fractional delay/Doppler estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo RMSE sweep")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--out-csv", help="CSV output path (default: stdout)")
    p_sweep.add_argument("--out-json", help="JSON output path")
    p_sweep.add_argument("--quiet", action="store_true", help="no progress lines")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="model self-checks")
    _add_config_flags(p_val)
    p_val.add_argument("--draws", type=int, default=25, help="envelope draws per C")
    p_val.set_defaults(func=_cmd_validate)

    p_dump = sub.add_parser(
        "profile-dump", help="pilot readout vs exact model vs envelope"
    )
    _add_config_flags(p_dump)
    p_dump.add_argument("--delay", type=float, default=1.5, help="channel delay (samples)")
    p_dump.add_argument(
        "--doppler", type=float, default=2.25, help="channel Doppler (subcarriers)"
    )
    p_dump.add_argument(
        "--with-data", action="store_true", help="fill data slots with QPSK"
    )
    p_dump.add_argument("--out", help="output path, '-' for stdout")
    p_dump.set_defaults(func=_cmd_profile_dump)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
