"""Command line front end.

Three subcommands:

* ``sweep``        Monte Carlo RMSE grid, CSV/JSON out.
* ``validate``     model self-checks, exit code 1 on any failure: the
                   shared checks of acceptance criteria 1, 2, 3 and 9
                   on the config's grids.
* ``profile-dump`` pilot readout profile of one channel next to the exact
                   sum and the closed-form envelope, for plotting.

Every experiment knob can come from a flat key=value config file
(``--config``) and be overridden by a command line flag. Keys match the
ExperimentConfig field names; list-valued fields take comma-separated
values, e.g. ``snr_db_list=0,10,20``. A subcommand takes only the flags of
the fields it reads; it reads those keys of a shared config file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channel import LosChannel, apply_los_channel
from .core import add_prefix, daft_demodulate, daft_modulate, strip_prefix
from .effective import envelope_profile, exact_profile
from .estimator import PilotLayout, build_pilot_frame, profile_bins, read_profile
from .harness import ESTIMATORS, ExperimentConfig, csv_lines, emit, run_sweep, validate_mode

# ExperimentConfig field -> (flag, help); list fields take comma lists
_FLAGS = {
    "n": ("--n", "frame length"),
    "k_max": ("--k-max", "max |integer Doppler|"),
    "l_max": ("--l-max", "max integer delay"),
    "n_prefix": ("--n-prefix", "prefix length"),
    "c_list": ("--c", "comma list of wrap counts C"),
    "snr_db_list": ("--snr-db", "comma list of SNR points (dB)"),
    "ep_ei_db_list": ("--ep-ei-db", "comma list of pilot-to-data ratios (dB)"),
    "trials_per_point": ("--trials", "trials per cell"),
    "estimates_per_trial": ("--frames", "frames averaged per trial"),
    "estimators": ("--estimators", "comma list: " + ",".join(ESTIMATORS)),
    "master_seed": ("--seed", "master seed"),
    "workers": ("--workers", "worker processes"),
}
# the fields validate reads; profile-dump also reads the pilot ratio
_VALIDATE_FIELDS = ("n", "k_max", "l_max", "n_prefix", "c_list", "master_seed")


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
    """A field's value from text, of its default's type; a list field takes
    comma-separated elements of its default's element type."""
    if key not in _FLAGS:
        raise ValueError(f"unknown config key {key!r}")
    default = getattr(ExperimentConfig(), key)
    if isinstance(default, tuple):
        return tuple(type(default[0])(tok.strip()) for tok in raw.split(",") if tok.strip())
    return type(default)(raw)


def _add_config_flags(p: argparse.ArgumentParser, keys: tuple) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for key in keys:
        flag, text = _FLAGS[key]
        # on a ValueError from type, argparse names the flag and exits 2
        p.add_argument(flag, dest=key, help=text, type=lambda raw, key=key: _coerce(key, raw))
    p.set_defaults(config_keys=keys)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The subcommand's fields from the config file, overridden by the flags
    the user set; the file's other keys are checked but not read."""
    values = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    for key in args.config_keys:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    cfg = ExperimentConfig(**{k: v for k, v in values.items() if k in args.config_keys})
    cfg.validate()
    return cfg


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
    if len(cfg.c_list) > 1 or len(cfg.ep_ei_db_list) > 1:
        raise ValueError("profile-dump takes one C and one pilot ratio (--c, --ep-ei-db)")
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
    r = strip_prefix(grid, apply_los_channel(grid, s, ch))
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
    _add_config_flags(p_sweep, tuple(_FLAGS))
    p_sweep.add_argument("--out-csv", help="CSV output path (default: stdout)")
    p_sweep.add_argument("--out-json", help="JSON output path")
    p_sweep.add_argument("--quiet", action="store_true", help="no progress lines")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="model self-checks")
    _add_config_flags(p_val, _VALIDATE_FIELDS)
    p_val.add_argument(
        "--draws", type=int, default=25,
        help="random draws (>= 1): per grid in round-trip and envelope-fidelity, "
        "once in gate-curve, none in integer-decode",
    )
    p_val.set_defaults(func=_cmd_validate)

    p_dump = sub.add_parser(
        "profile-dump", help="pilot readout vs exact model vs envelope"
    )
    _add_config_flags(p_dump, _VALIDATE_FIELDS + ("ep_ei_db_list",))
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
