"""Chirp-multicarrier (AFDM) fractional delay/Doppler estimation toolkit.

Layers, bottom to top:

* ``core``      grid parameters, forward/inverse transform, chirp prefix
* ``channel``   LOS channel models: FIR production path and oversampled oracle
* ``effective`` exact transform-domain channel and its closed-form envelope
* ``estimator`` pilot frames, PSPR Doppler loop, early-late-gate delay
* ``baselines`` integer-only decode and 2-D simplex comparator
* ``harness``   Monte Carlo sweeps, validation mode, CSV/JSON reports
* ``cli``       `afdmest` command line entry point
"""

from .core import (
    AfdmGrid,
    add_prefix,
    daft_demodulate,
    daft_matrix,
    daft_modulate,
    region_rows,
    strip_prefix,
)
from .channel import (
    LosChannel,
    apply_los_channel,
    awgn,
    fir_taps,
    oversampled_oracle,
)
from .effective import (
    effective_column,
    effective_gain,
    elg_invert,
    elg_theory,
    envelope_magnitude,
    envelope_profile,
    exact_channel_sum,
    exact_profile,
    exact_spectrum,
    segment_boundaries,
    segment_index,
)
from .estimator import (
    Estimate,
    PilotLayout,
    SearchConfig,
    build_pilot_frame,
    compensate,
    estimate_delay_frac,
    estimate_doppler_frac,
    integer_estimate,
    joint_estimate,
    profile_bins,
    pspr,
    read_profile,
    readout_bins,
)
from .baselines import integer_only, two_d_search
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    RmseReport,
    emit,
    noise_variance,
    run_sweep,
    run_trial,
    validate_mode,
)

__version__ = "0.1.0"

__all__ = [
    "AfdmGrid",
    "add_prefix",
    "daft_demodulate",
    "daft_matrix",
    "daft_modulate",
    "region_rows",
    "strip_prefix",
    "LosChannel",
    "apply_los_channel",
    "awgn",
    "fir_taps",
    "oversampled_oracle",
    "effective_column",
    "effective_gain",
    "elg_invert",
    "elg_theory",
    "envelope_magnitude",
    "envelope_profile",
    "exact_channel_sum",
    "exact_profile",
    "exact_spectrum",
    "segment_boundaries",
    "segment_index",
    "Estimate",
    "PilotLayout",
    "SearchConfig",
    "build_pilot_frame",
    "compensate",
    "estimate_delay_frac",
    "estimate_doppler_frac",
    "integer_estimate",
    "joint_estimate",
    "profile_bins",
    "pspr",
    "read_profile",
    "readout_bins",
    "integer_only",
    "two_d_search",
    "CSV_HEADER",
    "ExperimentConfig",
    "RmseReport",
    "emit",
    "noise_variance",
    "run_sweep",
    "run_trial",
    "validate_mode",
    "__version__",
]
