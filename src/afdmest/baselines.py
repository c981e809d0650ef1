"""Reference estimators the joint method is compared against.

``integer_only`` is the classic single-pilot scheme: decode the strongest
readout bin into integer delay/Doppler and stop. It needs no compensation
loop, runs in one transform, and hits a quantization floor of about 0.29
samples RMSE on fractional channels (the standard deviation of a uniform
rounding residual).

``two_d_search`` is a continuous comparator: a Nelder-Mead simplex over
(delay, Doppler) maximizing the magnitude correlation between the observed
pilot readout and the exact effective-channel model column. It represents
the family of 2-D maximum-correlation searches without reproducing any
specific published variant.
"""

from __future__ import annotations

import numpy as np

from .core import AfdmGrid, daft_demodulate, daft_modulate
from .channel import LosChannel
from .effective import effective_column
from .estimator import (
    Estimate,
    PilotLayout,
    compensate,
    integer_estimate,
    profile_bins,
    pspr,
    read_profile,
    readout_bins,
)

__all__ = ["integer_only", "two_d_search"]


def integer_only(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> Estimate:
    """Integer delay/Doppler decode of the raw (uncompensated) readout.

    Fractional parts are zero by definition. On a channel with fractional
    parts the decode lands on the nearest comb tap, so the delay error is
    the rounding residual; there is no mechanism to do better, which is the
    error floor this baseline exists to exhibit.
    """
    j = profile_bins(grid)
    p = read_profile(grid, y, layout)
    js, k, l_round, flagged = integer_estimate(grid, p)
    pos = int(np.searchsorted(j, js))
    return Estimate(
        delay_int=l_round,
        delay_frac=0.0,
        doppler_int=k,
        doppler_frac=0.0,
        pspr=pspr(p, pos, grid.n_seg),
        peak_index=js % grid.n,
        flagged=flagged,
    )


def two_d_search(
    grid: AfdmGrid,
    y: np.ndarray,
    layout: PilotLayout,
    init: tuple[float, float] | None = None,
    xatol: float = 1e-3,
    maxiter: int = 200,
) -> Estimate:
    """Continuous (delay, Doppler) search by downhill simplex.

    Maximizes |<readout, model column>| / ||model column|| over
    (L, K) in [0, l_max] x [-k_max, k_max], where the model column is the
    exact effective-channel response of the pilot at the readout bins.
    Starts from the integer decode unless ``init`` is given. If the simplex
    hits the iteration cap before its diameter drops below ``xatol`` the
    best point so far is returned with the flag set.
    """
    # scipy.optimize takes about half a second to import; only this
    # estimator needs it
    from scipy.optimize import minimize

    j = profile_bins(grid)
    bins = readout_bins(grid, layout)
    obs = y[bins]
    amp = layout.pilot_amplitude

    def neg_corr(theta: np.ndarray) -> float:
        cand = LosChannel(gain=1.0, delay=float(theta[0]), doppler=float(theta[1]))
        model = amp * effective_column(grid, layout.pilot_index, cand, bins)
        nrm = np.linalg.norm(model)
        if nrm == 0.0:
            return 0.0
        return -abs(np.vdot(model, obs)) / nrm

    if init is None:
        start = integer_only(grid, y, layout)
        init = (float(start.delay_int), float(start.doppler_int))
    x0 = np.array(
        [
            np.clip(init[0], 0.0, grid.l_max),
            np.clip(init[1], -grid.k_max, grid.k_max),
        ]
    )
    res = minimize(
        neg_corr,
        x0,
        method="Nelder-Mead",
        bounds=[(0.0, grid.l_max), (-grid.k_max, grid.k_max)],
        options={"xatol": xatol, "fatol": 1e-9, "maxiter": maxiter},
    )
    delay = float(res.x[0])
    doppler = float(res.x[1])
    l_floor = int(np.floor(delay))
    k_floor = int(np.floor(doppler))

    # quality metadata: re-read the profile with the found fractional Doppler
    # compensated (the demodulation is unitary, so the time frame is just the
    # forward transform of y)
    r = daft_modulate(grid, y)
    y_comp = daft_demodulate(grid, compensate(r, doppler - k_floor))
    p = read_profile(grid, y_comp, layout)
    js, _, _, _ = integer_estimate(grid, p)
    pos = int(np.searchsorted(j, js))
    return Estimate(
        delay_int=l_floor,
        delay_frac=delay - l_floor,
        doppler_int=k_floor,
        doppler_frac=doppler - k_floor,
        pspr=pspr(p, pos, grid.n_seg),
        peak_index=js % grid.n,
        flagged=not bool(res.success),
    )
