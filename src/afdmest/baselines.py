"""Reference estimators the joint method is compared against.

``integer_only`` is the classic single-pilot scheme: decode the strongest
readout bin into integer delay/Doppler and stop. It needs no compensation
loop, runs in one transform, and hits a quantization floor of about 0.29
samples RMSE on fractional channels (the standard deviation of a uniform
rounding residual).

``two_d_search`` is a continuous comparator: a Nelder-Mead simplex over
(delay, Doppler) maximizing the magnitude correlation between the observed
pilot readout and the effective-channel model column, summed exactly under
the floor wrap convention of ``effective.segment_index`` by closed-form run
sums at the readout bins, so no simplex step costs more than O(C*J) model
work, whatever N is. It represents the family of 2-D maximum-correlation
searches without reproducing any specific published variant.
"""

from __future__ import annotations

import numpy as np

from .core import AfdmGrid, daft_modulate
from .channel import LosChannel
from .effective import effective_column
from .estimator import (
    _NO_ESTIMATE,
    Estimate,
    PilotLayout,
    _peak,
    _readout,
    integer_estimate,
    pspr,
    read_profile,
    readout_bins,
)

__all__ = ["integer_only", "two_d_search"]

# simplex diameter, in (samples, bins), below which two_d_search stops
_XATOL = 1e-3


def integer_only(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> Estimate:
    """Integer delay/Doppler decode of the raw (uncompensated) readout.

    Fractional parts are zero by definition. On a channel with fractional
    parts the decode lands on the nearest comb tap, so the delay error is
    the rounding residual; there is no mechanism to do better, which is the
    error floor this baseline exists to exhibit. An all-zero pilot readout
    gives the flagged no-estimate of ``joint_estimate``.
    """
    p = read_profile(grid, y, layout)
    if not np.any(p):
        return _NO_ESTIMATE
    js, k, l_round, flagged = integer_estimate(grid, p)
    return Estimate(
        delay_int=l_round,
        delay_frac=0.0,
        doppler_int=k,
        doppler_frac=0.0,
        pspr=pspr(p, int(_peak(grid, p)), grid.n_seg),
        peak_index=js % grid.n,
        flagged=flagged,
    )


def two_d_search(
    grid: AfdmGrid,
    y: np.ndarray,
    layout: PilotLayout,
    init: tuple[float, float] | None = None,
    maxiter: int = 200,
) -> Estimate:
    """Continuous (delay, Doppler) search by downhill simplex.

    Maximizes |<readout, model column>| / ||model column|| over
    (L, K) in [0, l_max] x [-k_max, k_max], where the model column is the
    effective-channel response of the pilot at the readout bins, under the
    floor wrap convention of ``effective.segment_index`` (which departs from
    the oracle's; see ``effective``).
    Starts from the integer decode unless ``init`` is given. If the simplex
    hits the iteration cap before its diameter drops below 1e-3 the
    best point so far is returned with the flag set. An all-zero pilot
    readout gives the flagged no-estimate of ``joint_estimate``, and the
    simplex does not run.
    """
    # scipy.optimize takes about half a second to import; only this
    # estimator needs it
    from scipy.optimize import minimize

    bins = readout_bins(grid, layout)
    obs = y[bins]
    if not np.any(obs):
        return _NO_ESTIMATE
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
        options={"xatol": _XATOL, "fatol": 1e-9, "maxiter": maxiter},
    )
    delay = float(res.x[0])
    doppler = float(res.x[1])
    l_floor = int(np.floor(delay))
    k_floor = int(np.floor(doppler))

    # quality metadata: the pilot readout with the found fractional Doppler
    # compensated, read off the frame body (the demodulation is unitary, so
    # the body is just the forward transform of y)
    p = _readout(grid, daft_modulate(grid, y), layout)(doppler - k_floor)
    js, _, _, _ = integer_estimate(grid, p)
    return Estimate(
        delay_int=l_floor,
        delay_frac=delay - l_floor,
        doppler_int=k_floor,
        doppler_frac=doppler - k_floor,
        pspr=pspr(p, int(_peak(grid, p)), grid.n_seg),
        peak_index=js % grid.n,
        flagged=not bool(res.success),
    )
