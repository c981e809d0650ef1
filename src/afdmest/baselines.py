"""Reference estimators the joint method is compared against.

``integer_only`` is the classic single-pilot scheme: decode the strongest
readout bin into integer delay/Doppler and stop. It needs no compensation
loop, runs in one transform, and hits a quantization floor of about 0.29
samples RMSE on fractional channels (the standard deviation of a uniform
rounding residual). ``integer_only_rows`` is its one body, over every row
of a stack at once with no loop over the rows; ``integer_only`` runs it on
a single frame as a stack of one.

``two_d_search`` is a continuous comparator: a Nelder-Mead simplex over
(delay, Doppler) maximizing the magnitude correlation between the observed
pilot readout and the effective-channel model column, summed exactly under
the floor wrap convention of ``effective.segment_index`` by closed-form run
sums at the readout bins, so no simplex step costs more than O(C*J) model
work, whatever N is. It represents the family of 2-D maximum-correlation
searches without reproducing any specific published variant.

It runs on numpy alone. Its simplex, ``_nelder_mead``, is the bounded,
non-adaptive Nelder-Mead method (Nelder and Mead, Comput. J. 1965) as
scipy 1.17's ``minimize(method="Nelder-Mead")`` implements it, step for
step, so it returns scipy's bits without the half second and 48 MiB that
importing scipy.optimize costs. Each search caches its model column's
tables across simplex steps (see ``two_d_search``).
"""

from __future__ import annotations

import numpy as np

from .core import AfdmGrid, daft_modulate
from .effective import _column
from .estimator import (
    _NO_ESTIMATE,
    Estimate,
    PilotLayout,
    _check_frames,
    _decode,
    _estimates,
    _one_frame,
    _pilot_bins,
    _readout,
    read_profile,
)

__all__ = ["integer_only", "integer_only_rows", "two_d_search"]

# two_d_search stops once its simplex spans at most _XATOL in (samples,
# bins) and its objective at most _FATOL across the vertices, or flags its
# estimate after _MAXITER iterations
_XATOL = 1e-3
_FATOL = 1e-9
_MAXITER = 200


def _nelder_mead(f, x0, lo, hi, xatol, fatol, maxiter):
    """Minimize f over the box [lo, hi] in two dimensions: (x, f(x), ok).

    scipy 1.17's bounded, non-adaptive ``_minimize_neldermead`` for N=2,
    operation for operation, so it returns the same bits: reflection 1,
    expansion 2, contraction and shrink 1/2; a start simplex that scales
    each coordinate of x0 by 1.05 (0.00025 for a zero), reflects vertices
    above ``hi`` into the interior and clips; every trial point clipped;
    the vertices stably re-sorted by f after each iteration. It stops when
    every vertex lies within ``xatol`` of the best in each coordinate and
    within ``fatol`` of it in f. ``ok`` is false when the iteration count
    reached ``maxiter``, as scipy's ``success`` is.
    """
    (lo0, lo1), (hi0, hi1) = lo, hi

    def clip(x, y):
        # numpy's clip: max then min, a tie taking the bound
        return min(hi0, max(lo0, x)), min(hi1, max(lo1, y))

    def step(c, w, s):  # (1 + s)*c - s*w, on the ray from w through c
        return clip((1 + s) * c[0] - s * w[0], (1 + s) * c[1] - s * w[1])

    def by_f(*vertices):  # stable, as scipy's argsort of three is
        return sorted(vertices, key=lambda v: v[0])

    x, y = clip(*x0)
    start = [(x, y), (1.05 * x if x != 0 else 0.00025, y), (x, 1.05 * y if y != 0 else 0.00025)]
    start = [clip(2 * hi0 - x if x > hi0 else x, 2 * hi1 - y if y > hi1 else y) for x, y in start]
    (fb, b), (fg, g), (fw, w) = by_f(*((f(p), p) for p in start))
    it = 1
    while it < maxiter and not (
        max(abs(g[0] - b[0]), abs(g[1] - b[1]), abs(w[0] - b[0]), abs(w[1] - b[1])) <= xatol
        and max(abs(fb - fg), abs(fb - fw)) <= fatol
    ):
        c = ((b[0] + g[0]) / 2, (b[1] + g[1]) / 2)
        xr = step(c, w, 1)
        fr = f(xr)
        if fr < fb:
            xe = step(c, w, 2)
            fe = f(xe)
            fw, w = (fe, xe) if fe < fr else (fr, xr)
        elif fr < fg:
            fw, w = fr, xr
        else:
            # contract outside if xr beats the worst vertex, else inside
            outside = fr < fw
            xc = step(c, w, 0.5 if outside else -0.5)
            fc = f(xc)
            if (fc <= fr) if outside else (fc < fw):
                fw, w = fc, xc
            else:  # shrink toward the best vertex
                g = clip(b[0] + 0.5 * (g[0] - b[0]), b[1] + 0.5 * (g[1] - b[1]))
                fg = f(g)
                w = clip(b[0] + 0.5 * (w[0] - b[0]), b[1] + 0.5 * (w[1] - b[1]))
                fw = f(w)
        it += 1
        (fb, b), (fg, g), (fw, w) = by_f((fb, b), (fg, g), (fw, w))
    return b, fb, it < maxiter


def integer_only(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> Estimate:
    """Integer delay/Doppler decode of the raw (uncompensated) readout of one
    demodulated frame: :func:`integer_only_rows` of the frame as a stack of
    one. Raises ValueError as ``joint_estimate`` does."""
    return integer_only_rows(grid, _one_frame(grid, y), layout)[0]


def integer_only_rows(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> list[Estimate]:
    """Integer delay/Doppler decode of the raw (uncompensated) readout of
    every row of an (F, N) stack of demodulated frames, as a list in row
    order, each the Estimate of that row alone.

    Fractional parts are zero by definition. On a channel with fractional
    parts the decode lands on the nearest comb tap, so the delay error is
    the rounding residual; there is no mechanism to do better, which is the
    error floor this baseline exists to exhibit. One gather reads every
    row's pilot bins, and joint's integer decode (without its gate) runs
    over all rows at once. An all-zero pilot readout gives the flagged
    no-estimate of ``joint_estimate``. Raises ValueError as
    ``joint_estimate_rows`` does.
    """
    y = _check_frames(grid, y, layout)
    p = read_profile(grid, y, layout)
    (peak_index, k, l_round, flagged), score, _ = _decode(grid, p)
    zero = np.zeros(len(p))
    return _estimates(p, (l_round, zero, k, zero, score, peak_index, flagged))


def two_d_search(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> Estimate:
    """Continuous (delay, Doppler) search by downhill simplex.

    Maximizes |<readout, model column>| / ||model column|| over
    (L, K) in [0, l_max] x [-k_max, k_max], where the model column is the
    effective-channel response of the pilot at the readout bins, under the
    floor wrap convention of ``effective.segment_index`` (which departs from
    the oracle's; see ``effective``).
    Starts from ``integer_only``'s decode of the readout it gathers. Stops when
    every vertex lies within ``_XATOL`` of the best in each coordinate and
    ``_FATOL`` in f, or flags the best point so far at ``_MAXITER``. An
    all-zero pilot readout gives the flagged no-estimate of ``joint_estimate``,
    and the simplex does not run. Raises ValueError as ``joint_estimate`` does.

    Runs on numpy alone: the simplex is ``_nelder_mead``, scipy's bounded
    Nelder-Mead step for step. The model column is one ``effective._column``
    closure per search, fed each simplex point as floats the box bounds. It
    reads the bins' chirp factors once and caches the run-sum tables per
    (floor(L), ceil(L), round(K + C*L)), so a step that revisits a key
    computes only the fraction's phases.
    """
    y = _check_frames(grid, _one_frame(grid, y), layout)[0]
    bins = _pilot_bins(grid, layout)
    obs = y[bins]
    if not np.any(obs):
        return _NO_ESTIMATE
    amp = layout.pilot_amplitude
    col = _column(grid, layout.pilot_index, bins)

    def neg_corr(theta) -> float:
        model = amp * col(float(theta[0]), float(theta[1]))
        nrm = np.linalg.norm(model)
        if nrm == 0.0:
            return 0.0
        return float(-abs(np.vdot(model, obs)) / nrm)

    (_, k0, l0, _), _, _ = _decode(grid, np.abs(obs)[None])
    x, _, ok = _nelder_mead(
        neg_corr,
        (float(l0[0]), float(k0[0])),
        (0.0, float(-grid.k_max)),
        (float(grid.l_max), float(grid.k_max)),
        _XATOL,
        _FATOL,
        _MAXITER,
    )
    delay = float(x[0])
    doppler = float(x[1])
    l_floor = int(np.floor(delay))
    k_floor = int(np.floor(doppler))

    # quality metadata: the pilot readout with the found fractional Doppler
    # compensated, read off the frame body (the demodulation is unitary, so
    # the body is just the forward transform of y)
    p = _readout(grid, daft_modulate(grid, y)[None], layout, np.array([doppler - k_floor]))
    ((peak_index, *_), score, _) = _decode(grid, p)
    return Estimate(
        delay_int=l_floor,
        delay_frac=delay - l_floor,
        doppler_int=k_floor,
        doppler_frac=doppler - k_floor,
        pspr=float(score[0]),
        peak_index=int(peak_index[0]),
        flagged=not ok,
    )
