"""Reference estimators the joint method is compared against.

Both take one demodulated frame of N samples or an (F, N) stack of them,
as ``joint_estimate`` takes its frame bodies, and run one body over the
stack with no loop over its rows: a frame gives an Estimate of Python
scalars, a stack one of (F,) columns whose row i is the Estimate of frame
i alone, bit for bit.

``integer_only`` is the classic single-pilot scheme: decode the strongest
readout bin into integer delay/Doppler and stop. It needs no compensation
loop, runs in one transform, and hits a quantization floor of about 0.29
samples RMSE on fractional channels (the standard deviation of a uniform
rounding residual).

``two_d_search`` is a continuous comparator, the classic 2-D grid search:
it searches the (delay, Doppler) box for the largest magnitude
correlation between the observed pilot readout and the effective-channel
model column, summed exactly under the floor wrap convention of
``effective.segment_index`` by closed-form run sums at the readout bins
(``effective._run_sums``), in O(C*J) model work per point whatever N is.
Every frame of a stack is scored at once against a cached dictionary of
the model columns on a grid over the box, in one product, and each
frame's best cell is refined by three zoom levels of 9 x 9 points, every
row's points scored in one batch. Its PSPR and peak index are read off
``read_profile`` of each frame demodulated again with the found fractional
Doppler compensated. It represents the family of 2-D maximum-correlation
searches without reproducing any specific published variant, and runs on
numpy alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import AfdmGrid, _chirps, daft_demodulate, daft_modulate
from .effective import _run_sums
from .estimator import (
    Estimate,
    PilotLayout,
    _check_frames,
    _decode,
    _finish,
    _pilot_bins,
    read_profile,
)

__all__ = ["integer_only", "two_d_search"]

# two_d_search's grid, in samples of delay and bins of Doppler. The
# dictionary spaces the box's cells _CELL apart: noise-free, the objective
# falls about 2.5% from its peak over 1/8 bin in Doppler and 2.5% to 4%
# over 1/8 sample in delay (C = 8 and 12), so the best cell lies next to
# the peak unless noise lifts another. Each zoom level scores the 9 x 9
# points _ZOOM steps from the best point so far, its step a quarter of the
# previous spacing, so it reaches one previous spacing either side: the
# objective is tilted across the grid and up to ten times narrower in
# delay than in Doppler, so a level's best point need not be the one
# nearest the peak. Three levels bring the spacing to 1/512: where the
# objective has one maximum near the best cell, the last level's best
# point lies within half of that, 1/1024, of it. At C = 26 the objective
# ripples in delay with period 1/C, in lobes whose heights differ by 0.25%,
# closer than a 9-point level tells apart, so the search can end on the
# wrong lobe
_CELL = 1 / 8
_LEVELS = (_CELL / 4, _CELL / 16, _CELL / 64)
_ZOOM = np.stack(np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij"), -1).reshape(-1, 2)
_ZOOM.flags.writeable = False


def integer_only(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> Estimate:
    """Integer delay/Doppler decode of the raw (uncompensated) readout of a
    demodulated frame, or of every row of an (F, N) stack of them, as an
    Estimate of (F,) columns whose row i is the Estimate of row i alone.

    Fractional parts are zero by definition. On a channel with fractional
    parts the decode lands on the nearest comb tap, so the delay error is
    the rounding residual; there is no mechanism to do better, which is the
    error floor this baseline exists to exhibit. One gather reads every
    row's pilot bins, and joint's integer decode (without its gate) runs
    over all rows at once. An all-zero pilot readout gives the flagged
    no-estimate of ``joint_estimate``. Raises ValueError as
    ``joint_estimate`` does.
    """
    stack = _check_frames(grid, y, layout)
    p = read_profile(grid, stack, layout)
    (peak_index, k, l_round, flagged), score, _ = _decode(grid, p)
    zero = np.zeros(len(p))
    return _finish(np.ndim(y) == 1, p, l_round, zero, k, zero, score, peak_index, flagged)


@lru_cache(maxsize=8)
def _search_tables(grid: AfdmGrid, layout: PilotLayout):
    """Cached per grid and pilot position: what ``two_d_search`` reads
    for every stack, as (points, atoms, chirp, sums).

    points is the (G, 2) grid of (delay, Doppler) cells _CELL apart over
    the box [0, l_max] x [-k_max, k_max]; atoms the (G, J) dictionary of
    their model columns' run sums S at the readout bins, conjugated and
    normalized, conj(S)/||S||; chirp the readout bins' chirp factors e2[b];
    sums the ``effective._run_sums`` of those bins, whose per-key tables the
    zoom levels reuse. The model column is gain/N * lead * conj(e2[b]) *
    S[b] (``effective.effective_column``), so the objective |<column,
    y[b]>|/||column|| is |<S, e2[b] y[b]>|/||S||: the gain and the lead
    phase drop out, and a cell's score is |atoms @ (chirp * y[bins])|. The
    cached arrays are shared, so they are read-only (G = 1225 at k_max =
    l_max = 3, 0.9 MiB at C = 8).
    """
    bins = _pilot_bins(grid, layout)
    m_src = layout.pilot_index
    sums = _run_sums(grid, m_src, bins - m_src)
    delay = np.arange(round(grid.l_max / _CELL) + 1) * _CELL
    doppler = np.arange(-round(grid.k_max / _CELL), round(grid.k_max / _CELL) + 1) * _CELL
    points = np.stack(np.meshgrid(delay, doppler, indexing="ij"), axis=-1).reshape(-1, 2)
    # the cells of one delay at a time, so that the run sums' work arrays
    # stay a row's size: at N=256, C=8 the whole grid at once lifted the
    # peak RSS by 3.5 MiB and a row at a time by 0.9, the dictionary's own
    # size, for a build of about 6 ms against 2.5 (2 vCPU)
    atoms = np.empty((delay.size, doppler.size, bins.size), dtype=complex)
    for row, d in zip(atoms, delay):
        row[:] = sums(d, doppler)
    atoms = atoms.reshape(len(points), -1)
    atoms /= np.linalg.norm(atoms, axis=-1, keepdims=True)
    np.conjugate(atoms, out=atoms)
    chirp = _chirps(grid.n, grid.c1, grid.c2)[1][bins]
    for a in (points, atoms, chirp):
        a.flags.writeable = False
    return points, atoms, chirp, sums


def two_d_search(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> Estimate:
    """Continuous (delay, Doppler) search of a demodulated frame, or of
    every row of an (F, N) stack of them, as an Estimate of (F,) columns
    whose row i is the Estimate of row i alone.

    Searches (L, K) in [0, l_max] x [-k_max, k_max] for the largest
    |<readout, model column>| / ||model column||, where the model column is the
    effective-channel response of the pilot at the readout bins, under the
    floor wrap convention of ``effective.segment_index`` (which departs from
    the oracle's; see ``effective``). Every row is scored at every cell of
    the cached dictionary (:func:`_search_tables`) in one product, then its
    best cell is refined by the _LEVELS zoom levels of 9 x 9 points around
    the best point so far, clipped to the box, the points of all rows run
    through the run sums as one batch; each takes the first of equal scores.
    The quality metadata (PSPR and peak index) are ``_decode`` of the pilot
    readout with the found fractional Doppler kappa compensated: each row's
    body, the forward transform of its y, times the phasor exp(2 pi i kappa
    n / N), demodulated and read by ``read_profile``. No estimate is
    flagged: the search always ends in the box. An all-zero pilot readout
    gives the flagged no-estimate of ``joint_estimate``. Raises ValueError
    as ``joint_estimate`` does.
    """
    stack = _check_frames(grid, y, layout)
    points, atoms, chirp, sums = _search_tables(grid, layout)
    obs = stack.take(_pilot_bins(grid, layout), axis=-1)
    z = obs * chirp
    # one vector-matrix product per row, so a row's scores do not depend on
    # the stack it came in
    best = points[np.abs(atoms @ z[..., None])[..., 0].argmax(axis=-1)]
    lo, hi = np.array([0.0, -grid.k_max]), np.array([grid.l_max, grid.k_max])
    rows = np.arange(len(z))
    for step in _LEVELS:
        cand = np.minimum(np.maximum(best[:, None] + step * _ZOOM, lo), hi)
        s = sums(cand[..., 0].ravel(), cand[..., 1].ravel()).reshape(*cand.shape[:2], -1)
        score = np.abs(s @ z.conj()[..., None])[..., 0] / np.linalg.norm(s, axis=-1)
        best = cand[rows, score.argmax(axis=-1)]
    delay, doppler = best.T
    l_floor, k_floor = np.floor(delay), np.floor(doppler)
    kappa = doppler - k_floor
    n = np.arange(grid.n)
    body = daft_modulate(grid, stack) * np.exp(2j * np.pi * kappa[:, None] * n / grid.n)
    p = read_profile(grid, daft_demodulate(grid, body), layout)
    (peak_index, *_), score, _ = _decode(grid, p)
    columns = (l_floor.astype(np.int64), delay - l_floor, k_floor.astype(np.int64), kappa)
    flagged = np.zeros(len(z), dtype=bool)
    return _finish(np.ndim(y) == 1, obs, *columns, score, peak_index, flagged)
