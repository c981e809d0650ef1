"""Pilot frame construction and the joint fractional delay/Doppler estimator.

Every estimator takes one frame of N samples or an (F, N) stack of frames
that share grid and layout, as the transforms do, and runs one body over
the stack, a frame being a stack of one. A frame gives an Estimate of
Python scalars, a stack one of (F,) columns whose row i is the Estimate
of frame i alone, bit for bit. Estimation runs in three stages:

1. fractional Doppler (``estimate_doppler_frac``): a scalar search over
   the compensation phase for a high peak-to-sidelobe power ratio (PSPR)
   of the pilot region readout: the best of 16 coarse cells, refined within
   its basin, one coarse step either side. That is the maximum of the PSPR
   unless another cell's basin holds a higher one that scored lower on the
   coarse grid. The readout at bin b with kappa compensated is
   |Z(b - kappa)|/sqrt(N), Z the DTFT of the dechirped frame body, so the
   coarse candidates times the readout bins form one uniform frequency
   grid. One cached chirp-z transform, over a block of a stack's rows at
   once, scores that grid at 16 cells in one pass, then a vectorised
   PSPR covers all candidates. Its Bluestein convolution is one circular
   convolution per frame: one FFT of the zero-padded frame, one product
   with the cached FFT of the kernel and one inverse FFT.
   While its outputs are at hand, each frame's complex readout near its
   best cell is fitted by a degree-14 polynomial in the compensation,
   through the 15 outputs one coarse step apart around that cell of every
   bin (``_fit_tables`` derives the cell count and the node count together
   from the fit's error bound, so the fit reproduces the readout to
   rounding). The refine then scores every frame's polynomial at 17 probes
   over one coarse step either side of its best cell, 1/128 apart in the
   compensation, and at 17 more over 1/8 step either side of the best of
   those, 1/1024 apart, in one product per pass and block of rows, in
   O(15 J) per probe whatever N is: one form for any stack height. The
   readout at the refined compensation is read from the fit too, so stage
   1 reads the stack once, in the chirp-z; the transform's outputs reach
   one bin beyond each end of the profile, where a compensation that wraps
   past 0 or 1 reads it. Stage 1 writes a block's temporaries to a
   workspace of the calling thread (``_Workspace``), kept between calls,
   so a warm call allocates no block-sized array; calls from several
   threads at once are safe, and nothing it returns is a view of the
   workspace.

2. integer decode: the peak (first largest bin of the decodeable range) of
   the compensated readout sits on a comb with spacing C; its position
   splits into an integer delay and an integer Doppler by rounding. The
   split of every peak position, its flag and the peak index are one table
   per grid (``_decode_table``), so the rounding and the box rule are
   written once, where the table is built. Every decodeable peak rounds to
   a delay in [0, l_max], so the table's flag marks an integer Doppler
   outside +-k_max.

3. fractional delay: under the envelope the two comb taps bracketing the
   true delay stand as (1 - iota) : iota (see effective.elg_theory), so the
   later tap's share of the pair is the delay fraction itself. The gate
   picks the bracket, reads that share, and takes the bracket's lower
   integer as the delay floor. At a peak of delay 0 the bracket below
   can win, and its floor of -1 lies outside the search box, so such an
   estimate is flagged too: an unflagged delay lies in [0, l_max + 1).

Stages 2 and 3 run over all rows at once with array operations: one
argmax per row, one gather of every row's PSPR window and its two comb
taps, the table lookup, and the gate's shares as arrays. The PSPR an
estimate reports is the one that gather gives.

Every estimator checks its frames through one helper and decodes the
readout through another, so all see the same bin. integer_only reads the
demodulated frame's pilot bins and joint the fit of stage 1; two_d_search
reads the pilot bins of its frame compensated and demodulated again.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import AfdmGrid, _check_integer, _check_shape, _chirps

__all__ = [
    "PilotLayout",
    "Estimate",
    "build_pilot_frame",
    "profile_bins",
    "readout_bins",
    "read_profile",
    "pspr",
    "estimate_doppler_frac",
    "joint_estimate",
]


@dataclass(frozen=True)
class PilotLayout:
    """Single embedded pilot with a zero guard band on both sides.

    The pilot sits at ``pilot_index`` with amplitude 10^(ep_ei_db/20), i.e.
    ``ep_ei_db`` is the pilot-to-data energy ratio per symbol in dB. The
    guard width comes from the grid (enough slots to keep data sidelobes
    out of the pilot readout region), data fills the rest with unit-energy
    QPSK. A ``pilot_index`` that is not an integer (2.5, or 3.0) raises
    TypeError when the layout is built; numpy integers are accepted.
    """

    pilot_index: int = 0
    ep_ei_db: float = 10.0

    def __post_init__(self):
        _check_integer("pilot_index", self.pilot_index)
        if not np.isfinite(self.ep_ei_db):
            raise ValueError("ep_ei_db must be finite")

    @property
    def pilot_amplitude(self) -> float:
        return 10.0 ** (self.ep_ei_db / 20.0)

    def validate(self, grid: AfdmGrid) -> None:
        # an index outside the frame would be wrapped silently by the
        # modular readout arithmetic, reading a slot the pilot is not in
        if not 0 <= self.pilot_index < grid.n:
            raise ValueError(
                f"pilot_index {self.pilot_index} outside the frame [0, {grid.n})"
            )

    def guard_slots(self, grid: AfdmGrid) -> np.ndarray:
        # a full Q on each side: the composite response is read at bins
        # pilot - j for j up to Q, so the reserve below the pilot must not
        # stop one slot short of the search-box corner
        q = grid.guard_width
        lo = (self.pilot_index + np.arange(1, q + 1)) % grid.n
        hi = (self.pilot_index + np.arange(-q, 0)) % grid.n
        return np.concatenate([lo, hi])

    def data_slots(self, grid: AfdmGrid) -> np.ndarray:
        q = grid.guard_width
        return (self.pilot_index + np.arange(q + 1, grid.n - q)) % grid.n


# the unit-energy QPSK symbol of each bit pair (b0, b1), at index 2*b0 + b1
_QPSK = (np.array([-1, -1, 1, 1]) + 1j * np.array([-1, 1, -1, 1])) / np.sqrt(2.0)
_QPSK.flags.writeable = False


@lru_cache(maxsize=8)
def _data_slots(grid: AfdmGrid, layout: PilotLayout) -> np.ndarray:
    # layout.data_slots cached per grid and pilot position, and read-only as
    # it is shared, as _pilot_bins caches the readout bins
    slots = layout.data_slots(grid)
    slots.flags.writeable = False
    return slots


def build_pilot_frame(
    grid: AfdmGrid, layout: PilotLayout, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Transform-domain frame: pilot, zero guards, QPSK data.

    With no rng the data slots stay zero (pilot-only frame, useful for
    calibration runs). The data are one (slots, 2) draw of bits from rng,
    bit pair (b0, b1) carrying ((2 b0 - 1) + i (2 b1 - 1))/sqrt(2). Raises
    ValueError for a pilot index outside [0, N).
    """
    layout.validate(grid)
    bits = None if rng is None else rng.integers(0, 2, size=(_data_slots(grid, layout).size, 2))
    return _frames_from_bits(grid, layout, bits)


def _frames_from_bits(grid: AfdmGrid, layout: PilotLayout, bits) -> np.ndarray:
    # the frame of each (slots, 2) array of bit pairs along the leading axes
    # of bits, the one bit-to-QPSK mapping; with bits None, the pilot-only
    # frame. The caller checks the layout.
    x = np.zeros((() if bits is None else bits.shape[:-2]) + (grid.n,), dtype=complex)
    x[..., layout.pilot_index] = layout.pilot_amplitude
    if bits is not None:
        x[..., _data_slots(grid, layout)] = _QPSK[2 * bits[..., 0] + bits[..., 1]]
    return x


def profile_bins(grid: AfdmGrid) -> np.ndarray:
    """Readout offsets j covering every decodeable peak plus one comb period
    of margin each side for the PSPR window and the late gate."""
    c, half = grid.n_seg, grid.n_seg // 2
    return np.arange(-half - c, c * grid.l_max + (c - half) + c)


def readout_bins(grid: AfdmGrid, layout: PilotLayout) -> np.ndarray:
    """Transform-domain bins of the pilot readout, (pilot_index - j) mod N
    for j over profile_bins. Raises ValueError for a pilot index outside
    [0, N)."""
    layout.validate(grid)
    return (layout.pilot_index - profile_bins(grid)) % grid.n


@lru_cache(maxsize=8)
def _pilot_bins(grid: AfdmGrid, layout: PilotLayout) -> np.ndarray:
    # readout_bins cached per grid and pilot position, and read-only as it
    # is shared: building them anew took about a tenth of a one-frame
    # integer_only at N=256
    bins = readout_bins(grid, layout)
    bins.flags.writeable = False
    return bins


def read_profile(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """Pilot readout: p[j] = |y[(pilot_index - j) mod N]| over profile_bins,
    of a demodulated frame, or of every row of an (F, N) stack of them.

    Positive j walks toward larger equivalent delay; the channel peak for
    integer delay l and Doppler k appears at j = k + C*l. Raises ValueError
    for a y that is not one frame of N samples or an (F, N) stack, the
    transforms' rule, and for a pilot index outside [0, N).
    """
    _check_shape(grid, y)
    return np.abs(y.take(_pilot_bins(grid, layout), axis=-1))


def pspr(p: np.ndarray, peak_pos: int, c: int) -> float:
    """Peak-to-sidelobe power ratio inside one comb period around the peak.

    Ratio of the peak power to the mean power of the C-sample window
    centered on the peak, peak excluded but counted in the normalization
    (a flat profile scores C/(C-1), a lone spike +inf). Raises ValueError
    for a window, bins peak_pos - C//2 up to peak_pos + C - C//2, that does
    not lie inside the profile.
    """
    half = c // 2
    lo, hi = peak_pos - half, peak_pos + (c - half)
    if lo < 0 or hi > len(p):
        raise ValueError(f"PSPR window [{lo}, {hi}) runs outside the profile of {len(p)} bins")
    return float(_window_pspr(p[lo:hi]))


def _check_frames(grid: AfdmGrid, r: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """The input check of every estimator, before any table is built.

    r is one frame of N samples or an (F, N) stack of them, the transforms'
    rule (``core._check_shape``). Raises ValueError for a pilot index
    outside [0, N), an r of another shape or holding no frame, or a
    non-finite sample in any row (a grid checks itself when built). Returns
    r as an (F, N) array, a frame as a stack of one.
    """
    layout.validate(grid)
    r = np.asarray(r)
    _check_shape(grid, r)
    r = r.reshape(-1, grid.n)
    if not len(r):
        raise ValueError("the frame stack holds no frames")
    if not np.isfinite(r).all():
        bad = np.argmin(np.isfinite(r).all(axis=1))
        raise ValueError(f"frame {bad} of the stack has non-finite samples")
    return r


def _inner_slice(grid: AfdmGrid) -> slice:
    # positions of the decodeable peak range inside the profile array
    # (strips the one-comb-period margin on each side)
    return slice(grid.n_seg, -grid.n_seg)


def _peak(grid: AfdmGrid, p: np.ndarray):
    # position in the profile array of the first largest bin of the
    # decodeable range; for a (profiles, bins) stack, one per row
    inner = _inner_slice(grid)
    return inner.start + p[..., inner].argmax(axis=-1)


def _window_pspr(window: np.ndarray) -> np.ndarray:
    """pspr of every window of a (..., C) stack, each the C bins of a
    profile around its peak (the peak at C // 2); :func:`pspr` is this rule
    on one window. The peak power is taken from the squared window itself
    (squaring the scalar separately may round differently by one ulp), then
    zeroed in it so the sidelobes are summed directly: the window sum minus
    the peak power would cancel, and err by about eps*PSPR/C relative. A
    window with no sidelobe power scores +inf."""
    sq = window**2
    c = sq.shape[-1]
    peak = sq[..., c // 2].copy()
    sq[..., c // 2] = 0.0
    denom = np.add.reduce(sq, axis=-1) / c
    score = np.empty(denom.shape)
    score.fill(np.inf)
    return np.divide(peak, denom, out=score, where=denom > 0.0)


def _windows(grid: AfdmGrid, p: np.ndarray, offsets: np.ndarray):
    # (pos, the bins at offsets from pos) of every profile of an (F, bins)
    # stack, pos its _peak: one take from the flattened stack (a view where
    # the stack is contiguous), each peak moved to its row's place in it
    pos = _peak(grid, p)
    at = pos + np.arange(0, p.size, p.shape[-1])
    return pos, p.take(at[:, None] + offsets)


def _pspr_rows(grid: AfdmGrid, p: np.ndarray) -> np.ndarray:
    """pspr of every profile of a (..., profiles, bins) stack, each taken at
    its profile's :func:`_peak`, with the bits pspr gives that profile. The
    profiles are read as one (rows, bins) array, so one take gathers every
    window, as :func:`_decode` gathers its own."""
    window = _windows(grid, p.reshape(-1, p.shape[-1]), _decode_table(grid)[0][3:])[1]
    return _window_pspr(window).reshape(p.shape[:-1])


def _smooth_length(target: int) -> int:
    # smallest 2^a 3^b 5^c at or above target: numpy's FFT runs such lengths
    # about as fast as powers of two, and they pad far less
    best = 1 << (int(target) - 1).bit_length()  # a numpy integer has no bit_length
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < target:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


# stage 1's coarse cells over [0, 1), and the interpolation nodes of its
# fit, in coarse steps from the best cell: derived together from the fit's
# error bound in _fit_tables
_COARSE_STEPS = 16
_NODES = np.arange(-7, 8)
# the chirp-z outputs before the first profile bin's, and after the last's:
# one coarse step, for the readout a bin either side that a wrapped
# compensation reads, and the fit's half-width (_fit_tables)
_LEAD = _COARSE_STEPS + int(_NODES[-1])
# the coarse compensation candidates, the centers (i + 1/2)/steps of the cells
_CANDIDATES = (np.arange(_COARSE_STEPS) + 0.5) / _COARSE_STEPS
_CANDIDATES.flags.writeable = False


class _Workspace(threading.local):
    """Stage 1's block temporaries, one set per thread: four flat buffers
    (slots) that each grow to the largest array drawn on them and are never
    freed. Allocated afresh on every call, the temporaries of a block of
    rows (180-520 KB each on the 30 rows of a sweep chunk at N=256) are
    returned to the system by malloc when the call ends and faulted back
    in on the next one, a quarter to a third of a stacked joint's time.
    The slots come to 1.4 MiB over a sweep at C = 8 and 12. A slot is
    drawn on again only once what it held is dead, in this order per
    block:

        slot 0: chirp-z work array -> fit coefficients
        slot 1: coarse magnitudes -> node values -> each pass's product
        slot 2: coarse profiles -> node outputs -> first pass's profiles
                -> second pass's magnitudes
        slot 3: node positions -> node phases -> second pass's profiles

    Each thread has its own slots, so calls from several threads are safe;
    nothing a public function returns is a view of them."""

    def __init__(self):
        self.slots = [np.empty(0, dtype=np.uint8) for _ in range(4)]


_WORKSPACE = _Workspace()


def _scratch(slot: int, shape: tuple, dtype=np.float64) -> np.ndarray:
    # an uninitialised array on the calling thread's workspace slot, valid
    # until the slot is drawn on again
    slots = _WORKSPACE.slots
    try:
        return np.ndarray(shape, dtype, slots[slot])
    except TypeError:  # the buffer is too small for the array: grow it
        slots[slot] = np.empty(math.prod(shape) * np.dtype(dtype).itemsize, dtype=np.uint8)
        return np.ndarray(shape, dtype, slots[slot])


@lru_cache(maxsize=8)
def _coarse_czt(grid: AfdmGrid, layout: PilotLayout):
    """Cached factors of the chirp-z transform that scores the coarse grid.

    The readout at bin b with kappa compensated is |Z(b - kappa)|/sqrt(N),
    where Z(f) = sum_n z[n] exp(-2 pi i n f / N) is the DTFT of the
    dechirped body z = conj(e1)*r. The J readout bins b = pilot - j0 - a
    (a = 0 .. J-1, j0 the first of profile_bins) step down by one and the
    candidates are (i + 1/2)/steps, steps = _COARSE_STEPS, so every
    (candidate, bin) pair lies on the one grid f_t = pilot - j0 - 1/(2 steps)
    - (t - L)/steps, output t = L + a*steps + i, where L = _LEAD outputs
    before and after the J*steps of the profile let the refine's fit read a
    bin beyond either end. Bluestein's n*t = (n^2 + t^2 - (t - n)^2)/2
    turns the sum over that grid into the first m = J*steps + 2L outputs of
    a linear convolution of the N pre-multiplied samples with the chirp
    kernel w^(-k^2), w = exp(2 pi i / (2 steps N)), over the lags k in
    (-N, m).

    The convolution is one circular convolution of S points, S the 5-smooth
    length (no prime factor above 5) at or above N + m - 1, so that none of
    the m outputs takes a wrapped-around term: one FFT of each frame's
    zero-padded samples, one product with the cached FFT of the kernel and
    one inverse FFT.

    Returns (pre, kernel_fft, m): the input pre-multiplier (conj(e1), the
    start-frequency phase, the input chirp and 1/sqrt(N)), the (S,) FFT of
    the kernel, and m. The output chirp w^(t^2) has unit modulus and is
    left out: the scores read magnitudes, and the refine's fit puts it back
    where it reads (:func:`_fit_tables`). The cached arrays are shared, so
    they are read-only.
    """
    n, steps, lead = grid.n, _COARSE_STEPS, _LEAD
    period = 2 * steps * n
    j = profile_bins(grid)
    m = j.size * steps + 2 * lead
    size = _smooth_length(n + m - 1)
    # every phase is reduced in integers before it is exponentiated: the
    # chirp index k^2 mod 2*steps*N and the start phase, the pilot offset
    # (pilot - j0)*n mod N less the 1/(2 steps) - L/steps start offset
    k = np.arange(max(m, n), dtype=np.int64)
    chirp = np.exp(2j * np.pi * (k * k % period) / period)
    offset = (layout.pilot_index - int(j[0])) * k[:n] % n
    offset = ((1 - 2 * lead) * k[:n] - 2 * steps * offset) % period
    e1, _ = _chirps(n, grid.c1, grid.c2)
    # pre is built and the kernel transformed in place, and the index arrays
    # are dropped before the kernel: with a 5-smooth S, length-N temporaries
    # weigh about as much as the length-S kernel
    start = 2j * np.pi * offset
    start /= period
    pre = np.conj(e1)
    pre *= chirp[:n]
    pre *= np.exp(start, out=start)
    pre /= np.sqrt(n)
    del k, offset, start
    # the kernel at the lags 0 .. m - 1, and at -(N-1) .. -1 laid out
    # circularly at the end; it is even in the lag, so one chirp table
    # serves both signs
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    del chirp
    kernel_fft = np.fft.fft(kernel, out=kernel)
    pre.flags.writeable = False
    kernel_fft.flags.writeable = False
    return pre, kernel_fft, m


def _coarse_scores(grid: AfdmGrid, layout: PilotLayout, r: np.ndarray):
    """PSPR of every coarse compensation candidate (i + 1/2)/steps of every
    row of an (F, N) stack r, with all readouts from one chirp-z transform
    (:func:`_coarse_czt`), as (candidates, (F, candidates) scores, work).
    work is the transform's (F, S) complex work array, output t at [f, t],
    without the output chirp; it lives in workspace slot 0."""
    pre, kernel_fft, m = _coarse_czt(grid, layout)
    spec = _scratch(0, (len(r), kernel_fft.size), complex)
    spec[:, grid.n :] = 0.0
    np.multiply(r, pre, out=spec[:, : grid.n])
    np.fft.fft(spec, out=spec)
    spec *= kernel_fft
    np.fft.ifft(spec, out=spec)
    # the profile's J*steps outputs after the lead
    mag = np.abs(spec[:, _LEAD : m - _LEAD], out=_scratch(1, (len(r), m - 2 * _LEAD)))
    mag = mag.reshape(len(r), -1, _COARSE_STEPS)
    # (F, bins, candidates) -> a profile over the bins per candidate
    p = _scratch(2, (len(r), _COARSE_STEPS, mag.shape[1]))
    np.copyto(p, mag.swapaxes(-1, -2))
    return _CANDIDATES, _pspr_rows(grid, p), spec


@dataclass(frozen=True)
class Estimate:
    """Joint channel estimate with its quality metadata.

    ``peak_index`` is the readout peak position on the equivalent-delay
    axis, stored modulo N (so a peak at k + C*l with k < 0, l = 0 shows up
    near N rather than as a negative number).

    A one-frame estimate holds Python scalars, a stack's one (F,) column
    per field; ``stack[i]`` is row i as a one-frame estimate, and
    ``list(stack)`` every row in order.
    """

    delay_int: int
    delay_frac: float
    doppler_int: int
    doppler_frac: float
    pspr: float
    peak_index: int
    flagged: bool

    @property
    def delay(self) -> float:
        return self.delay_int + self.delay_frac

    @property
    def doppler(self) -> float:
        return self.doppler_int + self.doppler_frac

    def __getitem__(self, i: int) -> Estimate:
        return Estimate(*[column.item(i) for column in vars(self).values()])


# a stack's coarse grid is scored, fitted and refined in blocks of rows
# whose chirp-z work arrays, S complex per row as kernel_fft, stay within
# this many bytes: 30 rows at N=256 and C=8 (S = 1080), 22 at C=12 (1458),
# 11 at C=26 (2880) and 6 at N=4096 (5000). With the temporaries in the
# workspace, on 30-row stacks at N=256, against 384 KiB, joint took
# 0.90-0.92, 1.00-1.01 and 0.98-0.99 of the time per frame at C = 8, 12
# and 26 (C=26 then at 8 rows of 4096 points), and 0.89 at N=4096; 256 KiB
# took 0.99, 1.04-1.07, 1.08 and 1.12-1.13, 1 MiB 0.83-0.88, 0.95-1.30,
# 0.97-1.02 and 0.83. 10-row stacks at N=4096 took 0.91 here and 0.77 at
# 1 MiB, but a sweep never forms them (its chunks hold 2 rows there, one
# block at any of these sizes). 40
# 30-row stacks at C = 8 and 12 peaked at 39.0-39.2 MiB RSS, 38.5-38.7 at
# 384 KiB (2 vCPU, interleaved calls, CPU time)
_SCORE_BLOCK_BYTES = 1 << 19


def _monomial_fit(nodes: np.ndarray) -> np.ndarray:
    """The (K, K) matrix that takes a polynomial's values at K integer
    nodes to its monomial coefficients, lowest power first. Column i holds
    the coefficients of node i's Lagrange basis polynomial, the product
    over the other nodes x of (s - x)/(node - x): its numerator (np.poly of
    the other nodes) and its denominator are integers, exact in floating
    point, so each entry is rounded once, in its division. Inverting the
    Vandermonde matrix instead erred by about 3e-13 of a peak."""
    fit = np.empty((nodes.size, nodes.size))
    for i, node in enumerate(nodes):
        others = np.delete(nodes, i)
        fit[:, i] = np.poly(others)[::-1] / np.prod(node - others)
    fit.flags.writeable = False
    return fit


_FIT = _monomial_fit(_NODES)

# the refine's probes, in coarse steps from the best cell: a first pass of
# 17 over +-1 step, 1/8 apart (1/128 in kappa), then 17 over +-1/8 step
# around the best of them, 1/64 apart (1/1024 in kappa). The second pass
# holds the best first probe and both its neighbours, so where the fitted
# PSPR has one maximum over the bracket, the best probe lies within 1/2048
# (4.9e-4) of it, on the 1/1024 lattice of kappa. _FINE_PROBES[i] are the
# second pass's probes after first probe i, and the powers are the probes'
# monomials: (17, K) for the first pass, (17, 17, K) for the second
_PROBES = np.linspace(-1.0, 1.0, 17)
_FINE_PROBES = _PROBES[:, None] + np.linspace(-0.125, 0.125, 17)
_PROBE_POWERS = _PROBES[:, None] ** np.arange(_NODES.size)
_FINE_POWERS = _FINE_PROBES[..., None] ** np.arange(_NODES.size)
for _table in (_PROBES, _FINE_PROBES, _PROBE_POWERS, _FINE_POWERS):
    _table.flags.writeable = False
del _table


@lru_cache(maxsize=8)
def _fit_tables(grid: AfdmGrid):
    """Cached per grid: where stage 1's refine reads the coarse chirp-z
    outputs, and the phase that makes them samples of a smooth function.

    With kappa = best + s/steps, best the center (c + 1/2)/steps of cell c,
    the readout at bin a of the profile is |Z(f_t)|/sqrt(N) at the output
    index t = L + a*steps + c + s of :func:`_coarse_czt`, s now real. Output
    t is Z(f_t)/sqrt(N) times exp(-2 pi i t^2/(2 steps N)), the output chirp
    the transform leaves in place. Multiplied by phase[t], which undoes
    that chirp and centers the sum with exp(-2 pi i t (N - 1)/(2 steps N)),
    it is g_a(s) at s = t - L - a*steps - c:

        g_a(s) = sum_n u_n exp(i w_n s) / sqrt(N),  |u_n| = |z[n]|,
        w_n = 2 pi (n - (N - 1)/2) / (steps N),  |w_n| < pi/steps,

    z the dechirped body, and |g_a(s)| is the readout. The polynomial
    through K nodes s = -(K-1)/2 .. (K-1)/2 errs, for |s| <= 9/8 (the
    refine's reach), by at most max|prod_x (s - x)| / K! * max|g_a^(K)|,
    that is the node polynomial's maximum times (pi/steps)^K/K! times
    sum|z|/sqrt(N), which bounds every readout. That bound sizes steps and K
    together: at 16 steps the 15 nodes -7 .. 7 leave 8.4e6/15! *
    (pi/16)^15 = 1.6e-16 of it, rounding; 13 would leave 1.8e-14, and at 8
    steps rounding takes 23. So the chirp-z computes 16 outputs per bin,
    and the refine scores a frame at a probe in O(15 J), whatever N is.
    The nodes are outputs already computed for every bin a = -1 .. J, one
    beyond each end of the profile: t runs from L - steps - 7 = 0 to
    L + J*steps + steps + 6 = m - 1.

    Returns (nodes, phase): nodes the (K, 1, J+2) outputs t of the nodes of
    every bin a = -1 .. J around cell 0, t = L + a*steps + s, so that cell
    c's are nodes + c, and phase the phase of every output t,
    exp(2 pi i t (t - N + 1)/(2 steps N)), t(t - N + 1) reduced mod
    2 steps N in integers. Output t sits at position t of a frame's row of
    the work array. The cached arrays are shared, so they are read-only.
    """
    n, steps = grid.n, _COARSE_STEPS
    j = profile_bins(grid).size
    t = np.arange(j * steps + 2 * _LEAD, dtype=np.int64)
    period = 2 * steps * n
    phase = np.exp(2j * np.pi * (t * (t - n + 1) % period) / period)
    nodes = _LEAD + _NODES[:, None, None] + np.arange(-1, j + 1) * steps
    nodes.flags.writeable = False
    phase.flags.writeable = False
    return nodes, phase


def _best_cells(grid: AfdmGrid, layout: PilotLayout, r: np.ndarray):
    """Stage 1's coarse search of an (F, N) stack r, as (best, coef): the
    center of each frame's best coarse cell, and the (K, F, J+2) monomial
    coefficients, in s = steps*(kappa - best), of each frame's complex
    readout near it (:func:`_fit_tables`) at the J profile bins and one
    beyond each end. They are fitted while the chirp-z outputs are at
    hand: one gather of the nodes, node-major, and one real product with
    the fit's matrix, real and imaginary parts side by side. coef lives in
    workspace slot 0, until the next block of stage 1 in this thread."""
    cand, scores, work = _coarse_scores(grid, layout, r)
    cell = np.argmax(scores, axis=-1)
    nodes, phase = _fit_tables(grid)
    shape = (_NODES.size, len(r), nodes.shape[-1])
    # every take is in range, and mode "clip" lets it write to out unbuffered
    t = np.add(nodes, cell[:, None], out=_scratch(2, shape, np.int64))
    rows = np.arange(0, work.size, work.shape[-1])[:, None]
    at = np.add(t, rows, out=_scratch(3, shape, np.int64))
    values = np.take(work, at, out=_scratch(1, shape, complex), mode="clip")
    values *= np.take(phase, t, out=_scratch(3, shape, complex), mode="clip")
    real = values.view(np.float64).reshape(_NODES.size, -1)
    coef = np.matmul(_FIT, real, out=_scratch(0, real.shape))
    return cand[cell], coef.view(complex).reshape(shape)


def _refine(grid: AfdmGrid, best: np.ndarray, coef: np.ndarray):
    """Stage 1's compensations in [0, 1) and their readouts, from
    :func:`_best_cells`' (best, coef), as (kappa, p).

    Every frame's fitted readout is scored at the _PROBES around its best
    cell by one product with the coefficients (taken as reals, real and
    imaginary parts side by side), a magnitude and the stacked PSPR, then
    at the _FINE_PROBES around its best probe by one product with a gather
    of _FINE_POWERS; each pass takes the first of equal scores. The PSPR
    scores the profile of the unwrapped compensation k_u = best + s/steps,
    which may leave [0, 1) by up to 9/128. The best fine probe gives
    kappa = k_u - floor(k_u), and p is the fit there: compensating k less
    moves the readout k bins along the profile, so row f reads its fitted
    bins a - floor(k_u), a = 0 .. J-1, one of them beyond the profile's
    end where k_u wraps. It reads no frame, and one form serves any stack
    height.
    """
    nodes, frames, width = coef.shape
    probes = len(_PROBES)
    real = coef.view(np.float64)
    # each pass's product in workspace slot 1 and its profiles, the
    # magnitudes but the bin beyond each end, in slot 2; the second pass
    # takes all magnitudes there, for p, and copies its profiles to slot 3
    fitted = np.matmul(
        _PROBE_POWERS, real.reshape(nodes, -1), out=_scratch(1, (probes, 2 * frames * width))
    ).view(complex)
    profiles = fitted.reshape(probes, frames, width)[..., 1:-1]
    profiles = np.abs(profiles, out=_scratch(2, profiles.shape))
    first = _pspr_rows(grid, profiles).argmax(axis=0)
    fitted = np.matmul(
        _FINE_POWERS[first], real.swapaxes(0, 1), out=_scratch(1, (frames, probes, 2 * width))
    ).view(complex)
    fitted = np.abs(fitted, out=_scratch(2, fitted.shape))
    profiles = _scratch(3, (frames, probes, width - 2))
    np.copyto(profiles, fitted[..., 1:-1])
    second = _pspr_rows(grid, profiles).argmax(axis=-1)
    kappa = best + _FINE_PROBES[first, second] / _COARSE_STEPS
    shift = np.floor(kappa).astype(np.int64)
    rows = np.arange(len(kappa))[:, None]
    bins = (1 - shift)[:, None] + np.arange(coef.shape[-1] - 2)
    return kappa % 1.0, fitted[rows, second[:, None], bins]


def estimate_doppler_frac(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Fractional Doppler of a frame body, or of every row of an (F, N)
    stack of them, by closed-loop PSPR search (stage 1).

    Chirp-z transforms (:func:`_coarse_czt`) score every frame's
    coarse grid of candidate compensations over [0, 1), a block of rows at
    a time (_SCORE_BLOCK_BYTES bounds a block's work array), and fit each
    frame's readout near its best cell (:func:`_best_cells`); two dense
    passes over the block's fits then refine every best cell at once and
    read each frame's readout from its fit (:func:`_refine`). The refine
    searches only the best cell's basin, one coarse step either side, so
    where another cell's basin holds a higher PSPR that scored lower on the
    coarse grid, the compensation is that basin's maximum, not the global
    one. The stack is read once, by the chirp-z. The PSPR objective is
    evaluated on the pilot readout region only. Returns (kappa, p): the
    compensation and the (J,) pilot readout magnitudes over profile_bins
    with it compensated, for a frame a float and for a stack (F,) and
    (F, J) arrays. Raises ValueError as :func:`_check_frames` does.
    """
    stack = _check_frames(grid, r, layout)
    # near-equal blocks of at least one row, each within _SCORE_BLOCK_BYTES
    rows = max(1, _SCORE_BLOCK_BYTES // _coarse_czt(grid, layout)[1].nbytes)
    count = -(-len(stack) // rows)
    edges = [len(stack) * i // count for i in range(count + 1)]
    refined = [
        _refine(grid, *_best_cells(grid, layout, stack[a:b])) for a, b in zip(edges, edges[1:])
    ]
    kappa, p = refined[0] if count == 1 else (np.concatenate(a) for a in zip(*refined))
    return (kappa.item(0), p[0]) if np.ndim(r) == 1 else (kappa, p)


@lru_cache(maxsize=8)
def _decode_table(grid: AfdmGrid):
    """Cached per grid: stage 2's integer split of every peak position, and
    the offsets of the one gather that reads what stages 2 and 3 need.

    Returns (offsets, split). offsets are -C, 0 and +C (the comb taps before,
    at and after a peak) and then the C bins of the PSPR window around it.
    split holds four arrays indexed by the peak's position in the profile
    array (a peak lies in the decodeable range): the peak index js mod N,
    doppler_int, delay_round and flagged. The peak at js = k + C*l splits
    with l = round(js/C), half to even, and k = js - C*l the centered
    residue; flagged marks |k| > k_max, an integer Doppler outside the
    search box. The decode flags nothing else: the decodeable range, js
    from -floor(C/2) to C*l_max + C - floor(C/2) - 1, rounds to l in
    [0, l_max] (the gate's bracket may still fall below it, which
    :func:`joint_estimate` flags).
    The cached arrays are shared, so they are read-only.
    """
    c, half = grid.n_seg, grid.n_seg // 2
    js = profile_bins(grid)
    l_round = np.round(js / c).astype(np.int64)
    k = js - c * l_round
    flagged = np.abs(k) > grid.k_max
    offsets = np.concatenate([[-c, 0, c], np.arange(-half, c - half)])
    split = (js % grid.n, k, l_round, flagged)
    for a in (offsets, *split):
        a.flags.writeable = False
    return offsets, split


def _decode(grid: AfdmGrid, p: np.ndarray):
    """Stage 2 of every profile of an (F, J) stack, as (split, score, taps).

    split is _decode_table's (peak_index, doppler_int, delay_round, flagged)
    at each profile's :func:`_peak`, as arrays; score is the pspr of each
    profile at its peak, the PSPR an estimate reports; taps are the (F, 3)
    comb taps one period before, at and after each peak, which the gate
    reads. One gather reads the taps and the PSPR windows of all rows.
    """
    offsets, split = _decode_table(grid)
    pos, at = _windows(grid, p, offsets)
    return [a[pos] for a in split], _window_pspr(at[:, 3:]), at[:, :3]


# the later tap's share of a bracket below which that tap counts as lost in
# the noise and the delay as integer: a (1 - iota) : iota reading 3 dB
# above the one at iota = 0.01
_INTEGER_SHARE = 1.0 / (1.0 + 99.0 * 10.0**0.3)


def _gate(delay_round: np.ndarray, taps: np.ndarray):
    """Stage 3 of every row, from the (F, 3) comb taps before, at and after
    each peak (:func:`_decode`): (delay_floor, iota), the delay estimate
    being delay_floor + iota.

    Picks the delay bracket by comparing the taps one comb period either
    side of the peak, and reads iota as the later tap's share of the
    bracket's two taps, clamped to [0.01, 0.99]; a share below
    _INTEGER_SHARE reads as 0. A peak towering over its late tap (a late
    share below the cut) means the delay is integer at the peak itself;
    that is decided before the early tap is consulted, which in this regime
    is a numerical-noise null that would tip the bracket arbitrarily. Taps
    are floored at 1e-300, so a row of zero taps reads 1/2.
    """
    before, at, after = np.maximum(taps, 1e-300).T
    late = after / (at + after)
    early = (taps[:, 0] > taps[:, 2]) & (late >= _INTEGER_SHARE)
    share = np.where(early, at / (before + at), late)
    iota = np.where(share < _INTEGER_SHARE, 0.0, share.clip(0.01, 0.99))
    return delay_round - early, iota


def _finish(frame: bool, p: np.ndarray, *columns: np.ndarray) -> Estimate:
    # the Estimate of the (F, J) profiles p from its (F,) columns, of their
    # Python scalars for a frame; a row of p all zero (nothing received) is
    # written flagged, zero elsewhere
    signal = p.any(axis=-1)
    # all() of a list: a stack with no empty row takes no further numpy call
    if not all(signal.tolist()):
        empty = ~signal
        for column in columns:
            column[empty] = 0
        columns[-1][empty] = True
    if frame:
        return Estimate(*[column.item(0) for column in columns])
    return Estimate(*columns)


def joint_estimate(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> Estimate:
    """Full three-stage estimate from a received frame body (prefix
    stripped), or of every row of an (F, N) stack of them, as an Estimate of
    (F,) columns whose row i is the Estimate of row i alone.

    Stage 1 is :func:`estimate_doppler_frac`; the integer decode
    (:func:`_decode`) and the gate (:func:`_gate`) then run over all rows at
    once. A row is flagged when its integer Doppler lies outside +-k_max or
    its gated delay below 0. A row whose pilot readout is all zero (nothing
    received) carries no estimate: it reads flagged, with zero in every
    other field. Raises ValueError as :func:`_check_frames` does.
    """
    kappa, p = estimate_doppler_frac(grid, r, layout)
    # a frame's as a stack of one's
    kappa, p = np.atleast_1d(kappa), np.atleast_2d(p)
    (peak_index, k, l_round, flagged), score, taps = _decode(grid, p)
    floor, iota = _gate(l_round, taps)
    flagged = flagged | (floor < 0)
    return _finish(np.ndim(r) == 1, p, floor, iota, k, kappa, score, peak_index, flagged)
