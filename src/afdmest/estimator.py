"""Pilot frame construction and the joint fractional delay/Doppler estimator.

Every estimator has one body, over an (F, N) stack of frames that share
grid and layout, and gives each row the Estimate it would give that row
alone. A single frame is a stack of one: ``joint_estimate`` checks the
shape of its frame and returns ``joint_estimate_rows`` of the frame as a
one-row stack. Estimation runs in three stages:

1. fractional Doppler (``estimate_doppler_frac``): a scalar search over
   the compensation phase that maximizes the peak-to-sidelobe power ratio
   (PSPR) of the pilot region readout. The readout at bin b with kappa
   compensated is |Z(b - kappa)|/sqrt(N), Z the DTFT of the dechirped frame
   body, so the coarse candidates times the readout bins form one uniform
   frequency grid. One cached chirp-z transform, over a block of a stack's
   rows at once, scores that grid in one pass, then a vectorised PSPR
   covers all candidates. Its Bluestein convolution runs by overlap-save:
   one FFT of each frame at block length S, the smaller of the 5-smooth
   lengths at or above 4N and at or above the single-block length, then
   one product and one inverse FFT per block of S - N + 1 outputs (one
   block, the single long convolution, at N=4096). Golden-section
   refinement of each frame's best cell follows, the frames of a stack
   stepping together: each step reads every frame at its own probe with
   one pruned DFT of the stack. With N = P*M and P the smallest divisor of
   N at or above the J readout bins, each dechirped body is read as M rows
   of P, the compensation phasor is folded into their P-point FFTs and the
   readout bins are summed over the rows, in O(N log P + N) time per frame
   with O(N) tables built once per grid and pilot position. Only the pilot
   region of the transform output is ever computed. The per-step scorer is
   the one piece with two forms, chosen from the stack height: a one-row
   stack is read with a vector-matrix product and scored with ``pspr``, a
   taller one with a batched product and the stacked PSPR. On one frame the
   stacked forms cost about twice as much per step, in numpy call overhead,
   and the two give the same bits.

2. integer decode: the peak (first largest bin of the decodeable range) of
   the compensated readout sits on a comb with spacing C; its position
   splits into an integer delay and an integer Doppler by rounding. The
   split of every peak position, its flag and the peak index are one table
   per grid (``_decode_table``), so the rounding and the box rule are
   written once, where the table is built. Every decodeable peak rounds to
   a delay in [0, l_max], so ``flagged`` marks an integer Doppler outside
   +-k_max.

3. fractional delay: under the envelope the two comb taps bracketing the
   true delay stand as (1 - iota) : iota (see effective.elg_theory), so the
   later tap's share of the pair is the delay fraction itself. The gate
   picks the bracket, reads that share, and takes the bracket's lower
   integer as the delay floor.

Stages 2 and 3 run over all rows at once with array operations: one
argmax per row, one gather of every row's PSPR window and its two comb
taps, the table lookup, and the gate's shares as arrays. The PSPR an
estimate reports is the one that gather gives.

Every estimator checks its frames through one helper and decodes the
readout through another, so all see the same bin. integer_only reads the
demodulated frame's pilot bins; every other readout is the pruned DFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import AfdmGrid, _check_integer, _chirps

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
    "joint_estimate_rows",
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
    x = np.zeros(grid.n, dtype=complex)
    x[layout.pilot_index] = layout.pilot_amplitude
    if rng is not None:
        slots = _data_slots(grid, layout)
        bits = rng.integers(0, 2, size=(slots.size, 2))
        x[slots] = _QPSK[2 * bits[:, 0] + bits[:, 1]]
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
    for a pilot index outside [0, N).
    """
    return np.abs(y.take(_pilot_bins(grid, layout), axis=-1))


def pspr(p: np.ndarray, peak_pos: int, c: int) -> float:
    """Peak-to-sidelobe power ratio inside one comb period around the peak.

    Ratio of the peak power to the mean power of the C-sample window
    centered on the peak, peak excluded but counted in the normalization
    (a flat profile scores C/(C-1), a lone spike +inf).
    """
    half = c // 2
    # the peak power is taken from the squared window itself (squaring the
    # scalar separately may round differently by one ulp), then zeroed in it
    # so the sidelobes are summed directly: the window sum minus the peak
    # power would cancel, and err by about eps*PSPR/C relative
    sq = p[peak_pos - half : peak_pos + (c - half)] ** 2
    peak = sq[half]
    sq[half] = 0.0
    denom = np.sum(sq) / c
    if denom <= 0.0:
        return np.inf
    return float(peak / denom)


def _check_frames(grid: AfdmGrid, r: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """The input check of every estimator, before any table is built.

    r is an (F, N) stack of frames (a single frame comes as a stack of one,
    see :func:`_one_frame`). Raises ValueError for a pilot index outside
    [0, N), an r that is not 2-D, holds no frame or has rows not of N
    samples, or a non-finite sample in any row (a grid checks itself when
    built). Returns r as an array.
    """
    layout.validate(grid)
    r = np.asarray(r)
    if r.ndim != 2:
        raise ValueError(f"a frame stack must be 2-D, (frames, {grid.n}), got shape {r.shape}")
    if r.shape[1] != grid.n:
        raise ValueError(f"frames of the stack must have {grid.n} samples, got shape {r.shape}")
    if r.shape[0] == 0:
        raise ValueError("the frame stack holds no frames")
    if not np.isfinite(r).all():
        bad = np.argmin(np.isfinite(r).all(axis=1))
        raise ValueError(f"frame {bad} of the stack has non-finite samples")
    return r


def _one_frame(grid: AfdmGrid, r: np.ndarray) -> np.ndarray:
    # a one-frame entry point's frame as a stack of one, which the stacked
    # body then checks as it checks any stack; raises ValueError for a
    # frame not of shape (N,)
    r = np.asarray(r)
    if r.shape != (grid.n,):
        raise ValueError(f"received frame must have shape ({grid.n},), got {r.shape}")
    return r[None]


@lru_cache(maxsize=8)
def _pruned_dft(grid: AfdmGrid, layout: PilotLayout):
    """Cached tables of the pruned DFT that reads the pilot region.

    P is the smallest divisor of N at or above the readout length J (a prime
    N gives P = N, one full FFT). With N = P*M and n = q*M + m (q < P,
    m < M), the readout at bin b of the
    dechirped body with kappa compensated is
    sum_m exp(2 pi i kappa m/N) tw[m, b mod P] * FFT_q(z[m, q] exp(2 pi i
    kappa q/P))[b mod P], where z[m, q] = r[qM + m] conj(e1[qM + m])/sqrt(N)
    and tw[m, b mod P] = exp(-2 pi i (b m mod N)/N). The J readout bins are
    contiguous and J <= P, so their residues mod P are distinct. Returns
    (pre, tw, rates, cols): the (M, P) dechirp, the (M, P) twiddle table
    (zero off the readout columns), the P + M phase rates 2 pi i q/P and
    2 pi i m/N, and the readout columns b mod P in profile_bins order. The
    cached arrays are shared, so they are read-only.
    """
    n = grid.n
    bins = readout_bins(grid, layout)
    p = next(d for d in range(bins.size, n + 1) if n % d == 0)
    m = n // p
    e1, _ = _chirps(n, grid.c1, grid.c2)
    pre = np.conj(e1.reshape(p, m).T, order="C")
    pre /= np.sqrt(n)
    cols = bins % p
    tw = np.zeros((m, p), dtype=complex)
    # b*m reduced mod N in integers before it is exponentiated
    tw[:, cols] = np.exp(-2j * np.pi * (np.multiply.outer(np.arange(m), bins) % n) / n)
    rates = 2j * np.pi * np.concatenate([np.arange(p) / p, np.arange(m) / n])
    for a in (pre, tw, rates, cols):
        a.flags.writeable = False
    return pre, tw, rates, cols


def _readout(grid: AfdmGrid, r: np.ndarray, layout: PilotLayout):
    """Pilot readout of an (F, N) stack of frame bodies, as (read, score).
    read(kappa) takes F compensations, one per row, and returns the (F, J)
    magnitudes over profile_bins, row f with kappa[f] compensated.
    score(kappa) takes them as a sequence and returns the PSPR of each row's
    readout at its :func:`_peak`.

    The dechirp is applied once per frame; each read folds the compensation
    phasor exp(2 pi i kappa n / N), factored over the (P, M) split of
    :func:`_pruned_dft`, into P-point FFTs of the M rows, so it costs
    O(N log P + N) per frame with O(N) tables.

    score is stage 1's per-step scorer, and the one piece with two forms:
    a one-row stack is read with a vector-matrix product and scored with
    :func:`pspr`, a taller one with read and :func:`_pspr_rows`. On one
    frame the stacked forms cost about twice as much per step, in numpy
    call overhead; the two give the same bits.
    """
    pre, tw, rates, cols = _pruned_dft(grid, layout)
    m, p = pre.shape
    z = np.multiply(r.reshape(len(r), p, m).swapaxes(-1, -2), pre, order="C")
    # every read reuses one work array: at large N a fresh (M, P) array per
    # read costs as much as the transform
    y = np.empty_like(z)

    def read(kappa: np.ndarray) -> np.ndarray:
        ab = np.exp(rates * kappa[:, None])
        np.multiply(z, ab[:, None, :p], out=y)
        np.fft.fft(y, axis=-1, out=y)
        np.multiply(y, tw, out=y)
        return np.abs((ab[:, None, p:] @ y)[:, 0, cols])

    if len(r) > 1:
        return read, lambda kappa: _pspr_rows(grid, read(np.array(kappa)))
    z1, y1 = z[0], y[0]

    def score_one(kappa) -> tuple:
        (k,) = kappa
        ab = np.exp(rates * k)
        np.multiply(z1, ab[:p], out=y1)
        np.fft.fft(y1, axis=-1, out=y1)
        np.multiply(y1, tw, out=y1)
        profile = np.abs((ab[p:] @ y1)[cols])
        return (pspr(profile, int(_peak(grid, profile)), grid.n_seg),)

    return read, score_one


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
    profile around its peak (the peak at C // 2), with the zeroed peak and
    the denom <= 0 -> inf rule of :func:`pspr`, so each score has the bits
    pspr gives that profile at that peak."""
    sq = window**2
    c = sq.shape[-1]
    peak = sq[..., c // 2].copy()
    sq[..., c // 2] = 0.0
    denom = sq.sum(axis=-1) / c
    return np.divide(peak, denom, out=np.full(denom.shape, np.inf), where=denom > 0.0)


def _pspr_rows(grid: AfdmGrid, p: np.ndarray) -> np.ndarray:
    """pspr of every profile of a (..., profiles, bins) stack, each taken at
    its profile's :func:`_peak`, with the bits pspr gives that profile."""
    c, half = grid.n_seg, grid.n_seg // 2
    pos = _peak(grid, p)[..., None]
    return _window_pspr(np.take_along_axis(p, pos + np.arange(-half, c - half), axis=-1))


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


@lru_cache(maxsize=8)
def _coarse_czt(grid: AfdmGrid, layout: PilotLayout, steps: int):
    """Cached factors of the chirp-z transform that scores the coarse grid.

    The readout at bin b with kappa compensated is |Z(b - kappa)|/sqrt(N),
    where Z(f) = sum_n z[n] exp(-2 pi i n f / N) is the DTFT of the
    dechirped body z = conj(e1)*r. The J readout bins b = pilot - j0 - a
    (a = 0 .. J-1, j0 the first of profile_bins) step down by one and the
    candidates are (i + 1/2)/steps, so every (candidate, bin) pair lies on
    the one grid f_t = pilot - j0 - 1/(2 steps) - t/steps, t = a*steps + i.
    Bluestein's n*t = (n^2 + t^2 - (t - n)^2)/2 turns the sum over that
    grid into the first m = J*steps outputs of a linear convolution of the
    N pre-multiplied samples with the chirp kernel w^(-k^2),
    w = exp(2 pi i / (2 steps N)), over the lags k in (-N, m).

    The convolution is computed by overlap-save in blocks of S points, S
    the smaller of the 5-smooth lengths (no prime factor above 5) at or
    above 4N and at or above N + m - 1: each block gives S - N + 1 outputs
    from one product with the FFT of its kernel block and one inverse FFT,
    and all blocks share one FFT of the zero-padded samples. Where the
    length for N + m - 1 is the shorter (always when m <= 3N + 1, as at
    N=4096 and C=8), that is one block: the single long Bluestein
    convolution, with its bits. At N=256 it is 4 blocks of 1024 points
    instead of one of 3375 at C=8, 6 instead of 5000 at C=12 and 13 instead
    of 10240 at C=26, and the coarse stage took 26%, 31% and 41% less time
    on one frame, 16%, 13% and 21% less per frame of a 30-frame stack
    (2 vCPU, interleaved rounds).

    Returns (pre, kernel_fft, m): the input pre-multiplier (conj(e1), the
    start-frequency phase, the input chirp and 1/sqrt(N)), the (blocks, S)
    FFTs of the kernel blocks, and m. The output chirp w^(t^2) has unit
    modulus and is left out, as only magnitudes are read. The cached
    arrays are shared, so they are read-only.
    """
    n, period = grid.n, 2 * steps * grid.n
    j = profile_bins(grid)
    m = j.size * steps
    size = min(_smooth_length(4 * n), _smooth_length(n + m - 1))
    out = size - n + 1
    blocks = -(-m // out)
    # every phase is reduced in integers before it is exponentiated: the
    # chirp index k^2 mod 2*steps*N and the pilot offset (pilot - j0)*n mod
    # N; the 1/(2 steps) start offset adds n/(2 steps N) < 1/(2 steps)
    k = np.arange(max(m, n), dtype=np.int64)
    chirp = np.exp(2j * np.pi * (k * k % period) / period)
    offset = (layout.pilot_index - int(j[0])) * k[:n] % n
    e1, _ = _chirps(n, grid.c1, grid.c2)
    # pre is built and the kernel transformed in place, and the index arrays
    # are dropped before the kernel: with a 5-smooth S, length-N temporaries
    # weigh about as much as a length-S kernel block
    start = 2j * np.pi * (k[:n] - 2 * steps * offset)
    start /= period
    pre = np.conj(e1)
    pre *= chirp[:n]
    pre *= np.exp(start, out=start)
    pre /= np.sqrt(n)
    del k, offset, start
    # the kernel at the lags -(N-1) .. blocks*out - 1, zero from m on; it is
    # even in the lag, so one chirp table serves both signs
    lags = np.zeros(n - 1 + blocks * out, dtype=complex)
    lags[n - 1 : n - 1 + m] = np.conj(chirp[:m])
    lags[: n - 1] = np.conj(chirp[n - 1 : 0 : -1])
    del chirp
    # block b covers the lags b*out - (N-1) .. b*out + out - 1, laid out
    # circularly with lag b*out first
    kernel = np.roll(sliding_window_view(lags, size)[::out], 1 - n, axis=-1)
    del lags
    kernel_fft = np.fft.fft(kernel, axis=-1, out=kernel)
    pre.flags.writeable = False
    kernel_fft.flags.writeable = False
    return pre, kernel_fft, m


def _coarse_scores(grid: AfdmGrid, layout: PilotLayout, r: np.ndarray, steps: int):
    """PSPR of every coarse compensation candidate (i + 1/2)/steps of every
    row of an (F, N) stack r, as (candidates, (F, candidates) scores), with
    all readouts from one blocked chirp-z transform (:func:`_coarse_czt`)."""
    pre, kernel_fft, m = _coarse_czt(grid, layout, steps)
    blocks, size = kernel_fft.shape
    # one (F, blocks, S) work array: the samples are transformed in block 0,
    # whose own product is taken last, in place
    spec = np.zeros((len(r), blocks, size), dtype=complex)
    head = spec[:, :1]
    np.multiply(r[:, None], pre, out=head[..., : grid.n])
    np.fft.fft(head, out=head)
    np.multiply(head, kernel_fft[1:], out=spec[:, 1:])
    head *= kernel_fft[:1]
    np.fft.ifft(spec, out=spec)
    # the first S - N + 1 outputs of each block, in order, are the m outputs
    mag = np.abs(spec[..., : size - grid.n + 1]).reshape(len(r), -1)[:, :m]
    # (F, bins, candidates) -> a profile over the bins per candidate
    p = mag.reshape(len(r), -1, steps).swapaxes(-1, -2)
    return (np.arange(steps) + 0.5) / steps, _pspr_rows(grid, p)


# fractional Doppler search: coarse cells over [0, 1), golden refine width
_COARSE_STEPS = 64
_REFINE_TOL = 1e-3


@dataclass(frozen=True)
class Estimate:
    """Joint channel estimate with its quality metadata.

    ``peak_index`` is the readout peak position on the equivalent-delay
    axis, stored modulo N (so a peak at k + C*l with k < 0, l = 0 shows up
    near N rather than as a negative number).
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


# what a frame whose pilot readout is all zero (nothing received) yields:
# no estimate, flagged, zero in every field
_NO_ESTIMATE = Estimate(
    delay_int=0,
    delay_frac=0.0,
    doppler_int=0,
    doppler_frac=0.0,
    pspr=0.0,
    peak_index=0,
    flagged=True,
)


def _golden_max(a: float, b: float, tol: float):
    """Golden-section search for a maximum on [a, b], as a generator: it
    yields each probe, is sent that probe's score, and returns the midpoint
    of its first bracket narrower than tol."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = yield c
    fd = yield d
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = yield d
    return (a + b) / 2.0


# a stack's coarse grid is scored in blocks of rows whose chirp-z work
# arrays, (blocks, S) complex per row as kernel_fft, stay within this many
# bytes: 8 rows at N=256 and C=8, 5 at C=12. On the 30-row stacks of a
# sweep at N=256, 1 MiB peaked 0.3 MiB higher and ran no faster, 256 KiB
# ran 6% slower; the single long convolution's rows had peaked 2.9 MiB
# higher with one block per stack and run 4-8% slower
_SCORE_BLOCK_BYTES = 1 << 19


def _best_cells(grid: AfdmGrid, layout: PilotLayout, r: np.ndarray) -> np.ndarray:
    # the center of the best coarse cell of each frame of an (F, N) stack
    cand, scores = _coarse_scores(grid, layout, r, _COARSE_STEPS)
    return cand[np.argmax(scores, axis=-1)]


def _refine(best: np.ndarray, score) -> list:
    """Stage 1's compensations in [0, 1): the coarse cells centered on best,
    one per frame, golden-section refined. The refines step together:
    score(probes) takes every frame's probe, in frame order, and returns
    their scores. Every bracket starts 2/_COARSE_STEPS wide, so all take
    the same steps; a search done early is probed again at its last point,
    its score unused."""
    searches = [
        _golden_max(k - 1.0 / _COARSE_STEPS, k + 1.0 / _COARSE_STEPS, _REFINE_TOL)
        for k in best
    ]
    probes = [next(search) for search in searches]
    kappa = [None] * len(searches)
    left = len(searches)
    while left:
        for i, f in enumerate(score(probes)):
            if kappa[i] is None:
                try:
                    probes[i] = searches[i].send(f)
                except StopIteration as done:
                    kappa[i] = done.value % 1.0
                    left -= 1
    return kappa


def estimate_doppler_frac(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> tuple[np.ndarray, np.ndarray]:
    """Fractional Doppler of every row of an (F, N) stack of frame bodies,
    by closed-loop PSPR maximization (stage 1).

    Blocked chirp-z transforms (:func:`_coarse_czt`) score every frame's
    coarse grid of candidate compensations over [0, 1), a block of rows at
    a time (_SCORE_BLOCK_BYTES bounds a block's work array); the golden refines of
    the frames' best cells then step together, one readout of the stack per
    step. The PSPR objective is evaluated on the pilot readout region only.
    Returns (kappa, p): the F compensations and the (F, J) pilot readout
    magnitudes over profile_bins, row f with kappa[f] compensated. Raises
    ValueError as :func:`_check_frames` does.
    """
    r = _check_frames(grid, r, layout)
    # near-equal blocks of at least one row, each within _SCORE_BLOCK_BYTES
    rows = max(1, _SCORE_BLOCK_BYTES // _coarse_czt(grid, layout, _COARSE_STEPS)[1].nbytes)
    count = -(-len(r) // rows)
    edges = [len(r) * i // count for i in range(count + 1)]
    best = np.concatenate([_best_cells(grid, layout, r[a:b]) for a, b in zip(edges, edges[1:])])
    # the readout's work arrays are made after the chirp-z transforms have
    # run: made before them, they slowed a frame by a fifth at N=4096
    read, score = _readout(grid, r, layout)
    kappa = np.array(_refine(best, score))
    return kappa, read(kappa)


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
    search box. It is the only flag: the decodeable range, js from
    -floor(C/2) to C*l_max + C - floor(C/2) - 1, rounds to l in [0, l_max].
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
    pos = _peak(grid, p)
    at = p[np.arange(len(p))[:, None], pos[:, None] + offsets]
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


def _estimates(p: np.ndarray, fields) -> list[Estimate]:
    # one Estimate per profile of the (F, J) stack p from per-row arrays of
    # its fields, in Estimate's field order; an all-zero profile (nothing
    # received) gives _NO_ESTIMATE
    rows = zip(*[f.tolist() for f in fields])
    signal = p.any(axis=-1).tolist()
    return [Estimate(*row) if s else _NO_ESTIMATE for s, row in zip(signal, rows)]


def joint_estimate(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> Estimate:
    """Full three-stage estimate from a received frame body (prefix stripped):
    :func:`joint_estimate_rows` of the frame as a stack of one.

    Raises ValueError for a frame not of shape (N,), and as
    :func:`_check_frames` does. A frame whose pilot readout is all zero
    (nothing received) carries no estimate: it comes back flagged, with
    zero in every field.
    """
    return joint_estimate_rows(grid, _one_frame(grid, r), layout)[0]


def joint_estimate_rows(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> list[Estimate]:
    """The three-stage estimate of every row of an (F, N) stack of frame
    bodies, as a list in row order, each the Estimate of that row alone.

    Stage 1 is :func:`estimate_doppler_frac`; the integer decode
    (:func:`_decode`) and the gate (:func:`_gate`) then run over all rows at
    once. An all-zero row gives the flagged no-estimate. Raises ValueError
    as :func:`_check_frames` does.
    """
    kappa, p = estimate_doppler_frac(grid, r, layout)
    (peak_index, k, l_round, flagged), score, taps = _decode(grid, p)
    floor, iota = _gate(l_round, taps)
    return _estimates(p, (floor, iota, k, kappa, score, peak_index, flagged))
