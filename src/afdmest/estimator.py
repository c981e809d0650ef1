"""Pilot frame construction and the joint fractional delay/Doppler estimator.

Estimation runs in three stages on a received frame:

1. fractional Doppler: a scalar search over the compensation phase that
   maximizes the peak-to-sidelobe power ratio (PSPR) of the pilot region
   readout. The readout at bin b with kappa compensated is
   |Z(b - kappa)|/sqrt(N), Z the DTFT of the dechirped frame body, so the
   coarse candidates times the readout bins form one uniform frequency
   grid. One cached Bluestein chirp-z transform (two FFTs) scores that grid
   in one pass, then a vectorised PSPR covers all candidates.
   Golden-section refinement of the best cell follows, one candidate at a
   time, each a pruned DFT of the body: with N = P*M and P the smallest
   divisor of N at or above the J readout bins, the dechirped body is read
   as M rows of P, the compensation phasor is folded into their P-point
   FFTs and the readout bins are summed over the rows, in O(N log P + N)
   time with O(N) tables built once per grid and pilot position. Only the
   pilot region of the transform output is ever computed.

2. integer decode: the peak (first largest bin of the decodeable range) of
   the compensated readout sits on a comb with spacing C; its position
   splits into an integer delay and an integer Doppler by rounding.

3. fractional delay: the ratio in dB of the two comb taps bracketing the
   true delay is a monotone function of the delay fraction (see
   effective.elg_theory); reading it off the profile and inverting the
   curve gives the fraction, and picks the bracket's lower integer as the
   delay floor.

Every estimator checks its frame through one helper and picks the readout
peak through another, so all see the same bin. integer_only reads the
demodulated frame's pilot bins; every other readout is the pruned DFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import AfdmGrid, _chirps
from .effective import elg_invert

__all__ = [
    "PilotLayout",
    "Estimate",
    "build_pilot_frame",
    "profile_bins",
    "readout_bins",
    "read_profile",
    "pspr",
    "integer_estimate",
    "estimate_doppler_frac",
    "estimate_delay_frac",
    "joint_estimate",
]


@dataclass(frozen=True)
class PilotLayout:
    """Single embedded pilot with a zero guard band on both sides.

    The pilot sits at ``pilot_index`` with amplitude 10^(ep_ei_db/20), i.e.
    ``ep_ei_db`` is the pilot-to-data energy ratio per symbol in dB. The
    guard width comes from the grid (enough slots to keep data sidelobes
    out of the pilot readout region), data fills the rest with unit-energy
    QPSK.
    """

    pilot_index: int = 0
    ep_ei_db: float = 10.0

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


def build_pilot_frame(
    grid: AfdmGrid, layout: PilotLayout, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Transform-domain frame: pilot, zero guards, QPSK data.

    With no rng the data slots stay zero (pilot-only frame, useful for
    calibration runs). Raises ValueError for a pilot index outside [0, N).
    """
    layout.validate(grid)
    x = np.zeros(grid.n, dtype=complex)
    x[layout.pilot_index] = layout.pilot_amplitude
    if rng is not None:
        slots = layout.data_slots(grid)
        bits = rng.integers(0, 2, size=(slots.size, 2))
        x[slots] = ((2 * bits[:, 0] - 1) + 1j * (2 * bits[:, 1] - 1)) / np.sqrt(2.0)
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


def read_profile(grid: AfdmGrid, y: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """Pilot readout: p[j] = |y[(pilot_index - j) mod N]| over profile_bins.

    Positive j walks toward larger equivalent delay; the channel peak for
    integer delay l and Doppler k appears at j = k + C*l.
    """
    return np.abs(y[readout_bins(grid, layout)])


def pspr(p: np.ndarray, peak_pos: int, c: int) -> float:
    """Peak-to-sidelobe power ratio inside one comb period around the peak.

    Ratio of the peak power to the mean power of the C-sample window
    centered on the peak, peak excluded but counted in the normalization
    (a flat profile scores C/(C-1), a lone spike +inf).
    """
    half = c // 2
    # the peak power is taken from the squared window itself: squaring the
    # scalar separately may round differently by one ulp, and a one-bin
    # window (C = 1) would then score about 1e16 instead of +inf
    sq = p[peak_pos - half : peak_pos + (c - half)] ** 2
    denom = (np.sum(sq) - sq[half]) / c
    if denom <= 0.0:
        return np.inf
    return float(sq[half] / denom)


def _check_frame(grid: AfdmGrid, r: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """The input check of every estimator, before any table is built: raises
    ValueError for an invalid grid, a pilot index outside [0, N), a frame
    not of shape (N,) or one with non-finite samples. Returns r as an array."""
    grid.validate()
    layout.validate(grid)
    r = np.asarray(r)
    if r.shape != (grid.n,):
        raise ValueError(f"received frame must have shape ({grid.n},), got {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("received frame has non-finite samples")
    return r


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
    """Pilot readout of the frame body r, as read(kappa): the magnitudes over
    profile_bins with a fractional Doppler kappa compensated.

    The dechirp is applied once per frame; each read folds the compensation
    phasor exp(2 pi i kappa n / N), factored over the (P, M) split of
    :func:`_pruned_dft`, into P-point FFTs of the M rows, so it costs
    O(N log P + N) with O(N) tables.
    """
    pre, tw, rates, cols = _pruned_dft(grid, layout)
    m, p = pre.shape
    z = np.multiply(r.reshape(p, m).T, pre, order="C")
    # every read reuses one work array: at large N a fresh (M, P) array per
    # read costs as much as the transform
    y = np.empty_like(z)

    def read(kappa: float) -> np.ndarray:
        ab = np.exp(rates * kappa)
        np.multiply(z, ab[:p], out=y)
        np.fft.fft(y, axis=-1, out=y)
        np.multiply(y, tw, out=y)
        return np.abs((ab[p:] @ y)[cols])

    return read


def _inner_slice(grid: AfdmGrid) -> slice:
    # positions of the decodeable peak range inside the profile array
    # (strips the one-comb-period margin on each side)
    return slice(grid.n_seg, -grid.n_seg)


def _peak(grid: AfdmGrid, p: np.ndarray):
    # position in the profile array of the first largest bin of the
    # decodeable range; for a (profiles, bins) stack, one per row
    inner = _inner_slice(grid)
    return inner.start + np.argmax(p[..., inner], axis=-1)


def _pspr_rows(grid: AfdmGrid, p: np.ndarray) -> np.ndarray:
    """pspr of every row of a (candidates, bins) profile matrix, each taken
    at its row's :func:`_peak`, with the window and the denom <= 0 -> inf
    rule of :func:`pspr` (the window sum may associate differently, in the
    last bit)."""
    c, half = grid.n_seg, grid.n_seg // 2
    pos = _peak(grid, p)
    window = np.take_along_axis(p, pos[:, None] + np.arange(-half, c - half), axis=1)
    peak = p[np.arange(p.shape[0]), pos]
    denom = (np.sum(window**2, axis=1) - peak**2) / c
    out = np.full(p.shape[0], np.inf)
    ok = denom > 0.0
    out[ok] = peak[ok] ** 2 / denom[ok]
    return out


def _smooth_length(target: int) -> int:
    # smallest 2^a 3^b 5^c at or above target: numpy's FFT runs such lengths
    # about as fast as powers of two, and they pad far less
    best = 1 << (target - 1).bit_length()
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
    grid into one linear convolution, with the chirp
    w^(k^2) = exp(2 pi i k^2 / (2 steps N)), zero-padded to the smallest
    5-smooth length (no prime factor above 5) at or above N + J*steps - 1.
    Returns (pre, kernel_fft, m): the input pre-multiplier (conj(e1), the
    start-frequency phase, the input chirp and 1/sqrt(N)), the FFT of the
    kernel w^(-k^2), and the output count m = J*steps. The output chirp
    w^(t^2) has unit modulus and is left out, as only magnitudes are read.
    The cached arrays are shared, so they are read-only.
    """
    n, period = grid.n, 2 * steps * grid.n
    j = profile_bins(grid)
    m = j.size * steps
    size = _smooth_length(n + m - 1)
    # every phase is reduced in integers before it is exponentiated: the
    # chirp index k^2 mod 2*steps*N and the pilot offset (pilot - j0)*n mod
    # N; the 1/(2 steps) start offset adds n/(2 steps N) < 1/(2 steps)
    k = np.arange(max(m, n), dtype=np.int64)
    chirp = np.exp(2j * np.pi * (k * k % period) / period)
    offset = (layout.pilot_index - int(j[0])) * k[:n] % n
    e1, _ = _chirps(n, grid.c1, grid.c2)
    # pre is built and the kernel transformed in place, and the index arrays
    # are dropped before the kernel: with a 5-smooth L, length-N temporaries
    # weigh about as much as the length-L kernel
    start = 2j * np.pi * (k[:n] - 2 * steps * offset)
    start /= period
    pre = np.conj(e1)
    pre *= chirp[:n]
    pre *= np.exp(start, out=start)
    pre /= np.sqrt(n)
    del k, offset, start
    # the kernel w^(-k^2) at the lags t - n in (-N, m), laid out circularly;
    # it is even in the lag, so one table serves both signs
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    kernel_fft = np.fft.fft(kernel, out=kernel)
    pre.flags.writeable = False
    kernel_fft.flags.writeable = False
    return pre, kernel_fft, m


def _coarse_scores(grid: AfdmGrid, layout: PilotLayout, r: np.ndarray, steps: int):
    """PSPR of every coarse compensation candidate (i + 1/2)/steps, as
    (candidates, scores), with all readouts from one chirp-z transform."""
    pre, kernel_fft, m = _coarse_czt(grid, layout, steps)
    spec = np.zeros(kernel_fft.size, dtype=complex)
    np.multiply(r, pre, out=spec[: grid.n])
    np.fft.fft(spec, out=spec)
    spec *= kernel_fft
    np.fft.ifft(spec, out=spec)
    p = np.abs(spec[:m]).reshape(-1, steps).T
    return (np.arange(steps) + 0.5) / steps, _pspr_rows(grid, p)


def integer_estimate(
    grid: AfdmGrid, p: np.ndarray
) -> tuple[int, int, int, bool]:
    """Decode the profile peak into integer delay and Doppler.

    Returns (peak_js, doppler_int, delay_round, flagged): the peak offset on
    the j axis, its split js = k + C*l with k the nearest centered residue,
    and a flag when the split lands outside the designed search ranges.
    """
    c = grid.n_seg
    js = int(profile_bins(grid)[_peak(grid, p)])
    l_round = int(np.round(js / c))
    k = js - c * l_round
    flagged = abs(k) > grid.k_max or not (0 <= l_round <= grid.l_max)
    return js, k, l_round, flagged


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


def _golden_max(f, a: float, b: float, tol: float) -> float:
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def estimate_doppler_frac(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> tuple[float, float, np.ndarray]:
    """Fractional Doppler by closed-loop PSPR maximization.

    Scores all candidate compensations of a coarse grid over [0, 1) at
    once, then golden-section refines the best cell. Returns (kappa_hat,
    pspr_at_opt, profile_at_opt), the last being the pilot readout
    magnitudes over profile_bins with kappa_hat compensated. The PSPR
    objective is evaluated on the pilot readout region only. Raises
    ValueError as :func:`_check_frame` does.
    """
    r = _check_frame(grid, r, layout)

    def score(p: np.ndarray) -> float:
        return pspr(p, int(_peak(grid, p)), grid.n_seg)

    cand, scores = _coarse_scores(grid, layout, r, _COARSE_STEPS)
    best = int(np.argmax(scores))
    lo = cand[best] - 1.0 / _COARSE_STEPS
    hi = cand[best] + 1.0 / _COARSE_STEPS
    read = _readout(grid, r, layout)
    kappa = _golden_max(lambda k: score(read(k)), lo, hi, _REFINE_TOL)
    kappa = float(kappa % 1.0)
    p = read(kappa)
    return kappa, score(p), p


def estimate_delay_frac(
    grid: AfdmGrid, p: np.ndarray, peak_pos: int, l_round: int
) -> tuple[int, float, float]:
    """Fractional delay from the early/late comb taps around the peak.

    Picks the delay bracket by comparing the taps one comb period either
    side of the peak, forms the early-minus-late ratio in dB, and inverts
    the theoretical discriminator. Returns (delay_floor, iota_hat, a_db)
    where the full delay estimate is delay_floor + iota_hat.
    """
    c = grid.n_seg
    tiny = 1e-300
    # Peak towering over the late tap means the delay is integer at the
    # peak itself; decide that before consulting the early tap, which in
    # this regime is a numerical-noise null that would tip the bracket
    # arbitrarily.
    a_right = 10.0 * (np.log10(max(p[peak_pos], tiny)) - np.log10(max(p[peak_pos + c], tiny)))
    if elg_invert(a_right) == 0.0:
        return l_round, 0.0, a_right
    if p[peak_pos - c] > p[peak_pos + c]:
        early, floor = peak_pos - c, l_round - 1
    else:
        early, floor = peak_pos, l_round
    a_db = 10.0 * (np.log10(max(p[early], tiny)) - np.log10(max(p[early + c], tiny)))
    return floor, elg_invert(a_db), a_db


def joint_estimate(
    grid: AfdmGrid,
    r: np.ndarray,
    layout: PilotLayout,
) -> Estimate:
    """Full three-stage estimate from a received frame body (prefix stripped).

    Raises ValueError as :func:`_check_frame` does (its first stage checks
    the frame). A frame whose pilot readout is all zero (nothing received)
    carries no estimate: it comes back flagged, with zero in every field.
    """
    kappa, score, p = estimate_doppler_frac(grid, r, layout)
    if not np.any(p):
        return _NO_ESTIMATE
    js, k, l_round, flagged = integer_estimate(grid, p)
    floor, iota, _ = estimate_delay_frac(grid, p, int(_peak(grid, p)), l_round)
    return Estimate(
        delay_int=floor,
        delay_frac=iota,
        doppler_int=k,
        doppler_frac=kappa,
        pspr=score,
        peak_index=js % grid.n,
        flagged=flagged,
    )
