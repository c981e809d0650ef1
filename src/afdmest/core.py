"""AFDM grid definition and the discrete affine Fourier transform (DAFT).

The waveform is a set of N chirp subcarriers. Subcarrier m modulated onto
sample n carries the phase 2*pi*(c1*n^2 + c2*m^2 + n*m/N); c1 is tied to the
Doppler budget of the link (see :class:`AfdmGrid`), c2 is a free quadratic
spreading term. Modulation and demodulation are unitary.

The transform is computed as a chirp multiply, an N-point FFT and a second
chirp multiply (U = diag(e1) . IDFT . diag(e2)), in O(N log N) time and
O(N) memory; the two chirp vectors are cached per grid. :func:`region_rows`
builds only the few inverse-transform rows the estimator reads, from the
same chirp factors. No N x N matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AfdmGrid",
    "daft_modulate",
    "daft_demodulate",
    "region_rows",
    "add_prefix",
    "strip_prefix",
]


@dataclass(frozen=True)
class AfdmGrid:
    """Frame geometry and chirp parameters for one AFDM configuration.

    Parameters
    ----------
    n : int
        Subcarrier / sample count per frame.
    k_max : int
        Largest integer Doppler (in subcarrier spacings) the link budget
        allows. Sets the chirp slope together with ``doppler_pad``.
    l_max : int
        Largest integer delay (in samples) the receiver searches.
    doppler_pad : int
        Extra sweep-slope margin on top of the 2*k_max+1 Doppler bins, kept
        as a knob because fractional Doppler leaks outside the integer bins.
    c2 : float
        Quadratic phase coefficient on the subcarrier index. Any irrational
        value decorrelates data symbols; sqrt(2) by default.
    n_prefix : int
        Chirp-periodic prefix length in samples. Must cover the worst-case
        channel memory (integer delay plus FIR tap half-width).
    """

    n: int = 256
    k_max: int = 3
    l_max: int = 3
    doppler_pad: int = 2
    c2: float = float(np.sqrt(2.0))
    n_prefix: int = 36

    @property
    def n_seg(self) -> int:
        """Number of frequency sweep segments C = 2*k_max + doppler_pad.

        Each subcarrier's instantaneous frequency ramps through the full
        band this many times per frame, wrapping at each segment boundary.
        """
        return 2 * self.k_max + self.doppler_pad

    @property
    def c1(self) -> float:
        """First chirp coefficient, n_seg / (2*n)."""
        return self.n_seg / (2.0 * self.n)

    @property
    def guard_width(self) -> int:
        """Half-width Q of the pilot guard band in the DAFT domain.

        The composite response of a path inside the search box peaks
        k + C*l bins below the pilot, so the guard band must scale with
        the segment count: Q = C*l_max + k_max. Anything narrower lets
        data symbols sit inside the decode band once C grows past the
        2*k_max minimum.
        """
        return self.n_seg * self.l_max + self.k_max

    def validate(self) -> None:
        if self.n < 8:
            raise ValueError("frame length too small")
        if self.k_max < 0 or self.l_max < 0:
            raise ValueError("negative search box")
        if self.n_seg < 1:
            raise ValueError("need at least one sweep segment")
        if self.n_seg >= self.n:
            raise ValueError("segment count must be far below frame length")
        if 2 * self.guard_width >= self.n:
            raise ValueError("guard band swallows the whole frame")
        # the estimator reads C*(l_max + 3) transform bins around the pilot;
        # more than N of them would read some bins twice
        if self.n_seg * (self.l_max + 3) > self.n:
            raise ValueError("pilot readout longer than the frame")
        if self.n_prefix < self.l_max:
            raise ValueError("prefix shorter than the largest delay")


def _frac_quad_cycles(coef: float, idx: np.ndarray) -> np.ndarray:
    """Fractional part of coef*idx**2, in cycles.

    Forming the raw product first would cost its ulp (~1e-11 cycles at
    N=256, where c2*m^2 reaches 9e4) and cap the transform's unitarity
    near 1e-10. Splitting the coefficient into a 27-bit head and a small
    tail keeps the head product exact in doubles for idx^2 up to 2^26
    (N up to 8192), so the reduction loses nothing.
    """
    sq = np.asarray(idx, dtype=np.float64) ** 2
    hi = np.float64(round(coef * (1 << 26))) / (1 << 26)
    lo = coef - hi
    return np.mod(np.mod(hi * sq, 1.0) + lo * sq, 1.0)


def _chirp_columns(n: int, c1: float, c2: float, carriers: np.ndarray) -> np.ndarray:
    # columns `carriers` of U, shape (n, carriers.size), each element formed
    # directly from its phase
    idx = np.arange(n)
    f1 = _frac_quad_cycles(c1, idx)
    f2 = _frac_quad_cycles(c2, carriers)
    cross = (np.outer(idx, carriers) % n) / n
    ph = f1[:, None] + f2[None, :] + cross
    return np.exp(2j * np.pi * ph) / np.sqrt(n)


@lru_cache(maxsize=8)
def _chirps(n: int, c1: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    # the chirp factors e1 = exp(2 pi i c1 n^2) and e2 = exp(2 pi i c2 m^2)
    # of U, built once per grid; the cached arrays are shared, so they are
    # made read-only
    idx = np.arange(n)
    e1 = np.exp(2j * np.pi * _frac_quad_cycles(c1, idx))
    e2 = np.exp(2j * np.pi * _frac_quad_cycles(c2, idx))
    e1.flags.writeable = False
    e2.flags.writeable = False
    return e1, e2


def daft_modulate(grid: AfdmGrid, x: np.ndarray) -> np.ndarray:
    """Map DAFT-domain symbols x to time samples s = U @ x.

    U[n, m] is the m-th chirp at sample n; the product is formed as
    diag(e1) . (inverse DFT) . diag(e2) with the unitary scaling.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (grid.n,):
        raise ValueError(f"frame must have shape ({grid.n},)")
    e1, e2 = _chirps(grid.n, grid.c1, grid.c2)
    return e1 * np.fft.ifft(e2 * x) * np.sqrt(grid.n)


def daft_demodulate(grid: AfdmGrid, r: np.ndarray) -> np.ndarray:
    """Invert :func:`daft_modulate`: y = U^H @ r."""
    r = np.asarray(r, dtype=complex)
    if r.shape != (grid.n,):
        raise ValueError(f"frame must have shape ({grid.n},)")
    e1, e2 = _chirps(grid.n, grid.c1, grid.c2)
    return np.conj(e2) * np.fft.fft(np.conj(e1) * r) / np.sqrt(grid.n)


def region_rows(grid: AfdmGrid, bins: np.ndarray) -> np.ndarray:
    """Rows ``bins`` of the inverse transform U^H, shape (len(bins), N).

    ``region_rows(grid, bins) @ r`` is ``daft_demodulate(grid, r)[bins]``.
    The rows come from the chirp factors in O(len(bins) * N) time and
    memory, each element formed directly as conj(U[n, m]) for m in
    ``bins``, so no N x N matrix is formed.
    """
    bins = np.asarray(bins, dtype=np.int64) % grid.n
    return np.ascontiguousarray(np.conj(_chirp_columns(grid.n, grid.c1, grid.c2, bins)).T)


def add_prefix(grid: AfdmGrid, s: np.ndarray) -> np.ndarray:
    """Prepend the chirp-periodic prefix.

    The prefix sample at position n (counting n = -n_prefix .. -1) is the
    tail sample s[N + n] rotated by exp(-i*2*pi*c1*(N^2 + 2*N*n)), which
    keeps the chirp phase progression continuous across the frame start.
    When C*N is even the rotation is exactly 1 and this degenerates to a
    plain cyclic prefix.
    """
    n = grid.n
    ncp = grid.n_prefix
    tail_n = np.arange(-ncp, 0)
    # reduce to fractional cycles before exponentiating; for the rational
    # c1 = C/(2N) the cycle count is a half-integer and the reduction makes
    # the rotation exact instead of exp() of a huge argument
    cycles = np.mod(grid.c1 * (n**2 + 2 * n * tail_n), 1.0)
    rot = np.exp(-2j * np.pi * cycles)
    return np.concatenate([s[n + tail_n] * rot, s])


def strip_prefix(grid: AfdmGrid, s_cp: np.ndarray) -> np.ndarray:
    """Drop the prefix samples, returning the N-sample frame body."""
    if s_cp.shape != (grid.n + grid.n_prefix,):
        raise ValueError("frame does not carry the expected prefix")
    return s_cp[grid.n_prefix :]
