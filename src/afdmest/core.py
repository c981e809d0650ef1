"""AFDM grid definition and the discrete affine Fourier transform (DAFT).

The waveform is a set of N chirp subcarriers. Subcarrier m modulated onto
sample n carries the phase 2*pi*(c1*n^2 + c2*m^2 + n*m/N); c1 is tied to the
Doppler budget of the link (see :class:`AfdmGrid`), c2 is a free quadratic
spreading term. Modulation and demodulation are unitary.

The transform is computed as a chirp multiply, an N-point FFT and a second
chirp multiply (U = diag(e1) . IDFT . diag(e2)), in O(N log N) time and
O(N) memory; the two chirp vectors are cached per grid. No N x N matrix
is formed.

The transform and the prefix functions take one frame, shape (N,) (or
(N + n_prefix,) with the prefix), or a stack of frames along a leading
axis, shape (F, N); each row of a stack comes out bit for bit as that row
alone would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AfdmGrid",
    "daft_modulate",
    "daft_demodulate",
    "add_prefix",
    "strip_prefix",
]


@dataclass(frozen=True)
class AfdmGrid:
    """Frame geometry and chirp parameters for one AFDM configuration.

    Building one runs ``validate``, so no consumer checks a grid again.

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
        Sweep-slope margin: C = 2*k_max + doppler_pad. It must be at least
        1, so that C covers the 2*k_max + 1 integer Doppler bins and a
        readout peak at k + C*l splits into one (l, k) pair, and C at least
        2, so that a PSPR window holds a sidelobe. Kept as a knob because
        fractional Doppler leaks outside the integer bins.
    c2 : float
        Quadratic phase coefficient on the subcarrier index. Any irrational
        value decorrelates data symbols; sqrt(2) by default.
    n_prefix : int
        Chirp-periodic prefix length in samples. Must cover the worst-case
        channel memory (integer delay plus FIR tap half-width), and be no
        longer than the frame, whose tail it repeats.
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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("n", "k_max", "l_max", "doppler_pad", "n_prefix"):
            _check_integer(name, getattr(self, name))
        # the chirp phases reduce c2*m^2 to a fraction of a cycle, which no
        # NaN or infinity has
        if not np.isfinite(self.c2):
            raise ValueError("c2 must be finite")
        if self.n < 8:
            raise ValueError("frame length too small")
        if self.k_max < 0 or self.l_max < 0:
            raise ValueError("negative search box")
        # i.e. doppler_pad >= 1 (see the class docstring)
        if self.n_seg <= 2 * self.k_max:
            raise ValueError("every C must exceed 2*k_max")
        # a one-bin PSPR window holds only its peak, so at C = 1 every
        # compensation scores +inf and stage 1 cannot tell them apart
        if self.n_seg < 2:
            raise ValueError("C must be at least 2")
        if 2 * self.guard_width >= self.n:
            raise ValueError("guard band swallows the whole frame")
        # the estimator reads C*(l_max + 3) transform bins around the pilot;
        # more than N of them would read some bins twice
        if self.n_seg * (self.l_max + 3) > self.n:
            raise ValueError("pilot readout longer than the frame")
        if self.n_prefix < self.l_max:
            raise ValueError("prefix shorter than the largest delay")
        # the prefix repeats the frame's tail, so it holds at most N samples:
        # for a longer one add_prefix prepended fewer samples than n_prefix
        if self.n_prefix > self.n:
            raise ValueError("prefix longer than the frame")


def _check_integer(name: str, value) -> None:
    # operator.index admits ints and numpy integers, and refuses floats
    # (256.0 too), which would otherwise fail deep inside an estimator
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _frac_quad_cycles(coef: float, idx: np.ndarray) -> np.ndarray:
    """Fractional part of coef*idx**2, in cycles.

    Forming the raw product first would cost its ulp (~1e-11 cycles at
    N=256, where c2*m^2 reaches 9e4) and cap the transform's unitarity
    near 1e-10. Splitting the coefficient into a head of 26 fractional bits
    and a small tail keeps the head product exact in doubles for idx^2 up
    to 2^26 (N up to 8192), so the reduction loses nothing. Past that the
    head keeps 52 - b fractional bits, b the bit length of the largest
    idx^2, so its product stays exact (a fixed 26 would lose up to 3e-8
    cycles at N=16384).
    """
    sq = np.asarray(idx, dtype=np.float64) ** 2
    shift = min(26, 52 - int(sq.max()).bit_length())
    hi = np.float64(round(coef * (1 << shift))) / (1 << shift)
    lo = coef - hi
    return np.mod(np.mod(hi * sq, 1.0) + lo * sq, 1.0)


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


def _check_shape(grid: AfdmGrid, a: np.ndarray, prefix: int = 0) -> None:
    # one frame of N samples, N + prefix where it carries a prefix, or a
    # stack of them along a leading axis
    n = grid.n + prefix
    if a.ndim not in (1, 2) or a.shape[-1] != n:
        raise ValueError(f"frame must have shape ({n},) or (F, {n}), got {a.shape}")


def daft_modulate(grid: AfdmGrid, x: np.ndarray) -> np.ndarray:
    """Map DAFT-domain symbols x to time samples s = U @ x, for one frame
    of shape (N,) or each row of an (F, N) stack.

    U[n, m] is the m-th chirp at sample n; the product is formed as
    diag(e1) . (inverse DFT) . diag(e2) with the unitary scaling.
    """
    x = np.asarray(x, dtype=complex)
    _check_shape(grid, x)
    e1, e2 = _chirps(grid.n, grid.c1, grid.c2)
    return e1 * np.fft.ifft(e2 * x) * np.sqrt(grid.n)


def daft_demodulate(grid: AfdmGrid, r: np.ndarray) -> np.ndarray:
    """Invert :func:`daft_modulate`: y = U^H @ r, for one frame or each row
    of a stack."""
    r = np.asarray(r, dtype=complex)
    _check_shape(grid, r)
    e1, e2 = _chirps(grid.n, grid.c1, grid.c2)
    return np.conj(e2) * np.fft.fft(np.conj(e1) * r) / np.sqrt(grid.n)


def _train_sign(grid: AfdmGrid, wrap_count) -> np.ndarray:
    # The modulated frame extends to an infinite chirp train that repeats
    # every N samples up to a sign: sample n0 + j*N equals the frame body at
    # n0 times (-1)^(C*N*j), since c1*((n0 + j*N)^2 - n0^2) is C*N*j^2/2 plus
    # an integer number of cycles. For the usual even C*N this is just +1.
    return np.where(np.asarray(wrap_count) * (grid.n_seg * grid.n) % 2 == 0, 1.0, -1.0)


def add_prefix(grid: AfdmGrid, s: np.ndarray) -> np.ndarray:
    """Prepend the chirp-periodic prefix.

    The prefix sample at position n (counting n = -n_prefix .. -1) is the
    tail sample s[N + n] one period back on the chirp train, that is times
    the train sign (-1)^(C*N), which keeps the chirp phase progression
    continuous across the frame start. When C*N is even this is a plain
    cyclic prefix. Takes one frame or an (F, N) stack; raises ValueError
    for any other shape.
    """
    _check_shape(grid, s)
    n, ncp = grid.n, grid.n_prefix
    return np.concatenate([s[..., n - ncp :] * _train_sign(grid, -1), s], axis=-1)


def strip_prefix(grid: AfdmGrid, s_cp: np.ndarray) -> np.ndarray:
    """Drop the prefix samples, returning the N-sample frame body (a view;
    for an (F, N + n_prefix) stack, the (F, N) bodies). Raises ValueError
    for any other shape."""
    _check_shape(grid, s_cp, grid.n_prefix)
    return s_cp[..., grid.n_prefix :]
