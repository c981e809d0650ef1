"""Line-of-sight channel with fractional delay and Doppler, plus the
continuous-time oracle used to validate the discrete FIR model.

Two channel implementations live here on purpose:

* :func:`apply_los_channel` is the production model: a windowed-sinc FIR
  applies the fractional part of the delay on the receiver sample grid,
  the integer part is a shift, Doppler is a per-sample phasor, noise is
  AWGN. This is what Monte Carlo runs use. It takes one prefixed frame or
  a stack of them along a leading axis, shape (F, N + n_prefix), all
  through the one channel; each row comes out bit for bit as that row
  alone would.

* :func:`oversampled_oracle` evaluates the delayed transmit waveform from
  its continuous-time description, per-segment frequency wraps included,
  at the N source instants n - delay, for any real delay. It has no
  tap-count compromise and is the FIR model's reference.

The FIR taps are complex. The chirp subcarriers sweep the band one-sided
(instantaneous frequency runs 0..1 cycles/sample in every segment), so the
interpolator is centered on that band: h[i] = exp(i*pi*(i-f)) * sinc(i-f)
windowed. A real-coefficient sinc would center on DC, split the one-sided
spectrum at the wrap, and mangle half the signal energy; see the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AfdmGrid, _train_sign

__all__ = [
    "FIR_HALF_WIDTH",
    "LosChannel",
    "fir_taps",
    "apply_los_channel",
    "awgn",
    "oversampled_oracle",
]

# FIR half-width every sweep and check uses; with the integer delay it sets
# the prefix the channel needs (l + FIR_HALF_WIDTH samples)
FIR_HALF_WIDTH = 16


@dataclass(frozen=True)
class LosChannel:
    """Single-path channel: gain, normalized delay, normalized Doppler, noise.

    ``delay`` is in sample intervals, ``doppler`` in subcarrier spacings.
    Integer and fractional parts follow the floor convention: the integer
    Doppler may be negative, both fractional parts live in [0, 1).
    """

    gain: complex = 1.0 + 0j
    delay: float = 0.0
    doppler: float = 0.0
    noise_var: float = 0.0

    def __post_init__(self):
        for name in ("gain", "delay", "doppler", "noise_var"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.delay < 0:
            raise ValueError("negative delay")
        if self.noise_var < 0:
            raise ValueError("negative noise variance")

    @property
    def delay_int(self) -> int:
        return int(np.floor(self.delay))

    @property
    def delay_frac(self) -> float:
        return self.delay - np.floor(self.delay)

    @property
    def doppler_int(self) -> int:
        return int(np.floor(self.doppler))

    @property
    def doppler_frac(self) -> float:
        return self.doppler - np.floor(self.doppler)


def fir_taps(delay_frac: float, half_width: int = FIR_HALF_WIDTH) -> np.ndarray:
    """Fractional-delay interpolator taps over i = -half_width..half_width.

    Windowed sinc, raised-cosine window, modulated to the center of the
    one-sided chirp band and normalized to unit energy. For delay_frac = 0
    the taps reduce exactly to a unit impulse.
    """
    if half_width < 4:
        raise ValueError("tap half-width below 4 is not supported")
    i = np.arange(-half_width, half_width + 1)
    win = 0.5 + 0.5 * np.cos(np.pi * i / (half_width + 1))
    h = np.sinc(i - delay_frac) * win * np.exp(1j * np.pi * (i - delay_frac))
    return h / np.linalg.norm(h)


def apply_los_channel(
    grid: AfdmGrid,
    s_prefixed: np.ndarray,
    ch: LosChannel,
    half_width: int = FIR_HALF_WIDTH,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pass a prefixed frame, or each row of an (F, N + n_prefix) stack,
    through the LOS channel; returns prefixed frames of the same shape.

    output[p] = gain * sum_i taps[i] * s[p - l - i] * exp(-i*2*pi*K*p/N) + w[p]

    with p counted from the first post-prefix sample (so the prefix occupies
    p = -n_prefix .. -1) and K the full normalized Doppler. The source
    samples s[-n_prefix - l - half_width .. N - l + half_width - 1] are
    gathered once, those past either end of the prefixed frame from the
    periodic chirp-train extension of the frame body; each tap then adds
    its shifted slice of that run, taps in order. The noise of a stack is
    one :func:`awgn` draw over the whole stack.
    """
    n, ncp = grid.n, grid.n_prefix
    if s_prefixed.ndim not in (1, 2) or s_prefixed.shape[-1] != n + ncp:
        raise ValueError("expected a prefixed frame")
    l = ch.delay_int
    if l + half_width > ncp:
        raise ValueError("channel memory exceeds the prefix")

    taps = fir_taps(ch.delay_frac, half_width)
    # non-causal taps peek past both frame edges; those samples come from
    # the periodic chirp-train extension of the frame body
    src = np.arange(-ncp - l - half_width, n - l + half_width)
    ext = np.empty(s_prefixed.shape[:-1] + src.shape, dtype=complex)
    inside = (src >= -ncp) & (src < n)
    ext[..., inside] = s_prefixed[..., src[inside] + ncp]
    outside = ~inside
    ext[..., outside] = s_prefixed[..., ncp + src[outside] % n] * _train_sign(
        grid, src[outside] // n
    )
    p = np.arange(-ncp, n)
    out = np.zeros(s_prefixed.shape, dtype=complex)
    for tap, i in zip(taps, range(-half_width, half_width + 1)):
        # source sample p - l - i sits at ext[p + ncp + half_width - i]
        out += tap * ext[..., half_width - i : half_width - i + n + ncp]
    out *= ch.gain * np.exp(-2j * np.pi * ch.doppler * p / n)
    if ch.noise_var > 0:
        if rng is None:
            raise ValueError("noise requested without an rng")
        out = awgn(out, ch.noise_var, rng)
    return out


def awgn(s: np.ndarray, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise of the given per-sample variance."""
    if not np.isfinite(noise_var):
        raise ValueError("noise_var must be finite")
    if noise_var < 0:
        raise ValueError("negative noise variance")
    if noise_var == 0:
        return s.copy()
    return s + _noise(s.shape, noise_var, rng)


def _noise(shape, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    # the samples awgn adds to an array of this shape; a caller that draws
    # them frame by frame gets what awgn on each frame in turn would add
    scale = np.sqrt(noise_var / 2.0)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * w


def oversampled_oracle(grid: AfdmGrid, x: np.ndarray, ch: LosChannel) -> np.ndarray:
    """Reference channel output from the continuous-time waveform.

    Evaluates s(t) directly from the segment-wise chirp description: within
    segment q the subcarrier-m phase is c2*m^2 + c1*t^2 + m*t/N - q*t (the
    constant per-segment offset is an exact integer number of cycles and
    drops out), with q = floor((m + C*t)/N) the wrap count at the continuous
    instant t. s(t) is taken on the periodic extension of the chirp train
    at the N source instants t = n - delay, for any real delay, and Doppler
    is the continuous phasor. O(N^2) time and memory. Noise-free by design:
    raises ValueError for a channel with ``noise_var > 0`` rather than
    return a noise-free output for it. Returns the frame body (no prefix).
    """
    n, c = grid.n, grid.n_seg
    if x.shape != (n,):
        raise ValueError(f"frame must have shape ({n},)")
    if ch.noise_var > 0:
        raise ValueError("the oracle is noise-free; pass a channel with noise_var = 0")
    # the source instants, and where each falls in the period of n samples
    src = np.arange(n) - ch.delay
    wrap = np.floor(src / n)
    t = src - wrap * n
    m = np.arange(n)[:, None]
    # wrap count of subcarrier m at instant t; t < N and m < N keep it <= C
    q = np.floor((c * t[None, :] + m) / n)
    phase = grid.c2 * m**2 + grid.c1 * t[None, :] ** 2 + m * t[None, :] / n - q * t[None, :]
    s = (np.asarray(x, dtype=complex)[:, None] * np.exp(2j * np.pi * phase)).sum(axis=0)
    s /= np.sqrt(n)

    # Chirp-train continuation between samples: one period back the waveform
    # is s(t)*exp(-i*2*pi*C*t) times the integer-position train sign (the
    # wrap count rides the instantaneous frequency, so the factor is unity
    # at integer t only). This is exactly the prefix rule off the sample grid.
    r = s * _train_sign(grid, wrap.astype(np.int64))
    r = r * np.exp(2j * np.pi * c * wrap * t)
    r = r * np.exp(-2j * np.pi * ch.doppler * np.arange(n) / n)
    return ch.gain * r
