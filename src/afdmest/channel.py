"""Line-of-sight channel with fractional delay and Doppler, plus the
continuous-time oracle used to validate the discrete FIR model.

Two channel implementations live here on purpose:

* :func:`apply_los_channel` is the production model: a windowed-sinc FIR
  applies the fractional part of the delay on the receiver sample grid,
  the integer part is a shift, Doppler is a per-sample phasor, noise is
  AWGN. This is what Monte Carlo runs use.

* :func:`oversampled_oracle` synthesizes the transmit waveform on a grid
  O times finer directly from its continuous-time description, including
  the per-segment frequency wrap terms, delays it there, and decimates.
  It has no tap-count compromise and serves as the reference the FIR
  model is measured against.

The FIR taps are complex. The chirp subcarriers sweep the band one-sided
(instantaneous frequency runs 0..1 cycles/sample in every segment), so the
interpolator is centered on that band: h[i] = exp(i*pi*(i-f)) * sinc(i-f)
windowed. A real-coefficient sinc would center on DC, split the one-sided
spectrum at the wrap, and mangle half the signal energy; see the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AfdmGrid

__all__ = [
    "LosChannel",
    "fir_taps",
    "apply_los_channel",
    "awgn",
    "oversampled_oracle",
]


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


def fir_taps(delay_frac: float, half_width: int = 16) -> np.ndarray:
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


def _train_sign(grid: AfdmGrid, wrap_count: np.ndarray) -> np.ndarray:
    # The modulated frame extends to an infinite chirp train that repeats
    # every N samples up to a sign: sample n0 + j*N equals the frame body
    # at n0 times (-1)^(C*N*j). For the usual even C*N this is just +1.
    if (grid.n_seg * grid.n) % 2 == 0:
        return np.ones_like(wrap_count, dtype=float)
    return np.where(wrap_count % 2 == 0, 1.0, -1.0)


def apply_los_channel(
    grid: AfdmGrid,
    s_prefixed: np.ndarray,
    ch: LosChannel,
    half_width: int = 16,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pass a prefixed frame through the LOS channel; returns a prefixed frame.

    output[p] = gain * sum_i taps[i] * s[p - l - i] * exp(-i*2*pi*K*p/N) + w[p]

    with p counted from the first post-prefix sample (so the prefix occupies
    p = -n_prefix .. -1) and K the full normalized Doppler. The source
    samples s[-n_prefix - l - half_width .. N - l + half_width - 1] are
    gathered once, those past either end of the prefixed frame from the
    periodic chirp-train extension of the frame body; each tap then adds
    its shifted slice of that run, taps in order.
    """
    n, ncp = grid.n, grid.n_prefix
    if s_prefixed.shape != (n + ncp,):
        raise ValueError("expected a prefixed frame")
    l = ch.delay_int
    if l + half_width > ncp:
        raise ValueError("channel memory exceeds the prefix")

    taps = fir_taps(ch.delay_frac, half_width)
    # non-causal taps peek past both frame edges; those samples come from
    # the periodic chirp-train extension of the frame body
    src = np.arange(-ncp - l - half_width, n - l + half_width)
    ext = np.empty(src.size, dtype=complex)
    inside = (src >= -ncp) & (src < n)
    ext[inside] = s_prefixed[src[inside] + ncp]
    outside = ~inside
    ext[outside] = s_prefixed[ncp + src[outside] % n] * _train_sign(grid, src[outside] // n)
    p = np.arange(-ncp, n)
    out = np.zeros(n + ncp, dtype=complex)
    for tap, i in zip(taps, range(-half_width, half_width + 1)):
        # source sample p - l - i sits at ext[p + ncp + half_width - i]
        out += tap * ext[half_width - i : half_width - i + n + ncp]
    out *= ch.gain * np.exp(-2j * np.pi * ch.doppler * p / n)
    if ch.noise_var > 0:
        if rng is None:
            raise ValueError("noise requested without an rng")
        out = awgn(out, ch.noise_var, rng)
    return out


def awgn(s: np.ndarray, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise of the given per-sample variance."""
    if noise_var < 0:
        raise ValueError("negative noise variance")
    if noise_var == 0:
        return s.copy()
    scale = np.sqrt(noise_var / 2.0)
    w = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
    return s + scale * w


def oversampled_oracle(
    grid: AfdmGrid,
    x: np.ndarray,
    ch: LosChannel,
    oversample: int = 16,
) -> np.ndarray:
    """Reference channel output from the continuous-time waveform.

    Synthesizes s(t) on a grid ``oversample`` times finer than the receiver
    clock, directly from the segment-wise chirp description: within segment
    q the subcarrier-m phase is c2*m^2 + c1*t^2 + m*t/N - q*t (the constant
    per-segment offset is an exact integer number of cycles and drops out).
    The delay is applied as a shift of round(oversample * delay) fine ticks
    on the periodic extension of the synthesized train, Doppler as the
    continuous phasor, and the result is decimated back to the N-sample
    receiver grid. Noise-free by design; returns the frame body (no prefix).
    """
    n, c = grid.n, grid.n_seg
    if x.shape != (n,):
        raise ValueError(f"frame must have shape ({n},)")
    if oversample < 4:
        raise ValueError("oversampling factor below 4 is too coarse to trust")
    no = n * oversample
    j = np.arange(no)
    t = j / oversample
    m = np.arange(n)[:, None]
    # integer segment index of subcarrier m at fine tick j, capped at C
    q = np.minimum(c, (c * j[None, :] + m * oversample) // no)
    phase = grid.c2 * m**2 + grid.c1 * t[None, :] ** 2 + m * t[None, :] / n - q * t[None, :]
    s_fine = (np.asarray(x, dtype=complex)[:, None] * np.exp(2j * np.pi * phase)).sum(axis=0)
    s_fine /= np.sqrt(n)

    shift = int(round(oversample * ch.delay))
    src = j - shift
    # Chirp-train continuation between samples: one period back the waveform
    # is s(t)*exp(-i*2*pi*C*t) times the integer-position train sign (the
    # wrap count rides the instantaneous frequency, so the factor is unity
    # at integer t only). This is exactly the prefix rule off the sample grid.
    wrap = src // no
    t_body = (src % no) / oversample
    r_fine = s_fine[src % no] * _train_sign(grid, wrap)
    r_fine = r_fine * np.exp(2j * np.pi * c * wrap * t_body)
    r_fine = r_fine * np.exp(-2j * np.pi * ch.doppler * t / n)
    return ch.gain * r_fine[::oversample]
