"""Channel models: FIR production path, AWGN, and the oversampled oracle.

The cross-model tolerance story matters here. For integer delays the FIR
taps collapse to a unit impulse and both models must agree to numerical
precision. For fractional delays the FIR is a band-limited delay, while
the oracle delays the continuous chirp train with its frequency wraps, a
different channel. A longer FIR moves toward the ideal band-limited delay,
which itself misses the wrap model by about 0.30 (mean relative RMS), so
the two models agree only to a few tens of percent at any tap count. The
tests below pin the exact cases tightly and the fractional cases at their
measured level; the acceptance suite carries the stricter headline figure
separately.
"""

import numpy as np
import pytest

from afdmest.channel import (
    FIR_HALF_WIDTH,
    LosChannel,
    _edge_tables,
    apply_los_channel,
    awgn,
    fir_taps,
    oversampled_oracle,
)
from afdmest.core import AfdmGrid, _train_sign, add_prefix, daft_modulate, strip_prefix
from afdmest.estimator import PilotLayout, build_pilot_frame

GRID = AfdmGrid()


def random_frame(rng):
    return rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)


class TestLosChannel:
    def test_integer_fraction_split(self):
        ch = LosChannel(delay=2.75, doppler=-1.25)
        assert ch.delay_int == 2
        assert ch.delay_frac == pytest.approx(0.75)
        assert ch.doppler_int == -2  # floor convention, signed
        assert ch.doppler_frac == pytest.approx(0.75)

    def test_integer_channel_has_zero_fractions(self):
        ch = LosChannel(delay=3.0, doppler=-3.0)
        assert (ch.delay_int, ch.delay_frac) == (3, 0.0)
        assert (ch.doppler_int, ch.doppler_frac) == (-3, 0.0)

    def test_rejects_negative_delay_and_variance(self):
        with pytest.raises(ValueError):
            LosChannel(delay=-0.5)
        with pytest.raises(ValueError):
            LosChannel(noise_var=-1.0)

    @pytest.mark.parametrize("field", ["gain", "delay", "doppler", "noise_var"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, field, value):
        """A NaN or infinite parameter raises a ValueError naming its field,
        instead of a non-finite frame, a NaN noise variance that skips the
        noise, or a bare float-to-int conversion error."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LosChannel(**{field: value})


class TestFirTaps:
    def test_zero_fraction_is_identity(self):
        h = fir_taps(0.0, 16)
        expect = np.zeros(33)
        expect[16] = 1.0
        assert np.max(np.abs(h - expect)) < 1e-12

    def test_unit_energy(self):
        for frac in (0.1, 0.25, 0.5, 0.9):
            assert np.linalg.norm(fir_taps(frac, 16)) == pytest.approx(1.0, abs=1e-12)

    def test_magnitudes_match_windowed_sinc(self):
        """|h[i]| follows the classic real windowed sinc; only the phase is
        modulated toward the chirp band center."""
        frac, w = 0.3, 8
        i = np.arange(-w, w + 1)
        real_taps = np.sinc(i - frac) * (0.5 + 0.5 * np.cos(np.pi * i / (w + 1)))
        real_taps /= np.linalg.norm(real_taps)
        assert np.max(np.abs(np.abs(fir_taps(frac, w)) - np.abs(real_taps))) < 1e-12

    def test_too_narrow_rejected(self):
        with pytest.raises(ValueError):
            fir_taps(0.5, 3)


def per_tap_channel(grid, s_prefixed, ch, half_width=16):
    """Noise-free LOS channel written one tap at a time, each tap gathering
    its source samples with a mask on the prefixed frame and the periodic
    chirp-train extension past its ends: the reference the single-gather
    apply_los_channel must reproduce bit for bit."""
    n, ncp, l = grid.n, grid.n_prefix, ch.delay_int
    p = np.arange(-ncp, n)
    out = np.zeros(n + ncp, dtype=complex)
    for tap, i in zip(fir_taps(ch.delay_frac, half_width), range(-half_width, half_width + 1)):
        src = p - l - i
        inside = (src >= -ncp) & (src < n)
        vals = np.empty(n + ncp, dtype=complex)
        vals[inside] = s_prefixed[src[inside] + ncp]
        outside = ~inside
        vals[outside] = s_prefixed[ncp + src[outside] % n] * _train_sign(grid, src[outside] // n)
        out += tap * vals
    return out * (ch.gain * np.exp(-2j * np.pi * ch.doppler * p / n))


class TestApplyLosChannel:
    @pytest.mark.parametrize(
        "n,pad,delay,doppler",
        [(256, 2, 0.0, 1.3), (256, 2, 0.45, -2.2), (256, 2, 3.7, 2.9), (255, 3, 0.0, -0.6),
         (255, 3, 3.25, 0.8)],
        ids=["l0-int", "l0-frac", "lmax", "oddCN-l0", "oddCN-lmax"],
    )
    def test_matches_per_tap_reference(self, n, pad, delay, doppler):
        grid = AfdmGrid(n=n, doppler_pad=pad)
        rng = np.random.default_rng(11)
        sp = add_prefix(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ch = LosChannel(gain=0.6 - 0.8j, delay=delay, doppler=doppler)
        assert ch.delay_int in (0, grid.l_max)
        assert np.array_equal(apply_los_channel(grid, sp, ch), per_tap_channel(grid, sp, ch))

    @pytest.mark.parametrize(
        "rows,n_prefix,delay",
        [(1, 36, 1.3), (5, 36, 2.6), (5, 36, 19.4), (5, 19, 3.55), (5, 16, 0.8)],
        ids=["one-row", "five-rows", "delay-above-half-width", "prefix-exactly-memory",
             "l0-prefix-exactly-memory"],
    )
    def test_stack_rows_match_per_tap_reference(self, rows, n_prefix, delay):
        """Each row of a stack comes out, bit for bit, as the per-tap
        reference run on that row alone: a one-row stack; five rows laid end
        to end in one flat run; an integer delay above the half-width, where
        no tap reads past the frame's end; and a prefix of exactly
        l + half_width, the least the channel takes, where the taps of the
        first body sample reach back to the first prefix sample."""
        grid = AfdmGrid(n_prefix=n_prefix)
        rng = np.random.default_rng(rows + n_prefix)
        shape = (rows, grid.n)
        sp = add_prefix(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ch = LosChannel(gain=np.exp(0.7j), delay=delay, doppler=-1.7)
        out = apply_los_channel(grid, sp, ch)
        assert out.shape == sp.shape and out.flags.c_contiguous
        for got, row in zip(out, sp):
            assert got.tobytes() == per_tap_channel(grid, row, ch).tobytes()

    def test_no_tail_past_the_frame_for_a_delay_above_the_half_width(self):
        """With l = 19 above the half-width of 16 the source run ends
        l - 16 samples before the frame does: every sample gathered from
        the chirp-train extension lies before the prefix."""
        grid = AfdmGrid(n_prefix=36)
        run, start, inside, place, frame, sign = _edge_tables(grid, 19, FIR_HALF_WIDTH)
        assert start + inside == run
        assert np.array_equal(place, np.arange(start))
        assert not place.flags.writeable

    @pytest.mark.parametrize("noise_var", [0.0, 0.5])
    def test_empty_stack_gives_an_empty_stack(self, noise_var):
        """A (0, N + n_prefix) stack, noisy or not, comes back empty."""
        empty = np.empty((0, GRID.n + GRID.n_prefix), dtype=complex)
        ch = LosChannel(delay=1.5, doppler=0.5, noise_var=noise_var)
        out = apply_los_channel(GRID, empty, ch, rng=np.random.default_rng(0))
        assert out.shape == empty.shape and out.dtype == complex

    def test_integer_channel_is_shift_and_phasor(self):
        """l=2, k=1: output body is the body delayed two samples (through the
        prefix) times exp(-i 2 pi K n / N)."""
        rng = np.random.default_rng(0)
        s = random_frame(rng)
        sp = add_prefix(GRID, s)
        ch = LosChannel(delay=2.0, doppler=1.0)
        out = strip_prefix(GRID, apply_los_channel(GRID, sp, ch))
        n = np.arange(GRID.n)
        shifted = sp[GRID.n_prefix - 2 : GRID.n_prefix - 2 + GRID.n]
        expect = shifted * np.exp(-2j * np.pi * 1.0 * n / GRID.n)
        assert np.max(np.abs(out - expect)) < 1e-10

    def test_doppler_phasor_has_constant_modulus_and_slope(self):
        rng = np.random.default_rng(1)
        s = random_frame(rng)
        sp = add_prefix(GRID, s)
        k = 2.6
        out = strip_prefix(GRID, apply_los_channel(GRID, sp, LosChannel(doppler=k)))
        ratio = out / s
        assert np.max(np.abs(np.abs(ratio) - 1.0)) < 1e-10
        slopes = np.angle(ratio[1:] / ratio[:-1])
        assert np.max(np.abs(slopes + 2 * np.pi * k / GRID.n)) < 1e-10

    def test_gain_scales_output(self):
        rng = np.random.default_rng(2)
        sp = add_prefix(GRID, random_frame(rng))
        ch1 = LosChannel(gain=1.0, delay=1.5, doppler=0.5)
        ch2 = LosChannel(gain=2.0 - 1.0j, delay=1.5, doppler=0.5)
        out1 = apply_los_channel(GRID, sp, ch1)
        out2 = apply_los_channel(GRID, sp, ch2)
        assert np.max(np.abs(out2 - (2.0 - 1.0j) * out1)) < 1e-10

    def test_zero_gain_gives_pure_noise(self):
        rng = np.random.default_rng(3)
        sp = add_prefix(GRID, random_frame(rng))
        ch = LosChannel(gain=0.0, noise_var=0.25)
        out = apply_los_channel(GRID, sp, ch, rng=np.random.default_rng(7))
        assert out.shape == sp.shape
        var = np.mean(np.abs(out) ** 2)
        assert var == pytest.approx(0.25, rel=0.2)

    def test_output_carries_prefix(self):
        rng = np.random.default_rng(4)
        sp = add_prefix(GRID, random_frame(rng))
        out = apply_los_channel(GRID, sp, LosChannel(delay=1.0))
        assert out.shape == (GRID.n + GRID.n_prefix,)

    @pytest.mark.parametrize("shape", [(GRID.n,), (GRID.n + GRID.n_prefix + 1,), (2, 3, 292)])
    def test_malformed_frames_refused(self, shape):
        """A frame without its prefix, of the wrong length or in a 3-D
        stack is refused by strip_prefix's rule, with its message."""
        with pytest.raises(ValueError, match=r"frame must have shape \(292,\)"):
            apply_los_channel(GRID, np.ones(shape, dtype=complex), LosChannel())

    def test_channel_memory_guard(self):
        rng = np.random.default_rng(5)
        sp = add_prefix(GRID, random_frame(rng))
        with pytest.raises(ValueError):
            apply_los_channel(GRID, sp, LosChannel(delay=30.0), half_width=16)

    def test_noise_without_rng_rejected(self):
        rng = np.random.default_rng(6)
        sp = add_prefix(GRID, random_frame(rng))
        with pytest.raises(ValueError):
            apply_los_channel(GRID, sp, LosChannel(noise_var=0.1))


class TestAwgn:
    def test_zero_variance_is_identity(self):
        s = np.ones(32, dtype=complex)
        out = awgn(s, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, s)

    def test_reproducible(self):
        s = np.zeros(64, dtype=complex)
        a = awgn(s, 1.0, np.random.default_rng(11))
        b = awgn(s, 1.0, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_empirical_variance(self):
        """Sample variance within 1% of sigma^2 over two million draws."""
        s = np.zeros(2_000_000, dtype=complex)
        out = awgn(s, 0.3, np.random.default_rng(12))
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.3, rel=0.01)

    @pytest.mark.parametrize("noise_var", [np.nan, np.inf])
    def test_rejects_non_finite_variance(self, noise_var):
        with pytest.raises(ValueError, match="noise_var must be finite"):
            awgn(np.zeros(8, dtype=complex), noise_var, np.random.default_rng(0))


class TestOversampledOracle:
    def test_identity_channel_reduces_to_modulation(self):
        """With no channel at all, the waveform evaluated at the receiver
        instants must give back the discrete modulator output: the segment
        wrap terms are whole cycles at integer sample times."""
        rng = np.random.default_rng(20)
        layout = PilotLayout()
        x = build_pilot_frame(GRID, layout, rng)
        ora = oversampled_oracle(GRID, x, LosChannel())
        s = daft_modulate(GRID, x)
        assert np.max(np.abs(ora - s)) < 1e-9

    def test_rejects_noisy_channel(self):
        """The oracle adds no noise, so a channel that asks for some is an
        error rather than a silently noise-free output."""
        x = build_pilot_frame(GRID, PilotLayout())
        with pytest.raises(ValueError, match="noise"):
            oversampled_oracle(GRID, x, LosChannel(delay=1.5, noise_var=5.0))

    def test_integer_channel_matches_fir_path(self):
        rng = np.random.default_rng(21)
        x = build_pilot_frame(GRID, PilotLayout(), rng)
        ch = LosChannel(gain=np.exp(0.4j), delay=2.0, doppler=1.0)
        ora = oversampled_oracle(GRID, x, ch)
        fir = strip_prefix(
            GRID, apply_los_channel(GRID, add_prefix(GRID, daft_modulate(GRID, x)), ch)
        )
        assert np.linalg.norm(ora - fir) / np.linalg.norm(ora) < 1e-9

    def test_fractional_models_agree_to_measured_level(self):
        """Fractional delay: the 33-tap FIR is a band-limited delay and
        tracks the wrap-model oracle only to tens of percent; more taps do
        not close the gap, since an ideal band-limited delay is further off
        still."""
        rng = np.random.default_rng(22)
        x = build_pilot_frame(GRID, PilotLayout(), rng)
        ch = LosChannel(delay=1.37, doppler=2.6)
        ora = oversampled_oracle(GRID, x, ch)
        fir = strip_prefix(
            GRID, apply_los_channel(GRID, add_prefix(GRID, daft_modulate(GRID, x)), ch, 16)
        )
        rel = np.linalg.norm(ora - fir) / np.linalg.norm(ora)
        assert rel < 0.35
