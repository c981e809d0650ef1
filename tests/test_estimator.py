"""Pilot layout, profile readout, and the three-stage joint estimator.

Integer decode must be bit-exact on clean integer channels (that is the
comb structure doing its job); the fractional stages are approximate by
nature and are held to the tolerances the pipeline is designed around:
5e-3 on the Doppler fraction, 2e-2 on the delay fraction.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afdmest import estimator
from afdmest.baselines import integer_only, integer_only_rows, two_d_search
from afdmest.channel import LosChannel, apply_los_channel, oversampled_oracle
from afdmest.core import (
    AfdmGrid,
    _chirps,
    add_prefix,
    daft_demodulate,
    daft_modulate,
    strip_prefix,
)
from afdmest.effective import elg_theory
from afdmest.estimator import (
    _COARSE_STEPS,
    _INTEGER_SHARE,
    _NO_ESTIMATE,
    _REFINE_TOL,
    Estimate,
    PilotLayout,
    _coarse_czt,
    _coarse_scores,
    _decode,
    _decode_table,
    _gate,
    _inner_slice,
    _pspr_rows,
    _pruned_dft,
    _readout,
    _window_pspr,
    build_pilot_frame,
    estimate_doppler_frac,
    joint_estimate,
    joint_estimate_rows,
    profile_bins,
    pspr,
    read_profile,
    readout_bins,
)
from afdmest.harness import ESTIMATORS, noise_variance

GRID = AfdmGrid()
LAYOUT = PilotLayout()


def pipeline(grid, x, ch, rng=None):
    s = add_prefix(grid, daft_modulate(grid, x))
    return strip_prefix(grid, apply_los_channel(grid, s, ch, rng=rng))


def compensated(r, kappa):
    """The body r with a fractional Doppler kappa undone by the defining
    phasor exp(2 pi i kappa n / N)."""
    return r * np.exp(2j * np.pi * kappa * np.arange(r.size) / r.size)


def read_one(grid, r, layout):
    """The pilot readout of the single body r, read as a stack of one: a
    function of one compensation kappa."""
    read, _ = _readout(grid, r[None], layout)
    return lambda kappa: read(np.array([kappa]))[0]


def decode_one(grid, p):
    """_decode of the single profile p, read as a stack of one: the split
    (peak_index, doppler_int, delay_round, flagged) as scalars, the PSPR and
    the three comb taps."""
    split, score, taps = _decode(grid, p[None])
    return tuple(a[0] for a in split), score[0], taps[0]


def both_psprs(p, pos, c):
    """The PSPR of profile p at pos in both forms: pspr on the profile, and
    the stacked rule on the C-bin window gathered around pos."""
    half = c // 2
    return pspr(p, pos, c), _window_pspr(p[None, pos - half : pos + c - half])[0]


class TestPilotLayout:
    def test_amplitude_default(self):
        assert LAYOUT.pilot_amplitude == pytest.approx(np.sqrt(10.0))

    def test_slot_counts(self):
        guards = LAYOUT.guard_slots(GRID)
        data = LAYOUT.data_slots(GRID)
        assert GRID.guard_width == 27
        assert guards.size == 54
        assert data.size == 201
        all_slots = np.concatenate([[LAYOUT.pilot_index], guards, data])
        assert np.sort(all_slots).tolist() == list(range(GRID.n))

    def test_guards_cover_response_band(self):
        """The composite peak lands on bin (pilot - (k + C*l)) mod N; every
        such bin inside the search box must be a guard, the corner
        (k_max, l_max) included."""
        guarded = set(LAYOUT.guard_slots(GRID).tolist())
        guarded.add(LAYOUT.pilot_index)
        for l in range(GRID.l_max + 1):
            for k in range(-GRID.k_max, GRID.k_max + 1):
                bin_ = (LAYOUT.pilot_index - (k + GRID.n_seg * l)) % GRID.n
                assert bin_ in guarded

    @pytest.mark.parametrize("pilot", [2.5, 3.0])
    def test_non_integer_pilot_index_rejected(self, pilot):
        """A float index, even a whole one, is refused when the layout is
        built, instead of failing later in a frame build or an estimate with
        a bare IndexError."""
        with pytest.raises(TypeError, match="pilot_index must be an integer"):
            PilotLayout(pilot_index=pilot)

    def test_numpy_integer_pilot_index_accepted(self):
        layout = PilotLayout(pilot_index=np.int64(3))
        x = build_pilot_frame(GRID, layout)
        assert np.flatnonzero(x).tolist() == [3]
        r = pipeline(GRID, x, LosChannel(delay=1.25, doppler=0.4))
        assert joint_estimate(GRID, r, layout) == joint_estimate(GRID, r, PilotLayout(3))

    @pytest.mark.parametrize("ep_ei_db", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_ratio(self, ep_ei_db):
        with pytest.raises(ValueError, match="ep_ei_db must be finite"):
            PilotLayout(ep_ei_db=ep_ei_db)

    def test_pilot_only_frame(self):
        x = build_pilot_frame(GRID, LAYOUT, None)
        assert x[LAYOUT.pilot_index] == pytest.approx(np.sqrt(10.0))
        assert np.count_nonzero(x) == 1

    def test_loaded_frame(self):
        """The data slots hold the QPSK symbols of one (slots, 2) draw of
        bits, ((2 b0 - 1) + i (2 b1 - 1))/sqrt(2) per pair, to the bit."""
        rng = np.random.default_rng(3)
        x = build_pilot_frame(GRID, LAYOUT, rng)
        data = LAYOUT.data_slots(GRID)
        bits = np.random.default_rng(3).integers(0, 2, size=(data.size, 2))
        expect = ((2 * bits[:, 0] - 1) + 1j * (2 * bits[:, 1] - 1)) / np.sqrt(2.0)
        assert np.array_equal(x[data], expect)
        assert np.allclose(np.abs(x[data]), 1.0)
        assert np.all(x[LAYOUT.guard_slots(GRID)] == 0)
        assert x[LAYOUT.pilot_index] == pytest.approx(np.sqrt(10.0))

    def test_nonzero_pilot_index(self):
        layout = PilotLayout(pilot_index=40)
        x = build_pilot_frame(GRID, layout, None)
        assert np.flatnonzero(x).tolist() == [40]

    @pytest.mark.parametrize("pilot", [256, -1])
    def test_pilot_index_outside_frame_rejected(self, pilot):
        """An index outside [0, N) is refused at every boundary that takes a
        layout, instead of wrapping to another bin or failing deep inside."""
        layout = PilotLayout(pilot_index=pilot)
        r = pipeline(GRID, build_pilot_frame(GRID, LAYOUT), LosChannel())
        with pytest.raises(ValueError, match="pilot_index"):
            build_pilot_frame(GRID, layout)
        with pytest.raises(ValueError, match="pilot_index"):
            readout_bins(GRID, layout)
        with pytest.raises(ValueError, match="pilot_index"):
            read_profile(GRID, daft_demodulate(GRID, r), layout)
        with pytest.raises(ValueError, match="pilot_index"):
            joint_estimate(GRID, r, layout)

    def test_last_pilot_index_accepted(self):
        """N - 1 is the last slot of the frame and a valid pilot position."""
        layout = PilotLayout(pilot_index=GRID.n - 1)
        x = build_pilot_frame(GRID, layout)
        assert np.flatnonzero(x).tolist() == [GRID.n - 1]
        est = joint_estimate(GRID, pipeline(GRID, x, LosChannel(delay=1.0, doppler=2.0)), layout)
        assert (est.delay_int, est.doppler_int, est.flagged) == (1, 2, False)


class TestProfile:
    def test_bins_cover_decode_range_with_margin(self):
        j = profile_bins(GRID)
        assert j[0] == -12
        assert j[-1] == 35
        assert j.size == 48
        # every decodeable peak k + C*l fits with a comb period to spare
        for l in range(GRID.l_max + 1):
            for k in range(-GRID.k_max, GRID.k_max + 1):
                js = k + GRID.n_seg * l
                assert j[0] + GRID.n_seg <= js <= j[-1] - GRID.n_seg

    def test_readout_indexing(self):
        y = np.zeros(GRID.n, dtype=complex)
        y[(LAYOUT.pilot_index - 17) % GRID.n] = 2.0 - 1.0j
        p = read_profile(GRID, y, LAYOUT)
        j = profile_bins(GRID)
        assert p[np.flatnonzero(j == 17)[0]] == pytest.approx(abs(2.0 - 1.0j))

    def test_pspr_flat_profile(self):
        p = np.full(48, 0.7)
        assert both_psprs(p, 20, 8) == pytest.approx((8.0 / 7.0, 8.0 / 7.0))

    def test_pspr_lone_spike(self):
        p = np.zeros(48)
        p[20] = 3.0
        assert both_psprs(p, 20, 8) == (np.inf, np.inf)

    def test_pspr_one_bin_window_is_lone_spike(self):
        """With C = 1 the window holds only the peak, so every profile scores
        +inf, whatever rounding squaring its values takes."""
        p = np.random.default_rng(0).uniform(0.1, 3.0, 1000)
        assert all(pspr(p, pos, 1) == np.inf for pos in range(p.size))
        assert np.all(_window_pspr(p[:, None]) == np.inf)

    def test_pspr_prefers_cleaner_peak(self):
        p = np.full(48, 0.1)
        p[20] = 1.0
        messy = p.copy()
        messy[22] = 0.8
        clean, noisy = both_psprs(p, 20, 8), both_psprs(messy, 20, 8)
        assert clean[0] > noisy[0] and clean[1] > noisy[1]
        # the stacked rule scores each profile at its own peak
        assert np.array_equal(_pspr_rows(GRID, np.array([p, messy])), [clean[1], noisy[1]])

    def test_compensate_inverts_channel_phasor(self):
        """The readout with kappa compensated reads a body that carries the
        channel phasor exp(-2 pi i kappa n / N) as the uncompensated readout
        reads the body without it."""
        rng = np.random.default_rng(4)
        s = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
        kappa = 0.37
        r = s * np.exp(-2j * np.pi * kappa * np.arange(GRID.n) / GRID.n)
        got = read_one(GRID, r, LAYOUT)(kappa)
        assert np.allclose(got, read_one(GRID, s, LAYOUT)(0.0), atol=1e-12)

    @pytest.mark.parametrize("n", [255, 256, 4096, 8193])
    @pytest.mark.parametrize("kappa", [0.0, 0.37, 0.999, 1.5, -0.2])
    def test_compensate_matches_direct_phasor(self, n, kappa):
        """The compensation phasor the readout folds in, exp(2 pi i kappa
        q/P) on the P columns times exp(2 pi i kappa m/N) on the M rows of
        n = q*M + m, equals the one built with N exponentials, for odd N,
        non-square N and kappa outside [0, 1)."""
        pre, _, rates, _ = _pruned_dft(AfdmGrid(n=n), LAYOUT)
        p = pre.shape[1]
        ab = np.exp(rates * kappa)
        folded = np.multiply.outer(ab[:p], ab[p:]).ravel()
        direct = np.exp(2j * np.pi * kappa * np.arange(n) / n)
        assert np.max(np.abs(folded - direct)) < 1e-13

    def test_readout_matches_full_demodulation_at_zero(self):
        """Uncompensated, the readout drops only U^H's unit-modulus row phase
        conj(e2[b]), so it gives the demodulated pilot bins in magnitude."""
        rng = np.random.default_rng(8)
        r = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
        full = daft_demodulate(GRID, r)[readout_bins(GRID, LAYOUT)]
        assert np.max(np.abs(read_one(GRID, r, LAYOUT)(0.0) - np.abs(full))) < 1e-10

    @pytest.mark.parametrize("n", [4096, 16384, 4093])
    @pytest.mark.parametrize("pilot", [0, 40])
    def test_readout_matches_full_demodulation_at_large_n(self, n, pilot):
        """Fixed cases above the property's range, where P < N matters most,
        and a prime N, where P = N and the readout is one full FFT."""
        grid = AfdmGrid(n=n)
        layout = PilotLayout(pilot_index=pilot)
        rng = np.random.default_rng(n + pilot)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        read = read_one(grid, r, layout)
        for kappa in (0.0, 0.37, 0.999, -0.004):
            expect = read_profile(grid, daft_demodulate(grid, compensated(r, kappa)), layout)
            assert np.max(np.abs(read(kappa) - expect)) <= 1e-12 * np.max(expect)

    @pytest.mark.parametrize(
        "n,k_max,split",
        [(4096, 3, 64), (256, 5, 128), (256, 3, 64), (4093, 3, 4093)],
    )
    def test_split_is_smallest_divisor_at_or_above_readout_length(self, n, k_max, split):
        """P is the smallest divisor of N with P >= J: 64 at N=4096 (C=8,
        J=48), 128 at N=256 (C=12, J=72), and N itself for a prime N."""
        grid = AfdmGrid(n=n, k_max=k_max)
        pre, tw, _, cols = _pruned_dft(grid, LAYOUT)
        assert pre.shape == tw.shape == (n // split, split)
        # the readout columns are distinct, and the twiddle table is zero
        # off them
        assert np.unique(cols).size == cols.size == profile_bins(grid).size
        assert not np.any(np.delete(tw, cols, axis=1))

    def test_first_readout_memory_is_linear_in_n(self):
        """The first readout at N=16384, C=8 builds its tables and reads the
        region within 8 arrays of N complex samples (2 MiB); a J x N table of
        readout rows alone would take 12 MiB."""
        n = 16384
        grid = AfdmGrid(n=n)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _pruned_dft.cache_clear()
        tracemalloc.start()
        try:
            read_one(grid, r, LAYOUT)(0.37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 16

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(32, 320),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 4),
        l_max=st.integers(0, 3),
        pilot=st.integers(0, 10**6),
        kappa=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_readout_matches_full_demodulation(self, n, k_max, pad, l_max, pilot, kappa, seed):
        """The pilot readout equals read_profile of the full demodulation of
        the compensated body, to 1e-12 of its peak, over N, the parity of
        C*N, the pilot position and the compensation."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expect = read_profile(grid, daft_demodulate(grid, compensated(r, kappa)), layout)
        got = read_one(grid, r, layout)(kappa)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(expect)


def scalar_pspr(grid, p):
    """pspr at the first largest bin of the decodeable range, one profile."""
    inner = _inner_slice(grid)
    return pspr(p, inner.start + int(np.argmax(p[inner])), grid.n_seg)


def smooth(size):
    """True when ``size`` has no prime factor above 5."""
    for f in (2, 3, 5):
        while size % f == 0:
            size //= f
    return size == 1


def smooth_at_or_above(target):
    return next(v for v in range(target, 2 * target + 1) if smooth(v))


def bluestein_scores(grid, layout, r, steps):
    """The coarse scores of the (F, N) stack r from one long Bluestein
    convolution, zero-padded to the smallest 5-smooth length at or above
    N + m - 1 (m = J*steps): the form the blocked transform replaced, kept
    as its reference. On a grid where the block rule gives one block, the
    two run the same arithmetic and give the same bits."""
    n, period = grid.n, 2 * steps * grid.n
    j = profile_bins(grid)
    m = j.size * steps
    size = smooth_at_or_above(n + m - 1)
    k = np.arange(max(m, n), dtype=np.int64)
    chirp = np.exp(2j * np.pi * (k * k % period) / period)
    offset = (layout.pilot_index - int(j[0])) * k[:n] % n
    e1, _ = _chirps(n, grid.c1, grid.c2)
    start = 2j * np.pi * (k[:n] - 2 * steps * offset)
    start /= period
    pre = np.conj(e1)
    pre *= chirp[:n]
    pre *= np.exp(start)
    pre /= np.sqrt(n)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    spec = np.zeros((len(r), size), dtype=complex)
    np.multiply(r, pre, out=spec[:, :n])
    np.fft.fft(spec, out=spec)
    spec *= np.fft.fft(kernel)
    np.fft.ifft(spec, out=spec)
    p = np.abs(spec[:, :m]).reshape(len(r), -1, steps).swapaxes(-1, -2)
    return _pspr_rows(grid, p)


class TestCoarseScores:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(32, 320),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 4),
        l_max=st.integers(0, 3),
        pilot=st.integers(0, 10**6),
        steps=st.sampled_from([4, 16, 64]),
        spike=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_scores_match_scalar_loop(self, n, k_max, pad, l_max, pilot, steps, spike, seed):
        """One chirp-z transform over all candidates and the vectorised PSPR
        give the scores of the candidate-by-candidate loop, over N, the
        parity of C, the pilot position and zero search boxes; a flat profile
        and a lone spike take the same path through the vectorised PSPR."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        read = read_one(grid, r, layout)
        j = profile_bins(grid)
        cand, scores = _coarse_scores(grid, layout, r[None], steps)
        scores = scores[0]
        assert np.array_equal(cand, (np.arange(steps) + 0.5) / steps)
        profiles = np.array([read(kappa) for kappa in cand])
        expect = np.array([scalar_pspr(grid, p) for p in profiles])
        # one chirp-z transform against a pruned readout per candidate: equal
        # up to rounding, with +inf (no sidelobe power) in the same places
        assert np.array_equal(np.isinf(scores), np.isinf(expect))
        np.testing.assert_allclose(scores, expect, rtol=1e-9)

        flat = np.full(j.size, 0.7)
        lone = np.zeros(j.size)
        inner = _inner_slice(grid)
        lone[inner.start + spike % (j.size - 2 * grid.n_seg)] = 3.0
        stack = np.vstack([profiles, flat, lone])
        got = _pspr_rows(grid, stack)
        # same window and formula; the window sum may associate differently
        np.testing.assert_allclose(got, [scalar_pspr(grid, p) for p in stack], rtol=1e-12)
        c = grid.n_seg
        # a one-bin window holds only the peak: no sidelobe power, like a spike
        assert got[-2] == (np.inf if c == 1 else pytest.approx(c / (c - 1)))
        assert got[-1] == np.inf

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(16, 1100),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 20),
        l_max=st.integers(0, 3),
        pilot=st.integers(0, 10**6),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_scores_match_one_long_convolution(
        self, n, k_max, pad, l_max, pilot, rows, seed
    ):
        """The overlap-save scores equal those of the single long Bluestein
        convolution to rtol 1e-12 and pick the same best cell of every row
        whose top two scores differ by more than that, over N (primes
        included), the parity of C*N, C up to 26 and the pilot position."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        _, got = _coarse_scores(grid, layout, r, _COARSE_STEPS)
        expect = bluestein_scores(grid, layout, r, _COARSE_STEPS)
        assert np.array_equal(np.isinf(got), np.isinf(expect))
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        # rows whose best score clears the runner-up by more than the
        # rounding; an infinite best (no sidelobe power) is first in both
        top = np.sort(expect, axis=-1)[:, -2:]
        with np.errstate(invalid="ignore"):
            apart = np.isinf(top[:, 1]) | (top[:, 1] - top[:, 0] > 1e-12 * top[:, 1])
        assert np.array_equal(got.argmax(-1)[apart], expect.argmax(-1)[apart])

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_single_block_grid_is_the_long_convolution_bitwise(self, n):
        """Where the 5-smooth length at or above N + m - 1 is the shorter,
        the rule gives one block, and the scores have the bits of the long
        convolution."""
        grid = AfdmGrid(n=n)
        rng = np.random.default_rng(n)
        r = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        assert _coarse_czt(grid, LAYOUT, _COARSE_STEPS)[1].shape[0] == 1
        _, got = _coarse_scores(grid, LAYOUT, r, _COARSE_STEPS)
        assert np.array_equal(got, bluestein_scores(grid, LAYOUT, r, _COARSE_STEPS))

    @pytest.mark.parametrize(
        "n,pad,blocks,size",
        [(256, 2, 4, 1024), (256, 6, 6, 1024), (256, 20, 13, 1024), (4096, 2, 1, 7200)],
    )
    def test_block_rule(self, n, pad, blocks, size):
        """S is the smaller of the 5-smooth lengths at or above 4N and at or
        above N + m - 1, and the blocks of S - N + 1 outputs cover m."""
        grid = AfdmGrid(n=n, doppler_pad=pad)
        _, kernel_fft, m = _coarse_czt(grid, LAYOUT, _COARSE_STEPS)
        assert kernel_fft.shape == (blocks, size)
        assert size == min(smooth_at_or_above(4 * n), smooth_at_or_above(n + m - 1))
        assert (blocks - 1) * (size - n + 1) < m <= blocks * (size - n + 1)

    def test_czt_cache_is_read_only_and_memory_is_linear(self):
        """At N=8192 the block rule gives one block of the padded length S,
        the cached chirp-z factors are read-only, and building them plus one
        scoring call stays within 4 complex vectors of S; the N x steps
        phasor matrix of a one-product scoring (8 MiB here) would not fit."""
        grid = AfdmGrid(n=8192)
        steps = 64
        r = daft_modulate(grid, build_pilot_frame(grid, LAYOUT, np.random.default_rng(2)))
        _coarse_czt.cache_clear()
        tracemalloc.start()
        try:
            _coarse_scores(grid, LAYOUT, r[None], steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pre, kernel_fft, m = _coarse_czt(grid, LAYOUT, steps)
        blocks, size = kernel_fft.shape
        # one block: the padded length is the smallest 5-smooth one at or
        # above N + m - 1, below the one at or above 4N
        assert blocks == 1
        assert grid.n + m - 1 <= size and smooth(size)
        assert not any(smooth(v) for v in range(grid.n + m - 1, size))
        assert size < smooth_at_or_above(4 * grid.n)
        assert m == profile_bins(grid).size * steps
        assert peak <= 4 * 16 * size < 16 * grid.n * steps
        for a in (pre, kernel_fft):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_coarse_ties_refine_to_the_truth_from_either_cell(self):
        """Noise-free pilot-only frames on a quarter-bin grid of delay and
        Doppler (N=255, C=9, pilot 40) often score two coarse cells equal to
        rounding, so which one wins depends on the transform's rounding.
        Refined from either, the Doppler estimate lies within _REFINE_TOL of
        the truth, and the delay estimate is the same."""
        grid = AfdmGrid(n=255, doppler_pad=3)
        layout = PilotLayout(pilot_index=40)
        s = add_prefix(grid, daft_modulate(grid, build_pilot_frame(grid, layout)))
        truth = [
            (d, k)
            for d in np.arange(4 * grid.l_max + 1) / 4
            for k in np.arange(-4 * grid.k_max, 4 * grid.k_max + 1) / 4
        ]
        r = np.array(
            [
                strip_prefix(grid, apply_los_channel(grid, s, LosChannel(delay=d, doppler=k)))
                for d, k in truth
            ]
        )
        ests = joint_estimate_rows(grid, r, layout)
        assert all(abs(e.doppler - k) <= _REFINE_TOL for e, (_, k) in zip(ests, truth))
        cand, scores = _coarse_scores(grid, layout, r, _COARSE_STEPS)
        order = np.argsort(scores, axis=-1)
        top = np.take_along_axis(scores, order[:, -2:], axis=-1)
        tied = np.flatnonzero(top[:, 1] - top[:, 0] <= 1e-12 * top[:, 1])
        assert tied.size > 0
        for i in tied:
            _, k = truth[i]
            both = []
            for cell in order[i, -2:]:
                with mock.patch.object(estimator, "_best_cells", return_value=cand[[cell]]):
                    both.append(joint_estimate(grid, r[i], layout))
            assert all(abs(e.doppler - k) <= _REFINE_TOL for e in both)
            assert both[0].delay == both[1].delay


class TestIntegerDecode:
    @pytest.mark.parametrize("l,k,js", [(2, 1, 17), (3, -3, 21)])
    def test_decode_goldens(self, l, k, js):
        x = build_pilot_frame(GRID, LAYOUT, None)
        ch = LosChannel(delay=float(l), doppler=float(k))
        p = read_profile(GRID, daft_demodulate(GRID, pipeline(GRID, x, ch)), LAYOUT)
        split, _, _ = decode_one(GRID, p)
        assert split == (js, k, l, False)

    def test_decode_exhaustive(self):
        """Every integer channel of the box, each profile decoded alone and
        all of them as one stack."""
        x = build_pilot_frame(GRID, LAYOUT, None)
        profiles, expect = [], []
        for l in range(GRID.l_max + 1):
            for k in range(-GRID.k_max, GRID.k_max + 1):
                ch = LosChannel(delay=float(l), doppler=float(k))
                p = read_profile(GRID, daft_demodulate(GRID, pipeline(GRID, x, ch)), LAYOUT)
                want = ((k + GRID.n_seg * l) % GRID.n, k, l, False)
                assert decode_one(GRID, p)[0] == want
                profiles.append(p)
                expect.append(want)
        split, _, _ = _decode(GRID, np.array(profiles))
        assert list(zip(*(a.tolist() for a in split))) == expect

    def test_out_of_range_peak_is_flagged(self):
        j = profile_bins(GRID)
        p = np.zeros(j.size)
        p[np.flatnonzero(j == 4)[0]] = 1.0  # k = 4 > k_max
        (*_, flagged), _, _ = decode_one(GRID, p)
        assert flagged


# the gate's integer cut as a reading 10*log10(at/after) in dB: 3 dB above
# the curve's 10*log10(99) at iota = 0.01
_CUT_DB = 10.0 * math.log10(99.0) + 3.0


class TestDecodeProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(16, 320),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 4),
        l_max=st.integers(0, 3),
        pilot=st.integers(0, 10**6),
        kind=st.sampled_from(["random", "flat", "spike"]),
        spike=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_readout_decode_and_gate(self, n, k_max, pad, l_max, pilot, kind, spike, seed):
        """Over N, the parity of C, the pilot position and zero search boxes,
        on random positive, flat and lone-spike profiles: the readout bins,
        the integer split of the first largest decodeable bin, and the
        early/late gate's bracket and range."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        c = grid.n_seg
        layout = PilotLayout(pilot_index=pilot % n)
        j = profile_bins(grid)
        bins = readout_bins(grid, layout)
        assert np.array_equal(bins, (layout.pilot_index - j) % n)
        # validate keeps the C*(l_max + 3) profile bins within the frame
        assert np.unique(bins).size == j.size

        rng = np.random.default_rng(seed)
        if kind == "random":
            p = rng.uniform(1e-3, 1.0, j.size)
        elif kind == "flat":
            p = np.full(j.size, 0.7)
        else:
            p = np.zeros(j.size)
            p[c + spike % (j.size - 2 * c)] = 3.0
        inner = p[c:-c]
        pos = c + int(np.flatnonzero(inner == inner.max())[0])
        (peak_index, k, l_round, flagged), score, taps = decode_one(grid, p)
        assert peak_index == j[pos] % n
        assert k + c * l_round == j[pos]
        assert 0 <= l_round <= l_max
        assert flagged == (abs(k) > k_max)
        assert score == pspr(p, pos, c)
        assert np.array_equal(taps, p[[pos - c, pos, pos + c]])

        (floor,), (iota,) = _gate(np.array([l_round]), taps[None])
        assert floor in (l_round - 1, l_round)
        assert iota == 0.0 or 0.01 <= iota <= 0.99

    def test_gate_integer_cut(self):
        """A late tap whose share of (peak, late tap) is below the gate's
        integer cut reads as an integer delay at the peak (floor =
        delay_round, iota = 0), whatever the early tap says; above the cut
        the gate reads the bracket's share, and a larger early tap moves the
        bracket down. The cut is the dB cut _CUT_DB on 10*log10(at/after)."""
        shares = _INTEGER_SHARE * np.array([1.0 - 1e-6, 0.5, 1.0 + 1e-6, 1.5, 20.0])
        late = shares / (1.0 - shares)
        for early_tap in (1e-3, 0.5):
            taps = np.stack([np.full(late.size, early_tap), np.ones(late.size), late], axis=1)
            floor, iota = _gate(np.full(late.size, 2), taps)
            integer = late / (1.0 + late) < _INTEGER_SHARE
            assert integer.tolist() == [True, True, False, False, False]
            assert np.array_equal(integer, -10.0 * np.log10(late) > _CUT_DB)
            assert np.all(iota[integer] == 0.0) and np.all(floor[integer] == 2)
            bracket_down = early_tap > late[~integer]
            assert np.array_equal(floor[~integer], 2 - bracket_down)
            up = late[~integer]
            share = np.where(bracket_down, 1.0 / (early_tap + 1.0), up / (1.0 + up))
            assert np.array_equal(iota[~integer], np.clip(share, 0.01, 0.99))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(16, 4096),
        k_max=st.integers(0, 6),
        pad=st.integers(1, 24),
        l_max=st.integers(0, 6),
    )
    def test_decode_table_is_the_rounding_split(self, n, k_max, pad, l_max):
        """At every peak position of the decodeable range, the cached table
        holds the split js = k + C*l with l the nearest integer to js/C
        (half to even, as Python's round) and k the centered residue, the
        flag |k| > k_max, and js mod N; a lone spike there decodes to that
        entry. Every such l lies in [0, l_max], so the flag is the Doppler
        box alone."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        c = grid.n_seg
        j = profile_bins(grid)
        offsets, split = _decode_table(grid)
        assert offsets.tolist() == [-c, 0, c, *range(-(c // 2), c - c // 2)]
        assert all(a.shape == j.shape for a in split)
        inner = range(c, j.size - c)
        spikes = np.zeros((len(inner), j.size))
        spikes[np.arange(len(inner)), list(inner)] = 1.0
        decoded, _, _ = _decode(grid, spikes)
        for i, pos in enumerate(inner):
            js = int(j[pos])
            l = round(js / c)
            k = js - c * l
            assert -c / 2 <= k <= c / 2
            assert 0 <= l <= grid.l_max
            want = (js % grid.n, k, l, abs(k) > grid.k_max)
            assert tuple(a[pos].item() for a in split) == want
            assert tuple(a[i].item() for a in decoded) == want


class TestGate:
    """Stage 3 on hand-made comb taps (before, at, after) of one peak."""

    @settings(max_examples=200, deadline=None)
    @given(
        l=st.integers(0, 40),
        x=st.floats(0.011, 0.989),
        scale=st.floats(1e-6, 1e6),
    )
    def test_reads_the_delay_of_envelope_taps(self, l, x, scale):
        """Envelope taps |sinc(delay - l')| of a delay whose fraction lies in
        [0.011, 0.989], at the larger tap of its bracket and one comb period
        either side, scaled by any gain: the gate returns the delay to
        1e-12, from the late bracket below a fraction of 1/2 and from the
        early one above."""
        delay = l + x
        peak = l + int(x > 0.5)
        taps = scale * np.abs(np.sinc(delay - (peak + np.array([-1, 0, 1]))))
        (floor,), (iota,) = _gate(np.array([peak]), taps[None])
        assert floor == l
        assert abs(floor + iota - delay) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        reading=st.floats(-40.0, 60.0) | st.floats(_CUT_DB - 1e-6, _CUT_DB + 1e-6),
        early_db=st.floats(-40.0, 60.0),
        scale=st.floats(1e-100, 1e100),
    )
    def test_integer_decision_is_the_db_cut(self, reading, early_db, scale):
        """Wherever the peak-to-late reading in dB is more than 1e-9 dB off
        the cut, the gate calls the delay integer at the peak (floor =
        delay_round, iota = 0) exactly where the reading is above the cut,
        and otherwise takes the early bracket exactly where the early tap
        exceeds the late one."""
        taps = scale * 10.0 ** (-np.array([early_db, 0.0, reading]) / 10.0)
        a = 10.0 * (math.log10(taps[1]) - math.log10(taps[2]))
        assume(abs(a - _CUT_DB) > 1e-9)
        (floor,), (iota,) = _gate(np.array([5]), taps[None])
        assert (floor == 5 and iota == 0.0) == (a > _CUT_DB)
        assert floor == 5 - (taps[0] > taps[2] and a <= _CUT_DB)

    def test_near_integer_reading_maps_to_zero(self):
        """A late tap far below the peak (a 60 dB reading, or the curve's
        reading at iota = 0.005) is lost in the noise: the delay is integer
        at the peak, even where the early tap would tip the bracket down."""
        after = 10.0 ** (-np.array([60.0, elg_theory(0.005)]) / 10.0)
        taps = np.stack([np.full(2, 0.5), np.ones(2), after], axis=1)
        floor, iota = _gate(np.array([2, 2]), taps)
        assert floor.tolist() == [2, 2] and iota.tolist() == [0.0, 0.0]

    def test_clamps_at_the_curve_ends(self):
        """Shares between the integer cut and 0.01 read 0.01, shares above
        0.99 read 0.99: readings of 22 and -60 dB on the late bracket."""
        after = 10.0 ** (-np.array([22.0, -60.0]) / 10.0)
        taps = np.stack([np.zeros(2), np.ones(2), after], axis=1)
        floor, iota = _gate(np.array([2, 2]), taps)
        assert floor.tolist() == [2, 2] and iota.tolist() == [0.01, 0.99]

    def test_zero_taps_read_half_without_a_warning(self):
        """Three zero taps are floored alike, so the share is 1/2 and no
        division by zero is made."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor, iota = _gate(np.array([2]), np.zeros((1, 3)))
        assert floor.tolist() == [2] and iota.tolist() == [0.5]

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.floats(0.0, 1e3)] * 3)
            | st.sampled_from(
                [(0.0, 0.0, 0.0), (0.5, 1.0, _INTEGER_SHARE / (1.0 - _INTEGER_SHARE))]
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_a_stack_gives_each_row_alone(self, rows):
        """Random taps, zero taps and taps at the integer cut: the gate over
        a stack of rows gives each row what it gives that row alone."""
        taps = np.array(rows)
        delay_round = np.arange(len(rows))
        floor, iota = _gate(delay_round, taps)
        for i in range(len(rows)):
            (f,), (t,) = _gate(delay_round[i : i + 1], taps[i : i + 1])
            assert (floor[i], iota[i]) == (f, t)


class TestDopplerSearch:
    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
    def test_fraction_recovered(self, kappa):
        x = build_pilot_frame(GRID, LAYOUT, None)
        ch = LosChannel(delay=1.5, doppler=1.0 + kappa)
        r = oversampled_oracle(GRID, x, ch)
        (k_hat,), p = estimate_doppler_frac(GRID, r[None], LAYOUT)
        assert abs(k_hat - kappa) < 5e-3
        assert _pspr_rows(GRID, p)[0] > 50.0


class TestJointEstimate:
    def test_integer_channel_is_exact(self):
        x = build_pilot_frame(GRID, LAYOUT, None)
        for l, k in ((0, 0), (2, 1), (3, -3)):
            est = joint_estimate(GRID, pipeline(GRID, x, LosChannel(delay=l, doppler=k)), LAYOUT)
            assert est.delay_int == l
            assert est.delay_frac == 0.0
            assert est.doppler_int == k
            assert abs(est.doppler - k) < 5e-3
            assert est.peak_index == (k + GRID.n_seg * l) % GRID.n
            assert not est.flagged

    @pytest.mark.parametrize("delay", [1.2, 1.8])
    def test_fraction_bracket_both_sides(self, delay):
        """iota below and above one half anchor the early tap on opposite
        sides of the argmax; both must resolve to the same true delay."""
        x = build_pilot_frame(GRID, LAYOUT, None)
        ch = LosChannel(delay=delay, doppler=-2.55)
        est = joint_estimate(GRID, oversampled_oracle(GRID, x, ch), LAYOUT)
        assert abs(est.delay - delay) < 2e-2
        assert abs(est.doppler - ch.doppler) < 5e-3
        assert not est.flagged

    def test_profile_is_the_compensated_readout(self):
        """The search hands back each row's readout at its optimum, so the
        decode need not form it again; the estimate reports that readout's
        PSPR and compensation, for a frame alone and within a stack."""
        rng = np.random.default_rng(12)
        r = np.array([
            pipeline(GRID, build_pilot_frame(GRID, LAYOUT, rng), LosChannel(delay=d, doppler=k))
            for d, k in ((1.3, -0.7), (0.4, 2.2), (2.9, 0.1))
        ])
        for stack in (r[:1], r):
            kappa, p = estimate_doppler_frac(GRID, stack, LAYOUT)
            assert kappa.shape == (len(stack),) and p.shape == (len(stack), 48)
            ests = joint_estimate_rows(GRID, stack, LAYOUT)
            for row, k, prof, est in zip(stack, kappa, p, ests):
                expect = read_profile(GRID, daft_demodulate(GRID, compensated(row, k)), LAYOUT)
                assert np.max(np.abs(prof - expect)) < 1e-10
                assert est.doppler_frac == k
                assert est.pspr == scalar_pspr(GRID, prof)

    @pytest.mark.parametrize("fn", [joint_estimate, estimate_doppler_frac])
    @pytest.mark.parametrize("shape", [(GRID.n - 1,), (GRID.n + 1,), (1, GRID.n), ()])
    def test_wrong_shape_rejected(self, fn, shape):
        """A frame of the wrong shape is refused by the one-frame entry point,
        and as the one row of a stack by stage 1, which takes stacks."""
        r = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            fn(GRID, r[None] if fn is estimate_doppler_frac else r, LAYOUT)

    @pytest.mark.parametrize("fn", [joint_estimate, estimate_doppler_frac])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_samples_rejected(self, fn, bad):
        r = np.ones(GRID.n, dtype=complex)
        r[17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fn(GRID, r[None] if fn is estimate_doppler_frac else r, LAYOUT)

    def test_all_zero_frame_is_flagged_with_finite_fields(self):
        est = joint_estimate(GRID, np.zeros(GRID.n, dtype=complex), LAYOUT)
        assert est.flagged
        assert np.all(np.isfinite([est.delay, est.doppler, est.pspr]))

    def test_doppler_frac_is_python_float(self):
        x = build_pilot_frame(GRID, LAYOUT, None)
        est = joint_estimate(GRID, pipeline(GRID, x, LosChannel(delay=0.4, doppler=1.6)), LAYOUT)
        assert type(est.doppler_frac) is float

    def test_estimate_sums(self):
        est = Estimate(
            delay_int=1, delay_frac=0.25, doppler_int=-2, doppler_frac=0.6,
            pspr=10.0, peak_index=3, flagged=False,
        )
        assert est.delay == 1.25
        assert est.doppler == -1.4

    def test_noisy_batch_statistics(self):
        """Loaded frames at 20 dB SNR: decode is almost always in range and
        the fractional errors stay small on average. Seeded, so the exact
        numbers are stable; thresholds leave room below the measured values
        (49/50 unflagged, mean errors 0.050 / 0.018)."""
        rng = np.random.default_rng(99)
        n_data = LAYOUT.data_slots(GRID).size
        noise_var = (LAYOUT.pilot_amplitude**2 + n_data) / GRID.n / 10.0**2.0
        unflagged = 0
        delay_err, doppler_err = [], []
        for _ in range(50):
            x = build_pilot_frame(GRID, LAYOUT, rng)
            ch = LosChannel(
                gain=np.exp(2j * np.pi * rng.uniform()),
                delay=rng.uniform(0, GRID.l_max),
                doppler=rng.uniform(-GRID.k_max, GRID.k_max),
                noise_var=noise_var,
            )
            est = joint_estimate(GRID, pipeline(GRID, x, ch, rng=rng), LAYOUT)
            if not est.flagged:
                unflagged += 1
            delay_err.append(abs(est.delay - ch.delay))
            e = est.doppler - ch.doppler
            doppler_err.append(abs(e - round(e)))
        assert unflagged >= 47
        assert np.mean(delay_err) < 0.1
        assert np.mean(doppler_err) < 0.05


def pinned_frames():
    """16 seeded loaded frames at 10/20/30 dB, alternating the default grid
    with an odd C*N grid (N=255, C=9) whose pilot sits at index 40."""
    rng = np.random.default_rng(17)
    odd = AfdmGrid(n=255, doppler_pad=3)
    for i in range(16):
        grid, layout = (GRID, LAYOUT) if i % 2 == 0 else (odd, PilotLayout(pilot_index=40))
        n_data = layout.data_slots(grid).size
        snr_db = (10.0, 20.0, 30.0)[i % 3]
        noise_var = (layout.pilot_amplitude**2 + n_data) / grid.n / 10.0 ** (snr_db / 10.0)
        ch = LosChannel(
            gain=np.exp(2j * np.pi * rng.uniform()),
            delay=rng.uniform(0, grid.l_max),
            doppler=rng.uniform(-grid.k_max, grid.k_max),
            noise_var=noise_var,
        )
        x = build_pilot_frame(grid, layout, rng)
        yield grid, layout, pipeline(grid, x, ch, rng=rng)


# (delay_int, delay_frac, doppler_int, doppler_frac, pspr, flagged) per
# pinned frame, recorded with the candidate-by-candidate coarse search
# reading rows of the dense transform matrix; delay_frac re-recorded when
# the gate came to read the late tap's share in closed form (each moved by
# at most 2.5e-6 from the tabulated inversion)
PINNED = [
    (0, 0.5442167227341776, 0, 0.3087086595898749, 58.60114566349711, False),
    (0, 0.9515056541761759, -3, 0.9742828432226514, 2240.4579394909274, False),
    (2, 0.2561454281954919, -3, 0.4121939562694146, 1666.1057104124113, False),
    (3, 0.18779283272098923, -2, 0.11250114552724352, 188.4337491467366, False),
    (0, 0.38992134498341624, -3, 0.012244772636638245, 211.0475503681526, False),
    (1, 0.6164598320256455, 2, 0.670901470332046, 318.2394184744956, False),
    (2, 0.14783762806890788, 1, 0.6127552273633617, 118.4133373679009, False),
    (1, 0.8470853052349729, 1, 0.7995900324804802, 967.9639477978833, False),
    (1, 0.8688162179509529, -3, 0.05763235166023018, 1906.884591300983, False),
    (1, 0.3572477397654468, 2, 0.4931367670115857, 84.6821051854675, False),
    (1, 0.934925662118375, -2, 0.12986764833976983, 1113.0060204148124, False),
    (0, 0.6103526345104491, -2, 0.494878269824112, 251.62297678612174, False),
    (3, 0.17666393725451912, 2, 0.5281238544727564, 180.57490055240535, False),
    (-1, 0.8934390696904345, -3, 0.4597341511522961, 843.574552316129, False),
    (-1, 0.9054212804230701, -2, 0.8254099675195198, 8771.169660092331, False),
    (1, 0.22020644710342477, -1, 0.22710065396482237, 121.92882794209119, False),
]


def test_joint_estimates_pinned_on_seeded_frames():
    for (grid, layout, r), expect in zip(pinned_frames(), PINNED, strict=True):
        est = joint_estimate(grid, r, layout)
        l, iota, k, kappa, score, flagged = expect
        assert (est.delay_int, est.doppler_int, est.flagged) == (l, k, flagged)
        assert abs(est.delay_frac - iota) <= 1e-12
        assert abs(est.doppler_frac - kappa) <= 1e-12
        assert abs(est.pspr - score) <= 1e-12 * score


@st.composite
def loaded_frames(draw, margin=0.0):
    """A random valid grid and pilot position, and a frame body received
    over a fractional channel, with QPSK data, at 10, 20 or 30 dB:
    (grid, layout, body, the channel's Doppler). The Doppler stays
    ``margin`` bins inside [-k_max, k_max]."""
    try:
        grid = AfdmGrid(
            n=draw(st.integers(96, 320)),
            k_max=draw(st.integers(int(np.ceil(margin)), 3)),
            l_max=draw(st.integers(0, 3)),
            doppler_pad=draw(st.integers(1, 4)),
        )
    except ValueError:
        assume(False)
    layout = PilotLayout(pilot_index=draw(st.integers(0, grid.n - 1)))
    doppler = draw(st.floats(margin - grid.k_max, grid.k_max - margin))
    snr_db = draw(st.sampled_from((10.0, 20.0, 30.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ch = LosChannel(
        gain=np.exp(2j * np.pi * rng.uniform()),
        delay=draw(st.floats(0.0, grid.l_max)),
        doppler=doppler,
        noise_var=noise_variance(grid, layout, snr_db),
    )
    x = build_pilot_frame(grid, layout, rng)
    return grid, layout, pipeline(grid, x, ch, rng=rng), doppler


def assert_same_decode(got, ref, n, shift=0):
    """Integers and the flag exactly (the Doppler and the peak moved by
    shift), the fractions to 1e-12."""
    assert (got.delay_int, got.doppler_int, got.peak_index, got.flagged) == (
        ref.delay_int,
        ref.doppler_int + shift,
        (ref.peak_index + shift) % n,
        ref.flagged,
    )
    assert abs(got.delay_frac - ref.delay_frac) <= 1e-12
    assert abs(got.doppler_frac - ref.doppler_frac) <= 1e-12


def assert_same_pspr(got, ref):
    assert math.isclose(got.pspr, ref.pspr, rel_tol=1e-12, abs_tol=0.0)


class TestSymmetries:
    """joint_estimate does not see what the pilot readout cannot: a global
    phase or gain of the frame leaves every field as it was, and an integer
    Doppler shift inside the search box moves only the integer Doppler and
    the peak."""

    @settings(max_examples=60, deadline=None)
    @given(frame=loaded_frames(), phase=st.floats(0.0, 2.0 * np.pi))
    def test_global_phase_changes_nothing(self, frame, phase):
        grid, layout, r, _ = frame
        ref = joint_estimate(grid, r, layout)
        got = joint_estimate(grid, r * np.exp(1j * phase), layout)
        assert_same_decode(got, ref, grid.n)
        assert_same_pspr(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(frame=loaded_frames(), gain=st.floats(1e-3, 1e3))
    def test_gain_changes_no_decode(self, frame, gain):
        """Every field but the PSPR, whose gain symmetry
        test_gain_changes_a_large_pspr pins on one frame."""
        grid, layout, r, _ = frame
        ref = joint_estimate(grid, r, layout)
        assert_same_decode(joint_estimate(grid, gain * r, layout), ref, grid.n)

    def test_gain_changes_a_large_pspr(self):
        """The gain symmetry of a large PSPR, pinned on one frame: C = 2 and
        30 dB give a PSPR of 2.0e7, whose two-bin window holds a sidelobe
        power 1e-7 of the peak's. Taken as the window sum minus the peak
        power, the sidelobe sum cancelled, and scaling the frame by 1e3 moved
        the PSPR by 1.3e-9 relative; summed directly it keeps its bits to
        1e-12."""
        grid = AfdmGrid(n=128, k_max=0, l_max=1, doppler_pad=2)
        rng = np.random.default_rng(0)
        ch = LosChannel(noise_var=noise_variance(grid, LAYOUT, 30.0))
        r = pipeline(grid, build_pilot_frame(grid, LAYOUT, rng), ch, rng=rng)
        ref = joint_estimate(grid, r, LAYOUT)
        assert ref.pspr > 1e7
        assert_same_pspr(joint_estimate(grid, 1e3 * r, LAYOUT), ref)

    @settings(max_examples=60, deadline=None)
    @given(frame=loaded_frames(margin=0.5), data=st.data())
    def test_integer_doppler_shift_moves_only_the_integer_doppler(self, frame, data):
        """The channel's Doppler, before and after the shift, stays at least
        half a bin inside [-k_max, k_max], so every integer the decode can
        land on lies inside the box."""
        grid, layout, r, doppler = frame
        edge = grid.k_max - 0.5
        shift = data.draw(st.integers(int(np.ceil(-edge - doppler)), int(np.floor(edge - doppler))))
        ref = joint_estimate(grid, r, layout)
        # the shift's phasor exp(-2 pi i shift n / N), reduced mod N in integers
        phasor = np.exp(-2j * np.pi * (shift * np.arange(grid.n) % grid.n) / grid.n)
        got = joint_estimate(grid, r * phasor, layout)
        assert_same_decode(got, ref, grid.n, shift)
        assert_same_pspr(got, ref)


@st.composite
def loaded_stacks(draw):
    """A ``loaded_frames`` grid, pilot position and frame body, stacked
    with one to four more bodies received on that grid, each over a
    channel, data and noise of its own: (grid, layout, (F, N) stack)."""
    grid, layout, r, _ = draw(loaded_frames())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [r]
    for _ in range(draw(st.integers(1, 4))):
        ch = LosChannel(
            gain=np.exp(2j * np.pi * rng.uniform()),
            delay=rng.uniform(0.0, grid.l_max),
            doppler=rng.uniform(-grid.k_max, grid.k_max),
            noise_var=noise_variance(grid, layout, 20.0),
        )
        rows.append(pipeline(grid, build_pilot_frame(grid, layout, rng), ch, rng=rng))
    return grid, layout, np.array(rows)


def assert_rows_equal(stacked, rows):
    assert stacked.shape == (len(rows), *rows[0].shape)
    for got, expect in zip(stacked, rows):
        assert np.array_equal(got, expect)


class TestStacks:
    """A stack of frames on one grid comes out of every layer as its rows
    would one at a time, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(stack=loaded_stacks())
    def test_every_row_of_the_stacked_joint_is_its_own_estimate(self, stack):
        grid, layout, r = stack
        assert joint_estimate_rows(grid, r, layout) == [
            joint_estimate(grid, row, layout) for row in r
        ]

    def test_stacked_joint_on_odd_cn_and_a_nonzero_pilot(self):
        """A fixed case of the property above, as a sweep trial stacks its
        frames (one channel), on a grid whose prefix is the negated tail
        (C*N odd) and with the pilot off slot 0."""
        grid = AfdmGrid(n=255, doppler_pad=3)
        layout = PilotLayout(pilot_index=17)
        rng = np.random.default_rng(31)
        ch = LosChannel(
            gain=0.6 + 0.8j, delay=2.3, doppler=-1.4,
            noise_var=noise_variance(grid, layout, 20.0),
        )
        r = np.array([
            pipeline(grid, build_pilot_frame(grid, layout, rng), ch, rng=rng) for _ in range(6)
        ])
        ests = joint_estimate_rows(grid, r, layout)
        assert ests == [joint_estimate(grid, row, layout) for row in r]
        assert not any(e.flagged for e in ests)

    @settings(max_examples=40, deadline=None)
    @given(
        stack=loaded_stacks(),
        delay=st.floats(0.0, 1.0),
        doppler=st.floats(-1.0, 1.0),
        phase=st.floats(0.0, 2.0 * np.pi),
    )
    def test_stacked_transforms_and_channel_equal_their_rows(self, stack, delay, doppler, phase):
        grid, layout, r = stack
        ch = LosChannel(
            gain=np.exp(1j * phase), delay=delay * grid.l_max, doppler=doppler * grid.k_max
        )
        s = daft_modulate(grid, r)
        assert_rows_equal(s, [daft_modulate(grid, row) for row in r])
        sp = add_prefix(grid, s)
        assert_rows_equal(sp, [add_prefix(grid, row) for row in s])
        out = apply_los_channel(grid, sp, ch)
        assert_rows_equal(out, [apply_los_channel(grid, row, ch) for row in sp])
        body = strip_prefix(grid, out)
        assert_rows_equal(body, [strip_prefix(grid, row) for row in out])
        y = daft_demodulate(grid, body)
        assert_rows_equal(y, [daft_demodulate(grid, row) for row in body])

    @settings(max_examples=30, deadline=None)
    @given(stack=loaded_stacks(), where=st.integers(0, 5))
    def test_an_all_zero_row_is_flagged_and_leaves_the_others(self, stack, where):
        grid, layout, r = stack
        i = where % (len(r) + 1)
        ests = joint_estimate_rows(grid, np.insert(r, i, 0.0, axis=0), layout)
        assert ests[i] == _NO_ESTIMATE
        assert ests[:i] + ests[i + 1 :] == joint_estimate_rows(grid, r, layout)

    @pytest.mark.parametrize(
        "shape,nan_row,match",
        [
            ((3, GRID.n), 1, "frame 1 of the stack has non-finite samples"),
            ((3, GRID.n - 1), None, f"frames of the stack must have {GRID.n} samples"),
            ((2, 3, GRID.n), None, "a frame stack must be 2-D"),
            ((GRID.n,), None, "a frame stack must be 2-D"),
            ((0, GRID.n), None, "the frame stack holds no frames"),
        ],
        ids=["nan-in-row-1", "wrong-last-dimension", "3-d", "1-d", "no-frames"],
    )
    def test_malformed_stack_is_rejected_before_any_table(self, shape, nan_row, match):
        r = np.ones(shape, dtype=complex)
        if nan_row is not None:
            r[nan_row, 5] = np.nan
        built = (_coarse_czt.cache_info().misses, _pruned_dft.cache_info().misses)
        with pytest.raises(ValueError, match=match):
            joint_estimate_rows(GRID, r, LAYOUT)
        assert (_coarse_czt.cache_info().misses, _pruned_dft.cache_info().misses) == built

    @settings(max_examples=40, deadline=None)
    @given(stack=loaded_stacks(), rows=st.integers(1, 5))
    def test_joint_rows_are_their_own_estimates_in_any_score_blocks(self, stack, rows):
        """The coarse grid of a stack is scored a block of rows at a time;
        with blocks of ``rows`` rows every row is still its own estimate."""
        grid, layout, r = stack
        row_bytes = _coarse_czt(grid, layout, _COARSE_STEPS)[1].nbytes
        with mock.patch.object(estimator, "_SCORE_BLOCK_BYTES", rows * row_bytes):
            got = joint_estimate_rows(grid, r, layout)
        assert got == [joint_estimate(grid, row, layout) for row in r]

    @settings(max_examples=40, deadline=None)
    @given(stack=loaded_stacks(), where=st.integers(0, 5))
    def test_every_row_of_integer_only_rows_is_its_own_estimate(self, stack, where):
        """With an all-zero row inserted, which is the flagged no-estimate."""
        grid, layout, r = stack
        y = daft_demodulate(grid, np.insert(r, where % (len(r) + 1), 0.0, axis=0))
        got = integer_only_rows(grid, y, layout)
        assert got == [integer_only(grid, row, layout) for row in y]
        assert _NO_ESTIMATE in got

    def test_integer_only_rows_on_odd_cn_and_a_nonzero_pilot(self):
        grid = AfdmGrid(n=255, doppler_pad=3)
        layout = PilotLayout(pilot_index=17)
        rng = np.random.default_rng(32)
        y = []
        for _ in range(6):
            ch = LosChannel(
                gain=np.exp(2j * np.pi * rng.uniform()),
                delay=rng.uniform(0.0, grid.l_max),
                doppler=rng.uniform(-grid.k_max, grid.k_max),
                noise_var=noise_variance(grid, layout, 20.0),
            )
            r = pipeline(grid, build_pilot_frame(grid, layout, rng), ch, rng=rng)
            y.append(daft_demodulate(grid, r))
        ests = integer_only_rows(grid, np.array(y), layout)
        assert ests == [integer_only(grid, row, layout) for row in y]
        assert not any(e.flagged for e in ests)

    @pytest.mark.parametrize("case", ["loaded", "all-zero", "odd-cn-pilot-40"])
    def test_one_frame_entry_points_equal_one_row_stacks(self, case):
        """Each estimator's one-frame entry point gives the Estimate its
        stacked form (harness.ESTIMATORS) gives the frame as a stack of one:
        on a loaded frame, on an all-zero frame (the flagged no-estimate)
        and on the odd C*N grid (N=255, C=9) with the pilot at index 40."""
        grid, layout = (
            (AfdmGrid(n=255, doppler_pad=3), PilotLayout(pilot_index=40))
            if case == "odd-cn-pilot-40"
            else (GRID, LAYOUT)
        )
        rng = np.random.default_rng(33)
        ch = LosChannel(
            gain=0.6 - 0.8j, delay=1.7, doppler=-1.3, noise_var=noise_variance(grid, layout, 20.0)
        )
        r = pipeline(grid, build_pilot_frame(grid, layout, rng), ch, rng=rng)
        if case == "all-zero":
            r = np.zeros(grid.n, dtype=complex)
        y = daft_demodulate(grid, r)
        one = {
            "joint": joint_estimate(grid, r, layout),
            "integer_only": integer_only(grid, y, layout),
            "two_d_search": two_d_search(grid, y, layout),
        }
        assert set(one) == set(ESTIMATORS)
        for name, estimate in ESTIMATORS.items():
            assert estimate(grid, r[None], layout) == [one[name]]
        assert all(e == _NO_ESTIMATE for e in one.values()) == (case == "all-zero")

    def test_integer_only_rows_rejects_a_single_frame(self):
        with pytest.raises(ValueError, match="a frame stack must be 2-D"):
            integer_only_rows(GRID, np.ones(GRID.n, dtype=complex), LAYOUT)
