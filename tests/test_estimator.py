"""Pilot layout, profile readout, and the three-stage joint estimator.

Integer decode must be bit-exact on clean integer channels (that is the
comb structure doing its job); the fractional stages are approximate by
nature and are held to the tolerances the pipeline is designed around:
5e-3 on the Doppler fraction, 2e-2 on the delay fraction.
"""

import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from afdmest import baselines, channel, core, effective, estimator, harness
from afdmest.baselines import _search_tables, integer_only, two_d_search
from afdmest.channel import FIR_HALF_WIDTH, LosChannel, apply_los_channel, oversampled_oracle
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
    _FINE_PROBES,
    _FIT,
    _INTEGER_SHARE,
    _LEAD,
    _NODES,
    _PROBES,
    Estimate,
    PilotLayout,
    _best_cells,
    _coarse_czt,
    _coarse_scores,
    _decode,
    _decode_table,
    _gate,
    _inner_slice,
    _pspr_rows,
    _window_pspr,
    build_pilot_frame,
    estimate_doppler_frac,
    joint_estimate,
    profile_bins,
    pspr,
    read_profile,
    readout_bins,
)
from afdmest.harness import ESTIMATORS, noise_variance

GRID = AfdmGrid()
LAYOUT = PilotLayout()
# what a frame whose pilot readout is all zero (nothing received) yields
NO_ESTIMATE = Estimate(0, 0.0, 0, 0.0, 0.0, 0, True)
# every function that takes one frame or an (F, N) stack of them: the three
# estimators and stage 1
FRAME_TAKERS = [joint_estimate, estimate_doppler_frac, integer_only, two_d_search]


def assert_refused_before_any_table(fn, r, match):
    """fn raises a ValueError matching ``match`` on r before it looks up a
    cached chirp-z or search table."""
    # cleared first, so a table looked up before the check is a miss even
    # where an earlier test cached it
    _coarse_czt.cache_clear()
    _search_tables.cache_clear()
    with pytest.raises(ValueError, match=match):
        fn(GRID, r, LAYOUT)
    assert _coarse_czt.cache_info().misses == _search_tables.cache_info().misses == 0


def pipeline(grid, x, ch, rng=None):
    s = add_prefix(grid, daft_modulate(grid, x))
    return strip_prefix(grid, apply_los_channel(grid, s, ch, rng=rng))


def compensated(r, kappa):
    """The body r with a fractional Doppler kappa undone by the defining
    phasor exp(2 pi i kappa n / N), or every row of an (F, N) stack of
    bodies r with kappa[f] undone in row f."""
    n = r.shape[-1]
    return r * np.exp(2j * np.pi * np.asarray(kappa)[..., None] * np.arange(n) / n)


def readout(grid, r, layout, kappa):
    """The pilot readout of the body r with kappa compensated, or of every
    row of a stack with its own kappa: read_profile of the full
    demodulation of the compensated body, the readout the PSPR is defined
    on."""
    return read_profile(grid, daft_demodulate(grid, compensated(r, kappa)), layout)


def dtft_readout(grid, r, layout, kappa):
    """The pilot readout of the single body r with kappa compensated, as
    |Z(b - kappa)|/sqrt(N), Z the DTFT of the dechirped body conj(e1) r,
    summed directly at the readout bins b (b*n reduced mod N in integers
    before it is exponentiated)."""
    n = np.arange(grid.n)
    e1, _ = _chirps(grid.n, grid.c1, grid.c2)
    cycles = (np.multiply.outer(readout_bins(grid, layout), n) % grid.n - kappa * n) / grid.n
    return np.abs(np.exp(-2j * np.pi * cycles) @ (np.conj(e1) * r)) / math.sqrt(grid.n)


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

    @pytest.mark.parametrize("shape", [(GRID.n + 44,), (GRID.n - 156,), (2, 3, GRID.n)])
    def test_readout_refuses_a_malformed_frame(self, shape):
        """A frame of 300 or 100 samples at N=256, or a 3-D stack, is
        refused by the transforms' rule, instead of read (the 300) or
        failing on an index (the 100)."""
        with pytest.raises(ValueError, match="frame must have shape"):
            read_profile(GRID, np.ones(shape, dtype=complex), LAYOUT)

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

    @pytest.mark.parametrize("c", [1, 7, 8])
    def test_pspr_window_must_lie_inside_the_profile(self, c):
        """The C-bin window may touch either end of the profile; one bin
        past either end raises, where it was cut short or indexed past its
        end."""
        p = np.random.default_rng(c).uniform(0.1, 3.0, 10)
        half = c // 2
        first, last = half, p.size - (c - half)
        for pos in (first, last):
            assert pspr(p, pos, c) == both_psprs(p, pos, c)[1]
        with pytest.raises(ValueError, match=rf"\[-1, {c - 1}\) .* 10 bins"):
            pspr(p, first - 1, c)
        with pytest.raises(ValueError, match=rf"\[{11 - c}, 11\) .* 10 bins"):
            pspr(p, last + 1, c)

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
        got = readout(GRID, r, LAYOUT, kappa)
        assert np.allclose(got, readout(GRID, s, LAYOUT, 0.0), atol=1e-12)

    @pytest.mark.parametrize("n", [255, 256, 4096, 8193])
    @pytest.mark.parametrize("kappa", [0.0, 0.37, 0.999, 1.5, -0.2])
    def test_compensate_matches_direct_phasor(self, n, kappa):
        """The direct phasor exp(2 pi i kappa n / N) compensates kappa as a
        shift of the transform: one more bin of compensation reads the
        demodulated body one bin along, the rule by which stage 1 reads a
        compensation that leaves [0, 1) off its fitted profile, for odd N,
        non-square N and kappa outside [0, 1)."""
        grid = AfdmGrid(n=n)
        rng = np.random.default_rng(n)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = np.abs(daft_demodulate(grid, compensated(r, kappa)))
        below = np.abs(daft_demodulate(grid, compensated(r, kappa - 1.0)))
        assert np.max(np.abs(y - np.roll(below, 1))) <= 1e-12 * np.max(y)

    def test_readout_matches_full_demodulation_at_zero(self):
        """Uncompensated, the readout drops U^H's unit-modulus row phase
        conj(e2[b]), so it is the same for any c2."""
        rng = np.random.default_rng(8)
        r = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
        other = AfdmGrid(c2=0.5)
        assert other.c2 != GRID.c2
        got = readout(GRID, r, LAYOUT, 0.0)
        assert np.max(np.abs(got - readout(other, r, LAYOUT, 0.0))) < 1e-10

    @pytest.mark.parametrize("n", [4096, 16384, 4093])
    @pytest.mark.parametrize("pilot", [0, 40])
    def test_readout_matches_full_demodulation_at_large_n(self, n, pilot):
        """Fixed cases above the property's range, a prime N among them: the
        full demodulation of the compensated body reads the DTFT of the
        dechirped body at b - kappa."""
        grid = AfdmGrid(n=n)
        layout = PilotLayout(pilot_index=pilot)
        rng = np.random.default_rng(n + pilot)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for kappa in (0.0, 0.37, 0.999, -0.004):
            expect = dtft_readout(grid, r, layout, kappa)
            got = readout(grid, r, layout, kappa)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(expect)

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
        """read_profile of the full demodulation of the compensated body is
        the DTFT of the dechirped body at b - kappa, the readout stage 1's
        chirp-z samples, to 1e-12 of its peak, over N, the parity of C*N,
        the pilot position and the compensation."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad, n_prefix=min(n, 36))
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expect = dtft_readout(grid, r, layout, kappa)
        got = readout(grid, r, layout, kappa)
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


def bluestein_scores(grid, layout, r):
    """The coarse scores of the (F, N) stack r from one long Bluestein
    convolution, zero-padded to the smallest 5-smooth length at or above
    N + m - 1 (m = J*steps plus the lead of _LEAD outputs before and after
    the profile's), kept as the reference of _coarse_scores, which runs
    the same arithmetic and gives the same bits."""
    n, steps, lead = grid.n, _COARSE_STEPS, _LEAD
    period = 2 * steps * n
    j = profile_bins(grid)
    m = j.size * steps + 2 * lead
    size = smooth_at_or_above(n + m - 1)
    k = np.arange(max(m, n), dtype=np.int64)
    chirp = np.exp(2j * np.pi * (k * k % period) / period)
    offset = (layout.pilot_index - int(j[0])) * k[:n] % n
    e1, _ = _chirps(n, grid.c1, grid.c2)
    start = 2j * np.pi * (((1 - 2 * lead) * k[:n] - 2 * steps * offset) % period)
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
    p = np.abs(spec[:, lead : m - lead]).reshape(len(r), -1, steps).swapaxes(-1, -2)
    return _pspr_rows(grid, p)


class TestCoarseScores:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(32, 320),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 4),
        l_max=st.integers(0, 3),
        pilot=st.integers(0, 10**6),
        spike=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_scores_match_scalar_loop(self, n, k_max, pad, l_max, pilot, spike, seed):
        """One chirp-z transform over all candidates and the vectorised PSPR
        give the scores of the candidate-by-candidate loop, over N, the
        parity of C, the pilot position and zero search boxes; a flat profile
        and a lone spike take the same path through the vectorised PSPR."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad, n_prefix=min(n, 36))
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        j = profile_bins(grid)
        cand, scores, _ = _coarse_scores(grid, layout, r[None])
        scores = scores[0]
        assert np.array_equal(cand, (np.arange(_COARSE_STEPS) + 0.5) / _COARSE_STEPS)
        profiles = np.array([readout(grid, r, layout, kappa) for kappa in cand])
        expect = np.array([scalar_pspr(grid, p) for p in profiles])
        # one chirp-z transform against a readout per candidate: equal
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
        assert got[-2] == pytest.approx(c / (c - 1))
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
        """The coarse scores have the bits of the test's own long Bluestein
        convolution, over N (primes included), the parity of C*N, C up to 26
        and the pilot position."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        _, got, _ = _coarse_scores(grid, layout, r)
        assert np.array_equal(got, bluestein_scores(grid, layout, r))

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_single_block_grid_is_the_long_convolution_bitwise(self, n):
        """On the large grids the transform is one convolution at the
        5-smooth length at or above N + m - 1, and the scores have the bits
        of the long convolution."""
        grid = AfdmGrid(n=n)
        rng = np.random.default_rng(n)
        r = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        _, kernel_fft, m = _coarse_czt(grid, LAYOUT)
        assert kernel_fft.shape == (smooth_at_or_above(n + m - 1),)
        _, got, _ = _coarse_scores(grid, LAYOUT, r)
        assert np.array_equal(got, bluestein_scores(grid, LAYOUT, r))

    @pytest.mark.parametrize(
        "n,pad,size", [(256, 2, 1080), (256, 6, 1458), (256, 20, 2880), (4096, 2, 5000)]
    )
    def test_size_rule(self, n, pad, size):
        """The m = J*steps + 2L outputs come from one circular convolution
        of S points, S the smallest 5-smooth length at or above N + m - 1."""
        grid = AfdmGrid(n=n, doppler_pad=pad)
        _, kernel_fft, m = _coarse_czt(grid, LAYOUT)
        assert m == profile_bins(grid).size * _COARSE_STEPS + 2 * _LEAD
        assert kernel_fft.shape == (size,)
        assert size == smooth_at_or_above(n + m - 1)

    def test_czt_cache_is_read_only_and_memory_is_linear(self):
        """At N=8192 the cached chirp-z factors are read-only, and building
        them plus one scoring call stays within 4 complex vectors of the
        padded length S; the N x steps phasor matrix of a one-product
        scoring (2 MiB here) would not fit."""
        grid = AfdmGrid(n=8192)
        steps = _COARSE_STEPS
        r = daft_modulate(grid, build_pilot_frame(grid, LAYOUT, np.random.default_rng(2)))
        _coarse_czt.cache_clear()
        tracemalloc.start()
        try:
            _coarse_scores(grid, LAYOUT, r[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pre, kernel_fft, m = _coarse_czt(grid, LAYOUT)
        (size,) = kernel_fft.shape
        # the padded length is the smallest 5-smooth one at or above N + m - 1
        assert grid.n + m - 1 <= size and smooth(size)
        assert not any(smooth(v) for v in range(grid.n + m - 1, size))
        assert m == profile_bins(grid).size * steps + 2 * _LEAD
        assert peak <= 4 * 16 * size < 16 * grid.n * steps
        for a in (pre, kernel_fft):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_coarse_ties_refine_to_the_truth_from_either_cell(self):
        """Noise-free pilot-only frames on a quarter-bin grid of delay and
        Doppler (N=255, C=9, pilot 40) often score two coarse cells equal to
        rounding, so which one wins depends on the transform's rounding.
        Refined from either, the Doppler estimate lies within 1e-3 of the
        truth, and the delay estimate is the same."""
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
        ests = joint_estimate(grid, r, layout)
        assert all(abs(e.doppler - k) <= 1e-3 for e, (_, k) in zip(ests, truth))
        cand, scores, _ = _coarse_scores(grid, layout, r)
        order = np.argsort(scores, axis=-1)
        top = np.take_along_axis(scores, order[:, -2:], axis=-1)
        tied = np.flatnonzero(top[:, 1] - top[:, 0] <= 1e-12 * top[:, 1])
        assert tied.size > 0
        for i in tied:
            _, k = truth[i]
            both, starts = [], []
            for cell in order[i, -2:]:
                # the cell is forced by its coarse score, so the refine's
                # polynomial fit is taken around it too
                def forced(*args, cell=cell):
                    cand, scores, outputs = _coarse_scores(*args)
                    scores[:, cell] = np.inf
                    return cand, scores, outputs

                with (
                    mock.patch.object(estimator, "_coarse_scores", forced),
                    mock.patch.object(estimator, "_refine", wraps=estimator._refine) as refine,
                ):
                    both.append(joint_estimate(grid, r[i], layout))
                starts.append(refine.call_args.args[1].tolist())
            assert starts == [cand[[cell]].tolist() for cell in order[i, -2:]]
            assert starts[0] != starts[1]
            assert all(abs(e.doppler - k) <= 1e-3 for e in both)
            assert both[0].delay == both[1].delay


def reference_refine(grid, layout, r):
    """Stage 1's compensations of the (F, N) stack r as the refine finds
    them when each probe of its two passes reads every frame's compensated
    readout (``readout``) and scores the readouts with the stacked PSPR:
    the refine without the fitted polynomials, kept as their reference.
    Returns (kappa, close): close marks the rows two of whose probes in
    one pass scored within 1e-12 relative, where the two forms may part on
    rounding."""
    best, _ = _best_cells(grid, layout, r)
    rows = np.arange(len(r))

    def scores(probes):
        # (F, probes) PSPRs at the (F, probes) offsets, in coarse steps
        kappas = best + probes.T / _COARSE_STEPS
        return np.array([_pspr_rows(grid, readout(grid, r, layout, k)) for k in kappas]).T

    first = scores(np.broadcast_to(_PROBES, (len(r), _PROBES.size)))
    fine = _FINE_PROBES[first.argmax(axis=-1)]
    second = scores(fine)
    kappa = (best + fine[rows, second.argmax(axis=-1)] / _COARSE_STEPS) % 1.0
    close = np.zeros(len(r), dtype=bool)
    for probes in (np.sort(first, axis=-1), np.sort(second, axis=-1)):
        close |= (np.diff(probes, axis=-1) <= 1e-12 * probes[:, 1:]).any(axis=-1)
    return kappa, close


def assert_fit_is_the_readout(grid, layout, r):
    """The fitted readout of every row of r, at compensations from 9/8
    coarse step below its best cell to 9/8 above, is the compensated
    readout (``readout``) to 1e-13 of its peak, over the J profile bins
    and over the bin beyond each end, which the readout one compensation
    lower (for the bin before) or higher (after) holds at its own end."""
    best, coef = _best_cells(grid, layout, r)
    for s in (-1.125, -1.0, -0.61, -0.25, 0.0, 0.13, 0.5, 0.999, 1.0, 1.125):
        kappa = best + s / _COARSE_STEPS
        expect = np.column_stack(
            [
                readout(grid, r, layout, kappa - 1.0)[:, 0],
                readout(grid, r, layout, kappa),
                readout(grid, r, layout, kappa + 1.0)[:, -1],
            ]
        )
        got = np.abs(np.polynomial.polynomial.polyval(s, coef))
        err = np.max(np.abs(got - expect), axis=-1)
        assert np.all(err <= 1e-13 * np.max(expect, axis=-1))


def fit_bound(grid, r):
    """The fit's error bound of _fit_tables for each row of r over the
    refine's reach |s| <= 9/8, max|prod_x (s - x)|/K! (pi/steps)^K
    sum|r|/sqrt(N), plus 32 ulps of sum|r|/sqrt(N) for the rounding of the
    fit and of the readout it is held against."""
    s = np.linspace(-1.125, 1.125, 4501)
    nodes = np.max(np.abs(np.prod(s[:, None] - _NODES, axis=-1)))
    k = _NODES.size
    scale = np.abs(r).sum(axis=-1) / math.sqrt(grid.n)
    bound = nodes / math.factorial(k) * (math.pi / _COARSE_STEPS) ** k
    return (bound + 32 * np.finfo(float).eps) * scale


def forcing(cell):
    """_coarse_scores with the coarse cell ``cell`` scored best in every
    row, so stage 1 fits and refines around it."""

    def forced(*args):
        cand, scores, work = _coarse_scores(*args)
        scores[:, cell] = np.inf
        return cand, scores, work

    return forced


def unwrapped_floor(cell, kappa):
    """floor(best + s/steps) of the unwrapped compensations that stage 1,
    refined from the center ``best`` of ``cell``, wrapped to ``kappa``."""
    best = (cell + 0.5) / _COARSE_STEPS
    return np.floor(best + (kappa - best + 0.5) % 1.0 - 0.5).astype(int)


class TestFittedRefine:
    def test_fit_matrix_is_the_lagrange_basis_rounded_once(self):
        """Every entry of the monomial fit is the exact rational coefficient
        of its node's Lagrange basis polynomial, correctly rounded."""
        for i, node in enumerate(_NODES.tolist()):
            basis = [Fraction(1)]
            for other in _NODES.tolist():
                if other != node:
                    # times (s - other)/(node - other), lowest power first
                    scale = Fraction(1, node - other)
                    shifted = [Fraction(0)] + basis
                    basis = [
                        scale * (hi - other * lo)
                        for hi, lo in zip(shifted, basis + [Fraction(0)])
                    ]
            assert _FIT[:, i].tolist() == [float(b) for b in basis]

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
    def test_fit_is_the_readout_and_refines_as_its_reference(
        self, n, k_max, pad, l_max, pilot, rows, seed
    ):
        """Over N (primes included), the parity of C*N, C up to 26 and the
        pilot position: the fit is the readout near the best cell, and the
        refine finds the reference's compensations bit for bit, but where
        two of its probes scored within 1e-12 relative."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad, n_prefix=min(n, 36))
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        assert_fit_is_the_readout(grid, layout, r)
        kappa, _ = estimate_doppler_frac(grid, r, layout)
        expect, close = reference_refine(grid, layout, r)
        assert np.array_equal(kappa[~close], expect[~close])

    @pytest.mark.parametrize("n", [8192, 16384])
    def test_large_n(self, n):
        """Fixed cases above the property's range, on loaded frames over a
        fractional channel at 20 dB."""
        grid = AfdmGrid(n=n)
        layout = PilotLayout(pilot_index=40)
        rng = np.random.default_rng(n)
        r = []
        for delay, doppler in ((0.3, -1.37), (2.71, 2.05)):
            ch = LosChannel(
                gain=np.exp(2j * np.pi * rng.uniform()),
                delay=delay,
                doppler=doppler,
                noise_var=noise_variance(grid, layout, 20.0),
            )
            r.append(pipeline(grid, build_pilot_frame(grid, layout, rng), ch, rng=rng))
        r = np.array(r)
        assert_fit_is_the_readout(grid, layout, r)
        kappa, _ = estimate_doppler_frac(grid, r, layout)
        expect, close = reference_refine(grid, layout, r)
        assert not close.any()
        assert np.array_equal(kappa, expect)

    @pytest.mark.parametrize("block_rows", [1, 6])
    def test_stage_one_reads_the_stack_once(self, block_rows):
        """Stage 1 reads the stack once, in the coarse chirp-z, whether its
        coarse grid is scored a row at a time or all rows at once: every row
        is scored once, and the refine and the readout it returns come from
        the fit. The readout is the compensated readout at the refined
        compensations, within the fit's bound."""
        grid, layout = GRID, LAYOUT
        rng = np.random.default_rng(6)
        r = rng.standard_normal((6, grid.n)) + 1j * rng.standard_normal((6, grid.n))
        row_bytes = _coarse_czt(grid, layout)[1].nbytes
        with (
            mock.patch.object(estimator, "_coarse_scores", wraps=_coarse_scores) as scored,
            mock.patch.object(estimator, "_SCORE_BLOCK_BYTES", block_rows * row_bytes),
        ):
            kappa, p = estimate_doppler_frac(grid, r, layout)
        assert scored.call_count == -(-len(r) // block_rows)
        assert np.vstack([call.args[2] for call in scored.call_args_list]).tolist() == r.tolist()
        err = np.max(np.abs(p - readout(grid, r, layout, kappa)), axis=-1)
        assert np.all(err <= fit_bound(grid, r))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(36, 1100),  # the default 36-sample prefix fits
        k_max=st.integers(0, 3),
        pad=st.integers(1, 20),
        l_max=st.integers(0, 3),
        pilot=st.integers(1, 10**6),
        dopplers=st.lists(st.floats(-0.02, 0.02), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_readout_is_the_fit_at_the_refined_compensation(
        self, n, k_max, pad, l_max, pilot, dopplers, seed
    ):
        """Over N (primes included), the parity of C*N, C up to 26 and pilots
        off 0: the readout stage 1 returns is the compensated readout at the
        refined compensation within the fit's bound, on a random row and on
        noise-free pilot-only rows with Doppler fractions near 0. Those are
        also refined from the first and from the last coarse cell, forced
        by their coarse scores, where the unwrapped compensation best +
        s/steps lies below 0 or at or above 1 and the readout is the fit
        read a bin along the profile."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=1 + pilot % (n - 1))
        rng = np.random.default_rng(seed)
        s = add_prefix(grid, daft_modulate(grid, build_pilot_frame(grid, layout)))
        channels = [
            LosChannel(delay=rng.uniform(0, l_max), doppler=rng.integers(-k_max, k_max + 1) + f)
            for f in dopplers
        ]
        r = np.array(
            [rng.standard_normal(n) + 1j * rng.standard_normal(n)]
            + [strip_prefix(grid, apply_los_channel(grid, s, ch)) for ch in channels]
        )
        kappa, p = estimate_doppler_frac(grid, r, layout)
        bound = fit_bound(grid, r)
        assert np.all(np.max(np.abs(p - readout(grid, r, layout, kappa)), axis=-1) <= bound)
        for cell in (0, _COARSE_STEPS - 1):
            with mock.patch.object(estimator, "_coarse_scores", forcing(cell)):
                kappa, p = estimate_doppler_frac(grid, r, layout)
            event(f"unwrapped floors {sorted(set(unwrapped_floor(cell, kappa).tolist()))}")
            assert np.all(np.max(np.abs(p - readout(grid, r, layout, kappa)), axis=-1) <= bound)

    @pytest.mark.parametrize("cell,fraction,shift", [(_COARSE_STEPS - 1, 0.0, 1), (0, -0.01, -1)])
    def test_an_edge_cell_refined_past_the_edge_reads_its_channel(self, cell, fraction, shift):
        """Noise-free pilot-only frames over every integer channel of the
        box: their best coarse cell is the last one, and the refine lands on
        best + s/steps = 1, which wraps to a doppler_frac of 0.0 with the
        right integer split, and a readout one bin along the fitted profile.
        The same holds below 0, from the first cell forced on Doppler
        fractions of -0.01 whose integer part lies in the box."""
        grid, layout = GRID, LAYOUT
        s = add_prefix(grid, daft_modulate(grid, build_pilot_frame(grid, layout)))
        box = [
            (l, k)
            for l in range(grid.l_max + 1)
            for k in range(-grid.k_max, grid.k_max + 1)
            if math.floor(k + fraction) >= -grid.k_max
        ]
        channels = [LosChannel(delay=l, doppler=k + fraction) for l, k in box]
        r = np.array([strip_prefix(grid, apply_los_channel(grid, s, ch)) for ch in channels])
        if fraction == 0.0:
            _, scores, _ = _coarse_scores(grid, layout, r)
            assert np.all(scores.argmax(axis=-1) == cell)
        with mock.patch.object(estimator, "_coarse_scores", forcing(cell)):
            kappa, p = estimate_doppler_frac(grid, r, layout)
            ests = joint_estimate(grid, r, layout)
        assert np.all(unwrapped_floor(cell, kappa) == shift)
        np.testing.assert_allclose(kappa, fraction % 1.0, atol=1e-3)
        assert fraction != 0.0 or np.all(kappa == 0.0)
        err = np.max(np.abs(p - readout(grid, r, layout, kappa)), axis=-1)
        assert np.all(err <= fit_bound(grid, r))
        for (l, k), est, frac in zip(box, ests, kappa):
            doppler_int = math.floor(k + fraction)
            assert (est.delay_int, est.doppler_int, est.flagged) == (l, doppler_int, False)
            assert est.doppler_frac == frac
            assert est.peak_index == (doppler_int + grid.n_seg * l) % grid.n


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
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad, n_prefix=min(n, 36))
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
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad, n_prefix=min(n, 36))
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
            ests = joint_estimate(GRID, stack, LAYOUT)
            for row, k, prof, est in zip(stack, kappa, p, ests):
                expect = readout(GRID, row, LAYOUT, k)
                assert np.max(np.abs(prof - expect)) < 1e-10
                assert est.doppler_frac == k
                assert est.pspr == scalar_pspr(GRID, prof)

    @pytest.mark.parametrize("fn", FRAME_TAKERS)
    @pytest.mark.parametrize("shape", [(GRID.n - 1,), (GRID.n + 1,), (GRID.n, 1), ()])
    def test_wrong_shape_rejected(self, fn, shape):
        """A frame of N - 1 or N + 1 samples, a frame as a column and a
        scalar are refused by every estimator and by stage 1, with the
        transforms' message, before any table is built."""
        assert_refused_before_any_table(fn, np.ones(shape, dtype=complex), "frame must have shape")

    @pytest.mark.parametrize("fn", [joint_estimate, estimate_doppler_frac])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_samples_rejected(self, fn, bad):
        r = np.ones(GRID.n, dtype=complex)
        r[17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fn(GRID, r, LAYOUT)

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
# pinned frame, re-recorded when stage 1's refine came to take the best of
# 33 fixed probes of each frame's fit: doppler_frac moved by at most 5.3e-4,
# within a golden-section search's 1e-3, delay_frac by at most 6.7e-5 and
# pspr by at most 8.8e-5 relative. Frames 13 and 14 gate their delay to
# the bracket below the box (delay_int -1), and are flagged for it.
PINNED = [
    (0, 0.544226736248655, 0, 0.30859375, 58.601148976786746, False),
    (0, 0.9515004979505736, -3, 0.974609375, 2240.413953745831, False),
    (2, 0.25615160159823147, -3, 0.412109375, 1666.0970221586388, False),
    (3, 0.18779636330686353, -2, 0.1123046875, 188.43389044621895, False),
    (0, 0.3899779332418036, -3, 0.01171875, 211.04576935311738, False),
    (1, 0.6164601272712028, 2, 0.6708984375, 318.2394512251716, False),
    (2, 0.147822991286843, 1, 0.61328125, 118.41274595007802, False),
    (1, 0.8470581326383764, 1, 0.7998046875, 967.9306888951526, False),
    (1, 0.8688163798654749, -3, 0.0576171875, 1906.8824631503835, False),
    (1, 0.35724132560670196, 2, 0.4931640625, 84.68208602340107, False),
    (1, 0.93492789006102, -2, 0.1298828125, 1113.0054029461683, False),
    (0, 0.6103188369431016, -2, 0.4951171875, 251.62136255663032, False),
    (3, 0.1766790848898574, 2, 0.5283203125, 180.5739628355327, False),
    (-1, 0.8934279003160976, -3, 0.4599609375, 843.5473628540926, True),
    (-1, 0.9053917402011177, -2, 0.8251953125, 8770.401343774181, True),
    (1, 0.22013991818540035, -1, 0.2275390625, 121.92762310421038, False),
]


def test_joint_estimates_pinned_on_seeded_frames():
    for (grid, layout, r), expect in zip(pinned_frames(), PINNED, strict=True):
        est = joint_estimate(grid, r, layout)
        l, iota, k, kappa, score, flagged = expect
        assert (est.delay_int, est.doppler_int, est.flagged) == (l, k, flagged)
        assert abs(est.delay_frac - iota) <= 1e-12
        assert abs(est.doppler_frac - kappa) <= 1e-12
        assert abs(est.pspr - score) <= 1e-12 * score


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(64, 1100),
    k_max=st.integers(0, 3),
    pad=st.integers(1, 20),
    l_max=st.integers(0, 3),
    pilot=st.integers(0, 10**6),
    channels=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_unflagged_joint_estimate_lies_in_its_box(
    n, k_max, pad, l_max, pilot, channels, seed
):
    """Over random grids and pilot positions, on noise-free pilot-only
    frames over channels inside the search box (delay in [0, l_max],
    Doppler in [-k_max, k_max]): every estimate is flagged, or its delay
    lies in [0, l_max + 1) and its integer Doppler in [-k_max, k_max].
    A frame of pure noise, stacked with them, is held to the same promise
    and no more: its estimate need not be flagged."""
    try:
        grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
    except ValueError:
        assume(False)
    layout = PilotLayout(pilot_index=pilot % n)
    s = add_prefix(grid, daft_modulate(grid, build_pilot_frame(grid, layout)))
    # each channel's delay and Doppler as fractions of the box's extent
    box = [LosChannel(delay=d * l_max, doppler=k * k_max) for d, k in channels]
    frames = [strip_prefix(grid, apply_los_channel(grid, s, ch)) for ch in box]
    rng = np.random.default_rng(seed)
    frames.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for est in joint_estimate(grid, np.array(frames), layout):
        assert est.flagged or (
            0.0 <= est.delay < l_max + 1 and -k_max <= est.doppler_int <= k_max
        ), est


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

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    @settings(max_examples=25, deadline=None)
    @given(stack=loaded_stacks(), empty=st.lists(st.integers(0, 5), max_size=2))
    def test_every_row_of_a_stack_is_its_own_estimate(self, name, stack, empty):
        """Each estimator (harness.ESTIMATORS) on a stack with all-zero rows
        inserted at random positions: one Estimate of columns of length F
        and fixed dtypes, whose row i is the estimator on frame i alone,
        and whose all-zero rows are the flagged no-estimate."""
        grid, layout, r = stack
        for where in empty:
            r = np.insert(r, where % (len(r) + 1), 0.0, axis=0)
        estimate = ESTIMATORS[name]
        got = estimate(grid, r, layout)
        dtypes = dict(
            delay_int=np.int64, delay_frac=np.float64, doppler_int=np.int64,
            doppler_frac=np.float64, pspr=np.float64, peak_index=np.int64, flagged=np.bool_,
        )
        for field, dtype in dtypes.items():
            column = getattr(got, field)
            assert column.shape == (len(r),) and column.dtype == dtype, field
        assert list(got) == [got[i] for i in range(len(r))]
        for i, row in enumerate(r):
            assert got[i] == estimate(grid, row, layout)
            assert (got[i] == NO_ESTIMATE) == (not row.any())

    @settings(max_examples=40, deadline=None)
    @given(stack=loaded_stacks())
    def test_every_row_of_the_stacked_joint_is_its_own_estimate(self, stack):
        grid, layout, r = stack
        assert list(joint_estimate(grid, r, layout)) == [
            joint_estimate(grid, row, layout) for row in r
        ]

    @settings(max_examples=30, deadline=None)
    @given(stack=loaded_stacks(), where=st.integers(0, 5))
    def test_an_all_zero_row_is_flagged_and_leaves_the_others(self, stack, where):
        grid, layout, r = stack
        i = where % (len(r) + 1)
        ests = list(joint_estimate(grid, np.insert(r, i, 0.0, axis=0), layout))
        assert ests[i] == NO_ESTIMATE
        assert ests[:i] + ests[i + 1 :] == list(joint_estimate(grid, r, layout))

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
        ests = joint_estimate(grid, r, layout)
        assert list(ests) == [joint_estimate(grid, row, layout) for row in r]
        assert not ests.flagged.any()

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

    @pytest.mark.parametrize(
        "shape,nan_row,match",
        [
            ((3, GRID.n), 1, "frame 1 of the stack has non-finite samples"),
            ((3, GRID.n - 1), None, "frame must have shape"),
            ((2, 3, GRID.n), None, "frame must have shape"),
            ((0, GRID.n), None, "the frame stack holds no frames"),
        ],
        ids=["nan-in-row-1", "wrong-last-dimension", "3-d", "no-frames"],
    )
    def test_malformed_stack_is_rejected_before_any_table(self, shape, nan_row, match):
        r = np.ones(shape, dtype=complex)
        if nan_row is not None:
            r[nan_row, 5] = np.nan
        for fn in FRAME_TAKERS:
            assert_refused_before_any_table(fn, r, match)

    @settings(max_examples=40, deadline=None)
    @given(stack=loaded_stacks(), rows=st.integers(1, 5))
    def test_joint_rows_are_their_own_estimates_in_any_score_blocks(self, stack, rows):
        """The coarse grid of a stack is scored a block of rows at a time;
        with blocks of ``rows`` rows every row is still its own estimate."""
        grid, layout, r = stack
        row_bytes = _coarse_czt(grid, layout)[1].nbytes
        with mock.patch.object(estimator, "_SCORE_BLOCK_BYTES", rows * row_bytes):
            got = joint_estimate(grid, r, layout)
        assert list(got) == [joint_estimate(grid, row, layout) for row in r]

    @settings(max_examples=30, deadline=None)
    @given(stack=loaded_stacks(), where=st.integers(0, 5))
    def test_two_d_search_reports_the_decode_of_its_compensated_readout(self, stack, where):
        """Every row of a two_d_search stack reports the PSPR and peak index
        that _decode reads, bit for bit, off its frame's pilot readout with
        its own doppler_frac compensated (``readout`` of the frame's body);
        an all-zero row mixed into the stack is the flagged no-estimate."""
        grid, layout, r = stack
        i = where % (len(r) + 1)
        y = daft_demodulate(grid, np.insert(r, i, 0.0, axis=0))
        got = list(two_d_search(grid, y, layout))
        assert got.pop(i) == NO_ESTIMATE
        for row, est in zip(np.delete(y, i, axis=0), got, strict=True):
            p = readout(grid, daft_modulate(grid, row), layout, est.doppler_frac)
            (peak_index, *_), score, _ = decode_one(grid, p)
            assert (est.pspr, est.peak_index) == (score, peak_index)

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
        ests = integer_only(grid, np.array(y), layout)
        assert list(ests) == [integer_only(grid, row, layout) for row in y]
        assert not ests.flagged.any()

    @pytest.mark.parametrize("case", ["loaded", "all-zero", "odd-cn-pilot-40"])
    def test_one_frame_entry_points_equal_one_row_stacks(self, case):
        """A frame's estimate, of Python scalars, is row 0 of its stack of
        one, for every estimator, and stage 1 gives a frame a float
        compensation and a (J,) readout, row 0 of the stack of one's: on a
        loaded frame, on an all-zero frame (the flagged no-estimate) and on
        the odd C*N grid (N=255, C=9) with the pilot at index 40."""
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
        one = {name: estimate(grid, r, layout) for name, estimate in ESTIMATORS.items()}
        for name, estimate in ESTIMATORS.items():
            assert list(estimate(grid, r[None], layout)) == [one[name]]
            types = [type(v) for v in vars(one[name]).values()]
            assert types == [int, float, int, float, float, int, bool], name
        assert all(e == NO_ESTIMATE for e in one.values()) == (case == "all-zero")
        kappa, p = estimate_doppler_frac(grid, r, layout)
        (kappa_row,), (p_row,) = estimate_doppler_frac(grid, r[None], layout)
        assert type(kappa) is float and p.shape == (profile_bins(grid).size,)
        assert kappa == kappa_row and np.array_equal(p, p_row)


def sweep_stack(pad, seed, rows=30):
    """A stack of ``rows`` frames at N=256 and C set by doppler_pad, 30 as a
    sweep chunk forms them: loaded frames over channels of their own at
    20 dB."""
    grid = AfdmGrid(n=256, doppler_pad=pad)
    rng = np.random.default_rng(seed)
    r = []
    for _ in range(rows):
        ch = LosChannel(
            gain=np.exp(2j * np.pi * rng.uniform()),
            delay=rng.uniform(0.0, grid.l_max),
            doppler=rng.uniform(-grid.k_max, grid.k_max),
            noise_var=noise_variance(grid, LAYOUT, 20.0),
        )
        r.append(pipeline(grid, build_pilot_frame(grid, LAYOUT, rng), ch, rng=rng))
    return grid, np.array(r)


def estimate_bytes(est):
    return [column.tobytes() for column in vars(est).values()]


class TestWorkspace:
    """Stage 1 draws its block temporaries from a workspace of its thread,
    kept between calls."""

    def test_threads_running_stage_one_at_once_get_their_serial_results(self):
        """Three threads, more than the cores a small runner has, run joint
        50 times each on stacks of their own grids (C = 8, 12 and 26, each
        with its own transform length and block of rows), with the
        interpreter switching threads every 10 us: every result is the
        serial one, bit for bit."""
        stacks = [sweep_stack(pad, seed=pad) for pad in (2, 6, 20)]
        serial = [estimate_bytes(joint_estimate(grid, r, LAYOUT)) for grid, r in stacks]
        results = [[] for _ in stacks]

        def run(i):
            grid, r = stacks[i]
            for _ in range(50):
                results[i].append(estimate_bytes(joint_estimate(grid, r, LAYOUT)))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(stacks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for expect, got in zip(serial, results):
            assert len(got) == 50
            assert all(result == expect for result in got)

    def test_no_result_is_a_view_of_the_workspace(self):
        """An Estimate and stage 1's (kappa, p), of a one-block stack and of
        a frame, keep their bits through later calls on other stacks and
        grids. The later calls are made once before, so that the workspace
        has grown to them and they write where the first results were made."""
        (grid, r), (other, s) = sweep_stack(2, seed=3, rows=15), sweep_stack(6, seed=4)
        later = [(grid, r[::-1]), (other, s), (grid, r[:7]), (other, s[0])]
        for g, stack in later:
            joint_estimate(g, stack, LAYOUT)
        results = [
            joint_estimate(grid, r, LAYOUT),
            estimate_doppler_frac(grid, r, LAYOUT),
            estimate_doppler_frac(grid, r[0], LAYOUT),
        ]
        arrays = [*vars(results[0]).values(), results[1][0], results[1][1], results[2][1]]
        before = [a.tobytes() for a in arrays]
        for g, stack in later:
            joint_estimate(g, stack, LAYOUT)
            estimate_doppler_frac(g, stack, LAYOUT)
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.skipif(sys.platform != "linux", reason="counts faults with RUSAGE_THREAD")
    @pytest.mark.parametrize("pad", [2, 6, 20])
    def test_a_warm_stacked_joint_takes_no_page_faults(self, pad):
        """At C = 8, 12 and 26, 20 warm calls on a 30-row stack take fewer
        than one minor page fault per frame; block temporaries allocated
        afresh on every call took 9, 21 and 45, malloc returning them to
        the system when the call ended."""
        import resource

        grid, r = sweep_stack(pad, seed=5)
        for _ in range(3):
            joint_estimate(grid, r, LAYOUT)
        start = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for _ in range(20):
            joint_estimate(grid, r, LAYOUT)
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - start
        assert faults < 20 * len(r)


def arrays_in(value):
    # every array of a cached builder's result, through nested tuples
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)


# the arguments each lru_cache'd table builder is called with below
CACHED_BUILDER_ARGS = {
    "_chirps": (GRID.n, GRID.c1, GRID.c2),
    "_tap_window": (FIR_HALF_WIDTH,),
    "_edge_tables": (GRID, 1, FIR_HALF_WIDTH),
    "_wrap_runs": (GRID, LAYOUT.pilot_index, 1, 2),
    "_half_turns": (GRID.n,),
    "_data_slots": (GRID, LAYOUT),
    "_pilot_bins": (GRID, LAYOUT),
    "_coarse_czt": (GRID, LAYOUT),
    "_fit_tables": (GRID,),
    "_decode_table": (GRID,),
    "_search_tables": (GRID, LAYOUT),
}
CACHED_BUILDERS = [
    fn
    for module in (core, channel, effective, estimator, baselines, harness)
    for fn in vars(module).values()
    if callable(fn) and hasattr(fn, "cache_info") and fn.__module__ == module.__name__
]


@pytest.mark.parametrize("builder", CACHED_BUILDERS, ids=lambda fn: fn.__name__)
def test_cached_tables_are_read_only(builder):
    """Every array an lru_cache'd table builder returns is read-only, as
    every later caller shares it; a builder missing from the argument table
    fails here."""
    arrays = list(arrays_in(builder(*CACHED_BUILDER_ARGS[builder.__name__])))
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = a
