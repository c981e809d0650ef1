"""Transform-domain effective channel: wrap-segment geometry, the exact
entry sum with its frozen golden values, the run sums that evaluate it,
the closed-form envelope, and the early-late-gate curve.

The exact sum is this package's internal reference for everything the
estimator assumes about where pilot energy lands, so the goldens here were
frozen from a separate brute-force evaluation and must never drift. The
direct N-term sums below are the references the library's run sums are
held to.
"""

import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afdmest.channel import LosChannel, apply_los_channel, oversampled_oracle
from afdmest.core import (
    AfdmGrid,
    _chirps,
    add_prefix,
    daft_demodulate,
    daft_modulate,
    strip_prefix,
)
from afdmest.effective import (
    _half_turns,
    _run_sums,
    _wrap_runs,
    effective_column,
    elg_theory,
    envelope_magnitude,
    envelope_profile,
    exact_profile,
    exact_spectrum,
    segment_index,
)
from afdmest.estimator import PilotLayout, readout_bins

GRID = AfdmGrid()

# Frozen reference channel used throughout: delay 1.3, Doppler 2.4, so
# l = 1, iota = 0.3, k = 2, kappa = 0.4 and the equivalent shift is 12.8.
CH = LosChannel(delay=1.3, doppler=2.4)


def exact_channel_sum(grid, m_out, m_src, ch):
    """The exact inner sum of entry (m_out, m_src), term by term:

    F = sum_n exp(i*2*pi*(n*(m_src - m_out - l_eq)/N + iota*q((n - L) mod N)))

    with l_eq = K + C*L and q the wrap count of ``segment_index`` at each
    delayed sample. The integer phase n*(m_src - m_out) is reduced mod N
    before it is scaled."""
    n = grid.n
    nn = np.arange(n)
    q = segment_index(grid, m_src, (nn - ch.delay) % n)
    l_eq = ch.doppler + grid.n_seg * ch.delay
    cycles = ((nn * (m_src - m_out)) % n - l_eq * nn) / n + ch.delay_frac * q
    return complex(np.sum(np.exp(2j * np.pi * cycles)))


def effective_gain(grid, m_out, m_src, ch):
    """The full effective-channel entry, term by term:

    gain/N * exp(i*2*pi*(c1*L^2 - c2*(m_out^2 - m_src^2) - L*m_src/N)) * F

    with the lead phase reduced mod 1 exactly, in rationals, from the
    binary values of c1, c2 and L."""
    c1, c2, delay = Fraction(grid.c1), Fraction(grid.c2), Fraction(ch.delay)
    lead = (c1 * delay**2 - c2 * (m_out**2 - m_src**2) - delay * m_src / grid.n) % 1
    return (
        ch.gain / grid.n
        * np.exp(2j * np.pi * float(lead))
        * exact_channel_sum(grid, m_out, m_src, ch)
    )


def last_samples(grid, sub):
    """Samples after which the wrap count of ``sub`` steps up: the last
    sample of each segment."""
    q = segment_index(grid, sub, np.arange(grid.n + 2))
    return np.flatnonzero(np.diff(q)).tolist()


class TestSegmentGeometry:
    def test_boundary_golden(self):
        """N=256, C=8, subcarrier 5: boundaries frozen by direct evaluation."""
        assert last_samples(GRID, 5) == [31, 63, 95, 127, 159, 191, 223, 255]

    def test_boundaries_subcarrier_zero(self):
        assert last_samples(GRID, 0) == [32 * q for q in range(1, 9)]

    def test_boundary_sample_closes_its_segment(self):
        assert segment_index(GRID, 5, 31) == 0
        assert segment_index(GRID, 5, 31.5) == 1
        assert segment_index(GRID, 5, 0) == 0
        assert segment_index(GRID, 5, 255) == 7
        # past the last boundary lies the residual wrap
        assert segment_index(GRID, 5, 255.5) == 8

    @staticmethod
    def _wrap_sizes(g, sub):
        # Segment 0 and the residual segment C are two pieces of the same
        # wrap (the subcarrier starts mid-band), so they count as one.
        q = segment_index(g, sub, np.arange(g.n))
        sizes = np.bincount(q, minlength=g.n_seg + 1)
        return np.concatenate([[sizes[0] + sizes[-1]], sizes[1:-1]])

    @pytest.mark.parametrize("sub", [0, 1, 5, 100, 255])
    def test_partition_sizes(self, sub):
        """Integer samples split into wraps of nearly equal length: every
        wrap holds floor(N/C) samples give or take one, and they cover
        the frame exactly once."""
        sizes = self._wrap_sizes(GRID, sub)
        assert sizes.sum() == GRID.n
        base = GRID.n // GRID.n_seg
        assert set(sizes) <= {base - 1, base, base + 1}

    def test_partition_sizes_nondivisible_c(self):
        g = AfdmGrid(doppler_pad=4)  # C = 10, does not divide 256
        for sub in (0, 7, 133):
            sizes = self._wrap_sizes(g, sub)
            assert sizes.sum() == g.n
            base = g.n // g.n_seg
            assert set(sizes) <= {base - 1, base, base + 1}

    def test_index_monotone(self):
        u = np.linspace(0.0, GRID.n - 0.001, 4096)
        q = segment_index(GRID, 5, u)
        assert np.all(np.diff(q) >= 0)


class TestExactSum:
    def test_frozen_goldens(self):
        f00 = exact_channel_sum(GRID, 0, 0, CH)
        assert f00 == pytest.approx(-4.298915279258 - 4.298915279258j, abs=1e-8)
        f243 = exact_channel_sum(GRID, 243, 0, CH)
        assert f243 == pytest.approx(22.983505205732 + 28.279577664208j, abs=1e-8)

    def test_profile_peak_golden(self):
        p = exact_profile(GRID, 0, CH)
        assert int(np.argmax(p)) == 246
        assert p.max() == pytest.approx(156.815725, abs=1e-5)

    def test_spectrum_matches_per_entry_sum(self):
        spec = exact_spectrum(GRID, 3, CH)
        for m in (0, 3, 100, 243, 255):
            assert spec[m] == pytest.approx(exact_channel_sum(GRID, m, 3, CH), abs=1e-9)

    def test_profile_is_spectrum_magnitude(self):
        assert np.allclose(
            exact_profile(GRID, 7, CH), np.abs(exact_spectrum(GRID, 7, CH)), atol=0
        )

    @pytest.mark.parametrize("m_src,expect_peak", [(0, 239), (5, 244)])
    def test_integer_channel_is_delta(self, m_src, expect_peak):
        """l=2, k=1: all energy on one bin, shifted by l_eq = 1 + 8*2 = 17."""
        ch = LosChannel(delay=2.0, doppler=1.0)
        p = exact_profile(GRID, m_src, ch)
        assert p[expect_peak] == pytest.approx(GRID.n, rel=1e-12)
        rest = np.delete(p, expect_peak)
        assert rest.max() < 1e-9

    def test_magnitude_bounded_by_n(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ch = LosChannel(
                delay=rng.uniform(0, GRID.l_max), doppler=rng.uniform(-GRID.k_max, GRID.k_max)
            )
            assert exact_profile(GRID, 0, ch).max() <= GRID.n + 1e-9

    @pytest.mark.parametrize(
        "m_src,error", [(-1, ValueError), (64, ValueError), (2.5, TypeError), (3.0, TypeError)]
    )
    def test_a_source_not_a_subcarrier_is_refused(self, m_src, error):
        """The exact model's source subcarrier is an integer in [0, N): one
        outside used to wrap to another subcarrier's column (64 read as 0),
        and a float was truncated in the runs but not in the bin offsets;
        numpy integers are accepted."""
        grid = AfdmGrid(n=64, k_max=1, l_max=1, doppler_pad=2, n_prefix=20)
        ch = LosChannel(delay=1.3, doppler=0.4)
        for model in (exact_spectrum, exact_profile, partial(effective_column, bins=[0, 17])):
            with pytest.raises(error, match="m_src"):
                model(grid, m_src, ch)
            assert np.array_equal(model(grid, np.int64(63), ch), model(grid, 63, ch))

    def test_total_energy_is_n_squared(self):
        # the inner phase vector has unit modulus per sample, so Parseval
        # fixes the profile energy regardless of the channel
        p = exact_profile(GRID, 0, CH)
        assert np.sum(p**2) == pytest.approx(GRID.n**2, rel=1e-12)


class TestEffectiveGain:
    def test_column_matches_per_entry(self):
        bins = np.array([0, 17, 100, 239, 255])
        col = effective_column(GRID, 5, CH, bins)
        for b, v in zip(bins, col):
            assert v == pytest.approx(effective_gain(GRID, int(b), 5, CH), abs=1e-12)

    def test_a_repeated_bin_reads_as_often_as_asked(self):
        """Bins given twice, the second time as the same bin plus N, come
        back twice with the column's value there: the run sums take each bin
        once, so the removable singularity is found at every copy (an integer
        channel puts it at bin 239 with f = 0)."""
        ch = LosChannel(gain=np.exp(0.4j), delay=2.0, doppler=1.0)
        bins = np.array([239, 17, 239 + GRID.n, 100, 17])
        col = effective_column(GRID, 0, ch, bins)
        assert np.array_equal(col, effective_column(GRID, 0, ch, bins % GRID.n))
        for b, v in zip(bins % GRID.n, col):
            assert v == pytest.approx(effective_gain(GRID, int(b), 0, ch), abs=1e-12)

    @pytest.mark.parametrize("delay,doppler", [(2.0, 1.0), (1.3, -0.45)])
    def test_repeated_bins_are_the_distinct_column_gathered_back(self, delay, doppler):
        """The run sums take a repeated bin like any other, so a column at
        repeated bins is the column at the distinct bins gathered back, the
        integer channel's u = 0 bin 239 included; no bins give an empty
        column. The entries are at most |gain| = 1, and equal to rounding:
        a point's one product with its edge table may sum in another order
        for another count of bins."""
        ch = LosChannel(gain=np.exp(0.4j), delay=delay, doppler=doppler)
        bins = np.array([239, 17, 239, 100, 17, 3])
        distinct, back = np.unique(bins, return_inverse=True)
        col = effective_column(GRID, 0, ch, bins)
        expect = effective_column(GRID, 0, ch, distinct)[back]
        np.testing.assert_allclose(col, expect, rtol=0.0, atol=1e-15)
        assert effective_column(GRID, 0, ch, np.array([], dtype=int)).shape == (0,)

    @pytest.mark.parametrize("bins", [[2.5], np.array([2.0]), [17, 2.5]])
    def test_bins_that_are_not_integers_are_refused(self, bins):
        """A float bin, even a whole one, raises TypeError naming the bins,
        where [2.5] used to raise numpy's IndexError from the chirp table
        lookup; an empty list is no bins, an empty column."""
        with pytest.raises(TypeError, match="bins must be integers"):
            effective_column(GRID, 0, CH, bins)
        assert effective_column(GRID, 0, CH, []).shape == (0,)
        assert effective_column(GRID, 0, CH, np.array([17], dtype=np.int32)).tobytes() == (
            effective_column(GRID, 0, CH, [17]).tobytes()
        )

    def test_run_sums_refuses_offsets_that_are_not_integers(self):
        """Offset 2.7 used to be read as 2, its sums those at offset 2."""
        with pytest.raises(TypeError, match="offsets must be integers"):
            _run_sums(GRID, 0, np.array([2.7]))

    def test_integer_delay_pipeline_match(self):
        """For an integer channel the FIR path is exact, so demodulating the
        pipeline output must reproduce the model column entry for entry."""
        m_src = 7
        ch = LosChannel(gain=np.exp(0.4j), delay=2.0, doppler=1.0)
        x = np.zeros(GRID.n, dtype=complex)
        x[m_src] = 1.0
        r = strip_prefix(GRID, apply_los_channel(GRID, add_prefix(GRID, daft_modulate(GRID, x)), ch))
        y = daft_demodulate(GRID, r)
        model = effective_column(GRID, m_src, ch, np.arange(GRID.n))
        assert np.linalg.norm(y - model) / np.linalg.norm(y) < 1e-10

    @pytest.mark.parametrize("delay", [1.3125, 1.3, 2.71828, 0.05])
    def test_fractional_delay_oracle_match_on_pilot_bin(self, delay):
        """At N=256 and C=8, C divides N, so source bin 0 wraps exactly on
        samples: the model's sample-counted wrap rule and the oracle's
        continuous one agree there, and the model is exact against the
        continuous-time oracle at any real delay."""
        m_src = 0
        x = np.zeros(GRID.n, dtype=complex)
        x[m_src] = 1.0
        ch = LosChannel(gain=np.exp(0.7j), delay=delay, doppler=2.4)
        y = daft_demodulate(GRID, oversampled_oracle(GRID, x, ch))
        model = effective_column(GRID, m_src, ch, np.arange(GRID.n))
        assert np.linalg.norm(y - model) / np.linalg.norm(y) < 1e-9

    def test_fractional_delay_quantization_off_pilot_bin(self):
        """Away from source bin 0 the model quantizes wrap boundaries to the
        sample grid while the true waveform wraps at rational positions, so
        a handful of boundary samples carry the wrong segment phase. At
        iota = 0.5 every one of the C boundary samples flips sign, which is
        a visible, bounded, and inherent model error. The estimator reads
        the pilot bin, where the effect vanishes only when C divides N;
        at pilot 0 and C = 9 or 10 the model's pilot readout misses the
        oracle by up to 1.2e-1 (10 random channels)."""
        m_src = 3
        x = np.zeros(GRID.n, dtype=complex)
        x[m_src] = 1.0
        ch = LosChannel(delay=0.5, doppler=-1.7)
        y = daft_demodulate(GRID, oversampled_oracle(GRID, x, ch))
        model = effective_column(GRID, m_src, ch, np.arange(GRID.n))
        rel = np.linalg.norm(y - model) / np.linalg.norm(y)
        assert 0.2 < rel < 0.5


# offsets from an integer that put a delay or Doppler on, or just beside,
# the points where the run sums change form: an integer delay changes the
# runs, and an integer equivalent shift K + C*L puts one bin on the
# Dirichlet kernel's removable singularity
_EDGES = st.sampled_from([0.0, 1e-9, -1e-9, 1e-12, 0.5])


class TestRunSums:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(32, 320),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 6),
        l_max=st.integers(0, 3),
        pilot=st.integers(0, 10**6),
        l=st.integers(0, 3),
        k=st.integers(-3, 3),
        iota=st.one_of(_EDGES, st.floats(0.0, 1.0, exclude_max=True)),
        kappa=st.one_of(_EDGES, st.floats(0.0, 1.0, exclude_max=True)),
    )
    def test_column_matches_direct_sum(self, n, k_max, pad, l_max, pilot, l, k, iota, kappa):
        """effective_column equals the direct N-term sum at every bin, to
        1e-12 of the column's peak, over N, odd C*N, C not dividing N, the
        pilot position, integer delays and Dopplers and their near
        neighbours."""
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad, n_prefix=min(n, 36))
        except ValueError:
            assume(False)
        pilot %= n
        ch = LosChannel(gain=np.exp(0.3j), delay=max(l + iota, 0.0), doppler=k + kappa)
        col = effective_column(grid, pilot, ch, np.arange(n))
        ref = np.array([effective_gain(grid, b, pilot, ch) for b in range(n)])
        assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(col))

    @pytest.mark.parametrize("n", [4096, 16384])
    @pytest.mark.parametrize(
        "pilot,delay,doppler",
        [(None, 1.37, 0.61), (0, 2.0, -1.0), (40, 1 - 1e-9, 2.5), (40, 2.25, 2.5)],
    )
    def test_large_n_readout_bins(self, n, pilot, delay, doppler):
        """On the pilot readout bins at N=4096 and 16384 the column equals
        the direct sum with its lead phase reduced exactly, to 1e-12 of its
        peak. The lead phase c2*(b^2 - m^2) reaches 2.4e7 cycles at N=4096:
        formed as a raw product, it misses by 2.9e-8 there and 4.6e-7 at
        N=16384. At K + C*L = 20.5 the bins either side of the removable
        singularity divide by sin(pi/(2N)); read from a phasor table of
        angles up to 4*pi, not reduced to [-pi/2, pi/2), they miss by
        1.9e-12 at N=16384."""
        grid = AfdmGrid(n=n)
        layout = PilotLayout() if pilot is None else PilotLayout(pilot_index=pilot)
        bins = readout_bins(grid, layout)
        ch = LosChannel(gain=np.exp(0.7j), delay=delay, doppler=doppler)
        col = effective_column(grid, layout.pilot_index, ch, bins)
        ref = np.array([effective_gain(grid, int(b), layout.pilot_index, ch) for b in bins])
        assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(col))

    @pytest.mark.parametrize("sub", [0, 5, 133])
    @pytest.mark.parametrize("delays", [(1.3, 1.7), (0.2, 0.9999), (2.0,), (0.0,)])
    def test_runs_match_per_sample_counts(self, sub, delays):
        """Delays with one floor and one ceil share one set of runs, and the
        runs spell out the count segment_index gives at every sample."""
        g = AfdmGrid(doppler_pad=4)  # C = 10, does not divide 256
        for delay in delays:
            q, start, length = _wrap_runs(g, sub, int(np.floor(delay)), int(np.ceil(delay)))
            assert start[0, 0] == 0 and length.sum() == g.n
            assert np.array_equal(start[1:, 0], np.cumsum(length[:-1, 0]))
            assert q.size <= g.n_seg + 2
            per_sample = segment_index(g, sub, (np.arange(g.n) - delay) % g.n)
            assert np.array_equal(np.repeat(q[:, 0], length[:, 0]), per_sample)

    def test_column_cost_is_independent_of_n(self):
        """With its tables built, a column of the 48 readout bins at N=16384
        and a delay fraction not seen before allocates under 64 KiB at its
        peak; one N-sample complex array would take 256 KiB."""
        grid = AfdmGrid(n=16384)
        bins = readout_bins(grid, PilotLayout(pilot_index=40))
        effective_column(grid, 40, LosChannel(delay=1.25, doppler=0.3), bins)
        tracemalloc.start()
        try:
            effective_column(grid, 40, LosChannel(delay=1.8125, doppler=-0.7), bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_search_closure_matches_fresh_columns_bitwise(self):
        """One _run_sums, given a search's path as one batch of points and
        then again, gives at every point the bits a fresh _run_sums gives it
        alone, and effective_column is that row times its lead. The path
        crosses the integer delay 1 (and stops on it), moves round(K + C*L)
        through several values, and comes back over keys whose tables are
        cached."""
        grid = AfdmGrid(n=4096)
        bins = readout_bins(grid, PilotLayout(pilot_index=40))
        sums = _run_sums(grid, 40, bins - 40)
        out = [(0.8, 0.3), (0.95, -2.2), (1.0, 0.1), (1.05, 2.4), (1.3, -1.7), (1.3, -1.65)]
        path = out + [(d + 1e-3, k - 2e-3) for d, k in reversed(out)]
        delay, doppler = np.array(path).T
        batch = sums(delay, doppler)
        assert sums(delay, doppler).tobytes() == batch.tobytes()
        _, e2 = _chirps(grid.n, grid.c1, grid.c2)
        assert set(sums.tables) == {(0, 1), (1, 1), (1, 2)}
        assert len({round(k + grid.n_seg * d) for d, k in path}) >= 4
        for (d, k), row in zip(path, batch):
            assert _run_sums(grid, 40, bins - 40)(d, k)[0].tobytes() == row.tobytes()
            ch = LosChannel(gain=np.exp(0.4j), delay=d, doppler=k)
            lead = effective_column(grid, 40, ch, bins) / (np.conj(e2[bins]) * row)
            assert np.allclose(lead, lead[0], rtol=1e-12, atol=0.0)
            assert abs(lead[0]) == pytest.approx(1.0 / grid.n, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(36, 320),
        k_max=st.integers(0, 3),
        pad=st.integers(1, 6),
        l_max=st.integers(0, 3),
        odd_cn=st.booleans(),
        pilot=st.integers(1, 10**6),
        points=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(_EDGES, st.floats(0.0, 1.0, exclude_max=True)),
                st.integers(-3, 3),
                st.one_of(_EDGES, st.floats(0.0, 1.0, exclude_max=True)),
            ),
            min_size=1,
            max_size=6,
        ),
        on_bin=st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(-3, 3)),
    )
    def test_a_batch_of_points_matches_the_direct_sum(
        self, n, k_max, pad, l_max, odd_cn, pilot, points, on_bin
    ):
        """The array form of _run_sums, on a batch of points, equals the
        direct N-term sum that effective_gain scales, at every bin, to 1e-12
        of each point's peak (test_column_matches_direct_sum's bound), over
        odd C*N, pilots off 0, integer delays and Dopplers and their near
        neighbours, and a point whose K + C*L is an integer (its u = 0 bin
        at f = 0). Each point gets the bits it gets alone."""
        if odd_cn:
            n, pad = n | 1, pad | 1
        try:
            grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        except ValueError:
            assume(False)
        pilot = 1 + pilot % (n - 1)
        delay = [max(l + iota, 0.0) for l, iota, _, _ in points]
        doppler = [k + kappa for _, _, k, kappa in points]
        # a delay on the 1/8 grid, so that C*L and K + C*L are exact
        l, eighths, k = on_bin
        delay.append(l + eighths / 8)
        doppler.append(k - grid.n_seg * eighths / 8)
        offsets = np.arange(n) - pilot
        sums = _run_sums(grid, pilot, offsets)
        batch = sums(np.array(delay), np.array(doppler))
        for d, k, row in zip(delay, doppler, batch):
            ch = LosChannel(delay=d, doppler=k)
            ref = np.array([exact_channel_sum(grid, b, pilot, ch) for b in range(n)])
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert _run_sums(grid, pilot, offsets)(d, k)[0].tobytes() == row.tobytes()

    def test_cold_and_warm_calls_agree_bitwise(self):
        """A column computed with empty caches and the same column computed
        from them are the same bits, so a repeated search reproduces its
        estimate."""
        grid = AfdmGrid(n=4096, doppler_pad=3)
        bins = readout_bins(grid, PilotLayout(pilot_index=40))
        ch = LosChannel(gain=np.exp(1.1j), delay=2.4, doppler=-1.35)
        _wrap_runs.cache_clear()
        _half_turns.cache_clear()
        cold = effective_column(grid, 40, ch, bins)
        warm = effective_column(grid, 40, ch, bins)
        assert cold.tobytes() == warm.tobytes()


class TestEnvelope:
    def test_integer_channel_peak_and_nulls(self):
        ch = LosChannel(delay=2.0, doppler=1.0)
        prof = envelope_profile(GRID, 0, ch)
        assert prof[239] == pytest.approx(GRID.n, rel=1e-12)
        # neighboring comb taps are killed by the width factor's sinc nulls
        assert prof[(239 - 8) % GRID.n] < 1e-9
        assert prof[(239 + 8) % GRID.n] < 1e-9

    def test_half_iota_tap_symmetry(self):
        """iota = 0.5 puts the early and late taps at equal height
        N*sinc(1/2); this symmetry is what zeroes the ELG discriminator."""
        ch = LosChannel(delay=1.5, doppler=0.0)
        early = envelope_magnitude(GRID, (0 - 8) % GRID.n, 0, ch)
        late = envelope_magnitude(GRID, (0 - 16) % GRID.n, 0, ch)
        expect = GRID.n * 2.0 / np.pi
        assert early == pytest.approx(expect, rel=1e-9)
        assert late == pytest.approx(expect, rel=1e-9)

    def test_peak_bin_agrees_with_exact(self):
        e = exact_profile(GRID, 0, CH)
        v = envelope_profile(GRID, 0, CH)
        assert int(np.argmax(v)) == int(np.argmax(e)) == 246

    def test_tracks_exact_profile(self):
        """Pearson correlation against the exact sum across random fractional
        channels; the closed form predicts the shape to a few percent."""
        rng = np.random.default_rng(7)
        cors = []
        for _ in range(12):
            ch = LosChannel(
                delay=rng.uniform(0, GRID.l_max), doppler=rng.uniform(-GRID.k_max, GRID.k_max)
            )
            e = exact_profile(GRID, 0, ch)
            v = envelope_profile(GRID, 0, ch)
            cors.append(np.corrcoef(e, v)[0, 1])
        assert min(cors) > 0.985
        assert np.mean(cors) > 0.995

    def test_singularity_guard_is_continuous(self):
        """Integer Doppler drives the comb factor through its removable
        singularities; the guarded limit must join the surrounding values."""
        a = envelope_profile(GRID, 0, LosChannel(delay=1.5, doppler=2.0))
        b = envelope_profile(GRID, 0, LosChannel(delay=1.5, doppler=2.0 + 1e-7))
        assert np.max(np.abs(a - b)) < 1e-3

    def test_nonnegative_and_bounded(self):
        v = envelope_profile(GRID, 0, CH)
        assert np.all(v >= 0)
        assert v.max() <= GRID.n + 1e-9


class TestElg:
    def test_closed_form(self):
        i = np.linspace(0.01, 0.99, 197)
        expect = 10.0 * np.log10((1.0 - i) / i)
        assert np.allclose(elg_theory(i), expect, atol=1e-12)

    def test_zero_at_half(self):
        assert abs(elg_theory(0.5)) < 1e-12

    def test_antisymmetric(self):
        i = np.linspace(0.05, 0.45, 9)
        assert np.allclose(elg_theory(i), -elg_theory(1.0 - i), atol=1e-12)

    def test_strictly_decreasing(self):
        a = elg_theory(np.linspace(0.01, 0.99, 981))
        assert np.all(np.diff(a) < 0)

    def test_round_trip(self):
        """The envelope's two bracketing taps |sinc(iota)| and
        |sinc(1 - iota)|: the later tap's share of the pair, which the
        estimator's gate reads, is iota itself, and the pair's dB reading is
        the curve."""
        iota = np.linspace(0.02, 0.98, 25)
        early, late = np.abs(np.sinc(iota)), np.abs(np.sinc(1.0 - iota))
        assert np.allclose(late / (early + late), iota, rtol=0.0, atol=1e-15)
        assert np.allclose(10.0 * np.log10(early / late), elg_theory(iota), rtol=0.0, atol=1e-12)
