"""Pilot layout, profile readout, and the three-stage joint estimator.

Integer decode must be bit-exact on clean integer channels (that is the
comb structure doing its job); the fractional stages are approximate by
nature and are held to the tolerances the pipeline is designed around:
5e-3 on the Doppler fraction, 2e-2 on the delay fraction.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afdmest.channel import LosChannel, apply_los_channel, oversampled_oracle
from afdmest.core import AfdmGrid, add_prefix, daft_demodulate, daft_modulate, strip_prefix
from afdmest.estimator import (
    Estimate,
    PilotLayout,
    _coarse_czt,
    _coarse_scores,
    _inner_slice,
    _pspr_rows,
    _region_rows,
    build_pilot_frame,
    compensate,
    estimate_delay_frac,
    estimate_doppler_frac,
    integer_estimate,
    joint_estimate,
    profile_bins,
    pspr,
    read_profile,
    readout_bins,
)

GRID = AfdmGrid()
LAYOUT = PilotLayout()


def pipeline(grid, x, ch, rng=None):
    s = add_prefix(grid, daft_modulate(grid, x))
    return strip_prefix(grid, apply_los_channel(grid, s, ch, rng=rng))


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

    def test_pilot_only_frame(self):
        x = build_pilot_frame(GRID, LAYOUT, None)
        assert x[LAYOUT.pilot_index] == pytest.approx(np.sqrt(10.0))
        assert np.count_nonzero(x) == 1

    def test_loaded_frame(self):
        rng = np.random.default_rng(3)
        x = build_pilot_frame(GRID, LAYOUT, rng)
        assert np.allclose(np.abs(x[LAYOUT.data_slots(GRID)]), 1.0)
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
        assert pspr(p, 20, 8) == pytest.approx(8.0 / 7.0)

    def test_pspr_lone_spike(self):
        p = np.zeros(48)
        p[20] = 3.0
        assert pspr(p, 20, 8) == np.inf

    def test_pspr_one_bin_window_is_lone_spike(self):
        """With C = 1 the window holds only the peak, so every profile scores
        +inf, whatever rounding squaring its values takes."""
        p = np.random.default_rng(0).uniform(0.1, 3.0, 1000)
        assert all(pspr(p, pos, 1) == np.inf for pos in range(p.size))

    def test_pspr_prefers_cleaner_peak(self):
        p = np.full(48, 0.1)
        p[20] = 1.0
        messy = p.copy()
        messy[22] = 0.8
        assert pspr(p, 20, 8) > pspr(messy, 20, 8)

    def test_compensate_inverts_channel_phasor(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
        kappa = 0.37
        r = s * np.exp(-2j * np.pi * kappa * np.arange(GRID.n) / GRID.n)
        assert np.allclose(compensate(r, kappa), s, atol=1e-12)

    @pytest.mark.parametrize("n", [255, 256, 4096, 8193])
    @pytest.mark.parametrize("kappa", [0.0, 0.37, 0.999, 1.5, -0.2])
    def test_compensate_matches_direct_phasor(self, n, kappa):
        """The phasor built from two sqrt(N) tables equals the one built with
        N exponentials, for odd N, non-square N and N not a multiple of the
        table length."""
        rng = np.random.default_rng(n)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direct = r * np.exp(2j * np.pi * kappa * np.arange(n) / n)
        assert np.max(np.abs(compensate(r, kappa) - direct)) < 1e-13

    def test_region_rows_match_full_demodulation(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
        rows = _region_rows(GRID, LAYOUT)
        full = daft_demodulate(GRID, r)[readout_bins(GRID, LAYOUT)]
        assert np.max(np.abs(rows @ r - full)) < 1e-10


def scalar_pspr(grid, p):
    """pspr at the first largest bin of the decodeable range, one profile."""
    inner = _inner_slice(grid)
    return pspr(p, inner.start + int(np.argmax(p[inner])), grid.n_seg)


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
        grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        try:
            grid.validate()
        except ValueError:
            assume(False)
        layout = PilotLayout(pilot_index=pilot % n)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows = _region_rows(grid, layout)
        j = profile_bins(grid)
        cand, scores = _coarse_scores(grid, layout, r, steps)
        assert np.array_equal(cand, (np.arange(steps) + 0.5) / steps)
        profiles = np.array([np.abs(rows @ compensate(r, kappa)) for kappa in cand])
        expect = np.array([scalar_pspr(grid, p) for p in profiles])
        # one chirp-z transform against a matvec per candidate: equal up to
        # rounding, with +inf (no sidelobe power) in the same places
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

    def test_czt_cache_is_read_only_and_memory_is_linear(self):
        """At N=8192 the cached chirp-z factors are read-only, and building
        them plus one scoring call stays within 4 complex vectors of the
        padded FFT length L; the N x steps phasor matrix of a one-product
        scoring (8 MiB here) would not fit."""
        grid = AfdmGrid(n=8192)
        steps = 64
        r = daft_modulate(grid, build_pilot_frame(grid, LAYOUT, np.random.default_rng(2)))
        _coarse_czt.cache_clear()
        tracemalloc.start()
        try:
            _coarse_scores(grid, LAYOUT, r, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pre, kernel_fft, m = _coarse_czt(grid, LAYOUT, steps)
        size = kernel_fft.size
        # the padded length is the power of two at or above N + m - 1
        assert size & (size - 1) == 0 and size // 2 < grid.n + m - 1 <= size
        assert m == profile_bins(grid).size * steps
        assert peak <= 4 * 16 * size < 16 * grid.n * steps
        for a in (pre, kernel_fft):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestIntegerDecode:
    @pytest.mark.parametrize("l,k,js", [(2, 1, 17), (3, -3, 21)])
    def test_decode_goldens(self, l, k, js):
        x = build_pilot_frame(GRID, LAYOUT, None)
        ch = LosChannel(delay=float(l), doppler=float(k))
        p = read_profile(GRID, daft_demodulate(GRID, pipeline(GRID, x, ch)), LAYOUT)
        got_js, got_k, got_l, flagged = integer_estimate(GRID, p)
        assert (got_js, got_k, got_l, flagged) == (js, k, l, False)

    def test_decode_exhaustive(self):
        x = build_pilot_frame(GRID, LAYOUT, None)
        for l in range(GRID.l_max + 1):
            for k in range(-GRID.k_max, GRID.k_max + 1):
                ch = LosChannel(delay=float(l), doppler=float(k))
                p = read_profile(GRID, daft_demodulate(GRID, pipeline(GRID, x, ch)), LAYOUT)
                got_js, got_k, got_l, flagged = integer_estimate(GRID, p)
                assert (got_k, got_l, flagged) == (k, l, False)
                assert got_js == k + GRID.n_seg * l

    def test_out_of_range_peak_is_flagged(self):
        j = profile_bins(GRID)
        p = np.zeros(j.size)
        p[np.flatnonzero(j == 4)[0]] = 1.0  # k = 4 > k_max
        *_, flagged = integer_estimate(GRID, p)
        assert flagged


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
        grid = AfdmGrid(n=n, k_max=k_max, l_max=l_max, doppler_pad=pad)
        try:
            grid.validate()
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
        js, k, l_round, flagged = integer_estimate(grid, p)
        assert js == j[pos]
        assert k + c * l_round == js
        assert flagged == (abs(k) > k_max or not 0 <= l_round <= l_max)

        floor, iota, a_db = estimate_delay_frac(grid, p, pos, l_round)
        assert floor in (l_round - 1, l_round)
        assert iota == 0.0 or 0.01 <= iota <= 0.99
        assert np.isfinite(a_db)


class TestDopplerSearch:
    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
    def test_fraction_recovered(self, kappa):
        x = build_pilot_frame(GRID, LAYOUT, None)
        ch = LosChannel(delay=1.5, doppler=1.0 + kappa)
        r = oversampled_oracle(GRID, x, ch, 20)
        k_hat, score, _ = estimate_doppler_frac(GRID, r, LAYOUT)
        assert abs(k_hat - kappa) < 5e-3
        assert score > 50.0


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
        est = joint_estimate(GRID, oversampled_oracle(GRID, x, ch, 20), LAYOUT)
        assert abs(est.delay - delay) < 2e-2
        assert abs(est.doppler - ch.doppler) < 5e-3
        assert not est.flagged

    def test_profile_is_the_compensated_readout(self):
        """The search hands back the readout at its optimum, so the joint
        estimate need not form it again."""
        rng = np.random.default_rng(12)
        x = build_pilot_frame(GRID, LAYOUT, rng)
        r = pipeline(GRID, x, LosChannel(delay=1.3, doppler=-0.7))
        kappa, score, p = estimate_doppler_frac(GRID, r, LAYOUT)
        assert type(kappa) is float
        expect = read_profile(GRID, daft_demodulate(GRID, compensate(r, kappa)), LAYOUT)
        assert np.max(np.abs(p - expect)) < 1e-10
        assert score == scalar_pspr(GRID, p)

    @pytest.mark.parametrize("fn", [joint_estimate, estimate_doppler_frac])
    @pytest.mark.parametrize("shape", [(GRID.n - 1,), (GRID.n + 1,), (1, GRID.n), ()])
    def test_wrong_shape_rejected(self, fn, shape):
        with pytest.raises(ValueError, match="shape"):
            fn(GRID, np.ones(shape, dtype=complex), LAYOUT)

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
# pinned frame, recorded with the candidate-by-candidate coarse search
# reading rows of the dense transform matrix
PINNED = [
    (0, 0.5442166923433758, 0, 0.3087086595898749, 58.60114566349711, False),
    (0, 0.9515032083024209, -3, 0.9742828432226514, 2240.4579394909274, False),
    (2, 0.2561455870506996, -3, 0.4121939562694146, 1666.1057104124113, False),
    (3, 0.18779316926796338, -2, 0.11250114552724352, 188.4337491467366, False),
    (0, 0.38992137860766896, -3, 0.012244772636638245, 211.0475503681526, False),
    (1, 0.6164597096501475, 2, 0.670901470332046, 318.2394184744956, False),
    (2, 0.147838008740035, 1, 0.6127552273633617, 118.4133373679009, False),
    (1, 0.847085095833035, 1, 0.7995900324804802, 967.9639477978833, False),
    (1, 0.8688157331446316, -3, 0.05763235166023018, 1906.884591300983, False),
    (1, 0.35724785547700755, 2, 0.4931367670115857, 84.6821051854675, False),
    (1, 0.9349251715118735, -2, 0.12986764833976983, 1113.0060204148124, False),
    (0, 0.6103525284847634, -2, 0.494878269824112, 251.62297678612174, False),
    (3, 0.17666443353785724, 2, 0.5281238544727564, 180.57490055240535, False),
    (-1, 0.8934380516227338, -3, 0.4597341511522961, 843.574552316129, False),
    (-1, 0.9054201257248744, -2, 0.8254099675195198, 8771.169660092331, False),
    (1, 0.2202067137715162, -1, 0.22710065396482237, 121.92882794209119, False),
]


def test_joint_estimates_pinned_on_seeded_frames():
    for (grid, layout, r), expect in zip(pinned_frames(), PINNED, strict=True):
        est = joint_estimate(grid, r, layout)
        l, iota, k, kappa, score, flagged = expect
        assert (est.delay_int, est.doppler_int, est.flagged) == (l, k, flagged)
        assert abs(est.delay_frac - iota) <= 1e-12
        assert abs(est.doppler_frac - kappa) <= 1e-12
        assert abs(est.pspr - score) <= 1e-12 * score
