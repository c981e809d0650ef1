"""Transform layer: grid construction, unitarity, prefix phase rule."""

import tracemalloc

import numpy as np
import pytest

from afdmest import core
from afdmest.core import (
    AfdmGrid,
    add_prefix,
    daft_demodulate,
    daft_modulate,
    region_rows,
    strip_prefix,
)


def dense_daft(g: AfdmGrid) -> np.ndarray:
    """Reference synthesis matrix U, U[n, m] the m-th chirp at sample n,
    every element formed directly from its phase. Test use only: it is
    N x N, which the library never builds."""
    return core._chirp_columns(g.n, g.c1, g.c2, np.arange(g.n))


class TestAfdmGrid:
    def test_default_parameters(self):
        """The default grid is the N=256 configuration used throughout."""
        g = AfdmGrid()
        g.validate()
        assert g.n == 256
        assert g.n_seg == 8
        assert g.c1 == pytest.approx(8.0 / 512.0, abs=0)
        assert g.guard_width == 27
        assert g.c2 == pytest.approx(np.sqrt(2.0))

    def test_c1_is_exact_rational(self):
        """c1 * 2N must reproduce the segment count to the last ulp."""
        for c in (8, 10, 18, 26):
            g = AfdmGrid(k_max=3, doppler_pad=c - 6)
            assert g.c1 * 2 * g.n == c

    def test_degenerate_single_segment_grid(self):
        """A k_max=0 single-sweep grid is legal (C=1 corner case)."""
        g = AfdmGrid(n=16, k_max=0, l_max=0, doppler_pad=1, c2=0.0, n_prefix=0)
        g.validate()
        assert g.n_seg == 1
        assert g.c1 == pytest.approx(1.0 / 32.0, abs=0)
        assert g.guard_width == 0

    def test_alternate_sweep_count(self):
        g = AfdmGrid(doppler_pad=4)
        assert g.n_seg == 10
        assert g.c1 == pytest.approx(10.0 / 512.0, abs=0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            AfdmGrid(n=4).validate()
        with pytest.raises(ValueError):
            AfdmGrid(n_prefix=2).validate()  # prefix shorter than l_max
        with pytest.raises(ValueError):
            AfdmGrid(n=64, k_max=8, l_max=8).validate()  # guards swallow frame

    def test_rejects_readout_longer_than_frame(self):
        """The guards fit, but the C*(l_max + 3) = 40 readout bins of this
        C=10 grid would wrap a 32-sample frame and read bins twice."""
        g = AfdmGrid(n=32, k_max=3, l_max=1, doppler_pad=4)
        assert 2 * g.guard_width < g.n
        with pytest.raises(ValueError, match="readout longer than the frame"):
            g.validate()


class TestTransforms:
    def test_matrix_is_unitary(self):
        g = AfdmGrid()
        u = dense_daft(g)
        eye = u.conj().T @ u
        assert np.max(np.abs(eye - np.eye(g.n))) < 1e-10

    @pytest.mark.parametrize("n", [64, 256])
    def test_round_trip(self, n):
        """demodulate(modulate(x)) recovers x to machine precision.

        c2*m^2 reaches ~1e5 cycles at N=256; the chirp builder reduces the
        phase mod 1 with a split-coefficient product before exponentiating,
        so none of that magnitude leaks into the result."""
        g = AfdmGrid(n=n)
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = daft_demodulate(g, daft_modulate(g, x))
            assert np.max(np.abs(y - x)) < 1e-12

    def test_energy_conservation(self):
        g = AfdmGrid()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        s = daft_modulate(g, x)
        assert np.linalg.norm(s) ** 2 == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-10)

    def test_impulse_becomes_bare_chirp(self):
        """Symbol at slot 0 modulates to (1/sqrt(N)) exp(i 2 pi c1 n^2)."""
        g = AfdmGrid()
        x = np.zeros(g.n, dtype=complex)
        x[0] = 1.0
        s = daft_modulate(g, x)
        n = np.arange(g.n)
        expect = np.exp(2j * np.pi * g.c1 * n**2) / np.sqrt(g.n)
        assert np.max(np.abs(s - expect)) < 1e-12

    def test_single_subcarrier_demodulates_to_impulse(self):
        g = AfdmGrid()
        m0 = 37
        r = dense_daft(g)[:, m0]
        y = daft_demodulate(g, r)
        expect = np.zeros(g.n, dtype=complex)
        expect[m0] = 1.0
        assert np.max(np.abs(y - expect)) < 1e-10

    def test_fft_path_matches_matrix_path(self):
        """The chirp-FFT-chirp transforms equal the reference matrix products
        U @ x and U^H @ r to the 1e-9 level, at even C*N (N=256, N=128) and
        odd C*N (N=255, C=9)."""
        rng = np.random.default_rng(3)
        for g in (AfdmGrid(), AfdmGrid(n=255, doppler_pad=3), AfdmGrid(n=128)):
            u = dense_daft(g)
            x = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            assert np.max(np.abs(daft_modulate(g, x) - u @ x)) < 1e-9
            r = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            assert np.max(np.abs(daft_demodulate(g, r) - u.conj().T @ r)) < 1e-9

    def test_large_frame_round_trip_allocates_linear_memory(self):
        """At N=8192 the round trip is exact and one demodulate call allocates
        a few N-vectors, far below the 1 GiB a dense N x N matrix takes."""
        g = AfdmGrid(n=8192)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        r = daft_modulate(g, x)
        assert np.max(np.abs(daft_demodulate(g, r) - x)) < 1e-12
        tracemalloc.start()
        try:
            daft_demodulate(g, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * g.n

    def test_chirp_cache_is_shared_and_read_only(self):
        g = AfdmGrid()
        chirps = core._chirps(g.n, g.c1, g.c2)
        assert core._chirps(g.n, g.c1, g.c2) is chirps
        for e in chirps:
            assert e.shape == (g.n,)
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0] = 0.0

    def test_linearity(self):
        g = AfdmGrid()
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        x2 = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        lhs = daft_modulate(g, a * x1 + b * x2)
        rhs = a * daft_modulate(g, x1) + b * daft_modulate(g, x2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize(
        "n,pad,pilot",
        [(256, 2, 0), (255, 3, 0), (255, 3, 40), (128, 3, 100)],
        ids=["even-CN", "odd-CN", "odd-CN-pilot40", "even-CN-pilot100"],
    )
    def test_region_rows_match_matrix_rows(self, n, pad, pilot):
        """Readout rows built from the chirp factors equal the rows of U^H;
        bins below zero wrap as they do when indexing the matrix."""
        g = AfdmGrid(n=n, doppler_pad=pad)
        bins = pilot - np.arange(-12, 36)
        rows = region_rows(g, bins)
        ref = dense_daft(g).conj().T[bins % n]
        assert rows.shape == (bins.size, n)
        assert np.max(np.abs(rows - ref)) <= 1e-12

    def test_length_mismatch_raises(self):
        g = AfdmGrid()
        with pytest.raises(ValueError):
            daft_modulate(g, np.zeros(g.n - 1))
        with pytest.raises(ValueError):
            daft_demodulate(g, np.zeros(g.n + 1))


class TestPrefix:
    def test_prefix_phase_rule(self):
        """Each prefix sample is the matching tail sample rotated by
        exp(-i 2 pi c1 (N^2 + 2 N n)), n = -n_prefix..-1."""
        g = AfdmGrid()
        rng = np.random.default_rng(5)
        s = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        sp = add_prefix(g, s)
        for n in range(-g.n_prefix, 0):
            rot = np.exp(-2j * np.pi * np.mod(g.c1 * (g.n**2 + 2 * g.n * n), 1.0))
            assert sp[g.n_prefix + n] == pytest.approx(s[g.n + n] * rot, abs=1e-12)

    def test_even_product_degenerates_to_cyclic(self):
        """With C*N even the rotation is exactly +1: a plain cyclic prefix."""
        g = AfdmGrid()
        assert (g.n_seg * g.n) % 2 == 0
        rng = np.random.default_rng(6)
        s = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        sp = add_prefix(g, s)
        assert np.max(np.abs(sp[: g.n_prefix] - s[-g.n_prefix :])) < 1e-12

    def test_strip_is_inverse(self):
        g = AfdmGrid()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            s = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            assert np.array_equal(strip_prefix(g, add_prefix(g, s)), s)

    def test_zero_and_impulse_frames(self):
        g = AfdmGrid()
        z = np.zeros(g.n, dtype=complex)
        assert np.all(strip_prefix(g, add_prefix(g, z)) == 0)
        imp = z.copy()
        imp[0] = 1.0
        assert np.array_equal(strip_prefix(g, add_prefix(g, imp)), imp)

    def test_strip_rejects_wrong_length(self):
        g = AfdmGrid()
        with pytest.raises(ValueError):
            strip_prefix(g, np.zeros(g.n))
