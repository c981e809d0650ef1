"""Reference estimators: the integer-only decode and the 2-D simplex search.

integer_only is deliberately crude; its tests pin the rounding floor, not
accuracy. two_d_search is accurate when started in the right basin, and
its tests also pin the failure mode when it is not.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import afdmest
from afdmest.baselines import integer_only, two_d_search
from afdmest.channel import LosChannel, apply_los_channel, oversampled_oracle
from afdmest.core import AfdmGrid, add_prefix, daft_demodulate, daft_modulate, strip_prefix
from afdmest.estimator import PilotLayout, build_pilot_frame, joint_estimate

GRID = AfdmGrid()
LAYOUT = PilotLayout()


def received_frame(ch):
    x = build_pilot_frame(GRID, LAYOUT, None)
    return oversampled_oracle(GRID, x, ch)


class TestIntegerOnly:
    def test_integer_channel_exact(self):
        x = build_pilot_frame(GRID, LAYOUT, None)
        s = add_prefix(GRID, daft_modulate(GRID, x))
        ch = LosChannel(delay=2.0, doppler=1.0)
        y = daft_demodulate(GRID, strip_prefix(GRID, apply_los_channel(GRID, s, ch)))
        est = integer_only(GRID, y, LAYOUT)
        assert (est.delay, est.doppler) == (2.0, 1.0)
        assert est.delay_frac == est.doppler_frac == 0.0
        assert est.peak_index == 17
        assert not est.flagged

    def test_fractional_channel_rounds_to_comb(self):
        """(1.3, 2.4) reads off the nearest tap: delay 1, Doppler 2. The
        0.3 / 0.4 residuals are the quantization floor this baseline has."""
        y = daft_demodulate(GRID, received_frame(LosChannel(delay=1.3, doppler=2.4)))
        est = integer_only(GRID, y, LAYOUT)
        assert (est.delay, est.doppler) == (1.0, 2.0)
        assert est.peak_index == 10

    def test_agrees_with_joint_on_mild_fractions(self):
        """With both fractions below one half, the raw decode and the joint
        estimator's integer stages see the same peak. (Above half the two
        legitimately differ: the joint stage re-anchors to the true floor
        while the raw decode stays on the nearest tap.)"""
        for d, k in ((1.2, 0.3), (2.3, -2.7), (0.4, 1.2), (2.4, 0.2)):
            ch = LosChannel(delay=d, doppler=k)
            r = received_frame(ch)
            est_joint = joint_estimate(GRID, r, LAYOUT)
            est_base = integer_only(GRID, daft_demodulate(GRID, r), LAYOUT)
            assert est_base.delay_int == est_joint.delay_int
            assert est_base.doppler_int == est_joint.doppler_int


class TestTwoDSearch:
    @pytest.mark.parametrize("d,k", [(1.25, 0.4), (1.75, -2.3), (2.5, 1.5)])
    def test_recovers_interior_channels(self, d, k):
        ch = LosChannel(gain=0.8 * np.exp(0.9j), delay=d, doppler=k)
        est = two_d_search(GRID, daft_demodulate(GRID, received_frame(ch)), LAYOUT)
        assert abs(est.delay - d) < 1e-2
        assert abs(est.doppler - k) < 1e-2
        assert not est.flagged

    def test_initial_point_rescues_bad_basin(self):
        """kappa = 0.9 splits the uncompensated peak, so the integer decode
        seeds the simplex in the wrong basin and it strands near a bound.
        Seeding at the truth lands it."""
        ch = LosChannel(delay=0.3, doppler=2.9)
        y = daft_demodulate(GRID, received_frame(ch))
        blind = two_d_search(GRID, y, LAYOUT)
        seeded = two_d_search(GRID, y, LAYOUT, init=(0.3, 2.9))
        assert abs(seeded.delay - 0.3) < 1e-3
        assert abs(seeded.doppler - 2.9) < 1e-3
        assert abs(blind.doppler - 2.9) > abs(seeded.doppler - 2.9)

    def test_iteration_cap_flags(self):
        ch = LosChannel(delay=1.25, doppler=0.4)
        y = daft_demodulate(GRID, received_frame(ch))
        est = two_d_search(GRID, y, LAYOUT, maxiter=1)
        assert est.flagged

    def test_noise_input_stays_in_bounds(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
        est = two_d_search(GRID, y, LAYOUT)
        assert 0.0 <= est.delay <= GRID.l_max
        assert -GRID.k_max <= est.doppler <= GRID.k_max

    def test_estimate_split_is_floor_based(self):
        ch = LosChannel(delay=1.75, doppler=-2.3)
        est = two_d_search(GRID, daft_demodulate(GRID, received_frame(ch)), LAYOUT)
        assert est.delay_int == 1
        assert 0.0 <= est.delay_frac < 1.0
        assert est.doppler_int == -3
        assert 0.0 <= est.doppler_frac < 1.0


@pytest.mark.parametrize("pad", [1, 2, 4])
def test_all_zero_frame_gives_the_flagged_no_estimate(pad):
    """Nothing received: both baselines return what joint_estimate does, a
    flagged estimate with zero in every field, instead of an unflagged one
    read off an empty readout."""
    grid = AfdmGrid(doppler_pad=pad)
    r = np.zeros(grid.n, dtype=complex)
    y = daft_demodulate(grid, r)
    expect = joint_estimate(grid, r, LAYOUT)
    assert expect.flagged
    assert integer_only(grid, y, LAYOUT) == expect
    assert two_d_search(grid, y, LAYOUT) == expect


def test_package_import_leaves_scipy_optimize_unloaded():
    """Only two_d_search needs scipy.optimize; importing the package, as
    every sweep worker does, must not pay for it. The joint estimator and
    integer_only run on numpy alone, so they load no scipy module at all."""
    code = (
        "import sys, afdmest\n"
        "print('scipy.optimize' in sys.modules)\n"
        "g, lay = afdmest.AfdmGrid(), afdmest.PilotLayout()\n"
        "r = afdmest.daft_modulate(g, afdmest.build_pilot_frame(g, lay))\n"
        "afdmest.joint_estimate(g, r, lay)\n"
        "afdmest.integer_only(g, afdmest.daft_demodulate(g, r), lay)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(afdmest.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]
