"""Reference estimators: the integer-only decode and the 2-D simplex search.

integer_only is deliberately crude; its tests pin the rounding floor, not
accuracy. two_d_search is accurate when started in the right basin. Its
simplex is held bit for bit to scipy's bounded Nelder-Mead, and its
estimates to values recorded when it still called scipy. Both take the
joint estimator's input check.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import afdmest
from afdmest import baselines, core, effective, estimator
from afdmest.baselines import _nelder_mead, integer_only, two_d_search
from afdmest.channel import LosChannel, apply_los_channel, oversampled_oracle
from afdmest.core import AfdmGrid, add_prefix, daft_demodulate, daft_modulate, strip_prefix
from afdmest.estimator import (
    PilotLayout,
    _coarse_czt,
    _pruned_dft,
    build_pilot_frame,
    joint_estimate,
)

GRID = AfdmGrid()
LAYOUT = PilotLayout()


def rosen(p):
    return 100.0 * (p[1] - p[0] ** 2) ** 2 + (1.0 - p[0]) ** 2


def bumpy(p):
    return math.sin(7.0 * p[0]) * math.cos(5.0 * p[1]) + 0.1 * (p[0] ** 2 + p[1] ** 2)


def sawtooth(p):
    return (7.3 * p[0] + 3.1 * p[1]) % 1.0 + 0.01 * (p[0] ** 2 + p[1] ** 2)


def terraced(p):
    return float(math.floor(3.0 * p[0]) + math.floor(3.0 * p[1]))


def far(p):
    return (p[0] - 5.0) ** 2 + (p[1] + 5.0) ** 2


def bowl(p):
    return p[0] ** 2 + p[1] ** 2


# (objective, x0, lo, hi, xatol, fatol, maxiter). Between them they take
# every branch of the simplex: expansion kept and refused, reflection,
# outside and inside contraction, shrink after either contraction fails
# (sawtooth, terraced), equal f on distinct vertices, at the choice of
# contraction and at either acceptance (terraced), trial points clipped to
# the box (far), a zero start coordinate, a start on the upper bound, a
# start on a -0.0 bound (bowl: the clip keeps the bound on a tie), and the
# iteration cap.
SIMPLEX_CASES = [
    (rosen, (-1.2, 1.0), (-2.0, -2.0), (2.0, 2.0), 1e-8, 1e-8, 400),
    (rosen, (-1.2, 1.0), (-2.0, -2.0), (2.0, 2.0), 1e-8, 1e-8, 1),
    (rosen, (-1.2, 1.0), (-2.0, -2.0), (2.0, 2.0), 1e-8, 1e-8, 7),
    (bumpy, (0.0, 0.5), (-1.0, -1.0), (1.0, 1.0), 1e-3, 1e-9, 200),
    (bumpy, (2.0, -1.0), (0.0, -3.0), (2.0, 3.0), 1e-3, 1e-9, 200),
    (sawtooth, (-0.4, 0.6), (-1.0, -1.0), (1.0, 1.0), 1e-3, 1e-9, 200),
    (terraced, (0.3, 0.7), (-1.0, -1.0), (1.0, 1.0), 1e-3, 1e-9, 200),
    (far, (0.0, 0.0), (-1.0, -1.0), (1.0, 1.0), 1e-6, 1e-9, 200),
    (far, (1.0, -1.0), (-1.0, -1.0), (1.0, 1.0), 1e-6, 1e-9, 200),
    (bowl, (0.0, 0.0), (-0.0, -0.0), (1.0, 1.0), 1e-6, 1e-9, 200),
]


@pytest.mark.parametrize("case", SIMPLEX_CASES, ids=lambda c: f"{c[0].__name__}-{c[1]}-{c[6]}")
def test_simplex_matches_scipy_bit_for_bit(case):
    """_nelder_mead evaluates the objective at scipy's points, in scipy's
    order, and returns scipy's x, f and success flag, to the bit."""
    optimize = pytest.importorskip("scipy.optimize")
    f, x0, lo, hi, xatol, fatol, maxiter = case
    seen = {"scipy": [], "ours": []}

    def logged(trail):
        def g(p):
            trail.append(np.array(p, dtype=float).tobytes())
            return f(p)

        return g

    res = optimize.minimize(
        logged(seen["scipy"]),
        np.array(x0),
        method="Nelder-Mead",
        bounds=list(zip(lo, hi)),
        options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter},
    )
    x, fun, ok = _nelder_mead(logged(seen["ours"]), x0, lo, hi, xatol, fatol, maxiter)
    assert seen["ours"] == seen["scipy"]
    assert np.array(x).tobytes() == res.x.tobytes()
    assert fun == res.fun
    assert ok == res.success


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

    def test_iteration_cap_flags(self, monkeypatch):
        ch = LosChannel(delay=1.25, doppler=0.4)
        y = daft_demodulate(GRID, received_frame(ch))
        monkeypatch.setattr(baselines, "_MAXITER", 1)
        est = two_d_search(GRID, y, LAYOUT)
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


def searched_frames():
    """8 seeded loaded frames through the FIR channel at 0/10/20/30 dB, four
    at N=256 and four at N=4096, as two_d_search receives them."""
    rng = np.random.default_rng(23)
    for i in range(8):
        grid = AfdmGrid(n=(256, 4096)[i // 4])
        snr_db = (0.0, 10.0, 20.0, 30.0)[i % 4]
        n_data = LAYOUT.data_slots(grid).size
        ch = LosChannel(
            gain=np.exp(2j * np.pi * rng.uniform()),
            delay=rng.uniform(0, grid.l_max),
            doppler=rng.uniform(-grid.k_max, grid.k_max),
            noise_var=(LAYOUT.pilot_amplitude**2 + n_data) / grid.n / 10.0 ** (snr_db / 10.0),
        )
        s = add_prefix(grid, daft_modulate(grid, build_pilot_frame(grid, LAYOUT, rng)))
        r = strip_prefix(grid, apply_los_channel(grid, s, ch, rng=rng))
        yield grid, daft_demodulate(grid, r)


# (delay_int, delay_frac, doppler_int, doppler_frac, pspr, peak_index,
# flagged) per searched frame, recorded with scipy.optimize.minimize as
# the simplex; pspr re-recorded when its sidelobe powers came to be summed
# directly (each moved by under 2e-14 relative)
SEARCHED = [
    (2, 0.18598942099401938, -3, 0.7375271039364515, 44.35370539610401, 13, False),
    (2, 0.7601312428200666, 1, 0.9131827789225377, 69.91748176149443, 25, False),
    (1, 0.1498095503026904, -1, 0.6054074864888459, 462.00390911361234, 7, False),
    (1, 0.8776500286074578, 2, 0.05674260982882373, 1418.3697077067582, 18, False),
    (2, 0.37811569156585234, -1, 0.3189507965767995, 7.199430106990554, 15, False),
    (2, 0.8250766192958476, -1, 0.6806965333427782, 84.45771452452203, 23, False),
    (0, 0.988991931548453, 0, 0.6056094882835414, 815.8909029931849, 8, False),
    (1, 0.5644091592382603, -1, 0.2577323683284365, 118.9065487474824, 15, False),
]


def test_two_d_search_estimates_pinned_bitwise():
    for (grid, y), expect in zip(searched_frames(), SEARCHED, strict=True):
        est = two_d_search(grid, y, LAYOUT)
        got = (est.delay_int, est.delay_frac, est.doppler_int, est.doppler_frac)
        assert got + (est.pspr, est.peak_index, est.flagged) == expect


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


BAD_INPUTS = {
    "nan-sample": (np.r_[np.nan, np.ones(GRID.n - 1)], LAYOUT, "non-finite"),
    "length-n-plus-5": (np.ones(GRID.n + 5, dtype=complex), LAYOUT, r"shape \(256,\)"),
    "pilot-300": (np.ones(GRID.n, dtype=complex), PilotLayout(pilot_index=300), "pilot_index 300"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("estimate", [joint_estimate, integer_only, two_d_search])
def test_every_estimator_checks_its_input(estimate, case):
    """A NaN sample, a frame of length N + 5 and a pilot index outside the
    frame raise joint_estimate's ValueError from all three estimators,
    before any readout table is built."""
    frame, layout, match = BAD_INPUTS[case]
    built = (_coarse_czt.cache_info().misses, _pruned_dft.cache_info().misses)
    with pytest.raises(ValueError, match=match):
        estimate(GRID, frame, layout)
    assert (_coarse_czt.cache_info().misses, _pruned_dft.cache_info().misses) == built


# grids that fail AfdmGrid.validate: at the frame lengths 16 and 48 the 54
# guard slots of the default box fill the frame (at 16 the 48-bin readout is
# also longer than it); the C=10 grid's guards fit but its 40-bin readout
# wraps the 32-sample frame
BAD_GRIDS = {
    "n16": (dict(n=16), "guard band swallows the whole frame"),
    "n48": (dict(n=48), "guard band swallows the whole frame"),
    "n32-c10": (
        dict(n=32, k_max=3, l_max=1, doppler_pad=4),
        "pilot readout longer than the frame",
    ),
    # C <= 2*k_max: a peak at k + C*l splits into no unique (l, k) pair
    "c6": (dict(doppler_pad=0), r"every C must exceed 2\*k_max"),
    "c5": (dict(doppler_pad=-1), r"every C must exceed 2\*k_max"),
}


@pytest.mark.parametrize("case", BAD_GRIDS)
@pytest.mark.parametrize("estimate", [joint_estimate, integer_only, two_d_search])
def test_every_estimator_rejects_an_invalid_grid(estimate, case):
    """A grid that fails its own check raises that ValueError when it is
    built, so no estimator reaches a readout table with it: no bare
    StopIteration from the readout's divisor search, and no estimate read
    off bins that repeat or lie under the guards."""
    kwargs, match = BAD_GRIDS[case]
    built = (_coarse_czt.cache_info().misses, _pruned_dft.cache_info().misses)
    with pytest.raises(ValueError, match=match):
        grid = AfdmGrid(**kwargs)
        estimate(grid, np.ones(grid.n, dtype=complex), LAYOUT)
    assert (_coarse_czt.cache_info().misses, _pruned_dft.cache_info().misses) == built


@pytest.mark.parametrize("estimate", [joint_estimate, integer_only, two_d_search])
def test_a_grid_of_numpy_integers_gives_the_int_grid_estimate(estimate):
    """A grid whose fields are numpy integers, as values read from a numpy
    array are, gives each estimator the estimate the same grid of ints
    gives, instead of an AttributeError from the chirp-z length search."""
    fields = dict(n=256, k_max=3, l_max=3, doppler_pad=2, n_prefix=36)
    np_grid = AfdmGrid(**{k: np.int64(v) for k, v in fields.items()})
    r = received_frame(LosChannel(gain=0.8 * np.exp(0.9j), delay=1.25, doppler=0.4))
    y = r if estimate is joint_estimate else daft_demodulate(GRID, r)
    got = []
    for grid in (np_grid, AfdmGrid(**fields)):
        # the two grids are equal, so each would be served the other's
        # cached tables: each builds its own
        for mod in (core, effective, estimator):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        got.append(estimate(grid, y, LAYOUT))
    assert got[0] == got[1]


def test_package_and_every_estimator_load_no_scipy():
    """Importing the package, as every sweep worker does, and running all
    three estimators, two_d_search included, load no scipy module: the
    library runs on numpy alone."""
    code = (
        "import sys, afdmest\n"
        "g, lay = afdmest.AfdmGrid(), afdmest.PilotLayout()\n"
        "r = afdmest.daft_modulate(g, afdmest.build_pilot_frame(g, lay))\n"
        "y = afdmest.daft_demodulate(g, r)\n"
        "afdmest.joint_estimate(g, r, lay)\n"
        "afdmest.integer_only(g, y, lay)\n"
        "afdmest.two_d_search(g, y, lay)\n"
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
    assert proc.stdout == "[]\n"
