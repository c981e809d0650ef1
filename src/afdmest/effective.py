"""Effective channel in the transform domain: exact entries and the
closed-form magnitude envelope the estimator is built on.

For a single path with full delay L (integer l, fraction iota) and full
Doppler K (integer k, fraction kappa), the demodulated pilot energy lands
on a comb of taps spaced C apart on the output axis. ``exact_spectrum``
evaluates the defining N-term sum with no approximation, under the floor
wrap convention of ``segment_index``: subcarrier m wraps for the q-th time
at the sample floor((q*N - m)/C). ``channel.oversampled_oracle`` wraps at
the continuous instant (q*N - m)/C instead. The two agree only where C
divides q*N - m; elsewhere their pilot readouts differ by up to 3.7e-1
(relative, N=256, C=26). Which of the two is the model is ROADMAP item 3.
The wrap count is constant on at most C + 2 runs of samples, so the sum
is evaluated in closed form as that many geometric series per output bin;
``effective_column`` reads only the bins it is asked for, in work
independent of N, and a search that evaluates many channels on the same
bins builds one ``_column`` closure and reuses its tables.
``envelope_magnitude`` is the two-factor closed form (a
Dirichlet-style comb factor times a broad sinc width factor) that predicts
|exact sum| to within eps*N at the leading bins, eps = 2*(l+1)/N +
(pi*C/N)^2/6 (see ``envelope_magnitude``).

``elg_theory`` at the bottom is the early-late gate's model curve: the
ratio in dB of two comb taps adjacent in delay, exactly
10*log10((1-iota)/iota) under the envelope model.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .channel import LosChannel
from .core import AfdmGrid, _chirps

__all__ = [
    "segment_index",
    "exact_spectrum",
    "exact_profile",
    "effective_column",
    "envelope_magnitude",
    "envelope_profile",
    "elg_theory",
]


def segment_index(grid: AfdmGrid, sub: int, u) -> np.ndarray:
    """Frequency-wrap count of subcarrier ``sub`` at sample position ``u``.

    ``u`` may be fractional (the channel delays by non-integer amounts).
    The count is floor((sub + C*k - 1)/N), clipped to [0, C], at the sample
    k = ceil(u): subcarrier ``sub`` wraps for the q-th time at the sample
    floor((q*N - sub)/C), and the count is the number of those boundaries
    strictly below u.
    """
    # The continuous rule floor((sub + C*t)/N), which the oracle applies at
    # t = u itself, counted strictly before the sample ceil(u). This ceil is
    # the floor wrap convention, and where this model departs from the
    # oracle: they agree only where C divides q*N - sub, and otherwise differ
    # at the pilot readout by up to 3.7e-1 (N=256, C=26). Which of the two
    # is the model is ROADMAP item 3's decision.
    k = np.ceil(np.asarray(u, dtype=float)).astype(np.int64)
    return np.clip((grid.n_seg * k + sub - 1) // grid.n, 0, grid.n_seg)


@lru_cache(maxsize=64)
def _wrap_runs(grid: AfdmGrid, m_src: int, lo: int, hi: int):
    """Runs of constant wrap count in the exact sum, as (count, start, length)
    columns of shape (R, 1).

    The count at sample n is segment_index(m_src, (n - L) mod N). Its ceil
    is (n - hi) mod N + (hi - lo) for any delay L with floor lo and ceil hi,
    so one pass of ``segment_index`` at a delay with that floor and ceil
    (lo itself, or lo + 1/2) gives the runs for all of them. The count takes
    the C + 1 values 0..C, and the delay splits one of them in two, so R is
    at most C + 2 for any N while C*hi < N. The arrays are shared and
    read-only.
    """
    n = grid.n
    rep = lo if lo == hi else lo + 0.5
    q = segment_index(grid, m_src, (np.arange(n) - rep) % n)
    start = np.flatnonzero(np.diff(q, prepend=-1))
    runs = (q[start, None], start[:, None], np.diff(start, append=n)[:, None])
    for a in runs:
        a.flags.writeable = False
    return runs


@lru_cache(maxsize=8)
def _half_turns(n: int) -> np.ndarray:
    # exp(-i*pi*k/N) for k = 0..2N-1, the phasors of the run sums' integer
    # phase products; shared, so read-only
    w = np.exp(-1j * np.pi * np.arange(2 * n) / n)
    w.flags.writeable = False
    return w


def _run_sums(grid: AfdmGrid, m_src: int, offsets: np.ndarray):
    """``sums(delay, doppler)``: the exact sum F of ``exact_spectrum`` at the
    output bins m_src + offsets (mod N), for any channel's fields as floats.

    The integer tables a channel's sums read (u, the table phasors of u*mid
    and -u*length, the runs and mid) depend on the channel only through
    (floor(L), ceil(L), round(l_eq)), and are cached per key in the closure,
    so a search that revisits a key pays only the fraction's phases."""
    # On a run of `length` samples from `start` with count q the sum over n
    #   F = sum_n exp(i*2*pi*(iota*q_n - (t + l_eq)*n/N)),  t = offset,
    # is geometric; in Dirichlet form it is
    #   exp(i*2*pi*iota*q - i*pi*x*(2*start + length - 1)/N)
    #     * sin(pi*x*length/N) / sin(pi*x/N),  x = t + l_eq,
    # which is well conditioned at the bin where x is near a multiple of N,
    # and tends to `length` where x is one. The sum is N-periodic in t, so x
    # is split into an integer u, reduced to [-N/2, N/2), and a fraction
    # f in [-1/2, 1/2]. The phases of u times an integer are reduced mod 2N
    # in integers and read from a table, so none loses bits to a large
    # argument; only the fraction's phases are exponentiated, once per run.
    n = grid.n
    w = _half_turns(n)
    tables = {}

    def sums(delay: float, doppler: float) -> np.ndarray:
        lo, hi = math.floor(delay), math.ceil(delay)
        l_eq = doppler + grid.n_seg * delay
        li = round(l_eq)
        t = tables.get((lo, hi, li))
        if t is None:
            q, start, length = _wrap_runs(grid, m_src, lo, hi)
            mid = 2 * start + length - 1
            u = (offsets + (li + n // 2)) % n - n // 2
            t = tables[lo, hi, li] = (
                q, mid, length, u, w[u * mid % (2 * n)], w[-u * length % (2 * n)]
            )
        q, mid, length, u, w_mid, w_length = t
        f = l_eq - li
        head = np.exp(2j * np.pi * ((delay - lo) * q - f * mid / (2 * n))) * w_mid
        num = (np.exp(1j * np.pi * f * length / n) * w_length).imag
        den = np.sin((u + f) * (np.pi / n))
        if f == 0.0:
            # integer l_eq: the bin u = 0 is the removable singularity
            num = np.where(u == 0, length, num)
            den = np.where(u == 0, 1.0, den)
        return (head * (num / den)).sum(axis=0)

    return sums


def _column(grid: AfdmGrid, m_src: int, bins: np.ndarray):
    """``col(delay, doppler, gain=1.0)``: ``effective_column`` at ``bins``, with
    the bins' chirp factors read once and the run-sum tables cached (see ``_run_sums``)."""
    n = grid.n
    bins = np.asarray(bins) % n
    _, e2 = _chirps(n, grid.c1, grid.c2)
    e2_src = e2[m_src]
    e2_bins = np.conj(e2[bins])
    sums = _run_sums(grid, int(m_src), bins - m_src)

    def col(delay: float, doppler: float, gain: complex = 1.0) -> np.ndarray:
        lead = gain / n * e2_src * cmath.exp(
            2j * math.pi * (grid.c1 * delay**2 - delay * m_src / n)
        )
        return lead * e2_bins * sums(delay, doppler)

    return col


def exact_spectrum(grid: AfdmGrid, m_src: int, ch: LosChannel) -> np.ndarray:
    """Exact inner sum of the effective channel entry (m, m_src), every m.

    F = sum_n exp(i*2*pi*(n*(m_src - m - l_eq)/N + iota*q((n - L) mod N)))

    where l_eq = K + C*L is the equivalent shift on the output axis and q is
    the wrap count of the source subcarrier at the delayed sample position,
    under the floor convention of :func:`segment_index` (not the oracle's
    continuous one; see the module docstring). The count is constant on at
    most C + 2 runs of samples, so each bin is a sum of that many geometric
    series in closed form: O(C*N) work, no FFT.
    |F| never exceeds N and equals N exactly for an integer channel on its
    peak bin.
    """
    return _run_sums(grid, int(m_src), np.arange(grid.n) - m_src)(ch.delay, ch.doppler)


def exact_profile(grid: AfdmGrid, m_src: int, ch: LosChannel) -> np.ndarray:
    """|exact_spectrum(grid, m_src, ch)| for every output bin m."""
    return np.abs(exact_spectrum(grid, m_src, ch))


def effective_column(
    grid: AfdmGrid, m_src: int, ch: LosChannel, bins: np.ndarray
) -> np.ndarray:
    """Full effective-channel entries (b, m_src) at the output bins b.

    gain/N * exp(i*2*pi*(c1*L^2 - c2*(b^2 - m_src^2) - L*m_src/N)) * F(b)

    with F the exact sum of :func:`exact_spectrum`, evaluated at the
    requested bins only by the same run sums: O(C*len(bins)) work,
    whatever N is. The c2 terms are read from the transform's chirp table,
    whose phases are reduced mod 1 to 1e-15 cycles, not formed as
    raw products (c2*b^2 reaches 2.4e7 cycles at N=4096).

    This is the model response a single source symbol produces across the
    requested output bins; the 2-D search baseline correlates measured pilot
    readouts against it.
    """
    return _column(grid, m_src, bins)(ch.delay, ch.doppler, ch.gain)


def _comb_factor(x: np.ndarray, c: int, n: int) -> np.ndarray:
    # N*|sinc(x)/sinc(x/C)|. At x = j*C (j != 0) both sincs vanish; inside a
    # 1e-9 guard band around those points the ratio is replaced by its limit
    # cos(pi*x)/cos(pi*x/C).
    x = np.asarray(x, dtype=float)
    j = np.round(x / c)
    singular = (j != 0) & (np.abs(x - j * c) < 1e-9)
    out = np.empty_like(x)
    safe = ~singular
    out[safe] = np.abs(np.sinc(x[safe]) / np.sinc(x[safe] / c))
    if singular.any():
        xs = x[singular]
        out[singular] = np.abs(np.cos(np.pi * xs) / np.cos(np.pi * xs / c))
    return n * out


def envelope_magnitude(grid: AfdmGrid, m_out, m_src: int, ch: LosChannel) -> np.ndarray:
    """Closed-form prediction of |exact_spectrum| at the given output bins.

    Product of two factors in the bin offset u = m_src - m_out (taken modulo
    N, re-centered so the window of width N is symmetric about the comb):

    * comb factor N*|sinc(x)/sinc(x/C)| with x = u - (K + C*l): period-C
      spikes whose heights are set by the fractional Doppler;
    * width factor |sinc((u - (K + C*L))/C)|: a broad lobe centered on the
      full equivalent shift, sliding with the fractional delay.

    At the exact profile's two largest bins the error is at most eps*N, with
    eps = 2*(l+1)/N + (pi*C/N)^2/6. It has two sources. The l+1 received
    samples that read the prefix (n <= l) sit one frame period away from
    where the periodic two-factor form puts them, each off by a
    unit-modulus factor and so by at most 2. And N*sinc(x/C) stands in for
    the Dirichlet kernel |sin(pi*x/C)/sin(pi*x/N)|. Bins whose exact
    magnitudes lie closer than 2*eps*N may therefore come out in either
    order.
    """
    n, c = grid.n, grid.n_seg
    l_eq = ch.doppler + c * ch.delay
    u_raw = (np.asarray(m_src) - np.asarray(m_out)) % n
    u = (u_raw - l_eq + n / 2) % n - n / 2 + l_eq
    x = u - (ch.doppler + c * ch.delay_int)
    theta = np.abs(np.sinc((u - l_eq) / c))
    return _comb_factor(np.atleast_1d(x).astype(float), c, n).reshape(np.shape(x)) * theta


def envelope_profile(grid: AfdmGrid, m_src: int, ch: LosChannel) -> np.ndarray:
    """envelope_magnitude evaluated at every output bin, aligned with exact_profile."""
    m = np.arange(grid.n)
    return envelope_magnitude(grid, m, m_src, ch)


# --- early-late gate discriminator ----------------------------------------


def elg_theory(delay_frac) -> np.ndarray:
    """Early-late tap ratio in dB predicted by the envelope model.

    With the comb tap pair straddling the fractional delay, the width factor
    contributes |sinc(iota)| early and |sinc(1 - iota)| late, and the ratio
    collapses to 10*log10((1 - iota)/iota): +infinity at 0, zero at 1/2,
    strictly decreasing in between. The late tap's share of the pair is
    iota itself, which is how the estimator's gate reads the delay.
    """
    i = np.asarray(delay_frac, dtype=float)
    return 10.0 * (np.log10(np.abs(np.sinc(i))) - np.log10(np.abs(np.sinc(1.0 - i))))
