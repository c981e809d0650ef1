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
independent of N. One run-sum routine, ``_run_sums``, serves both and
takes arrays of (delay, Doppler) points, so a search that scores many
channels on the same bins builds it once and reuses its per-key tables.
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
from .core import AfdmGrid, _check_integer, _chirps

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
    # exp(-i*pi*k/N) for k = 0..4N-1, the phasors of the run sums' integer
    # phase products, each from k reduced to [-N/2, N/2) mod N and the sign
    # (-1)^(wraps), so the sine near a multiple of pi keeps its relative
    # precision; shared, so read-only
    k = np.arange(4 * n) + n // 2
    w = np.exp(-1j * np.pi * (k % n - n // 2) / n) * (1 - 2 * (k // n % 2))
    w.flags.writeable = False
    return w


def _run_sums(grid: AfdmGrid, m_src: int, offsets: np.ndarray):
    """``sums(delay, doppler)``: the exact sum F of ``exact_spectrum`` at the
    output bins m_src + offsets (mod N), one row per (delay, Doppler) point,
    for arrays (or scalars) of the channel's fields as floats: a (P, J)
    array for P points and J offsets. Raises TypeError for offsets that are
    not integers.

    The tables a point reads depend on it only through (floor(L), ceil(L)),
    at most 2*l_max + 1 keys in the search box, and are cached per key in
    ``sums.tables``, read-only. Every point takes one phasor per run edge,
    one vector-matrix product with its key's (C + 3, J) edge table, and one
    sine over its bins, so a point's bits do not depend on the other points
    of its batch."""
    # On a run of `length` samples from `start` to `end` with count q the sum
    #   F = sum_n exp(i*2*pi*(iota*q_n - (t + l_eq)*n/N)),  t = offset,
    # is geometric, (e(start) - e(end)) / (1 - exp(-2 pi i x/N)) with
    # e(s) = exp(-2 pi i x s/N) and x = t + l_eq, so summed over the runs
    #   F = sum_e d_e exp(-i pi x (2 s_e - 1)/N) / (2i sin(pi x/N))
    # over the R + 1 run edges s_e = 0, start_1, .., N, d_e the step of
    # exp(2 pi i iota q) across edge e. With x = (t + li) + f, li =
    # round(l_eq) and f in [-1/2, 1/2], exp(-i pi x (2s - 1)/N) is
    # exp(-i pi t (2s - 1)/N), the key's edge table, times the point's
    # phasor exp(-i pi (li (2s - 1) + f (2s - 1))/N); the integer products
    # are reduced mod 2N in integers and read from ``_half_turns``, and the
    # fraction's phasors are exp(i pi f/N) times the running product of
    # exp(-2 pi i f length/N) over the runs. The sine is
    # sin(pi (t + li)/N) cos(pi f/N) + cos(pi (t + li)/N) sin(pi f/N), the
    # first factors read from that table too. Where t + li is not a
    # multiple of N, |sin(pi x/N)| is at least sin(pi/(2N)), so the ratio
    # loses no more than a few eps*R of the peak. Where it is (u = 0), the
    # sine vanishes with f: that bin, the Dirichlet kernel's removable
    # singularity, is summed per run in the form
    #   exp(2 pi i iota q - i pi f (2 start + length - 1)/N)
    #     * sin(pi f length/N) / sin(pi f/N),
    # which tends to `length` as f does, and is taken so at f = 0. Every
    # key's runs are padded to C + 2 (``_wrap_runs``' bound) by runs of the
    # last count and no length, whose edges sit at N and step by 0, so the
    # points of all keys share one form.
    n, width = grid.n, grid.n_seg + 2
    w = _half_turns(n)
    offsets = _check_indices("offsets", offsets)
    at_t = offsets % (2 * n)
    residues = offsets % n
    tables = {}

    def table(lo: int, hi: int):
        # the runs' counts, lengths and edge products 2s - 1 side by side,
        # and the edge table, times the 1/(2i) of the sine
        q, start, length = (a[:, 0] for a in _wrap_runs(grid, m_src, lo, hi))
        runs = np.empty(3 * width + 1, dtype=np.int64)
        runs[:width], runs[width : 2 * width], runs[2 * width :] = q[-1], 0, 2 * n - 1
        runs[: q.size], runs[width : width + q.size] = q, length
        runs[2 * width : 2 * width + q.size] = 2 * start - 1
        phase = -0.5j * w.take(np.multiply.outer(runs[2 * width :], at_t) % (2 * n))
        for a in (runs, phase):
            a.flags.writeable = False
        return runs, phase

    def sums(delay, doppler) -> np.ndarray:
        delay, doppler = np.broadcast_arrays(
            np.atleast_1d(np.asarray(delay, dtype=float)), np.asarray(doppler, dtype=float)
        )
        lo = np.floor(delay)
        code = (lo + np.ceil(delay)).astype(np.int64)  # 2*lo, or 2*lo + 1
        l_eq = doppler + grid.n_seg * delay
        li = np.rint(l_eq)
        f = l_eq - li
        li = li.astype(np.int64) % (2 * n)
        codes = np.flatnonzero(np.bincount(code))
        keys = [(key // 2, key - key // 2) for key in codes.tolist()]
        for key in keys:
            if key not in tables:
                tables[key] = table(*key)
        # each point's run counts, lengths and edges
        at = np.searchsorted(codes, code)
        runs = np.stack([tables[key][0] for key in keys])[at]
        q, length, edges = runs[:, :width], runs[:, width : 2 * width], runs[:, 2 * width :]
        head = np.exp((2j * np.pi) * ((delay - lo)[:, None] * q))
        step = np.concatenate([head[:, :1], np.diff(head, axis=-1), -head[:, -1:]], axis=-1)
        c = np.exp((1j * np.pi / n) * (f[:, None] * length))
        shift = np.empty(step.shape, dtype=complex)
        shift[:, 0] = np.exp((1j * np.pi / n) * f)
        np.square(c.conj(), out=shift[:, 1:])
        np.cumprod(shift, axis=-1, out=shift)
        step *= shift
        step *= w.take(li[:, None] * edges % (2 * n))
        out = np.empty((delay.size, 1, offsets.size), dtype=complex)
        for i, key in enumerate(keys):
            rows = np.flatnonzero(at == i)
            out[rows] = step[rows, None] @ tables[key][1]
        out = out[:, 0]
        # sin(pi (t + li + f)/N), its integer angle read from the table
        den = w.take(li[:, None] + at_t)
        den *= (np.sin((np.pi / n) * f) + 1j * np.cos((np.pi / n) * f))[:, None]
        den = den.real
        # each point's u = 0 bins, the offsets where t + li is a multiple of
        # N, summed per run in Dirichlet form
        zero = (f == 0.0)[:, None]
        c *= np.where(zero, length, c.imag / np.sin((np.pi / n) * np.where(zero, 1.0, f[:, None])))
        rows, cols = np.nonzero(residues == (-li % n)[:, None])
        den[rows, cols] = 1.0
        out /= den
        out[rows, cols] = (head[rows] * shift[rows, :-1] * c[rows].conj()).sum(axis=-1)
        return out

    sums.tables = tables
    return sums


def _check_indices(name: str, values) -> np.ndarray:
    # bins or bin offsets as int64: integers of any width pass, as does an
    # empty list (a float64 array to numpy); a float (2.0 too) would index
    # as an error, or be truncated in the runs
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"{name} must be integers, got {values.dtype}")
    return values.astype(np.int64)


def _check_source(grid: AfdmGrid, m_src) -> int:
    # the source subcarrier of the exact model, an integer in [0, N): one
    # outside would be wrapped by the modular bin arithmetic into another
    # subcarrier's column, and a float truncated in the runs only
    _check_integer("m_src", m_src)
    if not 0 <= m_src < grid.n:
        raise ValueError(f"m_src {m_src} outside the frame [0, {grid.n})")
    return int(m_src)


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
    peak bin. Raises TypeError for an m_src that is not an integer (numpy
    integers are accepted) and ValueError for one outside [0, N).
    """
    m_src = _check_source(grid, m_src)
    return _run_sums(grid, m_src, np.arange(grid.n) - m_src)(ch.delay, ch.doppler)[0]


def exact_profile(grid: AfdmGrid, m_src: int, ch: LosChannel) -> np.ndarray:
    """|exact_spectrum(grid, m_src, ch)| for every output bin m; raises as
    exact_spectrum does."""
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
    readouts against it. Raises as :func:`exact_spectrum` does for m_src,
    and TypeError for bins that are not integers (numpy integers of any
    width are accepted; no bins give an empty column).
    """
    n, m_src = grid.n, _check_source(grid, m_src)
    bins = _check_indices("bins", bins) % n
    _, e2 = _chirps(n, grid.c1, grid.c2)
    lead = ch.gain / n * e2[m_src] * cmath.exp(
        2j * math.pi * (grid.c1 * ch.delay**2 - ch.delay * m_src / n)
    )
    sums = _run_sums(grid, m_src, bins - m_src)(ch.delay, ch.doppler)[0]
    return lead * np.conj(e2[bins]) * sums


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
