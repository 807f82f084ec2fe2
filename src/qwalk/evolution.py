"""Time evolution: exact unitary propagation in a sector, and Lindblad
master-equation dynamics with per-site T1 / Tphi for small systems.

Unitary propagation has one engine, `propagate_block`: a Chebyshev expansion
of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984) applied
to a block of states that share one real hopping matrix and differ only in a
real diagonal per column. Fringe-grid cells and disorder realisations thus
propagate together; a single state is the one-column case.

Every recurrence feeds several sample times and pays the series'
truncation tail once rather than once per sample. Each of its samples is
cut at its own order, and its sums are ordered longest cut first, so that a
term adds only into the leading samples not yet cut. Every call runs one
series first: a recurrence from t = 0 over the leading sample times, closed
where one more sample would cost more multiply-adds than that sample's
share of a restarted window (`_series_samples`). A caller may keep only a
few basis rows of each sample (`rows`), and each sample's sums then cost
one multiply-add per kept row, so the series reaches further: a `run` keeps
every row, and on `ctqw-two` its series closes after 600 ns, 61 samples
taking 96 products; the distance-velocity study keeps 12 rows, and its
series takes all 101 samples over 0-1000 ns. The samples past the series run in windows
of up to WINDOW_SAMPLES consecutive times, each one recurrence from its
start state, the sample before. One builder makes every recurrence, once
per distinct tuple of offsets. Every recurrence is cut at TOLERANCE divided
by their number, which bounds the summed truncation error at the last
sample by TOLERANCE. The Bessel coefficients come from Miller's backward
recurrence in numpy, run for all of a grid's samples at once.

Each term is one fused in-place step on one or two contiguous real planes:
the diagonal part is written into a preallocated buffer and SciPy's
compiled CSR kernel adds the hopping product into it, plane by plane, with
the single-vector kernel for a one-column block. The Hamiltonian is real,
so a recurrence whose start state is real (every CLI command starts from a
basis state, so every series) has only real terms, one plane each, with
half the arithmetic of a complex start, whose terms are (re, im) planes. Every coefficient (-i)^k J_k is real
or imaginary, and each term adds only its coefficients' nonzero parts into
two real sums per sample, E (even terms, or the real part) and O (odd terms,
or the imaginary part), in one compiled call; the phase e^(-i a dt) of the
interval's centre multiplies each sample once, at the end of its
recurrence, in real arithmetic from a copy of the sums into their own
bytes, which then hold the sample. So a real recurrence's samples are
bit-identical to running the same terms complex, and no product rounds
differently under another numpy SIMD level or BLAS kernel. A sample held on
a few rows sums only those rows, which each term gathers once, so its rows
match the same rows of the whole sample bit for bit under the same plan;
its norm is checked from the recurrence's Chebyshev moments (Weisse et al.,
Rev. Mod. Phys. 78, 275, 2006), one column reduction per term.

A wide block runs in column chunks whose recurrence working set fits
CHUNK_BYTES, each chunk through every window from t = 0. The chunks share
one Gershgorin interval and one cache of coefficient grids, and a column's
arithmetic does not depend on the columns beside it, so the result is
bit-identical to running the block whole.

Times cross the API in ns; internally everything runs in us to match the
rad/us Hamiltonian units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .device import ActiveGraph, DisorderMap
from .hamiltonian import HamiltonianMatrix, build_hamiltonian
from .sector import NORM_TOL, QuantumState, occupation_row, rank_table, row_index, site_sums

__all__ = [
    "EvolutionError",
    "evolve_unitary",
    "propagate_block",
    "LindbladModel",
    "evolve_lindblad",
    "initial_density",
    "site_populations",
]

NS_TO_US = 1e-3

# Summed Chebyshev truncation error allowed at the last sample of propagate_block
TOLERANCE = 1e-12

# Consecutive sample times per Chebyshev window in propagate_block, every
# sample past a call's series. Every window sample holds two real sums, so
# longer windows trade memory for fewer scaled-operator products. The length
# was chosen when every sample of `run` and of the `analyze` ensembles ran in
# windows: past six samples the `ensemble` block (dim 225 x 32 columns) no
# longer fit one CHUNK_BYTES chunk, so its chunks each paid every window's
# terms. Products per operation of the `walk` (dim 1891, 61 samples) and
# `ensemble` (101 samples) benchmark workloads then, and the median
# (quartiles) of their propagate_block call alone, interleaved over 40 rounds
# on a 2-core x86_64 machine with BLAS on one thread; chunks in brackets. Both
# now run one series and no window: `walk`'s takes 96 one-plane products,
# and the `ensemble`'s, on its 12 kept rows, all 101 samples.
#
#   window   products               walk (ms)           ensemble (ms)
#   samples  walk   ensemble        dim 1891 x 1        dim 225 x 32
#   1        780    1,100 [1]       46.1 (40.3-49.3)    103.1 (91.2-111.5)
#   4        324    434 [1]         22.9 (20.6-24.6)    60.4 (55.6-64.7)
#   6        260    336 [1]         20.7 (19.4-21.8)    56.5 (53.1-60.9)
#   8        216    562 [2]         19.2 (17.2-20.3)    65.7 (62.3-69.4)
#   16       155    609 [3]         18.5 (15.8-19.5)    72.5 (69.1-76.5)
#
# The `sweep` block reads one sample and takes 258 products at every length.
# A length set from the block's width would make a column's bits depend on
# the columns beside it, so the length is one constant.
WINDOW_SAMPLES = 6

# Recurrence working set per column chunk in propagate_block, in bytes. The
# budget counts (window samples + 3) x dim complex entries per column: one per
# window sample's two real sums and three recurrence terms of two real
# planes. Every chunk's sums become its samples in place, every sample's,
# whole or on the kept rows, which the budget does not count past a window's
# worth. A chunk also holds a window's worth of whole sums to phase them
# from, which the budget does not count either. A recurrence with a real
# start state keeps its terms on one plane. The budget is the same on every
# path, whatever the rows kept, and chunking does not change the bits. The
# budget bounds the working set of the widest blocks the caps allow; it does
# not buy speed. At MAX_SWEEP_ENTRIES (the mz-two sweep, 134 x 134 cells
# at dim 276) one call's traced peak was 116 MiB in 1 MiB chunks against 643
# MiB whole, and at MAX_STUDY_SEEDS (4,125 realisations at dim 225) 86 MiB
# against 255 MiB; each peak includes the call's output, about 76 MiB.
# Below the caps the whole block was as fast or faster: the median (quartiles)
# of one propagate_block call, the two budgets interleaved over 40, 20 and 3
# rounds on a 2-core x86_64 machine with BLAS on one thread, outputs
# bit-identical; chunks in brackets:
#
#   block                                 1 MiB                     whole
#   `sweep` dim 276 x 121, 1 sample       13.6 ms (9.9-14.3) [3]    12.5 ms (8.5-12.8)
#   study dim 225 x 32, 101 samples       6.3 ms (6.2-6.4) [1]      6.3 ms (6.1-6.4)
#   study dim 225 x 512, 101 samples      77.8 ms (75.8-83.0) [16]  73.3 ms (71.0-75.5)
#
# A one-column block (`walk`) is one chunk under any budget.
CHUNK_BYTES = 1 << 20

# Largest Bessel argument half_width * max|dt| of a propagate_block
# recurrence, in rad: about its number of Chebyshev terms (the workloads use
# at most ~86). At the cap, a 989 us step of `walk`'s dim-1891 block took
# 6.3-6.9 s on a 2-core x86_64 machine with BLAS on one thread. The series
# and every window close before a sample past the cap from their start; a
# single step past it, which a window must take, makes the engine raise.
MAX_WINDOW_ARGUMENT = 1e5

# (-i)^k for k mod 4, exact in complex arithmetic
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


class EvolutionError(RuntimeError):
    pass


def _miller_order(a) -> int:
    """The order n = a + 20 a^(1/3) + 30, for the largest of the a given,
    that Miller's recurrence for J_k(a) starts from."""
    return int(np.max(a + 20.0 * np.cbrt(a))) + 30


def _bessel_j(z) -> np.ndarray:
    """J_k(z_j) for k = 0..n-1 at every z_j (len(z) x n), by Miller's backward recurrence.

    J_{k-1} = (2k / a) J_k - J_{k+1} runs down from J_n = 0 at a = |z| for an
    order n = a + 20 a^(1/3) + 30 of the largest a, past the Airy transition
    of width a^(1/3) around k = a, where J_n(a) is below 1e-30. It runs for
    every z_j at once on an orders x samples array, one row per order; a
    sample whose value passes 1e250 is rescaled by 1e-250 at that order (the
    higher orders underflow harmlessly), as the scalar recurrence would do
    on its own, so each sample gets the same bits. The values are read only
    where the growth bound 1 + 2k / a per order, from the last values read,
    could have passed 1e249. The result is normalised with J_0 + 2 sum_k J_2k = 1, and
    J_k(-z) = (-1)^k J_k(z). Below |z| = 1e-50 the two-term series is used,
    which is exact at z = 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    a = np.abs(z)
    n = _miller_order(a)
    # J_0 = 1 and J_1 = z / 2 to double precision below 1e-50 (J_2 = z^2 / 8 is
    # below 1e-100), exact at z = 0; there 2 / a could overflow the recurrence
    tiny = a < 1e-50
    two_over_a = 2.0 / np.where(tiny, np.inf, a)  # 0 for a tiny z
    factors = np.arange(n)[:, None] * two_over_a
    # |J_(k-1)| <= (1 + 2k / a) max(|J_k|, |J_(k+1)|): `bound` caps the two
    # latest orders, and the values are read only once it passes 1e249
    growth = (1.0 + np.arange(n) * np.max(two_over_a)).tolist()
    bound = 1.0
    vals = np.zeros((n + 1, len(z)))
    vals[n - 1] = 1.0
    f, v = list(factors), list(vals)  # one view per order, made once
    for k in range(n - 1, 0, -1):
        np.multiply(f[k], v[k], out=v[k - 1])
        np.subtract(v[k - 1], v[k + 1], out=v[k - 1])
        bound *= growth[k]
        if bound > 1e249:
            over = np.abs(v[k - 1]) > 1e250
            if over.any():
                vals[:, over] *= 1e-250
            bound = max(np.max(np.abs(v[k - 1])), np.max(np.abs(v[k])))
    j = vals[:n].T.copy()
    j /= np.where(tiny, 1.0, j[:, 0] + 2.0 * np.sum(j[:, 2::2], axis=1))[:, None]
    j[z < 0, 1::2] *= -1.0
    j[tiny] = 0.0
    j[tiny, 0] = 1.0
    j[tiny, 1] = 0.5 * z[tiny]
    return j


def _cutoffs(j, tol) -> np.ndarray:
    """Per row of a Bessel grid, the smallest order K at which the tail
    2 sum_{k >= K} |J_k| is below tol, at least 1. Since |T_k(x)| <= 1 the
    tail bounds the row's truncation error."""
    tail = np.abs(j[:, ::-1])
    np.cumsum(tail, axis=1, out=tail)
    below = (2.0 * tail < tol)[:, ::-1]
    return np.maximum(1, np.where(below.any(axis=1), below.argmax(axis=1), j.shape[1]))


def _coefficients(j) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(z_j) for exp(-i z_j x) = sum_k c_jk T_k(x) on [-1, 1], from a Bessel grid."""
    k = np.arange(j.shape[1])
    return np.where(k == 0, 1.0, 2.0) * _MINUS_I_POWERS[k % 4] * j


def _series_samples(times, half_width: float, dim: int, nnz: int, kept: int):
    """How many leading sample times one Chebyshev series from t = 0 takes,
    and their Bessel grid at z_s = half_width t_s: (L, grid of L rows).

    Costs are counted in multiply-adds: a product on one plane costs
    nnz + dim (the CSR entries and the diagonal), and adding a term into one
    sum costs one per row it keeps, `kept` of them (dim for a caller that
    keeps every row). The series starts from a real state, one plane:
    sample s costs K_s kept for its own sums, K_s its cutoff at TOLERANCE,
    and nnz + dim for each term by which it lengthens the series. Were the
    series closed before sample s, samples s, s+1, .. would restart from
    t_(s-1) in a window of up to WINDOW_SAMPLES of them, closed before a
    sample past MAX_WINDOW_ARGUMENT; its state is complex, so each of its K
    terms costs two planes and adds into two sums per sample, and sample s's
    share is 2 K (nnz + dim) / m + 2 K dim for a window of m samples, K the
    cutoff of its largest |z|: an upper bound, since the window cuts each
    sample at its own order and keeps only its last sample whole. The series
    takes at least the first WINDOW_SAMPLES samples, as the first window
    would, and never a sample past MAX_WINDOW_ARGUMENT from t = 0 or one
    whose own sums alone, at least |z_s| kept since K_s > |z_s|, cost more
    than its share; up to there it closes where its cost beyond the
    windows' shares is least. The plan depends on the interval, the times,
    dim, nnz and kept only.
    """
    t = np.array(times)
    m = len(t)
    z = half_width * (t * NS_TO_US)
    product = nnz + dim
    # share[s]: sample s's share of the window it would restart, s >= 1; it
    # stays infinite where sample s is past MAX_WINDOW_ARGUMENT from t_(s-1),
    # so that no window can restart there and the series keeps it
    share = np.full(m, np.inf)
    if m > 1:
        members = np.arange(1, m)[:, None] + np.arange(WINDOW_SAMPLES)
        window_z = np.abs(half_width * ((t[np.minimum(members, m - 1)] - t[:-1, None]) * NS_TO_US))
        inside = (members < m) & (np.cumsum(window_z > MAX_WINDOW_ARGUMENT, axis=1) == 0)
        counts = inside.sum(axis=1)
        fits = counts > 0
        # cutoffs grow with |z|, so a window's order is its largest |z|'s,
        # found on grids over the distinct largest |z| in runs whose Miller
        # orders stay within a factor 2, so that a small |z| never runs the
        # recurrence of a far larger one
        largest = np.where(inside, window_z, 0.0).max(axis=1)[fits].tolist()
        values, orders, low = sorted(set(largest)), {}, 0
        starts = [_miller_order(value) for value in values]
        for i in range(1, len(values) + 1):
            if i == len(values) or starts[i] > 2 * starts[low]:
                orders.update(zip(values[low:i], _cutoffs(_bessel_j(values[low:i]), TOLERANCE).tolist()))
                low = i
        share[1:][fits] = 2.0 * np.array([orders[value] for value in largest]) * (product / counts[fits] + dim)
    closed = np.abs(z) > MAX_WINDOW_ARGUMENT
    closed[1:] |= np.abs(z[1:]) * kept > share[1:]
    reach = int(np.argmax(closed)) if closed.any() else m
    if reach == 0:
        return 0, None
    j = _bessel_j(z[:reach])
    cut = _cutoffs(j, TOLERANCE)
    longest = np.maximum.accumulate(cut)
    # the cost beyond the windows' shares of a series of s + 1 samples
    excess = np.concatenate([[0.0], np.cumsum(np.diff(longest) * product + cut[1:] * kept - share[1:reach])])
    first = min(WINDOW_SAMPLES, reach)
    length = first + int(np.argmin(excess[first - 1 :]))
    return length, j[:length]


def _chebyshev_step(kernels, matrix, diagonal, cur, prev, out) -> np.ndarray:
    """out <- matrix @ cur + diagonal * cur - prev, in place, plane by plane: one Chebyshev term.

    A term is one real plane or the (re, im) planes of a complex one, stacked
    planes x dim x width; `diagonal` (dim x width) applies to every plane.
    `kernels` are SciPy's compiled `scipy.sparse._sparsetools.csr_matvec` and
    `csr_matvecs`, which add matrix @ plane into a flat C-contiguous float64
    buffer: the single-vector kernel for a one-column plane, the multi-vector
    one (the kernel behind `csr_matrix @ dense`) for a wider one. `out` must
    be such a buffer, distinct from `cur` and `prev`: a copy made by `ravel()`
    would take the product silently. With `prev` None nothing is subtracted.
    Returns `out`.
    """
    if not out.flags.c_contiguous or out.shape != cur.shape or matrix.shape != (cur.shape[1],) * 2:
        raise ValueError(f"the step needs a C-contiguous {cur.shape} buffer for a {matrix.shape} matrix")
    np.multiply(diagonal, cur, out=out)
    if prev is not None:
        np.subtract(out, prev, out=out)
    n_planes, n_rows, width = cur.shape
    csr = matrix.indptr, matrix.indices, matrix.data
    planes, products = cur.reshape(n_planes, -1), out.reshape(n_planes, -1)
    matvec, matvecs = kernels
    for p in range(n_planes):
        if width == 1:
            matvec(n_rows, n_rows, *csr, planes[p], products[p])
        else:
            matvecs(n_rows, n_rows, width, *csr, planes[p], products[p])
    return out


def _coefficient_rows(coeffs) -> dict:
    """Each Chebyshev term's additions into a window's sums, as CSR rows over its planes.

    Sample j of an m-sample window keeps two real sums, E_j and O_j (rows 2j
    and 2j + 1 of the sums), and ends as phase_j (E_j + i O_j). Every
    coefficient c_jk = (-i)^k r_jk (`_coefficients`) has one
    nonzero part p_jk, the real part for even k and the imaginary part for
    odd k, and only that part is added. The value for a real term (True) or
    a complex one (False) holds (indptr, indices) per parity of k and the
    data, one row per term, so term k's rows are
    (indptr[k % 2], indices[k % 2], data[k]):

    - a real term, one plane, adds p_jk T_k into E_j for even k and into O_j
      for odd k: one entry per sample;
    - a complex term, planes (re, im), adds p_jk (Re T_k, Im T_k) into
      (E_j, O_j) for even k, the diagonal, and p_jk (-Im T_k, Re T_k) for odd
      k, the anti-diagonal: two entries per sample.
    """
    m, n_terms = coeffs.shape
    odd = np.arange(n_terms) % 2 == 1
    parts = np.where(odd, coeffs.imag, coeffs.real).T  # terms x samples
    rows = np.arange(2 * m + 1, dtype=np.int32)
    plane0 = np.zeros(m, np.int32)
    pairs = np.repeat(parts[:, :, None], 2, axis=2)  # terms x samples x (E, O) entries
    pairs[odd, :, 0] = -parts[odd]
    straight, crossed = np.tile(np.array([0, 1], np.int32), m), np.tile(np.array([1, 0], np.int32), m)
    return {
        True: (((rows + 1) // 2, rows // 2), (plane0, plane0), np.ascontiguousarray(parts)),
        False: ((rows, rows), (straight, crossed), pairs.reshape(n_terms, 2 * m)),
    }


def _accumulate(matvecs, rows, term, sums) -> None:
    """sums[r] += a * term[p] for every entry (r, p, a) of a term's coefficient rows, in place.

    `rows` are (indptr, indices, data) from `_coefficient_rows`, `term` the
    term's planes (planes x dim x width) and `sums` the window's sums, each
    dim x width, C-contiguous. SciPy's compiled `csr_matvecs` makes each
    entry one axpy: a rounded multiply, then a rounded add, in row order.
    """
    indptr, indices, data = rows
    if not sums.flags.c_contiguous or sums.size != (len(indptr) - 1) * term[0].size:
        raise ValueError(f"the sums need a C-contiguous buffer of {len(indptr) - 1} x {term[0].shape}")
    matvecs(len(indptr) - 1, len(term), term[0].size, indptr, indices, data, term.ravel(), sums.ravel())


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c at or above n: an FFT length pocketfft runs fast."""
    length = n
    while True:
        rest = length
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return length
        length += 1


def _moment_weights(parts) -> np.ndarray:
    """W with ||y_j||^2 = sum_a W_ja mu_2a, for the samples y_j of a recurrence
    from x, from its coefficients' nonzero parts p_jk (samples x K, zero past
    each sample's cut), where mu_2a = x^H T_2a x = 2 ||T_a x||^2 - ||x||^2.

    y_j = phase_j sum_k c_jk T_k x, and for a real symmetric H the moment
    identity T_k T_l = (T_(k+l) + T_|k-l|) / 2 (Weisse et al., Rev. Mod. Phys.
    78, 275, 2006) makes each <T_k x, T_l x> = (mu_(k+l) + mu_|k-l|) / 2 real,
    for a complex x too. The pairs with k + l odd, whose c_jk* c_jl are
    imaginary, then cancel, and each other pair has c_jk* c_jl = p_jk p_jl:
    W_ja = sum_(k+l=2a) p_jk p_jl / 2 + sum_(|k-l|=2a) p_jk p_jl / 2 over
    ordered pairs. Such a pair has k and l both even or both odd, so with
    the even orders e_m = p_j(2m) and the odd ones o_m = p_j(2m+1), h =
    ceil(K/2) of each, the pairs k + l = 2a are the convolutions (e * e)_a +
    (o * o)_(a-1), and those with l - k = 2a the autocorrelations of e and o
    at lag a. All three come from one rfft of both halves, zero-padded to a
    5-smooth length L >= 3h: the convolutions reach entry 2h - 2, and the
    negative lags, down to 1 - h, wrap onto entries L - h + 1 and up, past
    the K - 1 read here.
    """
    n_terms = parts.shape[1]
    half = (n_terms + 1) // 2
    length = _smooth_length(3 * half)
    pairs = np.zeros((len(parts), 2 * half))
    pairs[:, :n_terms] = parts
    even, odd = np.fft.rfft(pairs.reshape(len(parts), half, 2).transpose(2, 0, 1), n=length, axis=2)
    products = np.stack([even * even, odd * odd, even * even.conj() + odd * odd.conj()])
    even_sums, odd_sums, lags = np.fft.irfft(products, n=length, axis=2)[..., :n_terms]
    even_sums[:, 1:] += odd_sums[:, :-1]
    # lag a > 0 stands for the pairs at +-2a, lag 0 for one each
    weights = 0.5 * even_sums + lags
    weights[:, 0] -= 0.5 * lags[:, 0]
    return weights


def _plan(times, shift: float, half_width: float, dim: int, nnz: int, kept) -> list:
    """The recurrences of a propagate_block call, in order: (sample indices,
    number of terms, groups) per recurrence.

    The first is one series from t = 0 over the leading samples
    `_series_samples` picks; the other samples run in windows from the
    sample before: up to WINDOW_SAMPLES consecutive times, closed early
    before a sample past MAX_WINDOW_ARGUMENT from the start. `kept` is the
    number of rows each returned sample keeps, None for every row. A sample
    held whole keeps every row: every sample when `kept` is None, else the
    last of a recurrence that another follows, which starts from it; the
    others are held on the kept rows. Each recurrence splits its samples
    into those two groups, whole first, each (whole, sample indices in the
    order of their sums, phase parts, coefficient rows, number of samples
    each term adds into, moment weights or None for the whole group). Every
    recurrence is built alike, once per distinct tuple of offsets and split:
    each sample is cut at its own order, and a group's sums are ordered
    longest cut first, so that term k adds into the leading run of its
    samples cut past k.
    """
    n_series, series_grid = _series_samples(times, half_width, dim, nnz, dim if kept is None else kept)
    # (start time, sample indices) per recurrence: the series from t = 0, then the windows
    recurrences = [(0.0, list(range(n_series)))] if n_series else []
    window, t_start = [], times[n_series - 1] if n_series else 0.0
    for i in range(n_series, len(times)):
        if len(window) == WINDOW_SAMPLES or (
            window and abs(half_width * ((times[i] - t_start) * NS_TO_US)) > MAX_WINDOW_ARGUMENT
        ):
            recurrences.append((t_start, window))
            window, t_start = [], times[window[-1]]
        window.append(i)
    if window:
        recurrences.append((t_start, window))
    tolerance = TOLERANCE / max(1, len(recurrences))
    # offsets in ns, scaled afterwards, so equal windows share one entry; the
    # series' Bessel grid is already made
    bessel, entries, plan = {tuple(times[:n_series]): series_grid}, {}, []
    for r, (t_start, samples) in enumerate(recurrences):
        offsets = tuple(times[i] - t_start for i in samples)
        last = len(samples) - 1 if r + 1 < len(recurrences) else None  # the next recurrence's start
        whole = tuple(kept is None or s == last for s in range(len(samples)))
        if (offsets, whole) not in entries:
            dt = np.array(offsets) * NS_TO_US
            z = half_width * dt
            far = int(np.argmax(np.abs(z)))
            if abs(z[far]) > MAX_WINDOW_ARGUMENT:  # a single step: longer windows closed early
                raise EvolutionError(f"sample time {times[samples[far]]!r} ns is too far from {t_start!r} ns for one "
                                     f"window: it needs about {abs(z[far]):.3g} terms, more than {MAX_WINDOW_ARGUMENT:.0e}")
            j = bessel[offsets] if offsets in bessel else _bessel_j(z)
            cut = _cutoffs(j, tolerance)
            order = np.argsort(-cut, kind="stable")
            n_terms = int(cut[order[0]])
            phases = np.exp(-1j * shift * dt)[:, None, None]
            groups = []
            for held in (True, False):
                members = order[np.array(whole)[order] == held]
                if not len(members):
                    continue
                coeffs = _coefficients(j[members, :n_terms])
                reached = np.sum(cut[members, None] > np.arange(n_terms), axis=0)
                weights = None
                if not held:
                    # each coefficient's nonzero part, up to the sample's own cut
                    n_moments = int(reached.nonzero()[0][-1]) + 1
                    k = np.arange(n_moments)
                    parts = np.where(k % 2 == 1, coeffs.imag[:, :n_moments], coeffs.real[:, :n_moments])
                    weights = _moment_weights(np.where(k < cut[members, None], parts, 0.0))
                row_data = _coefficient_rows(coeffs)
                groups.append((held, members.tolist(), phases[members].real, phases[members].imag, row_data,
                               reached.tolist(), weights))
            entries[offsets, whole] = n_terms, groups
        n_terms, groups = entries[offsets, whole]
        plan.append((samples, n_terms, [(held, [samples[s] for s in members], *rest) for held, members, *rest in groups]))
    return plan


def _phase(sums, phase_re, phase_im, out) -> None:
    """out_j = phase_j (E_j + i O_j) for each sample j of a recurrence's sums.

    `sums` is m x 2 x rows x width (E_j and O_j) and `out` m x rows x width
    complex, not sharing its bytes. The product is spelled in real
    multiplies and adds, E's storage taking each product of O once E is
    read, and + 0.0 turns -0.0 into +0.0.
    """
    even, odd = sums[:, 0], sums[:, 1]
    np.multiply(phase_re, even, out=out.real)
    np.multiply(phase_im, even, out=out.imag)
    np.subtract(out.real, np.multiply(phase_im, odd, out=even), out=out.real)
    np.add(out.imag, np.multiply(phase_re, odd, out=even), out=out.imag)
    flat = out.view(np.float64)
    np.add(flat, 0.0, out=flat)


def propagate_block(h0, diagonals, block, times_ns, rows=None) -> list:
    """exp(-i t (H0 + diag(d_c))) x_c for every column c of a block, at each sample time.

    `h0` is a real symmetric sparse matrix shared by every column; column c of
    the real `diagonals` (dim x cells) is added to its diagonal for column c of
    `block`, the states at t = 0. Times are in ns, taken in order from t = 0;
    a step between them may be negative or zero. Returns one complex array
    per sample time: the basis rows `rows` of X(t), in the order given
    (rows x columns), by default every row, the blocks themselves.

    Every column's spectrum lies in one Gershgorin interval [a - b, a + b] over
    the whole block, so one rescaled Chebyshev recurrence serves all columns.
    A recurrence from the state at its start time t0 sums every term T_k into
    each of its samples with the coefficient (-i)^k r_jk,
    r_jk = (2 - delta_k0) J_k(b dt_j) real and dt_j = t_j - t0, then
    multiplies each sample by its phase e^(-i a dt_j).

    The first recurrence is a series from t0 = 0 over the leading sample
    times that `_series_samples` picks from a, b, the times, dim, nnz and
    the number of rows kept alone, never from the block's width or values.
    The samples after it are grouped into windows of WINDOW_SAMPLES
    consecutive times, a window closing early before a sample whose Bessel
    argument b |t - t0| would exceed MAX_WINDOW_ARGUMENT from its start time
    t0 (the last sample before the window). Every recurrence, series or
    window, is built alike: each sample is cut at its own order K_j, the
    first at which its Bessel tail is below the tolerance, and its sums are
    ordered by K_j, longest first, so term k adds into the leading run of
    samples with K_j > k. Its phases and grid depend on a, b, the times,
    dim, nnz and the rows kept alone, and are built once per distinct tuple
    of offsets. Every recurrence is cut at TOLERANCE divided by their
    number, so the truncation errors summed up to the last sample stay
    below TOLERANCE. A single step past MAX_WINDOW_ARGUMENT that a window
    must take raises EvolutionError before any term is computed.

    Each term is one fused step into a preallocated buffer (`_chebyshev_step`):
    T_1 = D T_0 + A T_0, and T_k = 2D T_(k-1) - T_(k-2) + 2A T_(k-1) for
    k >= 2, with the scaled operator and diagonal doubled once per call. A
    term is stored as contiguous real planes, and the product runs once per
    plane: SciPy's single-vector `csr_matvec` for a one-column chunk, its
    `csr_matvecs` for a wider one. A recurrence whose start state is real
    (every imaginary part +0.0 or -0.0) has only real terms, one plane each;
    any other's terms are two planes, (re, im). Each sample keeps two real
    sums, E_j and O_j, which start at +0.0, and each term adds into them in
    one `csr_matvecs` call over a small matrix of its coefficients' nonzero
    parts p_jk = +-r_jk (`_coefficient_rows`, `_accumulate`): p_jk T_k into
    E_j for an even real term and into O_j for an odd one; p_jk (Re T_k,
    Im T_k) for an even complex term and p_jk (-Im T_k, Re T_k) for an odd
    one. Every addition is one rounded multiply and one rounded add, the
    ones the complex product c_jk T_k and its sum would make, since the
    product's other part is an exact zero. A recurrence ends as
    y_j = phase_j (E_j + i O_j) in explicit real multiplies and adds, then
    + 0.0, so that an exact zero is +0.0 (`_phase`). A real recurrence's
    samples are thus bit-identical to running its terms complex.

    A sample held whole sums every row: every sample by default, and
    otherwise the one the next recurrence starts from. Every other sample
    sums only the kept rows, which each term gathers once. Each row's
    arithmetic is the same either way, so a sample's kept rows equal the
    same rows of its whole block bit for bit under the same plan. The sums
    take their samples' complex entries in place, through a scratch copy of
    at most a window's worth of whole sums at a time, and the returned
    arrays are those bytes when the block is one chunk (a whole sample's
    kept rows are copied out). A sample held whole has its column norms
    checked against the start block's at NORM_TOL directly; a sample held
    on its rows from the Chebyshev moments of its recurrence, one column
    reduction per term (`_moment_weights`). The error names the first sample
    that drifts.

    The columns run in chunks of equal width (the last may be narrower), as
    many as keep each chunk's (window samples + 3) x dim complex entries
    within CHUNK_BYTES, whatever the rows kept and also where its terms run
    real. Each chunk allocates its term buffers and sums once, and runs the
    whole plan from t = 0 on the shared interval and grids, so every
    column's values match the unchunked run bit for bit.
    """
    import scipy.sparse as sp  # imported on use: no start-up cost for commands that never propagate
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

    if np.iscomplexobj(h0) or np.iscomplexobj(diagonals):
        raise ValueError("the block engine needs a real Hamiltonian")
    if not np.all(np.isfinite(times_ns)):
        raise ValueError("sample times must be finite")
    h0 = sp.csr_matrix(h0, dtype=np.float64)
    diagonals = np.asarray(diagonals, dtype=np.float64)
    x = np.ascontiguousarray(block, dtype=np.complex128)
    if x.ndim != 2 or h0.shape != (x.shape[0], x.shape[0]) or diagonals.shape != x.shape:
        raise ValueError(f"shapes do not match: H0 {h0.shape}, diagonals {diagonals.shape}, block {x.shape}")
    dim, n_columns = x.shape
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu") or np.any((rows < 0) | (rows >= dim)):
            raise ValueError(f"rows must list basis rows 0..{dim - 1}")
        rows = rows.astype(np.intp)
    n_kept = dim if rows is None else len(rows)

    h0_diag = h0.diagonal()
    radius = np.asarray(abs(h0).sum(axis=1)).ravel() - np.abs(h0_diag)
    # a block without columns takes the interval of H0's rows alone
    centers = h0_diag[:, None] + (diagonals if n_columns else 0.0)
    lo = float(np.min(centers - radius[:, None]))
    hi = float(np.max(centers + radius[:, None]))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise EvolutionError("the Hamiltonian has non-finite entries")
    shift, half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
    # a zero half-width means H = shift * I: every sample is a pure phase (z = 0,
    # one coefficient) and the scaled operator is never applied
    inverse_width = 1.0 / half_width if half_width > 0 else 0.0
    scaled_h0 = h0 * inverse_width
    # doubling is exact in binary floating point, so (2A) T_(k-1) matches
    # 2 (A T_(k-1)) bit for bit unless a product is subnormal
    doubled_h0 = 2.0 * scaled_h0

    times = [float(t) for t in times_ns]
    plan = _plan(times, shift, half_width, dim, h0.nnz, None if rows is None else n_kept)

    samples = [None] * len(times)  # one output array per sample time, filled chunk by chunk
    window_samples = min(WINDOW_SAMPLES, len(times))
    kernels = csr_matvec, csr_matvecs

    def propagate_chunk(x, chunk_diagonals, columns, whole_block):
        width = x.shape[1]
        scaled_diag = (chunk_diagonals - shift) * inverse_width
        doubled_diag = 2.0 * scaled_diag
        # three term buffers of (re, im) planes, a real term using the first
        # plane; a term's kept rows; each sample's sums E_j and O_j, which
        # become its sample in place: whole, every sample's by default, else
        # the next recurrence's start alone, and every other sample's on its
        # rows; and a window's worth of whole sums to phase them from
        terms = np.empty((3, 2, dim, width))
        gathered = np.empty((2, n_kept, width))
        stores = {True: np.empty((len(times) if rows is None else 1, 2, dim, width)),
                  False: np.empty((0 if rows is None else len(times), 2, n_kept, width))}
        scratch = np.empty(window_samples * 2 * dim * width)

        def phased(sums, phase_re, phase_im):
            # each sample's complex entries take its sums' bytes, as many at a time as the scratch holds
            m = len(sums)
            y = sums.reshape(m, -1).view(np.complex128).reshape(m, *sums.shape[2:])
            step = max(1, scratch.size // max(1, sums[0].size))
            for i in range(0, m, step):
                run = slice(i, i + step)
                copied = scratch[: sums[run].size].reshape(sums[run].shape)
                np.copyto(copied, sums[run])
                _phase(copied, phase_re[run], phase_im[run], y[run])
            return y

        norms0 = np.linalg.norm(x, axis=0)
        stored = {True: 0, False: 0}
        for window, n_terms, groups in plan:
            # a real start state has only real terms T_k, one plane each
            real = not np.any(x.imag)
            cur, nxt, prev = terms[:, : 1 if real else 2]
            np.copyto(cur[0], x.real)
            if not real:
                np.copyto(cur[1], x.imag)
            kept_rows = gathered[: len(cur)]
            group_sums, squared_terms = [], None
            for held, members, *_, weights in groups:
                # the next recurrence's start reuses one slot; every other sample keeps its own
                at = 0 if held and rows is not None else stored[held]
                stored[held] = at + len(members)
                # the sums start at +0.0 and only ever add, so they never hold -0.0
                group_sums.append(stores[held][at : at + len(members)])
                group_sums[-1].fill(0.0)
                if weights is not None:
                    squared_terms = np.empty((weights.shape[1], width))  # ||T_a x||^2 per column
            for k in range(n_terms):
                if k == 1:
                    _chebyshev_step(kernels, scaled_h0, scaled_diag, cur, None, nxt)
                elif k > 1:
                    # T_k = 2A T_(k-1) - T_(k-2)
                    _chebyshev_step(kernels, doubled_h0, doubled_diag, cur, prev, nxt)
                if k:
                    prev, cur, nxt = cur, nxt, prev
                for (held, _, _, _, coefficient_rows, reached, weights), sums in zip(groups, group_sums):
                    n = reached[k]
                    if not n:  # past the group's longest cut
                        continue
                    term = cur
                    if not held:
                        np.take(cur, rows, axis=1, out=kept_rows)
                        term = kept_rows
                        squared_terms[k] = np.einsum("pij,pij->j", cur, cur)
                    indptr, indices, data = coefficient_rows[real]
                    row_data = indptr[k % 2], indices[k % 2], data[k]
                    if n < len(sums):  # a term adds into its leading n samples, those cut past k
                        ptr = row_data[0][: 2 * n + 1]
                        row_data = ptr, row_data[1][: ptr[-1]], row_data[2][: ptr[-1]]
                    _accumulate(csr_matvecs, row_data, term, sums[:n])
            # each group's samples and their squared column norms: directly for
            # a whole sample, from the moments mu_2a = 2 ||T_a x||^2 - ||x||^2
            # for one held on its rows
            ys, drifts = [], []
            for (held, _, phase_re, phase_im, _, _, weights), sums in zip(groups, group_sums):
                y = phased(sums, phase_re, phase_im)
                if held:
                    flat = y.view(np.float64)
                    if width == 1:  # the one column's (re, im) pairs lie contiguous
                        samples_flat = flat.reshape(len(y), -1)
                        squares = np.einsum("si,si->s", samples_flat, samples_flat)[:, None]
                    else:
                        squares = np.einsum("sij,sij->sj", flat, flat)
                        squares = squares[:, 0::2] + squares[:, 1::2]
                else:
                    squares = weights @ (2.0 * squared_terms - squared_terms[0])
                ys.append(y)
                drifts.append(np.abs(np.sqrt(np.maximum(squares, 0.0)) - norms0))
            # the first sample that drifts is named
            held_samples = [i for _, members, *_ in groups for i in members]
            drift = np.concatenate(drifts)
            within = np.all(drift <= NORM_TOL, axis=1)
            if not within.all():
                first = min(held_samples[s] for s in np.flatnonzero(~within))
                raise EvolutionError(f"norm drifted by {np.max(drift[held_samples.index(first)])} at t={times[first]} ns")
            for (held, members, *_), y in zip(groups, ys):
                for yt, i in zip(y, members):
                    if held and rows is not None:
                        yt = yt[rows]  # a copy: the next recurrence's sums take these bytes
                    if whole_block:
                        samples[i] = yt  # the sample's own bytes, or its kept rows' copy
                        continue
                    if samples[i] is None:
                        samples[i] = np.empty((n_kept, n_columns), np.complex128)
                    samples[i][:, columns] = yt
            # the next recurrence starts from the last sample, held whole, before it overwrites y
            held, members, *_ = groups[0]
            if held and max(window) in members:
                x = ys[0][members.index(max(window))]

    # the fewest chunks within CHUNK_BYTES, of equal width but the last; a
    # zero-column block runs as one empty chunk
    column_bytes = (window_samples + 3) * dim * x.itemsize
    n_chunks = max(1, -(-n_columns * column_bytes // CHUNK_BYTES))
    width = max(1, -(-n_columns // n_chunks))
    for c in range(0, max(1, n_columns), width):
        chunk = slice(c, c + width)
        propagate_chunk(np.ascontiguousarray(x[:, chunk]), diagonals[:, chunk], chunk, width >= n_columns)
    return samples


def evolve_unitary(h: HamiltonianMatrix, psi0: QuantumState, times_ns) -> list[tuple[float, QuantumState]]:
    """Snapshots (t, exp(-i H t) psi0) at each sample time in ns: the one-column case of propagate_block."""
    if psi0.basis.dimension != h.dimension:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    psi0.check_normalized()
    times = [float(t) for t in times_ns]
    blocks = propagate_block(h.matrix, np.zeros((h.dimension, 1)), psi0.amplitudes[:, None], times)
    return [(t, QuantumState(psi0.basis, block[:, 0])) for t, block in zip(times, blocks)]


# ---------------------------------------------------------------------------
# Lindblad dynamics
# ---------------------------------------------------------------------------

MAX_LINDBLAD_SITES = 12

# solve_ivp (DOP853) tolerances of evolve_lindblad
LINDBLAD_RTOL = 1e-8
LINDBLAD_ATOL = 1e-10


@dataclass
class LindbladModel:
    """Dense open-system model on the full 2^n space or a hard-core sector union.

    Jump operators: relaxation sigma-_j at rate 1/T1_j, pure dephasing
    sigma^z_j / sqrt(2 Tphi_j), so a lone-qubit coherence decays as
    exp(-t / Tphi).
    """

    n_sites: int
    rows: np.ndarray = field(repr=False)  # (dimension x n_sites) bool, ascending bitstrings
    below: np.ndarray = field(repr=False)  # sector.rank_table of its site count and row weights
    sites: np.ndarray = field(repr=False)  # occupied sites per row, ascending, padded with n_sites
    h: np.ndarray | None = field(default=None, repr=False)
    t1_us: dict = field(default_factory=dict)
    t_phi_us: dict = field(default_factory=dict)

    @classmethod
    def from_graph(
        cls,
        graph: ActiveGraph,
        disorder: DisorderMap | None = None,
        t1_us=None,
        t_phi_us=None,
        max_excitations: int = 1,
        full_space: bool = False,
    ) -> "LindbladModel":
        n = graph.n_sites
        if n > MAX_LINDBLAD_SITES:
            raise ValueError(f"Lindblad models are limited to {MAX_LINDBLAD_SITES} sites, got {n}")
        # every bitstring in ascending order, site 0 the top bit
        rows = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(bool)
        # union of excitation sectors 0..top, closed under decay (every sector for the full space)
        top = n if full_space else min(max_excitations, n)
        rows = rows[rows.sum(axis=1) <= top]
        # each row's occupied sites in ascending order, padded with the sentinel n
        sites = np.sort(np.where(rows, np.arange(n), n), axis=1)[:, : rows.sum(axis=1).max(initial=0)]
        below = rank_table(n, tuple(range(top + 1)))
        model = cls(n, rows, below, sites, t1_us=_rate_map(t1_us, n), t_phi_us=_rate_map(t_phi_us, n))
        model.h = build_hamiltonian(graph, model, disorder).to_dense()
        return model

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _rate_map(spec, n_sites: int) -> dict:
    if spec is None:
        return {}
    if np.isscalar(spec):
        return {j: float(spec) for j in range(n_sites)}
    return {int(j): float(v) for j, v in dict(spec).items()}


def initial_density(model: LindbladModel, excited_sites) -> np.ndarray:
    (sites,) = np.nonzero(occupation_row(model.n_sites, excited_sites)[0])
    if len(sites) > model.sites.shape[1]:
        raise ValueError(f"{len(sites)} excitations exceed the {model.sites.shape[1]} the model holds")
    (a,) = row_index(model.below, sites[None])
    rho = np.zeros((model.dimension, model.dimension), dtype=np.complex128)
    rho[a, a] = 1.0
    return rho


def _dissipator_tables(model: LindbladModel):
    n, dim = model.n_sites, model.dimension
    sz = np.where(model.rows, -1.0, 1.0)  # dim x n, +-1 per (state, site)
    mask = np.zeros((dim, dim))
    jumps = []
    for j in range(n):
        t_phi = model.t_phi_us.get(j)
        if t_phi and np.isfinite(t_phi):
            g = 1.0 / t_phi
            mask += (g / 2.0) * (np.outer(sz[:, j], sz[:, j]) - 1.0)
        t1 = model.t1_us.get(j)
        if t1 and np.isfinite(t1):
            g = 1.0 / t1
            mask += -(g / 2.0) * np.add.outer(model.rows[:, j], model.rows[:, j], dtype=np.float64)
            # sigma-_j maps each state with site j occupied to the one without
            src = np.flatnonzero(model.rows[:, j])
            sites = model.sites[src]
            jumps.append((g, src, row_index(model.below, np.where(sites == j, n, sites))))
    return mask, jumps


def evolve_lindblad(model: LindbladModel, rho0: np.ndarray, times_ns) -> list[tuple[float, np.ndarray]]:
    """Density-matrix snapshots under the master equation, trace-checked."""
    from scipy.integrate import solve_ivp  # imported on use: no CLI start-up cost

    times = np.asarray([float(t) for t in times_ns])
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be nonnegative and strictly increasing")
    dim = model.dimension
    rho0 = np.asarray(rho0, dtype=np.complex128)
    if rho0.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho0.shape} does not match dimension {dim}")
    h = model.h
    mask, jumps = _dissipator_tables(model)

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (h @ rho - rho @ h)
        drho += mask * rho
        for g, src, dst in jumps:
            drho[np.ix_(dst, dst)] += g * rho[np.ix_(src, src)]
        return drho.ravel()

    t_eval = times * NS_TO_US
    span = (0.0, float(t_eval[-1]) if t_eval[-1] > 0 else 1e-12)
    sol = solve_ivp(
        rhs, span, rho0.ravel(), t_eval=t_eval, method="DOP853", rtol=LINDBLAD_RTOL, atol=LINDBLAD_ATOL
    )
    if not sol.success:
        raise EvolutionError(f"Lindblad integration failed: {sol.message}")
    out = []
    for k, t in enumerate(times):
        rho = sol.y[:, k].reshape(dim, dim)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > 1e-6:
            raise EvolutionError(f"trace drifted to {tr} at t={t} ns")
        out.append((float(t), rho))
    return out


def site_populations(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    return site_sums(model.sites, np.real(np.diag(rho)), model.n_sites)
