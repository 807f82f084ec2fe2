from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import _sparsetools
from scipy.special import jv

from qwalk import evolution
from qwalk.device import ActiveGraph, DisorderMap, default_device, grid_graph
from qwalk.evolution import (
    WINDOW_SAMPLES,
    EvolutionError,
    LindbladModel,
    _bessel_j,
    _chebyshev_step,
    _dissipator_tables,
    evolve_lindblad,
    evolve_unitary,
    initial_density,
    propagate_block,
    site_populations,
)
from qwalk.hamiltonian import build_hamiltonian
from qwalk.scenarios import _scenario_setup, ctqw_scenario
from qwalk.sector import QuantumState, basis_state, enumerate_basis, populations, row_sums

J = 2.01


def chain_instance(n, k=1, disorder=None):
    g = ActiveGraph(tuple(range(n)), tuple((i, i + 1, J) for i in range(n - 1)))
    b = enumerate_basis(n, k)
    return g, b, build_hamiltonian(g, b, disorder)


def gershgorin_interval(h0, diagonals) -> tuple:
    """The centre a and half-width b of the Gershgorin interval propagate_block takes for a block."""
    radius = np.asarray(abs(h0).sum(axis=1)).ravel() - np.abs(h0.diagonal())
    centers = h0.diagonal()[:, None] + diagonals
    lo, hi = float(np.min(centers - radius[:, None])), float(np.max(centers + radius[:, None]))
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def gershgorin_half_width(h0, diagonals) -> float:
    return gershgorin_interval(h0, diagonals)[1]


def spy_series(monkeypatch):
    """Record the number of rows kept and the series length of every plan made."""
    plans, series_samples = [], evolution._series_samples

    def spy(*args):
        length, grid = series_samples(*args)
        plans.append((args[-1], length))
        return length, grid

    monkeypatch.setattr(evolution, "_series_samples", spy)
    return plans


def test_two_site_rabi_swap():
    _, b, h = chain_instance(2)
    psi0 = basis_state(b, {0})
    times = tuple(np.arange(0.0, 200.0, 0.05))
    snaps = evolve_unitary(h, psi0, times)
    p_src = np.array([populations(s)[0] for _, s in snaps])
    # cos^2(2 pi J t) on the initially excited site
    expected = np.cos(2 * np.pi * J * np.array(times) * 1e-3) ** 2
    assert np.allclose(p_src, expected, atol=1e-9)
    t_transfer = times[int(np.argmin(p_src))]
    assert t_transfer == pytest.approx(1e3 / (4 * J), abs=0.5)


def test_time_zero_is_identity():
    _, b, h = chain_instance(5)
    psi0 = basis_state(b, {2})
    snaps = evolve_unitary(h, psi0, (0.0,))
    assert np.array_equal(snaps[0][1].amplitudes, psi0.amplitudes)


@pytest.mark.parametrize(
    "shape,k,sources",
    [
        ((3, 4), 2, {0, 5}),  # dim 66
        ((2, 5), 3, {0, 4, 9}),  # dim 120
        ((3, 6), 2, {0, 17}),  # dim 153
        ((4, 5), 1, {7}),  # dim 20
    ],
)
def test_chebyshev_matches_scipy_expm_oracle(shape, k, sources):
    rng = np.random.default_rng(42 + shape[0] * shape[1] + k)
    g = grid_graph(*shape)
    b = enumerate_basis(shape[0] * shape[1], k)
    assert b.dimension <= 200
    d = DisorderMap({s: float(rng.uniform(-1.5, 1.5)) for s in g.sites})
    h = build_hamiltonian(g, b, d)
    psi0 = basis_state(b, sources)
    times = (37.0, 100.0, 260.0, 333.0)
    snaps = evolve_unitary(h, psi0, times)
    dense = h.to_dense()
    for (t, state) in snaps:
        ref = expm(-1j * dense * (t * 1e-3)) @ psi0.amplitudes
        assert np.max(np.abs(state.amplitudes - ref)) < 1e-8


def test_unitarity_at_every_sample():
    _, b, h = chain_instance(8, k=2)
    psi0 = basis_state(b, {0, 4})
    snaps = evolve_unitary(h, psi0, tuple(np.arange(10.0, 800.0, 37.0)))
    for _, s in snaps:
        assert abs(s.norm - 1.0) < 1e-9


def test_time_additivity_and_reversibility():
    rng = np.random.default_rng(6)
    _, b, h = chain_instance(6, k=2)
    diagonals = rng.uniform(-20.0, 20.0, size=(b.dimension, 3))
    psi = rng.normal(size=(b.dimension, 3)) + 1j * rng.normal(size=(b.dimension, 3))
    psi /= np.linalg.norm(psi, axis=0)
    (one_shot,) = propagate_block(h.matrix, diagonals, psi, (350.0,))
    _, stepped = propagate_block(h.matrix, diagonals, psi, (150.0, 350.0))
    assert np.max(np.abs(one_shot - stepped)) < 1e-8
    (back,) = propagate_block(h.matrix, diagonals, one_shot, (-350.0,))
    assert np.max(np.abs(back - psi)) < 1e-8


@st.composite
def block_instances(draw, cells=st.integers(1, 4)):
    """A random small graph, hard-core sector, per-cell diagonals and block of states."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = tuple((i, j, draw(st.floats(0.1, 5.0))) for i, j in sorted(chosen))
    g = ActiveGraph(tuple(range(n)), edges)
    b = enumerate_basis(n, k)
    cells = draw(cells)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-3.0, 3.0, size=(n, cells))
    diagonals = 2.0 * np.pi * (b.occupancy_matrix() @ offsets)
    x = rng.normal(size=(b.dimension, cells)) + 1j * rng.normal(size=(b.dimension, cells))
    return build_hamiltonian(g, b), diagonals, x / np.linalg.norm(x, axis=0)


@given(st.data(), block_instances(), st.sampled_from([0.0, 1.0, -1.0]), st.floats(0.0, 400.0))
def test_block_engine_matches_scipy_expm(data, instance, sign, magnitude):
    h, diagonals, x = instance
    t = sign * magnitude
    dense = h.to_dense()
    refs = [expm(-1j * (t * 1e-3) * (dense + np.diag(diagonals[:, c]))) @ x[:, c] for c in range(x.shape[1])]
    (y,) = propagate_block(h.matrix, diagonals, x, (t,))
    for c, ref in enumerate(refs):
        assert np.max(np.abs(y[:, c] - ref)) < 1e-10
    assert np.allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)
    # one sample is one series, whatever the rows kept: the same rows bit for bit
    rows = data.draw(st.lists(st.integers(0, h.dimension - 1), min_size=1, max_size=h.dimension))
    (kept,) = propagate_block(h.matrix, diagonals, x, (t,), rows)
    assert kept.shape == (len(rows), x.shape[1]) and kept.tobytes() == y[rows].tobytes()


@st.composite
def sample_times(draw, half_width=None):
    """Irregular sample times spanning more than one window, with at least one
    negative time and one repeated time (a zero step). Given the block's
    Gershgorin half-width, a run of 8 to 14 samples 1 ns apart follows at
    b t = 60, far enough that a whole block's series closes before its
    second sample and windows take the rest."""
    n = draw(st.integers(WINDOW_SAMPLES, 3 * WINDOW_SAMPLES))
    times = draw(st.lists(st.floats(-400.0, 400.0), min_size=n, max_size=n))
    negative = draw(st.integers(0, n - 1))
    times[negative] = -1.0 - abs(times[negative])
    repeat = draw(st.integers(1, n))
    times.insert(repeat, times[repeat - 1])
    if half_width:
        far = 60.0 / half_width / evolution.NS_TO_US
        times += [far + i for i in range(draw(st.integers(8, 14)))]
    return times


@given(st.data(), block_instances())
def test_every_windowed_sample_matches_scipy_expm(data, instance):
    h, diagonals, x = instance
    times = data.draw(sample_times(gershgorin_half_width(h.matrix, diagonals)))
    with pytest.MonkeyPatch.context() as mp:
        plans = spy_series(mp)
        ys = propagate_block(h.matrix, diagonals, x, times)
    ((kept, length),) = plans
    assert kept == h.dimension and length < len(times) - 1  # windows run past the series
    dense = h.to_dense()
    assert len(ys) == len(times) > WINDOW_SAMPLES
    for i, t in enumerate(times):
        for c in range(x.shape[1]):
            ref = expm(-1j * (t * 1e-3) * (dense + np.diag(diagonals[:, c]))) @ x[:, c]
            assert np.max(np.abs(ys[i][:, c] - ref)) < 1e-10
        assert np.allclose(np.linalg.norm(ys[i], axis=0), 1.0, atol=1e-12)


@given(st.data())
def test_column_chunks_match_the_whole_block_bit_for_bit(data):
    # chunks of `width` columns, the last one `short` narrower
    n_chunks = data.draw(st.integers(2, 3))
    width = data.draw(st.integers(2, 4))
    short = data.draw(st.integers(1, min(width, n_chunks) - 1))
    h, diagonals, x = data.draw(block_instances(cells=st.just(n_chunks * width - short)))
    times = data.draw(sample_times(gershgorin_half_width(h.matrix, diagonals)))
    column_bytes = (WINDOW_SAMPLES + 3) * h.dimension * 16
    widths = []  # the chunk width of each run of sums the engine phases
    phase = evolution._phase

    def spy(sums, *args):
        widths.append(sums.shape[-1])
        return phase(sums, *args)

    # every row, and the even rows
    for rows in (None, range(0, h.dimension, 2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_phase", spy)
            mp.setattr(evolution, "CHUNK_BYTES", 2**62)
            whole = propagate_block(h.matrix, diagonals, x, times, rows)
            n_runs = len(widths)
            assert widths == [x.shape[1]] * n_runs
            widths.clear()
            mp.setattr(evolution, "CHUNK_BYTES", width * column_bytes)
            chunked = propagate_block(h.matrix, diagonals, x, times, rows)
        assert widths == [width] * n_runs * (n_chunks - 1) + [width - short] * n_runs
        widths.clear()
        assert len(chunked) == len(whole) == len(times)
        assert all(np.array_equal(y, ref) for y, ref in zip(chunked, whole))


@st.composite
def walk_instances(draw):
    """A chain or a small grid with 1-3 walkers, 1-4 columns of random
    diagonals and complex start states, and a regular time grid of 90
    samples whose step moves the Bessel argument b t by 0.5-1 rad, long
    enough that a whole block's series closes and windows follow."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        g = ActiveGraph(tuple(range(n)), tuple((i, i + 1, draw(st.floats(0.5, 3.0))) for i in range(n - 1)))
    else:
        g = grid_graph(*draw(st.sampled_from([(2, 2), (2, 3)])))
    b = enumerate_basis(g.n_sites, draw(st.integers(1, min(3, g.n_sites - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.uniform(-3.0, 3.0, size=(g.n_sites, draw(st.integers(1, 4))))
    diagonals = 2.0 * np.pi * (b.occupancy_matrix() @ offsets)
    x = rng.normal(size=diagonals.shape) + 1j * rng.normal(size=diagonals.shape)
    h = build_hamiltonian(g, b)
    step = draw(st.floats(0.5, 1.0)) / gershgorin_half_width(h.matrix, diagonals) / evolution.NS_TO_US
    return h, diagonals, x / np.linalg.norm(x, axis=0), [step * i for i in range(90)]


@given(st.data(), walk_instances())
def test_kept_rows_match_the_whole_block_and_expm(data, instance):
    # the rows kept, in any order, in column chunks of a drawn width: the same
    # rows of the whole block bit for bit wherever both take the same plan
    # (the same series, and so the same windows), and within 1e-12 of expm
    h, diagonals, x, times = instance
    dim, columns = x.shape
    rows = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    width = data.draw(st.integers(1, columns))
    with pytest.MonkeyPatch.context() as mp:
        plans = spy_series(mp)
        whole = propagate_block(h.matrix, diagonals, x, times)
        mp.setattr(evolution, "CHUNK_BYTES", width * (WINDOW_SAMPLES + 3) * dim * 16)
        kept = propagate_block(h.matrix, diagonals, x, times, rows)
    (_, whole_length), (_, kept_length) = plans
    assert whole_length < len(times) - 1  # the whole block's series closes, windows follow
    dense = h.to_dense()
    for t, y, y_rows in zip(times, whole, kept):
        assert y_rows.shape == (len(rows), columns)
        if kept_length == whole_length:
            assert y_rows.tobytes() == y[rows].tobytes()
        for c in range(columns):
            ref = expm(-1j * (t * 1e-3) * (dense + np.diag(diagonals[:, c]))) @ x[:, c]
            assert np.max(np.abs(y[:, c] - ref)) < 1e-12
            assert np.max(np.abs(y_rows[:, c] - ref[rows])) < 1e-12


def test_moment_norms_match_the_direct_norms():
    # the norms a series held on two rows checks, from its Chebyshev moments,
    # against the squared norms of the whole samples the same plan returns
    rng = np.random.default_rng(3)
    _, b, h = chain_instance(6, k=2)
    diagonals = rng.uniform(-20.0, 20.0, size=(b.dimension, 3))
    x = rng.normal(size=(b.dimension, 3)) + 1j * rng.normal(size=(b.dimension, 3))
    x /= np.linalg.norm(x, axis=0)
    times = [float(t) for t in np.arange(0.0, 300.0 + 1e-9, 10.0)]
    ys = propagate_block(h.matrix, diagonals, x, times)
    shift, half_width = gershgorin_interval(h.matrix, diagonals)
    # one series over every sample, whether two rows or every row is kept
    for kept in (None, 2):
        ((samples, _, _),) = evolution._plan(times, shift, half_width, b.dimension, h.matrix.nnz, kept)
        assert samples == list(range(len(times)))
    ((_, _, ((held, members, *_, weights),)),) = evolution._plan(times, shift, half_width, b.dimension, h.matrix.nnz, 2)
    assert not held
    # ||T_a x||^2 per column, on each column's scaled operator
    squares = np.empty((weights.shape[1], 3))
    for c in range(3):
        a = (h.to_dense() + np.diag(diagonals[:, c] - shift)) / half_width
        prev, cur = None, x[:, c]
        for k in range(len(squares)):
            squares[k, c] = np.vdot(cur, cur).real
            prev, cur = cur, (a @ cur if prev is None else 2.0 * (a @ cur) - prev)
    moments = weights @ (2.0 * squares - squares[0])
    direct = np.array([np.linalg.norm(ys[i], axis=0) ** 2 for i in members])
    assert np.max(np.abs(moments - direct)) <= 1e-13


def spy_products(dim, width):
    """Patch SciPy's CSR kernels to record, per Chebyshev term past the first,
    the columns of its scaled-operator products summed over its planes.

    A product is a csr_matvec call (one column) or a csr_matvecs call of the
    dim x dim operator with `width` vectors; a term's additions into its
    recurrence's sums are csr_matvecs calls over its one or two planes, the
    first of which closes the term.
    Returns the patch, the per-term widths and the widths of the products
    that went through csr_matvecs, both filled while the patch is active.
    """
    terms, pending, matvecs_products = [], [], []
    matvec, matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs

    def spy_matvec(*args):  # csr_matvec(n_row, n_col, indptr, indices, data, x, y)
        assert args[:2] == (dim, dim)
        pending.append(1)
        return matvec(*args)

    def spy_matvecs(*args):  # csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y)
        if args[:3] == (dim, dim, width):  # additions have dim x width or rows x width vectors
            pending.append(width)
            matvecs_products.append(width)
        elif pending:
            terms.append(sum(pending))
            pending.clear()
        return matvecs(*args)

    patches = mock.patch.multiple(_sparsetools, csr_matvec=spy_matvec, csr_matvecs=spy_matvecs)
    return patches, terms, matvecs_products


@given(st.data(), block_instances(), sample_times(), st.sampled_from([0.0, -0.0]))
def test_real_start_states_match_the_interleaved_path_bit_for_bit(data, instance, times, zero):
    # Real start columns on their own take the real path. Beside one complex
    # column they take the (re, im) planar path; that column copies column
    # j's diagonal, so both calls share one Gershgorin interval.
    h, diagonals, x = instance
    n = x.shape[1]
    times.insert(data.draw(st.integers(0, len(times))), 0.0)
    start = np.empty_like(x)
    start.real, start.imag = x.real, zero
    j = data.draw(st.integers(0, n - 1))

    def run(block, diags):
        patches, widths, _ = spy_products(h.dimension, block.shape[1])
        with patches:
            return propagate_block(h.matrix, diags, block, times), widths

    real, real_widths = run(start, diagonals)
    mixed, mixed_widths = run(np.column_stack([start, x[:, j]]), np.column_stack([diagonals, diagonals[:, j]]))
    assert len(real) == len(mixed) == len(times)
    for y, ref in zip(real, mixed):
        # bytes also tell +0.0 from -0.0
        assert np.array_equal(y, ref[:, :n]) and y.tobytes() == ref[:, :n].tobytes()
    assert mixed_widths == [2 * (n + 1)] * len(mixed_widths)
    assert len(real_widths) == len(mixed_widths)
    if max(abs(t) for t in times[:WINDOW_SAMPLES]) > 1e-3:
        # the first window reaches past its first Chebyshev term, on n real columns
        assert real_widths[0] == n


def test_one_column_products_take_the_single_vector_kernel(monkeypatch):
    # SciPy's csr_matvec runs one column in about half the time csr_matvecs
    # takes with n_vecs = 1, so no one-column product goes through the latter
    _, b, h = chain_instance(8, k=2)
    psi = basis_state(b, {0, 5}).amplitudes[:, None]
    plans = spy_series(monkeypatch)
    for block, planes in ((psi, 1), (psi * np.exp(0.3j), 2)):  # a real and a complex start
        for times in (np.arange(0.0, 400.0, 37.0), np.arange(0.0, 1000.0 + 1e-9, 10.0)):
            for rows in (None, [0, 7, 3]):
                patches, widths, matvecs_products = spy_products(b.dimension, 1)
                with patches:
                    propagate_block(h.matrix, np.zeros((b.dimension, 1)), block, times, rows)
                assert widths and matvecs_products == []
                # one plane per term from a real start, two from a complex one: the
                # series runs from the start state, and windows from complex states
                _, length = plans[-1]
                assert widths[0] == planes and widths[-1] == (planes if length == len(times) else 2)
    # the whole block closes the series on the 0-1000 ns grid, the three rows do not
    assert [length for _, length in plans] == [11, 11, 57, 101] * 2


def ctqw_two():
    """`run --scenario ctqw-two`'s Hamiltonian, start state and sample times."""
    scenario = ctqw_scenario({"U00Q0", "U33Q2"})
    _graph, _basis, psi0, h = _scenario_setup(scenario, default_device(), scenario.disorder())
    return h, psi0, scenario.times_ns


def test_run_rides_one_real_series():
    # all 61 samples of the two-walker walk come from one recurrence from the
    # real start state: one plane per product, and 96 products, where six-sample
    # windows restarted from complex states took 260, 237 of them on two planes
    h, psi0, times = ctqw_two()
    patches, widths, _ = spy_products(h.dimension, 1)
    with patches:
        evolve_unitary(h, psi0, times)
    assert len(times) == 61 and widths == [1] * 96


def test_a_long_grid_closes_the_series_and_goes_on_in_windows(monkeypatch):
    # from about 600 ns on a sample would cost the series more than its share
    # of a restarted window, so a 0-4800 ns grid goes on in WINDOW_SAMPLES
    # windows once the walk's 0-600 ns have run
    h, psi0, _ = ctqw_two()
    times = tuple(np.arange(0.0, 4800.0 + 1e-9, 10.0))
    lengths, grids = [], []
    series, coefficients = evolution._series_samples, evolution._coefficients

    def series_spy(*args):
        length, bessel = series(*args)
        lengths.append(length)
        return length, bessel

    monkeypatch.setattr(evolution, "_series_samples", series_spy)
    monkeypatch.setattr(evolution, "_coefficients", lambda j: grids.append(coefficients(j)) or grids[-1])
    patches, widths, _ = spy_products(h.dimension, 1)
    with patches:
        evolve_unitary(h, psi0, times)
    (length,) = lengths
    assert 61 <= length < 70
    # the distinct grids: the series', then the windows' of six offsets and of the rest of the samples
    full, rest = divmod(len(times) - length, WINDOW_SAMPLES)
    assert [len(c) for c in grids] == [length, WINDOW_SAMPLES] + [rest] * (rest > 0)
    window_products = full * (grids[1].shape[1] - 1) + (rest > 0) * (grids[-1].shape[1] - 1)
    assert widths == [1] * (len(widths) - window_products) + [2] * window_products


@given(block_instances(), st.floats(-4.0, 4.0), st.booleans(), st.booleans())
def test_chebyshev_step_adds_the_product_into_the_buffer_given(instance, scale, planar, first):
    # The step leans on SciPy's private csr_matvec and csr_matvecs adding A x
    # into the flat C-contiguous float64 buffer they are given (SciPy 1.17.1);
    # a ravel() copy would drop the product and leave the buffer's stale values behind.
    h, d, x = instance
    a = sp.csr_matrix(h.matrix * scale)
    cur = np.stack([x.real, x.imag]) if planar else x.real[None].copy()
    prev = np.ascontiguousarray(cur[:, ::-1])
    before = cur.copy(), prev.copy()
    out = np.full_like(cur, np.nan)
    kernels = _sparsetools.csr_matvec, _sparsetools.csr_matvecs
    got = _chebyshev_step(kernels, a, d, cur, None if first else prev, out)
    assert got is out and out.flags.c_contiguous
    lag = 0.0 if first else prev
    ref = np.stack([a @ plane for plane in cur]) + d * cur - lag
    # rounding bound of a sum of (row entries + 2) terms, a few ulps here
    magnitude = np.stack([abs(a) @ np.abs(plane) for plane in cur]) + np.abs(d * cur) + np.abs(lag)
    terms = np.diff(a.indptr)[:, None] + 2
    assert np.all(np.abs(out - ref) <= terms * np.finfo(float).eps * magnitude)
    assert np.array_equal(cur, before[0]) and np.array_equal(prev, before[1])
    with pytest.raises(ValueError, match="C-contiguous"):
        _chebyshev_step(kernels, a, d, cur, None, np.empty((len(cur), len(d), 2 * d.shape[1]))[..., ::2])


@st.composite
def accumulation_cases(draw):
    """A window's coefficients, one term index k (0, even or odd), its planes
    (one real, or (re, im)) with exact zeros of either sign, and sums without
    -0.0 (the engine's sums start at +0.0 and only add)."""
    h, _, x = draw(block_instances())
    m = draw(st.integers(1, WINDOW_SAMPLES))
    z = draw(st.lists(st.floats(0.5, 40.0) | st.floats(-40.0, -0.5), min_size=m, max_size=m))
    j = _bessel_j(z)
    coeffs = evolution._coefficients(j[:, : evolution._cutoffs(j, 1e-12).max()])
    n_terms = coeffs.shape[1]
    parity = draw(st.sampled_from(["zero", "even", "odd"]))
    if parity == "zero":
        k = 0
    elif parity == "even":
        k = 2 * draw(st.integers(1, (n_terms - 1) // 2))
    else:
        k = 2 * draw(st.integers(0, n_terms // 2 - 1)) + 1
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = np.stack([x.real, x.imag])[:1 if real else 2].copy()
    planes[rng.random(planes.shape) < 0.3] = 0.0
    planes[rng.random(planes.shape) < 0.3] *= -1.0
    sums = rng.normal(size=(m, 2) + x.shape)
    sums[rng.random(sums.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return coeffs, k, planes, sums


@given(accumulation_cases())
def test_coefficient_rows_add_as_the_complex_formula_bit_for_bit(case):
    # The old engine's accumulation: total += c * T on the complex view,
    # sample j's total holding E_j + i O_j. Adding only each coefficient's
    # nonzero part gives the same bits, zeros' signs included, into sums
    # without -0.0; and the sums keep none.
    coeffs, k, planes, sums = case
    total = sums[:, 0] + 1j * sums[:, 1]
    term = planes[0] + 1j * planes[1] if len(planes) == 2 else planes[0].astype(complex)
    total += coeffs[:, k, None, None] * term
    indptr, indices, data = evolution._coefficient_rows(coeffs)[len(planes) == 1]
    evolution._accumulate(_sparsetools.csr_matvecs, (indptr[k % 2], indices[k % 2], data[k]), planes, sums)
    assert sums[:, 0].tobytes() == total.real.tobytes() and sums[:, 1].tobytes() == total.imag.tobytes()
    assert not np.any(np.signbit(sums) & (sums == 0.0))
    with pytest.raises(ValueError, match="C-contiguous"):
        evolution._accumulate(_sparsetools.csr_matvecs, (indptr[0], indices[0], data[0]), planes, sums[:, ::-1])


def test_equal_windows_share_one_coefficient_grid(monkeypatch):
    calls = []
    coefficients = evolution._coefficients
    monkeypatch.setattr(evolution, "_coefficients", lambda j: calls.append(j) or coefficients(j))
    plans = spy_series(monkeypatch)
    _, b, h = chain_instance(6, k=2)
    times = tuple(np.arange(0.0, 1000.0 + 1e-9, 10.0))  # the distance-velocity study's samples
    propagate_block(h.matrix, np.zeros((b.dimension, 1)), basis_state(b, {0, 3}).amplitudes[:, None], times)
    ((_, length),) = plans
    # the series' grid, then (10, 20, .., 60) for every full window, then the
    # remaining offsets: windows of 6 and of the rest of the samples
    rest = (len(times) - length) % WINDOW_SAMPLES
    assert length < len(times) - WINDOW_SAMPLES and [len(j) for j in calls] == [length, WINDOW_SAMPLES] + [rest] * (rest > 0)


def test_each_term_adds_into_the_samples_its_own_cutoff_reaches(monkeypatch):
    # every sample of the series and of each window is cut at its own order,
    # so term k adds into exactly the samples whose cutoff exceeds k, each by
    # its own coefficient
    _, b, h = chain_instance(6, k=2)
    times = tuple(np.arange(0.0, 700.0 + 1e-9, 10.0))
    calls, grids = [], []
    accumulate, series_samples = evolution._accumulate, evolution._series_samples

    def spy(matvecs, rows, term, sums):
        calls.append((len(sums), np.unique(np.abs(rows[2]))))
        return accumulate(matvecs, rows, term, sums)

    monkeypatch.setattr(evolution, "_accumulate", spy)
    monkeypatch.setattr(evolution, "_series_samples", lambda *args: grids.append(series_samples(*args)) or grids[-1])
    x = np.repeat(basis_state(b, {0, 3}).amplitudes[:, None], 2, axis=1)
    # two columns: the series starts real, the windows complex
    propagate_block(h.matrix, np.zeros((b.dimension, 2)), x, times)
    ((length, series_grid),) = grids
    assert length == 54  # then windows of 6, 6 and 5 samples
    # a zero diagonal puts the Gershgorin interval at +- the largest absolute row sum
    half_width = float(abs(h.matrix).sum(axis=1).max())
    starts = [0.0, times[length - 1], times[length + 5], times[length + 11]]
    expected = []
    for i, start in enumerate(starts):
        samples = slice(0, length) if i == 0 else slice(length + 6 * (i - 1), length + 6 * i)
        offsets = np.array(times[samples]) - start
        j = series_grid if i == 0 else _bessel_j(half_width * (offsets * evolution.NS_TO_US))
        cut = evolution._cutoffs(j, evolution.TOLERANCE / len(starts))
        # each coefficient's nonzero part, (2 - delta_k0) |J_k| in magnitude
        parts = np.abs(j) * np.where(np.arange(j.shape[1]) == 0, 1.0, 2.0)
        expected += [(np.sum(cut > k), np.unique(parts[cut > k, k])) for k in range(cut.max())]
        if i == 1:
            first_window = calls[len(expected) - cut.max() : len(expected)]
    assert len(calls) == len(expected)
    for (n, data), (n_ref, data_ref) in zip(calls, expected):
        assert n == n_ref and np.array_equal(data, data_ref)
    # the samples' cutoffs differ, so some terms skip samples of a full window
    assert len(first_window) > 1 and min(n for n, _ in first_window) < WINDOW_SAMPLES


@given(st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=WINDOW_SAMPLES))
def test_bessel_j_matches_scipy_jv(z):
    z = [0.0, *z]
    j = _bessel_j(z)
    assert j.shape[0] == len(z)
    assert np.array_equal(j[0], np.eye(1, j.shape[1])[0])
    ref = jv(np.arange(j.shape[1])[None, :], np.array(z)[:, None])
    assert np.max(np.abs(j - ref)) < 5e-14
    # the returned orders reach far enough that the rest of the series is negligible
    assert np.all(np.abs(ref[:, -1]) < 1e-25)


def scalar_bessel_j(z):
    """Miller's backward recurrence one z at a time in Python floats, as the
    engine ran it before it ran every z at once: (J grid, rescales made)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    a = np.abs(z)
    n = int(np.max(a + 20.0 * np.cbrt(a))) + 30
    out = np.zeros((len(z), n))
    rescales = 0
    for row, (zr, ar) in enumerate(zip(z.tolist(), a.tolist())):
        if ar < 1e-50:
            out[row, :2] = 1.0, 0.5 * zr
            continue
        two_over_a = 2.0 / ar
        vals = [0.0] * (n + 1)
        vals[n - 1] = 1.0
        for k in range(n - 1, 0, -1):
            v = k * two_over_a * vals[k] - vals[k + 1]
            if abs(v) > 1e250:
                vals = [u * 1e-250 for u in vals]
                v *= 1e-250
                rescales += 1
            vals[k - 1] = v
        j = np.array(vals[:n])
        j /= j[0] + 2.0 * np.sum(j[2::2])
        if zr < 0:
            j[1::2] *= -1.0
        out[row] = j
    return out, rescales


@given(
    st.lists(st.floats(-400.0, 400.0) | st.floats(1e-45, 1e-5) | st.sampled_from([0.0, 1e-60, -1e-60]), max_size=6),
    st.floats(-3.0, -1e-3),
    st.floats(250.0, 2000.0),
)
def test_bessel_j_matches_the_scalar_recurrence_bit_for_bit(z, negative, large):
    # every list holds 0, +-1e-60 (the two-term series), a negative value and
    # a large argument, whose order n makes the small arguments' recurrences
    # pass 1e250 and rescale
    z = [*z, 0.0, 1e-60, -1e-60, negative, large]
    ref, rescales = scalar_bessel_j(z)
    assert rescales > 0
    assert _bessel_j(z).tobytes() == ref.tobytes()
    # each row alone, with its own order n, as the engine's windows may call it
    for row in (negative, large):
        assert _bessel_j([row]).tobytes() == scalar_bessel_j([row])[0].tobytes()


def test_zero_hopping_gives_pure_phase():
    h0 = sp.csr_matrix((4, 4))
    x = np.eye(4, 2, dtype=complex)
    with np.errstate(all="raise"):
        # uniform diagonal: the Gershgorin half-width is zero
        (y,) = propagate_block(h0, np.full((4, 2), 3.0), x, (200.0,))
        assert np.allclose(y, np.exp(-1j * 3.0 * 0.2) * x, atol=1e-14)
        (y,) = propagate_block(h0, np.zeros((4, 2)), x, (200.0,))
        assert np.array_equal(y, x)
    # distinct diagonal entries, still no hopping: a phase per entry
    d = np.array([[0.0, 1.0], [2.0, -3.0], [5.0, 0.5], [-1.0, 4.0]])
    (y,) = propagate_block(h0, d, x, (300.0,))
    assert np.allclose(y, np.exp(-1j * d * 0.3) * x, atol=1e-12)


def test_a_block_without_columns_gives_empty_samples():
    # a zero-column block runs as one empty chunk, on H0's Gershgorin interval
    _, b, h = chain_instance(10)
    for rows, n_rows in ((None, 10), ([3, 1], 2)):
        ys = propagate_block(h.matrix, np.zeros((10, 0)), np.zeros((10, 0), complex), [1.0, 2.0], rows)
        assert len(ys) == 2 and all(y.shape == (n_rows, 0) for y in ys)


def test_engine_rejects_non_finite_input():
    _, b, h = chain_instance(4)
    x = basis_state(b, {0}).amplitudes[:, None]
    bad = np.zeros((b.dimension, 1))
    bad[1, 0] = np.nan
    with pytest.raises(EvolutionError, match="non-finite"):
        propagate_block(h.matrix, bad, x, (10.0,))
    with pytest.raises(EvolutionError, match="norm"):
        propagate_block(h.matrix, np.zeros((b.dimension, 1)), np.full_like(x, np.nan), (10.0,))
    with pytest.raises(ValueError):
        propagate_block(h.matrix, np.zeros((b.dimension, 2)), x, (10.0,))
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            propagate_block(h.matrix, np.zeros((b.dimension, 1)), x, (10.0, t))


@pytest.mark.parametrize("columns", [1, 3])
def test_engine_names_the_first_sample_whose_norm_drifts(monkeypatch, columns):
    # Bessel values, and so coefficients, 1% too large from each grid's fourth
    # sample on: the series checks its samples at once, its sums ordered by
    # cutoff rather than by time, and the error names the first drift; whole
    # samples are checked directly, samples held on a few rows from their
    # Chebyshev moments
    bessel_j = evolution._bessel_j

    def drifting(z):
        j = bessel_j(z)
        j[3:] *= 1.01
        return j

    monkeypatch.setattr(evolution, "_bessel_j", drifting)
    _, b, h = chain_instance(6, k=2)
    x = np.repeat(basis_state(b, {0, 3}).amplitudes[:, None], columns, axis=1)
    times = tuple(np.arange(0.0, 100.0 + 1e-9, 10.0))
    for rows in (None, [4, 0]):
        with pytest.raises(EvolutionError, match=r"at t=30\.0 ns$") as exc:
            propagate_block(h.matrix, np.zeros((b.dimension, columns)), x, times, rows)
        assert float(str(exc.value).split()[3]) == pytest.approx(0.01)


def test_engine_rejects_a_window_past_the_term_cap(monkeypatch):
    _, b, h = chain_instance(4)
    x = basis_state(b, {0}).amplitudes[:, None]
    zeros = np.zeros((b.dimension, 1))
    with pytest.raises(EvolutionError, match="sample time 1000000000.0 ns is too far from 0.0 ns"):
        propagate_block(h.matrix, zeros, x, (1e9,))
    # a window closes before a sample past the cap, so the step from its last sample raises
    with pytest.raises(EvolutionError, match="sample time 1000000000.0 ns is too far from 10.0 ns"):
        propagate_block(h.matrix, zeros, x, (10.0, 1e9))
    # a zero diagonal puts the Gershgorin half-width at the largest absolute row sum
    half_width = float(abs(h.matrix).sum(axis=1).max())
    monkeypatch.setattr(evolution, "MAX_WINDOW_ARGUMENT", 50.0)
    t_cap = 50.0 / half_width / evolution.NS_TO_US
    (y,) = propagate_block(h.matrix, zeros, x, (0.9 * t_cap,))
    assert np.linalg.norm(y) == pytest.approx(1.0)
    with pytest.raises(EvolutionError, match="too far from 0.0 ns"):
        propagate_block(h.matrix, zeros, x, (1.1 * t_cap,))
    # the cap bounds each window's reach from its start, not the last time
    times = 0.8 / WINDOW_SAMPLES * t_cap * np.arange(1, 3 * WINDOW_SAMPLES + 1)
    assert len(propagate_block(h.matrix, zeros, x, times)) == len(times)


@st.composite
def capped_grids(draw, past: bool):
    """Sample times as steps from t = 0 in units of the step that reaches the
    term cap: every step under it, or with one step past it. A past-cap grid
    moves one way only, so the step also passes the cap from its window's start."""
    n = draw(st.integers(1, 3 * WINDOW_SAMPLES))
    if not past:
        return draw(st.lists(st.floats(-0.99, 0.99), min_size=n, max_size=n)), None
    sign = draw(st.sampled_from([1.0, -1.0]))
    steps = [sign * f for f in draw(st.lists(st.floats(0.0, 0.99), min_size=n, max_size=n))]
    far = draw(st.integers(0, n - 1))
    steps[far] = sign * draw(st.floats(1.01, 4.0))
    return steps, far


@given(st.data(), st.booleans())
def test_sparse_grids_run_unless_a_single_step_passes_the_term_cap(data, past):
    # a window closes before a sample past MAX_WINDOW_ARGUMENT from its start,
    # so only a step past it from the sample before, where a window must start, raises
    steps, far = data.draw(capped_grids(past))
    _, b, h = chain_instance(4)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(b.dimension, 2)) + 1j * rng.normal(size=(b.dimension, 2))
    x /= np.linalg.norm(x, axis=0)
    zeros = np.zeros((b.dimension, 2))
    # a zero diagonal puts the Gershgorin half-width at the largest absolute row sum
    half_width = float(abs(h.matrix).sum(axis=1).max())
    t_cap = 50.0 / half_width / evolution.NS_TO_US
    times = [float(t) for t in np.cumsum(steps) * t_cap]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "MAX_WINDOW_ARGUMENT", 50.0)
        if past:
            start = times[far - 1] if far else 0.0
            with pytest.raises(EvolutionError, match=f"sample time {times[far]!r} ns is too far from {start!r} ns"):
                propagate_block(h.matrix, zeros, x, times)
            return
        ys = propagate_block(h.matrix, zeros, x, times)
    assert len(ys) == len(times)
    dense = h.to_dense()
    for t, y in zip(times, ys):
        assert np.allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(y - expm(-1j * (t * 1e-3) * dense) @ x)) < 1e-10


def test_dimension_mismatch():
    _, b, h = chain_instance(4)
    other = basis_state(enumerate_basis(5, 1), {0})
    with pytest.raises(ValueError):
        evolve_unitary(h, other, (1.0,))


def test_requires_normalized_state():
    _, b, h = chain_instance(3)
    bad = QuantumState(b, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve_unitary(h, bad, (1.0,))


# ---------------------------------------------------------------------------
# Lindblad
# ---------------------------------------------------------------------------


def single_site_model(**kw):
    g = ActiveGraph((0,), ())
    return LindbladModel.from_graph(g, **kw)


def test_t1_relaxation_analytic():
    m = single_site_model(t1_us=12.26)
    rho0 = initial_density(m, {0})
    snaps = evolve_lindblad(m, rho0, (12260.0,))
    p = site_populations(m, snaps[0][1])[0]
    assert p == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_pure_dephasing_analytic():
    m = single_site_model(t_phi_us=1.6)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    snaps = evolve_lindblad(m, rho0, (800.0, 1600.0))
    for (t, rho) in snaps:
        assert abs(rho[0, 1]) == pytest.approx(0.5 * np.exp(-t * 1e-3 / 1.6), abs=1e-6)
        # populations untouched by pure dephasing
        assert rho[1, 1].real == pytest.approx(0.5, abs=1e-8)


def test_zero_rates_match_unitary():
    g = ActiveGraph((0, 1, 2), ((0, 1, J), (1, 2, J)))
    m = LindbladModel.from_graph(g, max_excitations=1)
    rho0 = initial_density(m, {0})
    times = (50.0, 130.0, 210.0)
    lind = evolve_lindblad(m, rho0, times)
    b = enumerate_basis(3, 1)
    h = build_hamiltonian(g, b)
    uni = evolve_unitary(h, basis_state(b, {0}), times)
    for (t, rho), (_, psi) in zip(lind, uni):
        assert np.allclose(site_populations(m, rho), populations(psi), atol=1e-7)


def test_trace_hermiticity_positivity():
    g = grid_graph(2, 3)
    m = LindbladModel.from_graph(g, t1_us=8.0, t_phi_us=2.0, max_excitations=2)
    rho0 = initial_density(m, {0, 5})
    for t, rho in evolve_lindblad(m, rho0, (100.0, 300.0, 600.0)):
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_t1_column_sums_nonincreasing():
    g = ActiveGraph((0, 1, 2, 3), ((0, 1, J), (1, 2, J), (2, 3, J)))
    m = LindbladModel.from_graph(g, t1_us=5.0, max_excitations=1)
    snaps = evolve_lindblad(m, initial_density(m, {0}), tuple(np.arange(50.0, 1500.0, 100.0)))
    mat = np.column_stack([site_populations(m, rho) for _, rho in snaps])
    totals = mat.sum(axis=0)
    assert np.all(np.diff(totals) < 1e-9)
    assert np.all(totals <= 1.0 + 1e-9)


def test_initial_density_refuses_more_excitations_than_the_union_holds():
    g = grid_graph(2, 3)
    for top in (0, 1, 2):
        m = LindbladModel.from_graph(g, max_excitations=top)
        with pytest.raises(ValueError, match=f"{top + 1} excitations exceed the {top}"):
            initial_density(m, set(range(top + 1)))
    full = LindbladModel.from_graph(g, full_space=True)
    rho = initial_density(full, set(range(6)))
    assert rho[-1, -1] == 1.0 and np.count_nonzero(rho) == 1  # every site occupied: the last row
    with pytest.raises(ValueError):
        initial_density(full, {6})  # no such site


def test_sector_union_matches_full_space():
    g = ActiveGraph((0, 1, 2), ((0, 1, J), (1, 2, J)))
    mu = LindbladModel.from_graph(g, t1_us=6.0, t_phi_us=1.5, max_excitations=1)
    mf = LindbladModel.from_graph(g, t1_us=6.0, t_phi_us=1.5, full_space=True)
    su = evolve_lindblad(mu, initial_density(mu, {0}), (120.0, 480.0))
    sf = evolve_lindblad(mf, initial_density(mf, {0}), (120.0, 480.0))
    for (_, ru), (_, rf) in zip(su, sf):
        assert np.allclose(site_populations(mu, ru), site_populations(mf, rf), atol=1e-7)


@pytest.mark.parametrize("kw", [{"full_space": True}, {"max_excitations": 2}])
def test_lindblad_occupancy_matches_per_state_loop(kw):
    g = grid_graph(2, 3)
    m = LindbladModel.from_graph(g, **kw)
    n = m.n_sites
    top = n if kw.get("full_space") else kw["max_excitations"]
    values = [v for v in range(2**n) if bin(v).count("1") <= top]
    occupied = [[j for j in range(n) if v >> (n - 1 - j) & 1] for v in values]
    # each row's occupied sites in ascending order, padded with the sentinel n
    assert np.array_equal(m.sites, [sites + [n] * (top - len(sites)) for sites in occupied])
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(m.dimension, m.dimension)) + 1j * rng.normal(size=(m.dimension, m.dimension))
    # <n_j> adds the diagonal of every row occupying site j, in row order
    expected = [sum(rho[r, r].real for r, sites in enumerate(occupied) if j in sites) for j in range(n)]
    assert np.array_equal(site_populations(m, rho), expected)
    # a row adds its sites' offsets in site order; the sentinel adds nothing
    offsets = rng.normal(size=(n, 2))
    expected = [[sum((offsets[j, c] for j in sites), 0.0) for c in range(2)] for sites in occupied]
    assert np.array_equal(row_sums(m.sites, offsets), expected)


@st.composite
def lindblad_cases(draw):
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((i, j, draw(st.floats(0.5, 3.0))) for i, j in chosen)
    rates = st.dictionaries(st.integers(0, n - 1), st.floats(1.0, 50.0))
    space = draw(st.sampled_from([{"max_excitations": 1}, {"max_excitations": 2}, {"full_space": True}]))
    sites = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, space.get("max_excitations", n))))
    return ActiveGraph(tuple(range(n)), edges), draw(rates), draw(rates), space, sites


def reference_jumps(model):
    """T1 jump pairs from a per-state loop over the model's rows as ints."""
    n = model.n_sites
    values = [int("".join("1" if bit else "0" for bit in row), 2) for row in model.rows]
    index = {v: a for a, v in enumerate(values)}
    pairs = []
    for j in range(n):
        if model.t1_us.get(j):
            bit = 1 << (n - 1 - j)
            src = [a for a, v in enumerate(values) if v & bit]
            pairs.append((1.0 / model.t1_us[j], src, [index[values[a] ^ bit] for a in src]))
    return pairs


@given(lindblad_cases())
def test_lindblad_trace_hermiticity_and_jumps(case):
    g, t1, t_phi, space, sites = case
    m = LindbladModel.from_graph(g, t1_us=t1, t_phi_us=t_phi, **space)
    _mask, jumps = _dissipator_tables(m)
    assert [(rate, list(src), list(dst)) for rate, src, dst in jumps] == reference_jumps(m)
    for _t, rho in evolve_lindblad(m, initial_density(m, sites), (40.0, 150.0, 400.0)):
        assert abs(np.trace(rho) - 1.0) < 1e-7
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9


def test_lindblad_site_cap():
    g = grid_graph(4, 4)
    with pytest.raises(ValueError):
        LindbladModel.from_graph(g, t1_us=10.0)


def test_lindblad_input_validation():
    m = single_site_model(t1_us=10.0)
    with pytest.raises(ValueError):
        evolve_lindblad(m, np.eye(3), (1.0,))
    with pytest.raises(ValueError):
        evolve_lindblad(m, np.eye(2), (5.0, 2.0))
    with pytest.raises(ValueError):
        initial_density(single_site_model(), {3})
