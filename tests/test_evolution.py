import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import jv

from qwalk import evolution
from qwalk.device import ActiveGraph, DisorderMap, grid_graph
from qwalk.evolution import (
    WINDOW_SAMPLES,
    EvolutionError,
    LindbladModel,
    _bessel_j,
    _dissipator_tables,
    evolve_lindblad,
    evolve_unitary,
    initial_density,
    propagate_block,
    site_populations,
)
from qwalk.hamiltonian import build_hamiltonian
from qwalk.sector import QuantumState, basis_state, enumerate_basis, populations

J = 2.01


def chain_instance(n, k=1, disorder=None):
    g = ActiveGraph(tuple(range(n)), tuple((i, i + 1, J) for i in range(n - 1)))
    b = enumerate_basis(n, k)
    return g, b, build_hamiltonian(g, b, disorder)


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


@given(block_instances(), st.sampled_from([0.0, 1.0, -1.0]), st.floats(0.0, 400.0))
def test_block_engine_matches_scipy_expm(instance, sign, magnitude):
    h, diagonals, x = instance
    t = sign * magnitude
    (y,) = propagate_block(h.matrix, diagonals, x, (t,))
    dense = h.to_dense()
    for c in range(x.shape[1]):
        ref = expm(-1j * (t * 1e-3) * (dense + np.diag(diagonals[:, c]))) @ x[:, c]
        assert np.max(np.abs(y[:, c] - ref)) < 1e-10
    assert np.allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)


@st.composite
def sample_times(draw):
    """Irregular sample times spanning more than one window, with at least one
    negative time and one repeated time (a zero step)."""
    n = draw(st.integers(WINDOW_SAMPLES, 3 * WINDOW_SAMPLES))
    times = draw(st.lists(st.floats(-400.0, 400.0), min_size=n, max_size=n))
    negative = draw(st.integers(0, n - 1))
    times[negative] = -1.0 - abs(times[negative])
    repeat = draw(st.integers(1, n))
    times.insert(repeat, times[repeat - 1])
    return times


@given(block_instances(), sample_times())
def test_every_windowed_sample_matches_scipy_expm(instance, times):
    h, diagonals, x = instance
    ys = propagate_block(h.matrix, diagonals, x, times)
    assert len(ys) == len(times) > WINDOW_SAMPLES
    dense = h.to_dense()
    for t, y in zip(times, ys):
        for c in range(x.shape[1]):
            ref = expm(-1j * (t * 1e-3) * (dense + np.diag(diagonals[:, c]))) @ x[:, c]
            assert np.max(np.abs(y[:, c] - ref)) < 1e-10
        assert np.allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)


@given(st.data(), sample_times())
def test_column_chunks_match_the_whole_block_bit_for_bit(data, times):
    # chunks of `width` columns, the last one `short` narrower
    n_chunks = data.draw(st.integers(2, 3))
    width = data.draw(st.integers(2, 4))
    short = data.draw(st.integers(1, min(width, n_chunks) - 1))
    h, diagonals, x = data.draw(block_instances(cells=st.just(n_chunks * width - short)))
    column_bytes = (WINDOW_SAMPLES + 3) * h.dimension * 16
    widths = []

    def per_column(y):
        widths.append(y.shape[1])
        return np.abs(y[::2]) ** 2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "CHUNK_BYTES", 2**62)
        whole = [propagate_block(h.matrix, diagonals, x, times, observe) for observe in (None, per_column)]
        assert widths == [x.shape[1]] * len(times)
        widths.clear()
        mp.setattr(evolution, "CHUNK_BYTES", width * column_bytes)
        chunked = [propagate_block(h.matrix, diagonals, x, times, observe) for observe in (None, per_column)]
    assert widths == [width] * len(times) * (n_chunks - 1) + [width - short] * len(times)
    for ys, refs in zip(chunked, whole):
        assert len(ys) == len(refs) == len(times)
        assert all(np.array_equal(y, ref) for y, ref in zip(ys, refs))


def test_equal_windows_share_one_coefficient_grid(monkeypatch):
    calls = []
    grid = evolution._chebyshev_coefficients
    monkeypatch.setattr(evolution, "_chebyshev_coefficients", lambda z, tol: calls.append(z) or grid(z, tol))
    _, b, h = chain_instance(6, k=2)
    times = tuple(np.arange(0.0, 1000.0 + 1e-9, 10.0))  # the distance-velocity study's samples
    propagate_block(h.matrix, np.zeros((b.dimension, 1)), basis_state(b, {0, 3}).amplitudes[:, None], times)
    # offsets (0, 10, 20, 30), then (10, 20, 30, 40) for every full window, then (10,)
    assert [len(z) for z in calls] == [WINDOW_SAMPLES, WINDOW_SAMPLES, 1]


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
    expected = np.array([[float(v >> (n - 1 - j) & 1) for j in range(n)] for v in values])
    occ = m.occupancy_matrix()
    assert np.array_equal(occ, expected)
    assert m.occupancy_matrix() is occ


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
