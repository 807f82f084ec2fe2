import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.linalg import expm

from qwalk.device import (
    ActiveGraph,
    CouplingEdge,
    DeviceModel,
    DisorderMap,
    QubitId,
    QubitParams,
    active_subgraph,
    default_device,
    grid_graph,
)
from qwalk.evolution import LindbladModel
from qwalk.hamiltonian import TWO_PI, build_hamiltonian
from qwalk.sector import enumerate_basis

J = 2.01


def two_site():
    g = ActiveGraph(("a", "b"), ((0, 1, J),))
    b = enumerate_basis(2, 1)
    return g, b


def random_instance(rng, n_sites=None, k=None, disorder=True):
    n = n_sites or int(rng.integers(3, 8))
    k = k if k is not None else int(rng.integers(1, min(3, n)))
    sites = tuple(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((i, j, float(rng.uniform(0.5, 3.0))))
    if not edges:
        edges.append((0, 1, 2.0))
    g = ActiveGraph(sites, tuple(edges))
    d = DisorderMap({s: float(rng.uniform(-2, 2)) for s in sites}) if disorder else None
    return g, enumerate_basis(n, k), d


def brute_force_dense(graph, basis, disorder):
    """Independent dense construction straight from the definition."""
    n = basis.n_sites
    dim = basis.dimension
    h = np.zeros((dim, dim))
    offsets = [disorder.get(s) if disorder else 0.0 for s in graph.sites]
    occ = [np.flatnonzero(row) for row in basis.rows]
    for a in range(dim):
        for b in range(dim):
            sa, sb = set(occ[a]), set(occ[b])
            if a == b:
                h[a, a] = TWO_PI * sum(offsets[j] for j in sa)
                continue
            moved_out = sa - sb
            moved_in = sb - sa
            if len(moved_out) == 1 and len(moved_in) == 1:
                i, j = moved_out.pop(), moved_in.pop()
                for (x, y, amp) in graph.edges:
                    if {x, y} == {i, j}:
                        h[a, b] += TWO_PI * amp
    return h


def test_two_site_matrix_exact():
    g, b = two_site()
    h = build_hamiltonian(g, b)
    assert np.allclose(h.to_dense(), [[0.0, TWO_PI * J], [TWO_PI * J, 0.0]])


def test_resonant_diagonal_is_exactly_zero():
    g, b = two_site()
    h = build_hamiltonian(g, b)
    assert h.to_dense()[0, 0] == 0.0 and h.to_dense()[1, 1] == 0.0


def test_matches_brute_force_definition():
    rng = np.random.default_rng(21)
    for _ in range(12):
        g, b, d = random_instance(rng)
        h = build_hamiltonian(g, b, d)
        assert np.allclose(h.to_dense(), brute_force_dense(g, b, d), atol=1e-12)


def test_exact_hermiticity():
    rng = np.random.default_rng(2)
    for _ in range(8):
        g, b, d = random_instance(rng)
        m = build_hamiltonian(g, b, d).to_dense()
        assert np.array_equal(m, m.conj().T)


def test_hard_core_exclusion_three_site_chain():
    g = ActiveGraph((0, 1, 2), ((0, 1, J), (1, 2, J)))
    b = enumerate_basis(3, 2)
    h = build_hamiltonian(g, b).to_dense()
    # "110" couples only to "101" (middle walker hops right)
    i_110 = row_positions(b.rows)[np.array([True, True, False]).tobytes()]
    partners = ["".join("1" if bit else "0" for bit in b.rows[j]) for j in np.nonzero(h[i_110])[0]]
    assert partners == ["101"]


def test_sector_closure_is_structural():
    # every generated column index exists in the sector; building must not raise
    rng = np.random.default_rng(4)
    for _ in range(5):
        g, b, d = random_instance(rng)
        h = build_hamiltonian(g, b, d)
        assert h.matrix.shape == (b.dimension, b.dimension)


def test_single_excitation_fast_path_matches_generic():
    g = grid_graph(4, 4)
    b = enumerate_basis(16, 1)
    d = DisorderMap({(r, c): 0.1 * r - 0.05 * c for r in range(4) for c in range(4)})
    h = build_hamiltonian(g, b, d)
    assert np.allclose(h.to_dense(), brute_force_dense(g, b, d), atol=1e-12)


def test_full_array_two_walker_dimensions_and_sparsity():
    device = default_device()
    graph = active_subgraph(device, device.functional_qubits)
    b = enumerate_basis(62, 2)
    h = build_hamiltonian(graph, b)
    assert h.matrix.shape == (1891, 1891)
    assert h.nnz == 2 * len(graph.edges) * 60  # each edge hops beside 60 spectator slots


def test_apply_contract():
    # H @ v on the CSR matrix: zero maps to zero, expectations are real, and
    # the product matches the dense matrix
    rng = np.random.default_rng(8)
    g, b, d = random_instance(rng, n_sites=6, k=2)
    h = build_hamiltonian(g, b, d)
    zero = h.matrix @ np.zeros(b.dimension, dtype=complex)
    assert np.all(zero == 0)
    for _ in range(5):
        v = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        v /= np.linalg.norm(v)
        expect = np.vdot(v, h.matrix @ v)
        assert abs(expect.imag) < 1e-12
        assert np.allclose(h.matrix @ v, h.to_dense() @ v, atol=1e-12)


def test_dimension_mismatch_rejected():
    g, _ = two_site()
    with pytest.raises(ValueError):
        build_hamiltonian(g, enumerate_basis(3, 1))


def test_bipartite_spectrum_symmetric():
    # square lattice patches are bipartite; zero disorder spectra mirror about 0
    for shape in ((2, 3), (3, 3), (2, 4)):
        g = grid_graph(*shape)
        b = enumerate_basis(g.n_sites, 1)
        w = np.linalg.eigvalsh(build_hamiltonian(g, b).to_dense())
        assert np.allclose(np.sort(w), np.sort(-w), atol=1e-9)


def test_dense_product_oracle_dim_under_200():
    rng = np.random.default_rng(77)
    g = grid_graph(4, 5)  # C(20,2) = 190
    b = enumerate_basis(20, 2)
    d = DisorderMap({s: float(rng.uniform(-1, 1)) for s in g.sites})
    h = build_hamiltonian(g, b, d)
    dense = h.to_dense()
    for _ in range(3):
        v = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        assert np.allclose(h.matrix @ v, dense @ v, atol=1e-12)


def test_exponential_against_scipy_expm():
    rng = np.random.default_rng(13)
    g, b, d = random_instance(rng, n_sites=7, k=2)
    h = build_hamiltonian(g, b, d)
    u = expm(-1j * h.to_dense() * 0.3)
    psi = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
    psi /= np.linalg.norm(psi)
    from qwalk.evolution import propagate_block

    (out,) = propagate_block(h.matrix, np.zeros((b.dimension, 1)), psi[:, None], (300.0,))
    assert np.allclose(out[:, 0], u @ psi, atol=1e-9)


def full_space_oracle(n, edges, offsets):
    """Hopping and diagonal of the whole 2^n space, built bit by bit on ints
    (site 0 the top bit), independent of the sector code."""
    hop = np.zeros((2**n, 2**n))
    diag = np.zeros(2**n)
    for v in range(2**n):
        for i, j, j_eff in edges:
            bi, bj = 1 << (n - 1 - i), 1 << (n - 1 - j)
            if bool(v & bi) != bool(v & bj):
                hop[v, v ^ bi ^ bj] = TWO_PI * j_eff
        diag[v] = TWO_PI * sum(offsets[j] for j in range(n) if v >> (n - 1 - j) & 1)
    return hop, diag


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for i, j in chosen:
        j_eff = draw(st.floats(-3.0, 3.0, allow_nan=False))
        edges.append((j, i, j_eff) if draw(st.booleans()) else (i, j, j_eff))
    offsets = [draw(st.floats(-2.0, 2.0, allow_nan=False)) if draw(st.booleans()) else 0.0 for _ in range(n)]
    return n, tuple(edges), offsets


def check_against_oracle(h, values, hop, diag):
    """The hopping part must match exactly, the disorder diagonal to rounding."""
    sub_hop = hop[np.ix_(values, values)]
    assert np.array_equal(h - np.diag(np.diag(h)), sub_hop)
    assert np.allclose(np.diag(h), diag[values], rtol=0.0, atol=1e-12)


@given(random_graphs(), st.data())
def test_builder_matches_full_space_oracle(case, data):
    n, edges, offsets = case
    g = ActiveGraph(tuple(range(n)), edges)
    d = DisorderMap(dict(enumerate(offsets)))
    hop, diag = full_space_oracle(n, edges, offsets)
    weight = np.array([bin(v).count("1") for v in range(2**n)])
    k = data.draw(st.integers(0, n))
    check_against_oracle(build_hamiltonian(g, enumerate_basis(n, k), d).to_dense(), np.flatnonzero(weight == k), hop, diag)
    for top in (1, 2):
        m = LindbladModel.from_graph(g, d, max_excitations=top)
        check_against_oracle(m.h, np.flatnonzero(weight <= top), hop, diag)
    check_against_oracle(LindbladModel.from_graph(g, d, full_space=True).h, np.arange(2**n), hop, diag)


_DEVICE = default_device()
_LINKS = [(e.a, e.b) for e in _DEVICE.functional_edges()]


@st.composite
def device_subgraph_cases(draw):
    """A connected patch of up to 12 functional qubits grown from one seed
    qubit, 1-3 walkers, and no disorder, random offsets, or offsets of +x, -x
    and 0 that sum to an exactly zero diagonal on some rows."""
    sites = {draw(st.sampled_from(_DEVICE.functional_qubits))}
    size = draw(st.integers(1, 12))
    while len(sites) < size:
        frontier = sorted({b for a, b in _LINKS if a in sites} | {a for a, b in _LINKS if b in sites} - sites)
        if not frontier:
            break
        sites.add(draw(st.sampled_from(frontier)))
    graph = active_subgraph(_DEVICE, sites)
    k = draw(st.integers(1, min(3, graph.n_sites)))
    mode = draw(st.sampled_from(("none", "random", "cancelling")))
    if mode == "none":
        disorder = None
    elif mode == "random":
        disorder = DisorderMap({s: draw(st.floats(-5.0, 5.0, allow_nan=False)) for s in graph.sites})
    else:
        x = draw(st.floats(0.01, 5.0))
        disorder = DisorderMap({s: draw(st.sampled_from((x, -x, 0.0))) for s in graph.sites})
    return graph, enumerate_basis(graph.n_sites, k), disorder


def summed_csr(h):
    """The CSR matrix as scipy's sparse additions build it from the triplets
    (hops + hops.T + diags): the reference for `matrix`'s bytes."""
    dim = h.dimension
    hops = sp.coo_matrix((h.values, (h.rows, h.cols)), shape=(dim, dim))
    matrix = hops + hops.T
    if h.diagonal is not None:
        matrix = matrix + sp.diags(h.diagonal)
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    return matrix


@given(device_subgraph_cases())
def test_dense_scatter_and_nnz_match_the_csr_matrix(case):
    graph, basis, disorder = case
    h = build_hamiltonian(graph, basis, disorder)
    dense, nnz = h.to_dense(), h.nnz
    assert "matrix" not in vars(h)  # both read the triplets; the CSR is not built yet
    reference = h.matrix.toarray()
    assert dense.dtype == reference.dtype and dense.tobytes() == reference.tobytes()
    assert nnz == h.matrix.nnz
    assert np.array_equal(dense, dense.T)
    summed = summed_csr(h)
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(h.matrix, name), getattr(summed, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    assert h.matrix.has_canonical_format


def row_positions(rows):
    """Each bool row's position in `rows`, keyed by its bytes."""
    return {row.tobytes(): i for i, row in enumerate(rows)}


def mask_and_lookup_triplets(graph, basis):
    """The hop triplets built from a rows x edges mask and a dict lookup of
    the moved rows' bytes: the reference for the builder's rows, columns,
    value bits and order."""
    dst, src = np.array([(i, j) for i, j, _ in graph.edges], dtype=np.intp).reshape(-1, 2).T
    amps = TWO_PI * np.array([j_eff for _, _, j_eff in graph.edges], dtype=np.float64)
    rows, edge = np.nonzero(basis.rows[:, src] & ~basis.rows[:, dst])
    moved = basis.rows[rows]
    move = np.arange(len(rows))
    moved[move, src[edge]] = False
    moved[move, dst[edge]] = True
    positions = row_positions(basis.rows)
    return rows, np.array([positions[row.tobytes()] for row in moved], dtype=np.intp), amps[edge]


_LATTICE_PAIRS = [
    (QubitId.from_grid(r, c), QubitId.from_grid(r2, c2))
    for r in range(8) for c in range(8) for r2, c2 in ((r + 1, c), (r, c + 1)) if r2 < 8 and c2 < 8
]


def _sector(draw, n):
    """A sector of n sites: empty, full, or one to three walkers (or their holes), at most 45,000 rows."""
    ks = {0, n} | {k for k in (1, 2, 3, n - 1, n - 2, n - 3) if 0 <= k <= n and math.comb(n, k) <= 45_000}
    return enumerate_basis(n, draw(st.sampled_from(sorted(ks))))


@st.composite
def hop_cases(draw):
    """A graph and a row set: an active set of the 8x8 lattice with random
    broken qubits and edges and random couplings; a grid of more than 64
    sites; or a small graph with edges either way round in a Lindblad sector
    union or the full space."""
    kind = draw(st.sampled_from(("lattice", "wide", "lindblad")))
    if kind == "lattice":
        keep = draw(st.lists(st.booleans(), min_size=len(_LATTICE_PAIRS), max_size=len(_LATTICE_PAIRS)))
        pairs = [pair for pair, kept in zip(_LATTICE_PAIRS, keep) if kept]
        edges = [CouplingEdge(a, b, draw(st.floats(0.1, 5.0))) for a, b in pairs]
        qubits = sorted({q for pair in _LATTICE_PAIRS for q in pair})
        broken_qubits = draw(st.sets(st.sampled_from(qubits), max_size=4))
        broken_edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
        device = DeviceModel(dict.fromkeys(qubits, QubitParams()), edges, broken_qubits, broken_edges)
        functional = device.functional_qubits
        keep = draw(st.lists(st.booleans(), min_size=len(functional), max_size=len(functional)))
        graph = active_subgraph(device, [q for q, kept in zip(functional, keep) if kept] or functional[:1])
        return graph, _sector(draw, graph.n_sites)
    if kind == "wide":
        rows = draw(st.integers(6, 10))
        graph = grid_graph(rows, draw(st.integers(64 // rows + 1, 12)), draw(st.floats(0.1, 5.0)))
        return graph, _sector(draw, graph.n_sites)
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((j, i, 2.0) if draw(st.booleans()) else (i, j, 1.5) for i, j in chosen)
    graph = ActiveGraph(tuple(range(n)), edges)
    top = draw(st.sampled_from((1, 2, n)))
    return graph, LindbladModel.from_graph(graph, max_excitations=top, full_space=top == n)


@given(hop_cases())
def test_hop_triplets_equal_the_mask_and_lookup_construction(case):
    graph, basis = case
    h = build_hamiltonian(graph, basis)
    rows, cols, values = mask_and_lookup_triplets(graph, basis)
    assert h.rows.dtype == rows.dtype and h.cols.dtype == cols.dtype
    assert np.array_equal(h.rows, rows) and np.array_equal(h.cols, cols)
    assert h.values.dtype == values.dtype and h.values.tobytes() == values.tobytes()
