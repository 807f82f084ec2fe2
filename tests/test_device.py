from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwalk.device import (
    MAX_DISORDER_BOUND_MHZ,
    ActiveGraph,
    CouplingEdge,
    QubitId,
    QubitParams,
    active_subgraph,
    default_device,
    grid_graph,
    sample_disorder,
    sample_offsets,
    subgrid_device,
)


def test_label_round_trip():
    for label in ("U00Q0", "U33Q2", "U10Q3", "U21Q1"):
        assert QubitId.parse(label).label == label


def test_label_rejects_garbage():
    for bad in ("U44Q0", "U00Q4", "Q00U0", "U0Q0", "u00q0", "", "U00Q0\n", " U00Q0", None, 7, ("U00Q0",)):
        with pytest.raises(ValueError, match="bad qubit label"):
            QubitId.parse(bad)
    with pytest.raises(ValueError, match="out of range: U40Q0"):
        QubitId(4, 0, 0)


LABELS = [f"U{r}{c}Q{i}" for r in range(4) for c in range(4) for i in range(4)]


def test_every_label_round_trips_through_parse_grid_and_coordinates():
    positions = set()
    for label in LABELS:
        q = QubitId.parse(label)
        assert q.label == str(q) == f"{q}" == label
        assert QubitId.from_grid(*q.grid_position) is q  # one instance per qubit
        made = QubitId(q.unit_row, q.unit_col, q.index_in_unit)
        assert made == q and hash(made) == hash(q) and made.label == label
        positions.add(q.grid_position)
    assert positions == {(r, c) for r in range(8) for c in range(8)}


@given(st.lists(st.sampled_from(LABELS), max_size=80))
def test_qubit_order_hash_and_equality_are_the_labels(labels):
    qubits = [QubitId.parse(label) for label in labels]
    assert [q.label for q in sorted(qubits)] == sorted(labels)
    for a, b in zip(qubits, qubits[1:]):
        assert (a < b, a == b, a > b) == (a.label < b.label, a.label == b.label, a.label > b.label)
    assert sorted(q.label for q in set(qubits)) == sorted(set(labels))
    counts = Counter(qubits)
    assert {q.label: n for q, n in counts.items()} == Counter(labels)
    # a qubit made from its coordinates finds the parsed one in sets and dicts
    rebuilt = [QubitId(q.unit_row, q.unit_col, q.index_in_unit) for q in qubits]
    assert all(q in counts for q in rebuilt) and set(rebuilt) == set(qubits)
    assert {q: q.label for q in rebuilt} == {q: q.label for q in qubits}


def test_ordering_is_total_and_row_major():
    qubits = [QubitId(r, c, i) for r in range(4) for c in range(4) for i in range(4)]
    shuffled = list(reversed(qubits))
    assert sorted(shuffled) == qubits


def test_grid_positions_hit_corners():
    assert QubitId.parse("U00Q0").grid_position == (0, 0)
    assert QubitId.parse("U33Q2").grid_position == (7, 7)
    # the broken coupling pair must be lattice neighbours
    ra, ca = QubitId.parse("U10Q0").grid_position
    rb, cb = QubitId.parse("U10Q3").grid_position
    assert abs(ra - rb) + abs(ca - cb) == 1


def test_grid_round_trip():
    for r in range(8):
        for c in range(8):
            assert QubitId.from_grid(r, c).grid_position == (r, c)


def test_default_device_counts():
    d = default_device()
    assert len(d.functional_qubits) == 62
    assert len(d.qubits) == 64
    assert d.edge(QubitId.parse("U00Q0"), QubitId.parse("U00Q1")).j_eff_mhz == 2.01
    assert all(e.j_eff_mhz == 2.01 for e in d.functional_edges())
    assert not d.edge_functional(QubitId.parse("U10Q0"), QubitId.parse("U10Q3"))


def test_broken_qubits_have_no_functional_edges():
    d = default_device()
    for label in ("U03Q2", "U22Q1"):
        q = QubitId.parse(label)
        assert d.neighbors(q) == []
        for e in d.functional_edges():
            assert q not in (e.a, e.b)


def test_edge_symmetry():
    d = default_device()
    a, b = QubitId.parse("U00Q0"), QubitId.parse("U00Q1")
    assert d.edge(a, b) is d.edge(b, a)
    assert d.edge_functional(a, b) == d.edge_functional(b, a)


def test_qubit_params_validation():
    for bad in ({"readout_fidelity_0": 1.5}, {"readout_fidelity_0": 0.0}, {"readout_fidelity_1": -0.1}):
        with pytest.raises(ValueError, match="readout fidelities"):
            QubitParams(**bad)


def test_coupling_edge_requires_neighbours():
    with pytest.raises(ValueError):
        CouplingEdge(QubitId.parse("U00Q0"), QubitId.parse("U33Q2"))
    with pytest.raises(ValueError, match="needs j_eff > 0"):
        CouplingEdge(QubitId.parse("U00Q0"), QubitId.parse("U00Q1"), j_eff_mhz=0.0)


def test_active_subgraph_full_array():
    d = default_device()
    g = active_subgraph(d, d.functional_qubits)
    assert g.n_sites == 62
    assert len(g.edges) == 104  # 112 grid edges minus 7 broken-qubit edges minus 1 broken edge


def test_active_subgraph_single_qubit():
    d = default_device()
    q = QubitId.parse("U00Q0")
    g = active_subgraph(d, [q])
    assert g.n_sites == 1 and g.edges == ()


@given(st.integers(3, 8), st.data())
def test_graph_rejects_a_site_pair_listed_twice(n, data):
    # HamiltonianMatrix.nnz would count both listings where the matrix sums them
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(i, j, 2.0) for i, j in data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))]
    assert ActiveGraph(tuple(range(n)), tuple(edges)).edges == tuple(edges)
    i, j, _ = data.draw(st.sampled_from(edges))
    again = data.draw(st.sampled_from([(i, j, 1.0), (j, i, 1.0)]))  # in either order
    position = data.draw(st.integers(0, len(edges)))
    with pytest.raises(ValueError, match=rf"site pair \(\d+, \d+\) is listed twice"):
        ActiveGraph(tuple(range(n)), tuple(edges[:position] + [again] + edges[position:]))


def test_active_subgraph_rejects_broken_and_empty():
    d = default_device()
    with pytest.raises(ValueError):
        active_subgraph(d, [QubitId.parse("U03Q2")])
    with pytest.raises(ValueError):
        active_subgraph(d, [])


def test_active_subgraph_monotone():
    d = default_device()
    rng = np.random.default_rng(5)
    full = d.functional_qubits
    for _ in range(10):
        keep = [q for q in full if rng.random() < 0.6]
        if not keep:
            continue
        g_big = active_subgraph(d, keep)
        smaller = [q for q in keep if rng.random() < 0.7]
        if not smaller:
            continue
        g_small = active_subgraph(d, smaller)
        big_pairs = {frozenset((g_big.sites[i], g_big.sites[j])) for i, j, _ in g_big.edges}
        small_pairs = {frozenset((g_small.sites[i], g_small.sites[j])) for i, j, _ in g_small.edges}
        assert small_pairs <= big_pairs


def test_sample_disorder_contract():
    qs = default_device().functional_qubits
    zero = sample_disorder(qs, 0.0, seed=1)
    assert all(v == 0 for v in zero.offsets.values())
    d1 = sample_disorder(qs, 1.6, seed=9)
    d2 = sample_disorder(qs, 1.6, seed=9)
    assert d1.offsets == d2.offsets
    assert all(abs(v) <= 1.6 for v in d1.offsets.values())
    assert d1.offsets != sample_disorder(qs, 1.6, seed=10).offsets
    for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_disorder(qs, bad, seed=0)


@given(
    st.sampled_from([0.0, -0.0, MAX_DISORDER_BOUND_MHZ]) | st.floats(0.0, MAX_DISORDER_BOUND_MHZ),
    st.integers(0, 2**63),
    st.sampled_from([default_device().functional_qubits, grid_graph(15, 15).sites, ["a"], []]),
)
def test_sample_disorder_is_the_offsets_array_by_site(bound, seed, sites):
    # the study draws realisations as arrays; a map of the same seed holds the same bits
    offsets = sample_offsets(len(sites), bound, seed)
    disorder = sample_disorder(sites, bound, seed)
    assert offsets.shape == (len(sites),) and offsets.dtype == np.float64
    mapped = np.array([disorder.get(s) for s in sites], dtype=np.float64)
    assert mapped.tobytes() == offsets.tobytes()
    assert list(disorder.offsets) == list(sites)


def test_subgrid_device():
    d = subgrid_device(4, 0, 3, 3)
    assert len(d.functional_qubits) == 9
    assert len(d.functional_edges()) == 12
    with pytest.raises(ValueError, match="must fit inside"):
        subgrid_device(0, 6, 3, 3)
    with pytest.raises(ValueError, match=r"broken qubit at grid \(1, 7\)$"):
        subgrid_device(0, 5, 3, 3)
    with pytest.raises(ValueError, match=r"broken edge at grid \(2,0\)-\(3,0\)$"):
        subgrid_device(2, 0, 2, 1)


def test_grid_graph_shape():
    g = grid_graph(3, 4)
    assert g.n_sites == 12
    assert len(g.edges) == 2 * 3 * 4 - 3 - 4  # 17 edges on a 3x4 grid

