import numpy as np
import pytest

from qwalk.device import (
    CouplingEdge,
    DeviceModel,
    FrequencyConfig,
    QubitId,
    QubitParams,
    active_subgraph,
    default_device,
    grid_graph,
    sample_disorder,
    subgrid_device,
)


def test_label_round_trip():
    for label in ("U00Q0", "U33Q2", "U10Q3", "U21Q1"):
        assert QubitId.parse(label).label == label


def test_label_rejects_garbage():
    for bad in ("U44Q0", "U00Q4", "Q00U0", "U0Q0", "u00q0", ""):
        with pytest.raises(ValueError):
            QubitId.parse(bad)


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
    assert d.functional_qubit_count == 62
    assert len(d.qubits) == 64
    assert d.edge(QubitId.parse("U00Q0"), QubitId.parse("U00Q1")).j_eff_mhz == 2.01
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
    with pytest.raises(ValueError):
        QubitParams(t1_us=-1)
    with pytest.raises(ValueError):
        QubitParams(anharmonicity_mhz=10.0)
    with pytest.raises(ValueError):
        QubitParams(readout_fidelity_0=1.5)


def test_coupling_edge_requires_neighbours():
    with pytest.raises(ValueError):
        CouplingEdge(QubitId.parse("U00Q0"), QubitId.parse("U33Q2"))


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


def test_frequency_config_offsets_round_trip():
    qs = default_device().functional_qubits[:5]
    disorder = sample_disorder(qs, 1.0, seed=3)
    config = FrequencyConfig.from_disorder(qs, disorder)
    back = config.disorder_offsets()
    for q in qs:
        assert back.get(q) == pytest.approx(disorder.get(q), abs=1e-9)
        assert config.working_frequency_ghz[q] == pytest.approx(5.02 + disorder.get(q) * 1e-3)


def test_device_file_round_trip(tmp_path):
    d = default_device()
    path = tmp_path / "device.json"
    d.save(path)
    loaded = DeviceModel.load(path)
    assert loaded.to_dict() == d.to_dict()


def test_device_loader_reports_offending_qubit(tmp_path):
    d = default_device()
    doc = d.to_dict()
    doc["qubits"]["U01Q1"]["t1_us"] = -4.0
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="U01Q1"):
        DeviceModel.load(path)


def test_device_loader_rejects_unknown_schema():
    with pytest.raises(ValueError):
        DeviceModel.from_dict({"schema_version": 99, "qubits": {}, "edges": []})


def test_subgrid_device():
    d = subgrid_device(4, 0, 3, 3)
    assert d.functional_qubit_count == 9
    assert len(d.functional_edges()) == 12
    with pytest.raises(ValueError):
        subgrid_device(0, 6, 3, 3)  # would include the broken qubit at (1, 7)


def test_grid_graph_shape():
    g = grid_graph(3, 4)
    assert g.n_sites == 12
    assert len(g.edges) == 2 * 3 * 4 - 3 - 4  # 17 edges on a 3x4 grid


def test_default_device_per_qubit_overrides():
    q = QubitId.parse("U12Q3")
    custom = QubitParams(t1_us=20.0, readout_fidelity_1=0.95)
    d = default_device(overrides={q: custom})
    assert d.qubits[q].t1_us == 20.0
    assert d.qubits[QubitId.parse("U00Q0")].t1_us == 12.26


def test_default_device_optional_coupling_spread():
    d = default_device(j_eff_sigma_mhz=0.07, seed=2)
    js = [e.j_eff_mhz for e in d.functional_edges()]
    assert np.std(js) == pytest.approx(0.07, abs=0.02)
    assert np.mean(js) == pytest.approx(2.01, abs=0.03)
    again = default_device(j_eff_sigma_mhz=0.07, seed=2)
    assert [e.j_eff_mhz for e in again.functional_edges()] == js
    # default stays homogeneous
    assert all(e.j_eff_mhz == 2.01 for e in default_device().functional_edges())
