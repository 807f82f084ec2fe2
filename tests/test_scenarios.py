import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwalk.device import default_device, sample_disorder
from qwalk.evolution import propagate_block
from qwalk.hamiltonian import disorder_diagonals
from qwalk.scenarios import (
    DisorderStepProtocol,
    Scenario,
    _scenario_setup,
    ctqw_scenario,
    default_mz_layout,
    disorder_sweep,
    layout_from_names,
    mz_scenario,
    run_scenario,
)
from qwalk.sector import enumerate_basis


def test_default_layout_valid_and_symmetric():
    layout = default_mz_layout()
    layout.validate(default_device())
    assert len(layout.sites) == 24
    assert len(layout.left_arm) == len(layout.right_arm) == 10
    # mirror symmetry about the source-detector column
    for l, r in zip(layout.left_arm, layout.right_arm):
        (rl, cl), (rr, cr) = l.grid_position, r.grid_position
        assert rl == rr and cl + cr == 8


def test_step_protocol_pattern():
    layout = default_mz_layout()
    offsets = DisorderStepProtocol(0.2, 0.1).offsets(layout)
    left = [offsets.get(q) for q in layout.left_arm]
    right = [offsets.get(q) for q in layout.right_arm]
    assert left == pytest.approx([0.2 * k for k in (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)])
    assert right == pytest.approx([0.1 * k for k in (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)])
    assert max(left) == pytest.approx(5 * 0.2)
    assert left == left[::-1]  # symmetric about the midpoint


def test_ctqw_scenario_sector_sizes():
    two = ctqw_scenario({"U00Q0", "U33Q2"})
    assert len(two.active) == 62
    assert enumerate_basis(len(two.active), two.n_excitations).dimension == 1891
    one = ctqw_scenario({"U00Q0"})
    assert enumerate_basis(len(one.active), one.n_excitations).dimension == 62


def test_ctqw_rejects_broken_walker():
    with pytest.raises(ValueError):
        ctqw_scenario({"U03Q2"})


def test_ctqw_time_zero_gives_indicator():
    sc = ctqw_scenario({"U00Q0"}, t_max_ns=0.0)
    res = run_scenario(sc)
    pops = res.populations[:, 0]
    assert pops[res.sites.index("U00Q0")] == pytest.approx(1.0)
    assert pops.sum() == pytest.approx(1.0)


def test_mz_active_set_sizes():
    assert len(mz_scenario("S").active) == 24
    assert len(mz_scenario("S", blocked=True).active) == 22
    assert len(mz_scenario({"L1", "R1"}, removed=True).active) == 22


def test_mz_source_validation():
    with pytest.raises(ValueError):
        mz_scenario({"R1"}, blocked=True)
    with pytest.raises(ValueError):
        mz_scenario("S", removed=True)
    with pytest.raises(ValueError):
        mz_scenario("X9")


def test_scenario_round_trip_exact():
    for sc in (
        ctqw_scenario({"U00Q0", "U33Q2"}, n_shots=500, seed=3),
        mz_scenario({"L1", "R1"}, DisorderStepProtocol(0.4, 0.7), readout_time_ns=550.0),
        mz_scenario("S", blocked=True).with_static_disorder(
            sample_disorder(default_mz_layout().sites, 1.0, seed=5)
        ),
    ):
        doc = json.loads(json.dumps(sc.to_dict()))
        assert Scenario.from_dict(doc) == sc


_LABELS = tuple(q.label for q in default_device().functional_qubits)
_MZ_NAMES = {name: q.label for name, q in default_mz_layout().named_sites().items()}
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw):
    kind = draw(st.sampled_from(["ctqw", "mz"]))
    pool = sorted(_MZ_NAMES.values()) if kind == "mz" else _LABELS
    active = tuple(sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))))
    sources = tuple(sorted(draw(st.lists(st.sampled_from(active), max_size=3, unique=True))))
    times = draw(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6, unique=True))
    disorder = draw(st.dictionaries(st.sampled_from(active), _finite, max_size=4))
    return Scenario(
        name=draw(st.text(max_size=12)),
        kind=kind,
        active=active,
        sources=sources,
        times_ns=tuple(sorted(times)),
        static_disorder_mhz=disorder,
        step_d_left_mhz=draw(_finite),
        step_d_right_mhz=draw(_finite),
        readout_time_ns=draw(st.none() | st.floats(0.0, 1e4)),
        n_shots=draw(st.none() | st.integers(1, 10**6)),
        post_select=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63)),
        blocked=draw(st.booleans()),
        removed=draw(st.booleans()),
        layout_names=dict(_MZ_NAMES) if kind == "mz" else {},
    )


class _ReadKeys(dict):
    """A dict that remembers which keys were read."""

    def __init__(self, doc):
        super().__init__(doc)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@given(valid_scenarios())
def test_scenario_dict_round_trip_property(sc):
    doc = sc.to_dict()
    assert set(doc) == {f.name for f in fields(Scenario)} | {"schema_version"}
    tracked = _ReadKeys(json.loads(json.dumps(doc)))
    assert Scenario.from_dict(tracked) == sc
    assert tracked.read == set(doc)  # every key written is read back


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("x", "nope", ("U00Q0",), ("U00Q0",), (0.0,))
    with pytest.raises(ValueError):
        Scenario("x", "ctqw", ("U00Q0",), ("U11Q1",), (0.0,))
    with pytest.raises(ValueError):
        Scenario.from_dict({"schema_version": 5})
    sc = mz_scenario("S")
    for field, value in (
        ("times_ns", ()),
        ("times_ns", (0.0, 0.0)),
        ("times_ns", (10.0, 5.0)),
        ("times_ns", (-1.0, 5.0)),
        ("times_ns", (0.0, float("nan"))),
        ("static_disorder_mhz", {"U00Q0": float("nan")}),
        ("step_d_left_mhz", float("inf")),
        ("step_d_right_mhz", float("nan")),
        ("readout_time_ns", float("nan")),
        ("readout_time_ns", -5.0),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", "abc"),
        ("seed", True),
        ("n_shots", 0),
        ("n_shots", -3),
        ("n_shots", 2.5),
        ("n_shots", "10"),
        ("n_shots", True),
    ):
        with pytest.raises(ValueError, match=field):
            replace(sc, **{field: value})


def test_layout_names_round_trip():
    layout = default_mz_layout()
    sc = mz_scenario("S", layout=layout)
    again = layout_from_names(sc.layout_names)
    assert again == layout


def test_zero_disorder_arm_mirror_symmetry():
    sc = mz_scenario("S", t_max_ns=800.0, step_ns=20.0)
    res = run_scenario(sc)
    for k in range(1, 11):
        left = res.site_series(sc.layout_names[f"L{k}"])
        right = res.site_series(sc.layout_names[f"R{k}"])
        assert np.max(np.abs(left - right)) < 1e-10


def test_single_walker_refocuses_on_detector():
    sc = mz_scenario("S")
    res = run_scenario(sc)
    d = res.site_series(sc.layout_names["D"])
    peak = float(d.max())
    t_peak = res.times_ns[int(np.argmax(d))]
    assert peak > 0.7
    assert 600.0 <= t_peak <= 700.0


def test_blocked_variant_still_transmits_via_left():
    sc = mz_scenario("S", blocked=True)
    res = run_scenario(sc)
    assert res.site_series(sc.layout_names["D"]).max() > 0.5


def test_sweep_single_cell_matches_run():
    protocol = DisorderStepProtocol(0.5, 0.25)
    sc = mz_scenario("S", protocol)
    res = run_scenario(sc)
    k650 = int(np.argmin(np.abs(np.array(res.times_ns) - 650.0)))
    grid = disorder_sweep(sc, [0.5], [0.25], readout_time_ns=650.0)
    assert grid.values.shape == (1, 1)
    assert grid.values[0, 0] == pytest.approx(res.site_series(sc.layout_names["D"])[k650], abs=1e-9)


def test_sweep_symmetry_under_arm_swap():
    # mirror-symmetric layout: swapping the step axes transposes the grid
    sc = mz_scenario("S")
    values = np.linspace(0.0, 1.0, 4)
    grid = disorder_sweep(sc, values, values, readout_time_ns=650.0)
    assert np.allclose(grid.values, grid.values.T, atol=1e-10)


def test_sweep_batched_matches_per_cell_runs():
    sc = mz_scenario("S").with_static_disorder(sample_disorder(default_mz_layout().sites, 0.3, seed=4))
    d_left, d_right = (0.0, 0.4, 1.0), (0.2, 0.7)
    grid = disorder_sweep(sc, d_left, d_right, readout_time_ns=650.0)
    assert np.array_equal(grid.values, disorder_sweep(sc, d_left, d_right, readout_time_ns=650.0).values)
    detector = sc.layout_names["D"]
    for i, dl in enumerate(d_left):
        for j, dr in enumerate(d_right):
            cell = replace(sc, step_d_left_mhz=dl, step_d_right_mhz=dr, times_ns=(650.0,))
            assert abs(grid.values[i, j] - run_scenario(cell).site_series(detector)[0]) < 1e-10


def _per_cell_sweep(sc, d_left, d_right, t_read):
    """The sweep grid built cell by cell: a DisorderStepProtocol map per cell
    through disorder_diagonals, then the same block propagation."""
    layout = layout_from_names(sc.layout_names)
    static = replace(sc, step_d_left_mhz=0.0, step_d_right_mhz=0.0).disorder()
    graph, basis, psi0, h0 = _scenario_setup(sc, default_device(), static)
    cells = [DisorderStepProtocol(dl, dr).offsets(layout) for dl in d_left for dr in d_right]
    block = np.repeat(psi0.amplitudes[:, None], len(cells), axis=1)
    (p,) = propagate_block(h0.matrix, disorder_diagonals(graph, basis, cells), block, (t_read,))
    detector = basis.occupancy_matrix()[:, graph.index[layout.detector]]
    return (detector @ (np.abs(p) ** 2)).reshape(len(d_left), len(d_right))


@pytest.mark.parametrize(
    "sc",
    [
        mz_scenario("S"),
        mz_scenario({"L1", "R1"}).with_static_disorder(sample_disorder(default_mz_layout().sites, 0.4, seed=2)),
        mz_scenario("S", blocked=True),  # R1 and R10 are outside the active graph
    ],
)
def test_sweep_diagonals_match_per_cell_maps(sc):
    # a non-square grid with negative steps, the CLI's --d-left -1:2:7 --d-right 0.3:1.1:5
    d_left, d_right = np.linspace(-1.0, 2.0, 7), np.linspace(0.3, 1.1, 5)
    grid = disorder_sweep(sc, d_left, d_right, readout_time_ns=650.0)
    assert grid.values.shape == (7, 5)
    assert np.array_equal(grid.values, _per_cell_sweep(sc, d_left, d_right, 650.0))


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        disorder_sweep(ctqw_scenario({"U00Q0"}), [0.0], [0.0])
    with pytest.raises(ValueError):
        disorder_sweep(mz_scenario("S"), [], [0.0])


def test_fringe_grid_csv_round_trip():
    sc = mz_scenario("S")
    grid = disorder_sweep(sc, [0.0, 0.5], [0.0, 1.0])
    again = type(grid).from_csv(grid.to_csv())
    assert np.array_equal(np.asarray(again.values), np.asarray(grid.values))
    assert again.d_left_values == grid.d_left_values


def test_run_scenario_with_shots_and_post_selection():
    sc = mz_scenario("S", n_shots=4000, seed=11)
    res = run_scenario(sc)
    assert res.shots is not None
    assert res.retention == 1.0  # perfect readout keeps every shot
    assert all(bits.count("1") == 1 for bits in res.shots.counts)


def test_shots_are_drawn_at_the_readout_time():
    # the readout time (650 ns) lies beyond the last sample time
    sc = replace(mz_scenario("S", n_shots=4000, seed=3), times_ns=(0.0, 100.0, 200.0))
    res = run_scenario(sc)
    assert res.populations.shape == (24, 3)
    at_readout = run_scenario(replace(sc, times_ns=(650.0,), n_shots=None)).populations[:, 0]
    # 4000 perfect-readout shots: each site frequency within ~5 sigma of its population
    assert np.max(np.abs(res.shots.populations() - at_readout)) < 0.04


def test_static_disorder_breaks_mirror_symmetry():
    layout = default_mz_layout()
    hidden = sample_disorder(layout.left_arm, 1.5, seed=2)
    sc = mz_scenario("S", t_max_ns=600.0, step_ns=50.0).with_static_disorder(hidden)
    res = run_scenario(sc)
    diffs = [
        np.max(np.abs(res.site_series(sc.layout_names[f"L{k}"]) - res.site_series(sc.layout_names[f"R{k}"])))
        for k in range(1, 11)
    ]
    assert max(diffs) > 0.01
