import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwalk.cli import main
from qwalk.device import default_device, sample_disorder
from qwalk.evolution import propagate_block
from qwalk.hamiltonian import offset_diagonals
from qwalk.scenarios import (
    MAX_SHOTS,
    DisorderStepProtocol,
    FringeGrid,
    Scenario,
    _scenario_setup,
    ctqw_scenario,
    default_mz_layout,
    disorder_sweep,
    layout_from_names,
    mz_scenario,
    run_scenario,
)
from qwalk.sector import enumerate_basis, site_sums


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
    interferometer = draw(st.booleans())
    pool = sorted(_MZ_NAMES.values()) if interferometer else _LABELS
    active = tuple(sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))))
    sources = tuple(sorted(draw(st.lists(st.sampled_from(active), max_size=3, unique=True))))
    times = draw(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6, unique=True))
    disorder = draw(st.dictionaries(st.sampled_from(active), _finite, max_size=4))
    steps = (draw(_finite), draw(_finite)) if interferometer else (0.0, 0.0)
    return Scenario(
        name=draw(st.text(max_size=12)),
        active=active,
        sources=sources,
        times_ns=tuple(sorted(times)),
        static_disorder_mhz=disorder,
        step_d_left_mhz=steps[0],
        step_d_right_mhz=steps[1],
        readout_time_ns=draw(st.none() | st.floats(0.0, 1e4)),
        n_shots=draw(st.none() | st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        layout_names=dict(_MZ_NAMES) if interferometer else {},
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
        Scenario("x", ("U00Q0",), ("U11Q1",), (0.0,))
    doc = mz_scenario("S").to_dict()
    for version in (1, 5, None):
        with pytest.raises(ValueError, match="schema version"):
            Scenario.from_dict({**doc, "schema_version": version})
    with pytest.raises(ValueError, match="schema version None"):
        Scenario.from_dict([doc])  # a JSON document that is not an object
    with pytest.raises(ValueError, match="^times_ns is missing"):
        Scenario.from_dict({k: v for k, v in doc.items() if k != "times_ns"})
    sc = mz_scenario("S")
    assert replace(sc, n_shots=MAX_SHOTS).n_shots == MAX_SHOTS
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
        ("n_shots", MAX_SHOTS + 1),
        ("layout_names", {"S": "U00Q0"}),
        ("layout_names", {**sc.layout_names, "D": "U99Q9"}),
        ("layout_names", {**sc.layout_names, "L3": 5}),
        ("layout_names", {k: v for k, v in sc.layout_names.items() if k != "R10"}),
        ("layout_names", 5),
        ("name", None),
        ("active", (*sc.active, sc.active[0])),
        ("sources", (*sc.sources, *sc.sources)),
    ):
        with pytest.raises(ValueError, match=field):
            replace(sc, **{field: value})


def test_null_name_and_repeated_labels_leave_error_json(tmp_path, capsys):
    # null is no name (it used to be stored as "None"), and a site listed
    # twice in `active` or `sources` is refused, for run and sweep alike
    source, splitter = _MZ_NAMES["S"], _MZ_NAMES["BS1"]
    cases = (
        ("name=null", "name cannot be read from None: a scenario needs a name, got null"),
        (f'active=["{source}","{source}","{splitter}"]', f"active lists {source} more than once"),
        (f'sources=["{source}","{source}"]', f"sources lists {source} more than once"),
    )
    for k, (override, message) in enumerate(cases):
        for command in ("run", "sweep"):
            out = tmp_path / f"{command}-{k}"
            assert main([command, "--scenario", "mz-single", "--out", str(out), "--override", override]) == 1
            doc = json.loads((out / "error.json").read_text())
            assert doc == {"error": message, "type": "ValueError"}
            assert sorted(p.name for p in out.iterdir()) == ["error.json"]
            assert "Traceback" not in capsys.readouterr().err
    # a name that is a JSON number is still read as its text, and no walkers is a valid vacuum
    for override in ("name=5", "sources=[]"):
        assert main(["run", "--scenario", "ctqw-single", "--out", str(tmp_path / override), "--override", override]) == 0


def test_steps_need_an_interferometer_layout():
    walk = ctqw_scenario({"U00Q0"})
    for field in ("step_d_left_mhz", "step_d_right_mhz"):
        with pytest.raises(ValueError, match=f"^{field} needs an interferometer"):
            replace(walk, **{field: 1.0})
        with pytest.raises(ValueError, match=f"^{field} needs an interferometer"):
            replace(mz_scenario("S"), **{field: 1.0, "layout_names": {}})
    stepped = replace(mz_scenario("S"), step_d_left_mhz=0.5)
    assert stepped.disorder() == DisorderStepProtocol(0.5, 0.0).offsets(default_mz_layout())


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
    grid = disorder_sweep(sc, [0.5], [0.25])
    assert grid.values.shape == (1, 1)
    assert grid.values[0, 0] == pytest.approx(res.site_series(sc.layout_names["D"])[k650], abs=1e-9)


def test_sweep_symmetry_under_arm_swap():
    # mirror-symmetric layout: swapping the step axes transposes the grid
    sc = mz_scenario("S")
    values = np.linspace(0.0, 1.0, 4)
    grid = disorder_sweep(sc, values, values)
    assert np.allclose(grid.values, grid.values.T, atol=1e-10)


def test_sweep_batched_matches_per_cell_runs():
    sc = mz_scenario("S").with_static_disorder(sample_disorder(default_mz_layout().sites, 0.3, seed=4))
    d_left, d_right = (0.0, 0.4, 1.0), (0.2, 0.7)
    grid = disorder_sweep(sc, d_left, d_right)
    assert np.array_equal(grid.values, disorder_sweep(sc, d_left, d_right).values)
    detector = sc.layout_names["D"]
    for i, dl in enumerate(d_left):
        for j, dr in enumerate(d_right):
            cell = replace(sc, step_d_left_mhz=dl, step_d_right_mhz=dr, times_ns=(650.0,))
            assert abs(grid.values[i, j] - run_scenario(cell).site_series(detector)[0]) < 1e-10


def _per_cell_sweep(sc, d_left, d_right, t_read):
    """The sweep grid built cell by cell: a DisorderStepProtocol map per cell
    read site by site into one offsets column, then the same block propagation
    and detector read."""
    layout = layout_from_names(sc.layout_names)
    static = replace(sc, step_d_left_mhz=0.0, step_d_right_mhz=0.0).disorder()
    graph, basis, psi0, h0 = _scenario_setup(sc, default_device(), static)
    cells = [DisorderStepProtocol(dl, dr).offsets(layout) for dl in d_left for dr in d_right]
    block = np.repeat(psi0.amplitudes[:, None], len(cells), axis=1)
    offsets = np.array([[cell.get(s) for cell in cells] for s in graph.sites])
    (p,) = propagate_block(h0.matrix, offset_diagonals(basis, offsets), block, (t_read,))
    detector = site_sums(basis.sites, p.real**2 + p.imag**2, graph.n_sites)[graph.index[layout.detector]]
    return detector.reshape(len(d_left), len(d_right))


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
    grid = disorder_sweep(replace(sc, readout_time_ns=650.0), d_left, d_right)
    assert grid.values.shape == (7, 5)
    assert np.array_equal(grid.values, _per_cell_sweep(sc, d_left, d_right, 650.0))


def test_readout_time_is_the_set_time_or_else_the_last_sample():
    sc = ctqw_scenario({"U00Q0"}, t_max_ns=30.0)
    assert sc.readout_time == 30.0 and type(sc.readout_time) is float
    assert replace(sc, readout_time_ns=13.0).readout_time == 13.0
    assert replace(sc, readout_time_ns=0.0).readout_time == 0.0  # 0 ns is a time, not a missing one
    assert mz_scenario("S").readout_time == 650.0 and mz_scenario({"L1", "R1"}).readout_time == 550.0


def test_sweep_reads_out_at_zero_when_the_scenario_says_so():
    grid = disorder_sweep(replace(mz_scenario("S"), readout_time_ns=0.0), [0.0, 1.0], [0.5])
    assert grid.readout_time_ns == 0.0
    assert np.array_equal(grid.values, np.zeros((2, 1)))  # no walker reaches the detector at t = 0


def test_sweep_without_a_readout_time_reads_the_last_sample():
    sc = replace(mz_scenario("S"), readout_time_ns=None, times_ns=(0.0, 325.0, 650.0))
    grid = disorder_sweep(sc, [0.5], [0.25])
    assert grid.readout_time_ns == 650.0
    assert grid.values[0, 0] == disorder_sweep(mz_scenario("S"), [0.5], [0.25]).values[0, 0]


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        disorder_sweep(ctqw_scenario({"U00Q0"}), [0.0], [0.0])
    with pytest.raises(ValueError):
        disorder_sweep(mz_scenario("S"), [], [0.0])


def test_fringe_grid_csv_round_trip(tmp_path):
    grid = disorder_sweep(mz_scenario("S"), [0.0, 0.5], [0.0, 1.0])
    argv = ["sweep", "--scenario", "mz-single", "--d-left", "0:0.5:2", "--d-right", "0:1:2", "--out", str(tmp_path)]
    assert main(argv) == 0
    again = FringeGrid.from_csv((tmp_path / "fringe.csv").read_text())
    assert np.array_equal(again.values, grid.values)
    assert again.d_left_values == grid.d_left_values and again.d_right_values == grid.d_right_values


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


def test_library_runs_reject_static_disorder_on_a_qubit_the_device_does_not_run():
    # U03Q2 is broken: the library rejects its detuning as the CLI does, instead of dropping it
    walk = ctqw_scenario({"U00Q0"}, t_max_ns=20.0)
    sweep = mz_scenario("S", t_max_ns=20.0, readout_time_ns=20.0)
    broken = {"static_disorder_mhz": {"U03Q2": 1.0}}
    with pytest.raises(ValueError, match="does not run: U03Q2$"):
        run_scenario(replace(walk, **broken))
    with pytest.raises(ValueError, match="does not run: U03Q2$"):
        disorder_sweep(replace(sweep, **broken), [0.0], [0.0])
    # a functional qubit outside the active set is allowed and changes nothing
    assert "U00Q0" not in sweep.active
    moved = disorder_sweep(replace(sweep, static_disorder_mhz={"U00Q0": 1.0}), [0.0], [0.0])
    assert moved.values.tobytes() == disorder_sweep(sweep, [0.0], [0.0]).values.tobytes()


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
