import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwalk.device import grid_graph
from qwalk.evolution import LindbladModel
from qwalk.sector import (
    QuantumState,
    basis_state,
    enumerate_basis,
    populations,
    rank_table,
    row_index,
    row_sums,
    site_sums,
)


def bitstring_values(n, k):
    """Weight-k occupation strings as ascending ints, site 0 the top bit."""
    return sorted(sum(1 << (n - 1 - j) for j in sites) for sites in combinations(range(n), k))


def brute_force_occupancy(values, n):
    return np.array([[float(v >> (n - 1 - j) & 1) for j in range(n)] for v in values]).reshape(len(values), n)


def occupation_string(basis, i):
    return "".join("1" if bit else "0" for bit in basis.rows[i])


def test_flagship_dimensions():
    assert enumerate_basis(62, 2).dimension == 1891
    assert enumerate_basis(62, 1).dimension == 62
    b = enumerate_basis(3, 0)
    assert b.dimension == 1 and b.rows.shape == (1, 3) and not b.rows.any()


def test_dimension_matches_binomial():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(0, n + 1))
        assert enumerate_basis(n, k).dimension == math.comb(n, k)


def test_states_sorted_and_correct_weight():
    b = enumerate_basis(10, 3)
    values = [int(occupation_string(b, i), 2) for i in range(b.dimension)]
    assert values == sorted(set(values)) == bitstring_values(10, 3)
    assert np.all(b.rows.sum(axis=1) == 3)


def row_positions(rows):
    """Each bool row's position in `rows`, keyed by its bytes."""
    return {row.tobytes(): i for i, row in enumerate(rows)}


def test_index_round_trip():
    b = enumerate_basis(12, 2)
    positions = row_positions(b.rows)
    assert [positions[row.tobytes()] for row in b.rows] == list(range(b.dimension))
    assert np.array_equal(row_index(b.below, b.sites), np.arange(b.dimension))
    # slots in any order
    assert np.array_equal(row_index(b.below, b.sites[::-1, ::-1]), np.arange(b.dimension)[::-1])


@st.composite
def row_sets(draw):
    """A site count of up to 80 and a set of row weights, each weight with at
    most 2,000 rows: one sector (k = 0 and k = n included), a union with
    holes, or every weight up to some m (the Lindblad sector union, or the
    full space when m = n)."""
    n = draw(st.integers(0, 80))
    small = [w for w in range(n + 1) if math.comb(n, w) <= 2_000]
    weights = draw(st.lists(st.sampled_from(small), min_size=1, max_size=4, unique=True))
    return n, tuple(sorted(weights))


@given(row_sets(), st.integers(0, 2**32 - 1))
@example((0, (0,)), 0)
@example((5, (0,)), 0)
@example((5, (5,)), 0)
@example((6, (0, 3, 6)), 1)
@example((9, (0, 1, 2)), 2)
@example((9, tuple(range(10))), 3)
@example((70, (2,)), 4)
@example((80, (0, 1, 79)), 5)
def test_row_index_is_the_position_among_sorted_bitstrings(case, seed):
    n, weights = case
    # every row of the set as its sites, in ascending bitstring order (site 0 the top bit)
    rows = sorted(
        (sites for w in weights for sites in combinations(range(n), w)),
        key=lambda sites: sum(1 << (n - 1 - s) for s in sites),
    )
    below = rank_table(n, weights)
    assert below.dtype == np.int64 and below.shape == (n + 1, max(1, *weights)) and not below.flags.writeable
    # as many slots as the table has columns: the sentinel n pads, and each row's slots are shuffled
    padded = np.array([[*sites, *[n] * (below.shape[1] - len(sites))] for sites in rows]).reshape(len(rows), -1)
    padded = np.random.default_rng(seed).permuted(padded, axis=1)
    assert np.array_equal(row_index(below, padded), np.arange(len(rows)))


@pytest.mark.parametrize("kw", [{"max_excitations": 1}, {"max_excitations": 2}, {"full_space": True}])
def test_row_index_ranks_the_lindblad_rows(kw):
    m = LindbladModel.from_graph(grid_graph(3, 3), **kw)
    assert np.array_equal(row_index(m.below, m.sites), np.arange(m.dimension))


def test_enumerate_rejects_bad_args():
    with pytest.raises(ValueError):
        enumerate_basis(3, 4)
    with pytest.raises(ValueError):
        enumerate_basis(-1, 0)


def test_large_site_counts_beyond_64_bits():
    # 15x15-lattice bases exceed 64-bit masks
    b = enumerate_basis(225, 1)
    assert b.dimension == 225
    state = basis_state(b, {0})
    assert populations(state)[0] == 1.0
    b2 = enumerate_basis(225, 2)
    expected = np.zeros((b2.dimension, 225), dtype=bool)
    for row, sites in zip(expected, reversed(list(combinations(range(225), 2)))):
        row[list(sites)] = True
    assert np.array_equal(b2.rows, expected)
    assert np.array_equal(row_index(b2.below, b2.sites), np.arange(b2.dimension))
    nz = np.nonzero(basis_state(b2, {3, 200}).amplitudes)[0]
    assert list(np.flatnonzero(b2.rows[nz[0]])) == [3, 200]


def test_basis_state_site0_convention():
    # two sites: states ascend as "01" then "10"; exciting site 0 is "10"
    b = enumerate_basis(2, 1)
    s = basis_state(b, {0})
    assert np.allclose(s.amplitudes, [0.0, 1.0])
    s1 = basis_state(b, {1})
    assert np.allclose(s1.amplitudes, [1.0, 0.0])


def test_basis_state_two_walkers():
    b = enumerate_basis(62, 2)
    s = basis_state(b, {0, 61})
    nz = np.nonzero(s.amplitudes)[0]
    assert len(nz) == 1
    assert tuple(np.flatnonzero(b.rows[nz[0]])) == (0, 61)


def test_basis_state_wrong_count():
    b = enumerate_basis(4, 1)
    with pytest.raises(ValueError):
        basis_state(b, set())
    with pytest.raises(ValueError):
        basis_state(b, {0, 1})
    with pytest.raises(ValueError):
        basis_state(b, {7})


def test_populations_examples():
    b = enumerate_basis(3, 1)
    s = basis_state(b, {1})
    assert np.allclose(populations(s), [0, 1, 0])
    b2 = enumerate_basis(2, 1)
    plus = QuantumState(b2, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(populations(plus), [0.5, 0.5])


def test_populations_bounds_and_sum():
    rng = np.random.default_rng(3)
    for n, k in ((6, 2), (8, 3), (10, 1)):
        b = enumerate_basis(n, k)
        amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        amp /= np.linalg.norm(amp)
        p = populations(QuantumState(b, amp))
        assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)
        assert p.sum() == pytest.approx(k, abs=1e-9)


def test_occupation_string_reads_site_order():
    b = enumerate_basis(4, 2)
    v = basis_state(b, {0, 2})
    idx = int(np.nonzero(v.amplitudes)[0][0])
    assert occupation_string(b, idx) == "1010"


@pytest.mark.parametrize("n, k", [(62, 2), (62, 1), (225, 1), (24, 2), (9, 1), (1, 1), (5, 0), (12, 3), (0, 0)])
def test_occupancy_matrix_matches_per_state_loop(n, k):
    b = enumerate_basis(n, k)
    occ = b.occupancy_matrix()
    assert occ.dtype == np.float64 and occ.shape == (b.dimension, n)
    assert np.array_equal(occ, brute_force_occupancy(bitstring_values(n, k), n))
    assert b.occupancy_matrix() is occ
    assert np.array_equal(row_index(b.below, b.sites), np.arange(b.dimension))


@pytest.mark.parametrize("n, k", [(62, 2), (24, 2), (9, 1), (1, 1), (5, 0), (12, 3), (0, 0)])
def test_site_table_and_sums_match_per_state_loop(n, k):
    b = enumerate_basis(n, k)
    occupied = [[j for j in range(n) if v >> (n - 1 - j) & 1] for v in bitstring_values(n, k)]
    assert np.array_equal(b.sites, occupied)
    rng = np.random.default_rng(n + k)
    weights, values = rng.random((b.dimension, 3)), rng.normal(size=(n, 2))
    # a site adds its rows' weights in row order, a row its sites' values in
    # site order, each from 0.0
    for c in range(3):
        expected = [sum(weights[r, c] for r, sites in enumerate(occupied) if j in sites) for j in range(n)]
        assert np.array_equal(site_sums(b.sites, weights, n)[:, c], expected)
        assert np.array_equal(site_sums(b.sites, weights[:, c], n), expected)
    expected = [[sum((values[j, c] for j in sites), 0.0) for c in range(2)] for sites in occupied]
    assert np.array_equal(row_sums(b.sites, values), expected)
    assert np.array_equal(row_sums(b.sites, values[:, 0]), np.array(expected)[:, 0])


def test_state_norm_check():
    b = enumerate_basis(3, 1)
    s = QuantumState(b, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        s.check_normalized()


def test_amplitude_shape_check():
    b = enumerate_basis(3, 1)
    with pytest.raises(ValueError):
        QuantumState(b, np.zeros(5))
