import numpy as np
import pytest

from duogame.errors import ParameterError
from duogame.network import generate_ba_network
from network_tools import degree_ccdf_slope, from_edges, is_connected, neighbors

SHAPES = [(100, 5, 3, 2), (50, 4, 2, 0), (200, 8, 8, 5), (30, 3, 1, 9), (2, 2, 1, 0)]


def edge_count(n, m0, m):
    return m0 * (m0 - 1) // 2 + m * (n - m0)


def test_seed_only_graph_is_complete():
    net = generate_ba_network(5, m0=5, m=3, seed=1)
    assert net.adjacency.nnz == 2 * 10
    assert np.array_equal(net.adjacency.toarray(), 1 - np.eye(5, dtype=int))
    assert is_connected(net)


def test_edge_count_identity():
    net = generate_ba_network(100, m0=5, m=3, seed=2)
    assert net.adjacency.nnz == 2 * (10 + 3 * 95) == 590
    for n, m0, m, seed in SHAPES:
        net = generate_ba_network(n, m0=m0, m=m, seed=seed)
        assert net.adjacency.nnz == 2 * edge_count(n, m0, m)
        assert is_connected(net)


def test_degree_sum_is_twice_edges():
    net = generate_ba_network(150, m0=5, m=3, seed=3)
    assert net.degrees.sum() == net.adjacency.nnz == 2 * edge_count(150, 5, 3)


@pytest.mark.parametrize("n, m0, m, seed", SHAPES)
def test_adjacency_is_symmetric_ones_with_zero_diagonal(n, m0, m, seed):
    adjacency = generate_ba_network(n, m0=m0, m=m, seed=seed).adjacency
    assert adjacency.shape == (n, n)
    assert (adjacency != adjacency.T).nnz == 0
    assert not adjacency.diagonal().any()
    assert (adjacency.data == 1).all()


@pytest.mark.parametrize("n, m0, m, seed", SHAPES)
def test_degrees_are_the_row_counts(n, m0, m, seed):
    net = generate_ba_network(n, m0=m0, m=m, seed=seed)
    assert net.degrees.dtype == np.int64
    assert np.array_equal(net.degrees, np.diff(net.adjacency.indptr))
    assert np.array_equal(net.degrees, net.adjacency.sum(axis=1).A1)


@pytest.mark.parametrize("leaves, dtype", [(127, np.int8), (128, np.int16),
                                           (32767, np.int16), (32768, np.int32)])
def test_adjacency_dtype_is_the_narrowest_that_holds_the_largest_degree(
        leaves, dtype):
    # a star: its hub's degree is the leaf count
    net = from_edges(leaves + 1, [(0, a) for a in range(1, leaves + 1)])
    assert net.adjacency.dtype == dtype
    assert net.degrees[0] == leaves
    assert generate_ba_network(200, m0=5, m=3, seed=0).adjacency.dtype == np.int8


def test_deterministic_given_seed():
    a = generate_ba_network(100, m0=5, m=3, seed=77)
    b = generate_ba_network(100, m0=5, m=3, seed=77)
    assert a.adjacency.dtype == b.adjacency.dtype
    assert (a.adjacency != b.adjacency).nnz == 0
    assert np.array_equal(a.degrees, b.degrees)
    c = generate_ba_network(100, m0=5, m=3, seed=78)
    assert (a.adjacency != c.adjacency).nnz > 0


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        generate_ba_network(10, m0=3, m=4, seed=0)
    with pytest.raises(ParameterError):
        generate_ba_network(3, m0=5, m=2, seed=0)


def test_power_law_tail():
    slopes = [degree_ccdf_slope(generate_ba_network(1000, m0=5, m=3, seed=s), 3)
              for s in range(20)]
    mean_slope = float(np.mean(slopes))
    assert -3.5 <= mean_slope <= -1.5, mean_slope


def test_from_edges_path_graph():
    net = from_edges(3, [(0, 1), (1, 2)])
    assert net.adjacency.nnz == 4
    assert list(neighbors(net, 1)) == [0, 2]
    assert list(net.degrees) == [1, 2, 1]
    assert is_connected(net)


def test_from_edges_without_edges():
    for n in (0, 3):
        net = from_edges(n, [])
        assert net.adjacency.shape == (n, n) and net.adjacency.nnz == 0
        assert list(net.degrees) == [0] * n
