import numpy as np
import pytest

from duogame.errors import ParameterError
from duogame.network import generate_ba_network
from network_tools import degree_ccdf_slope, from_edges, is_connected, neighbors


def test_seed_only_graph_is_complete():
    net = generate_ba_network(5, m0=5, m=3, seed=1)
    assert len(net.edges) == 10
    assert is_connected(net)


def test_edge_count_identity():
    net = generate_ba_network(100, m0=5, m=3, seed=2)
    assert len(net.edges) == 10 + 3 * 95 == 295
    for n, m0, m, seed in [(50, 4, 2, 0), (200, 8, 8, 5), (30, 3, 1, 9)]:
        net = generate_ba_network(n, m0=m0, m=m, seed=seed)
        assert len(net.edges) == m0 * (m0 - 1) // 2 + m * (n - m0)
        assert is_connected(net)


def test_degree_sum_is_twice_edges():
    net = generate_ba_network(150, m0=5, m=3, seed=3)
    assert net.degrees.sum() == 2 * len(net.edges)


def test_deterministic_given_seed():
    a = generate_ba_network(100, m0=5, m=3, seed=77)
    b = generate_ba_network(100, m0=5, m=3, seed=77)
    assert a.edges == b.edges
    c = generate_ba_network(100, m0=5, m=3, seed=78)
    assert a.edges != c.edges


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
    assert len(net.edges) == 2
    assert list(neighbors(net, 1)) == [0, 2]
    assert is_connected(net)
