"""Unit tests for the fat-tree topology."""

import tracemalloc

import networkx as nx
import pytest

from repro.network.topology import FatTreeTopology


def test_two_nodes_share_leaf_router():
    t = FatTreeTopology(2)
    assert t.n_levels == 1
    assert t.hops(0, 1) == 2
    assert t.hops(0, 0) == 0


def test_paper_machine_sizes():
    # 256 CPUs = 128 nodes: 16 leaf routers, 2 mid routers, 1 root.
    t = FatTreeTopology(128, radix=8)
    assert t.routers_per_level == [16, 2, 1]
    assert t.n_levels == 3
    assert t.hops(0, 7) == 2        # same leaf router
    assert t.hops(0, 8) == 4        # hmm: nodes 0..7 under router 0
    assert t.hops(0, 63) == 4       # same mid router (nodes 0-63)
    assert t.hops(0, 127) == 6      # across the root
    assert t.diameter_hops == 6


def test_hops_symmetric_and_zero_diagonal():
    t = FatTreeTopology(64, radix=8)
    for a in range(0, 64, 7):
        assert t.hops(a, a) == 0
        for b in range(0, 64, 5):
            assert t.hops(a, b) == t.hops(b, a)


def test_hops_even_and_bounded():
    t = FatTreeTopology(100, radix=8)
    for a in range(0, 100, 9):
        for b in range(0, 100, 11):
            if a == b:
                continue
            h = t.hops(a, b)
            assert h % 2 == 0
            assert 2 <= h <= 2 * t.n_levels


def test_router_of_levels():
    t = FatTreeTopology(128, radix=8)
    assert t.router_of(0, 0) == 0
    assert t.router_of(7, 0) == 0
    assert t.router_of(8, 0) == 1
    assert t.router_of(127, 0) == 15
    assert t.router_of(127, 1) == 1
    assert t.router_of(127, 2) == 0
    with pytest.raises(ValueError):
        t.router_of(128, 0)


def test_hops_rejects_out_of_range_nodes():
    t = FatTreeTopology(8)
    for src, dst in [(-1, 0), (0, -1), (8, 0), (0, 8), (-1, -1), (8, 8)]:
        with pytest.raises(ValueError):
            t.hops(src, dst)


SWEEP = [(n, radix) for n in (1, 2, 3, 7, 8, 9, 17, 64, 65, 100)
         for radix in (2, 3, 4, 8, 16)]


@pytest.mark.parametrize("n,radix", SWEEP)
def test_hops_match_router_contention_paths(n, radix):
    """Every hop count is the length of the link path the
    router-contention model reserves."""
    t = FatTreeTopology(n, radix=radix)
    for a in range(n):
        for b in range(n):
            assert t.hops(a, b) == len(t.path_links(a, b))


@pytest.mark.parametrize("n,radix", SWEEP)
def test_diameter_and_average_are_pair_aggregates(n, radix):
    t = FatTreeTopology(n, radix=radix)
    pairs = [t.hops(a, b) for a in range(n) for b in range(n) if a != b]
    assert t.diameter_hops == max(pairs, default=0)
    expected = sum(pairs) / len(pairs) if pairs else 0.0
    assert t.average_hops() == expected


def test_topology_holds_no_distance_table():
    tracemalloc.start()
    try:
        t = FatTreeTopology(2048, radix=8)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.hops(0, 2047) == 8
    assert size < 1 << 20, f"{size} bytes traced for a 2048-node topology"


def test_graph_matches_distance_matrix():
    t = FatTreeTopology(24, radix=8)
    g = t.as_graph()
    assert nx.is_connected(g)
    for a in range(0, 24, 5):
        for b in range(0, 24, 7):
            if a == b:
                continue
            expected = nx.shortest_path_length(g, ("node", a), ("node", b))
            assert t.hops(a, b) == expected


def test_single_node_degenerate():
    t = FatTreeTopology(1)
    assert t.diameter_hops == 0
    assert t.average_hops() == 0.0


def test_average_hops_monotone_in_size():
    sizes = [8, 16, 64, 128]
    avgs = [FatTreeTopology(n, radix=8).average_hops() for n in sizes]
    assert all(a <= b for a, b in zip(avgs, avgs[1:]))


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FatTreeTopology(0)
    with pytest.raises(ValueError):
        FatTreeTopology(4, radix=1)
