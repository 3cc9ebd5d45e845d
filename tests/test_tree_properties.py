"""Property tests for the tree builder's search, centering and splitting steps.

networkx serves only as an independent oracle for distances and contiguity.
"""
import random

import networkx as nx
from hypothesis import event, given, settings, strategies as st

from mmdistrict.model import BalanceTolerance, generate_synthetic_state, is_connected
from mmdistrict.tree import (
    _bfs_distances,
    _stays_connected,
    assign_child_sizes,
    region_neighbors,
    select_centers,
    split_region,
)

SETTINGS = settings(max_examples=150, deadline=None)


def grid_adjacency(rows, cols):
    adjacency = {}
    for r in range(rows):
        for c in range(cols):
            b = r * cols + c
            adjacency[b] = {r2 * cols + c2
                            for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                            if 0 <= r2 < rows and 0 <= c2 < cols}
    return adjacency


@st.composite
def connected_subsets(draw, min_size=1):
    """(grid adjacency, connected block set) grown one frontier block at a time."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(max(1, min_size // rows + 1), 6))
    adjacency = grid_adjacency(rows, cols)
    n = rows * cols
    size = draw(st.integers(min(min_size, n), n))
    blocks = {draw(st.integers(0, n - 1))}
    while len(blocks) < size:
        frontier = sorted({v for b in blocks for v in adjacency[b]} - blocks)
        blocks.add(frontier[draw(st.integers(0, len(frontier) - 1))])
    return adjacency, frozenset(blocks)


def induced(adjacency, blocks):
    graph = nx.Graph()
    graph.add_nodes_from(blocks)
    graph.add_edges_from((u, v) for u in blocks for v in adjacency[u] if v in blocks)
    return graph


@SETTINGS
@given(connected_subsets(min_size=2), st.integers(0, 10 ** 6))
def test_local_contiguity_check_agrees_with_whole_region_search(case, pick):
    adjacency, blocks = case
    b = sorted(blocks)[pick % len(blocks)]
    stays = _stays_connected(blocks, b, adjacency)
    event(f"stays connected: {stays}")
    assert stays == is_connected(blocks - {b}, adjacency)


def test_local_contiguity_check_rejects_a_cut_block():
    adjacency = grid_adjacency(1, 5)
    assert not _stays_connected(frozenset(range(5)), 2, adjacency)
    assert _stays_connected(frozenset(range(5)), 4, adjacency)
    # the two sides of a 3x3 ring's corner meet only around the far side
    ring = frozenset(range(9)) - {4}
    assert _stays_connected(ring, 0, grid_adjacency(3, 3))
    assert not _stays_connected(ring - {8}, 0, grid_adjacency(3, 3))


@SETTINGS
@given(connected_subsets(min_size=2), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(1, 9), min_size=36, max_size=36))
def test_select_centers_maps_are_single_source_distances(case, n_children, seed, pop_list):
    adjacency, region = case
    n_children = min(n_children, len(region))
    pops = dict(enumerate(pop_list))
    neighbors = region_neighbors(region, adjacency)
    centers, maps = select_centers(region, neighbors, pops, n_children, random.Random(seed))
    assert len(set(centers)) == len(centers) == len(maps) == n_children
    graph = induced(adjacency, region)
    for i, (center, dist) in enumerate(zip(centers, maps)):
        assert dist == _bfs_distances(neighbors, center)
        assert dist == nx.single_source_shortest_path_length(graph, center)
        # their element-wise minimum is the multi-source distance to the centers so far
        nearest = {b: min(m[b] for m in maps[:i + 1]) for b in region}
        assert nearest == nx.multi_source_dijkstra_path_length(graph, set(centers[:i + 1]))


@SETTINGS
@given(connected_subsets(min_size=4), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(1, 9), min_size=36, max_size=36),
       st.sampled_from([0.05, 0.2, 0.5]))
def test_split_region_is_none_or_a_balanced_contiguous_partition(
        case, fanout, seed, pop_list, epsilon):
    adjacency, region = case
    fanout = min(fanout, len(region))
    pops = dict(enumerate(pop_list))
    region_pop = sum(pops[b] for b in region)
    neighbors = region_neighbors(region, adjacency)
    rng = random.Random(seed)
    centers, maps = select_centers(region, neighbors, pops, fanout, rng)
    n_districts = fanout + rng.randint(0, 2)
    n_large = rng.randint(0, n_districts)
    sizes = assign_child_sizes(n_districts, n_districts - n_large, n_large,
                               [float(rng.randint(1, 9)) for _ in centers])
    child_seats = [s + 2 * l for s, l in sizes]
    # the region holds exactly its seats' share of a larger state
    total_seats = 2 * sum(child_seats)
    state_pop = 2 * region_pop
    parts = split_region(region, neighbors, pops, centers, maps, child_seats,
                         state_pop, total_seats, epsilon)
    event(f"split found: {parts is not None}")
    if parts is None:
        return
    assert len(parts) == fanout
    assert set().union(*parts) == region
    assert sum(len(p) for p in parts) == len(region)
    for part, seats in zip(parts, child_seats):
        assert nx.is_connected(induced(adjacency, part))
        target = state_pop * seats / total_seats
        assert abs(sum(pops[b] for b in part) - target) <= epsilon * target + 1e-9


def test_split_region_succeeds_on_an_easy_grid():
    # Four 1-seat children of a 12x12 uniform grid with 1% tolerance
    state = generate_synthetic_state(144, 4, 0.5, 0, seed=0)
    pops = {b.id: b.population for b in state.blocks}
    region = state.block_ids
    neighbors = region_neighbors(region, state.adjacency)
    tol = BalanceTolerance()
    successes = 0
    for seed in range(10):
        centers, maps = select_centers(region, neighbors, pops, 4, random.Random(seed))
        parts = split_region(region, neighbors, pops, centers, maps, [1, 1, 1, 1],
                             state.total_population, 4, tol.epsilon)
        if parts is not None:
            successes += 1
            assert all(is_connected(p, state.adjacency) for p in parts)
    assert successes > 0
