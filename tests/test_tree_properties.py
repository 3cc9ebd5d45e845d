"""Property tests for contiguity, the tree builder's region graphs, search,
centering and splitting steps, and whole builds on path states.

networkx serves only as an independent oracle for region graphs, distances
and contiguity; ``split_region_reference`` keeps an earlier ``split_region``,
an earlier ``select_centers`` and an earlier Voronoi pass as the oracles for
the current ones.
"""
import random

import networkx as nx
import pytest
from hypothesis import event, example, given, settings, strategies as st

from mmdistrict.model import (EPSILON, District, Plan, generate_synthetic_state, is_connected,
                              validate_plan)
from mmdistrict.tree import (
    _bfs_distances,
    _stays_connected,
    _voronoi_cell_pops,
    assign_child_sizes,
    build_tree,
    region_graph,
    sample_plans,
    select_centers,
    split_region,
)
from conftest import make_path_state
from split_region_reference import _voronoi_cell_pops as reference_voronoi_cell_pops
from split_region_reference import select_centers as reference_select_centers
from split_region_reference import split_region as reference_split_region

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


def owners(adjacency, blocks):
    """An owner list in which ``blocks`` form child 1 and every other block child 0."""
    return [int(b in blocks) for b in range(len(adjacency))]


def induced(adjacency, blocks):
    graph = nx.Graph()
    graph.add_nodes_from(blocks)
    graph.add_edges_from((u, v) for u in blocks for v in adjacency[u] if v in blocks)
    return graph


def relabelled(adjacency, order):
    """The subgraph induced by ``order``, its blocks renumbered 0.. in that order."""
    return nx.relabel_nodes(induced(adjacency, order), {b: i for i, b in enumerate(order)})


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_is_connected_agrees_with_networkx_on_grid_subsets(rows, cols, data):
    adjacency = grid_adjacency(rows, cols)
    blocks = data.draw(st.sets(st.integers(0, rows * cols - 1), min_size=1))
    connected = is_connected(blocks, adjacency)
    event(f"connected: {connected}")
    assert connected == nx.is_connected(induced(adjacency, blocks))


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), st.data(), st.integers(0, 10 ** 6))
def test_prime_block_count_gives_a_path_state_whose_plans_validate(n, data, seed):
    # A prime block count has no grid factorisation but 1 x n.  With one
    # seat per block's population every district count has an exact split.
    state = generate_synthetic_state(n, n, 0.45, 1, seed=seed)
    assert state.adjacency == {b: {v for v in (b - 1, b + 1) if 0 <= v < n} for b in range(n)}
    k = data.draw(st.integers(1, n))
    tree = build_tree(state, k, seed=seed, root_samples=4, internal_samples=2)
    for plan in sample_plans(tree, 5, seed=seed):
        assert len(plan.districts) == k
        assert validate_plan(state, plan).ok


@SETTINGS
@given(connected_subsets(), st.integers(0, 10 ** 6))
@example((grid_adjacency(1, 2), frozenset({1})), 0)  # a child's only block cannot leave
def test_local_contiguity_check_agrees_with_whole_region_search(case, pick):
    adjacency, blocks = case
    b = sorted(blocks)[pick % len(blocks)]
    stays = _stays_connected(owners(adjacency, blocks), b, adjacency)
    event(f"stays connected: {stays}")
    assert stays == is_connected(blocks - {b}, adjacency)


def test_local_contiguity_check_rejects_a_cut_block():
    adjacency = grid_adjacency(1, 5)
    path = owners(adjacency, range(5))
    assert not _stays_connected(path, 2, adjacency)
    assert _stays_connected(path, 4, adjacency)
    # the two sides of a 3x3 ring's corner meet only around the far side
    ring = frozenset(range(9)) - {4}
    ring_adjacency = grid_adjacency(3, 3)
    assert _stays_connected(owners(ring_adjacency, ring), 0, ring_adjacency)
    assert not _stays_connected(owners(ring_adjacency, ring - {8}), 0, ring_adjacency)


@SETTINGS
@given(connected_subsets(), st.lists(st.integers(1, 9), min_size=36, max_size=36), st.data())
def test_region_graph_is_the_induced_subgraph_in_ascending_order(case, pop_list, data):
    # Each node builds its children's graphs from its own, so a grandchild's
    # graph must not depend on the way down: the trees are byte-identical to
    # those built on state indices only because of this.
    adjacency, region = case
    order = sorted(region)
    neighbors, pops = region_graph(order, adjacency, pop_list)
    assert pops == [pop_list[b] for b in order]
    edges = {(u, v) for u, nbrs in enumerate(neighbors) for v in nbrs}
    assert edges == {e for u, v in relabelled(adjacency, order).edges for e in ((u, v), (v, u))}
    position = {b: i for i, b in enumerate(order)}
    assert neighbors == [tuple(position[v] for v in adjacency[b] if v in region) for b in order]
    part = sorted(data.draw(st.sets(st.integers(0, len(order) - 1))))
    assert (region_graph(part, neighbors, pops)
            == region_graph([order[i] for i in part], adjacency, pop_list))


@SETTINGS
@given(connected_subsets(min_size=2), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(1, 9), min_size=36, max_size=36))
def test_select_centers_maps_are_single_source_distances(case, n_children, seed, pop_list):
    adjacency, region = case
    n_children = min(n_children, len(region))
    order = sorted(region)
    neighbors, pops = region_graph(order, adjacency, pop_list)
    centers, maps, _ = select_centers(neighbors, pops, n_children, random.Random(seed))
    assert len(set(centers)) == len(centers) == len(maps) == n_children
    graph = relabelled(adjacency, order)
    for i, (center, dist) in enumerate(zip(centers, maps)):
        assert dist == _bfs_distances(neighbors, center)
        assert len(dist) == len(region)
        assert dict(enumerate(dist)) == nx.single_source_shortest_path_length(graph, center)
        # their element-wise minimum is the multi-source distance to the centers so far
        nearest = {b: min(m[b] for m in maps[:i + 1]) for b in range(len(region))}
        assert nearest == nx.multi_source_dijkstra_path_length(graph, set(centers[:i + 1]))


@settings(max_examples=300, deadline=None)
@given(connected_subsets(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 9), min_size=36, max_size=36))
# Every block but block 7 is empty, so the first center is block 7 and every
# later pick finds all weights 0 and falls back to one per non-center.
@example(case=(grid_adjacency(3, 4), frozenset(range(12))), n_children=5, seed=3,
         pop_list=[5 if b == 7 else 0 for b in range(36)])
def test_select_centers_matches_the_reference_draw_for_draw(case, n_children, seed, pop_list):
    # The reference draws each later center from the blocks that are not yet
    # centers; the current picker from every position, where a center weighs
    # 0.  Both must pick the same centers and leave the RNG in the same state.
    # The reference Voronoi pass assigns the cells from the distance lists
    # afterwards; the current picker assigns them as it goes.  Both sum the
    # populations in position order, so the cell populations are equal exactly.
    adjacency, region = case
    n_children = min(n_children, len(region))
    neighbors, pops = region_graph(sorted(region), adjacency, pop_list)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        found = select_centers(neighbors, pops, n_children, rng)
        expected = reference_select_centers(neighbors, pops, n_children, reference_rng)
        assert found[:2] == expected
        assert rng.getstate() == reference_rng.getstate()
        assert (_voronoi_cell_pops(pops, found[2], n_children)
                == reference_voronoi_cell_pops(pops, expected[1]))


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
    order = sorted(region)
    graph = region_graph(order, adjacency, pops)
    rng = random.Random(seed)
    centers, maps, _ = select_centers(*graph, fanout, rng)
    n_districts = fanout + rng.randint(0, 2)
    n_large = rng.randint(0, n_districts)
    sizes = assign_child_sizes(n_districts - n_large, n_large,
                               [float(rng.randint(1, 9)) for _ in centers])
    child_seats = [s + 2 * l for s, l in sizes]
    # the region holds exactly its seats' share of a larger state
    total_seats = 2 * sum(child_seats)
    state_pop = 2 * region_pop
    parts = split_region(*graph, centers, maps, child_seats, state_pop, total_seats, epsilon)
    event(f"split found: {parts is not None}")
    if parts is None:
        return
    parts = [[order[i] for i in part] for part in parts]
    assert len(parts) == fanout
    assert set().union(*parts) == region
    assert sum(len(p) for p in parts) == len(region)
    for part, seats in zip(parts, child_seats):
        assert nx.is_connected(induced(adjacency, part))
        target = state_pop * seats / total_seats
        assert abs(sum(pops[b] for b in part) - target) <= epsilon * target + 1e-9


@settings(max_examples=400, deadline=None)
@given(connected_subsets(min_size=2), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.lists(st.integers(1, 2), min_size=36, max_size=36),
                 st.lists(st.integers(0, 2), min_size=36, max_size=36),
                 st.lists(st.integers(1, 9), min_size=36, max_size=36),
                 st.lists(st.floats(0.1, 9.0), min_size=36, max_size=36)),
       st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5]), st.sampled_from([False] * 7 + [True]),
       st.booleans(), st.sampled_from([1.0] * 4 + [0.5, 0.9, 1.1, 2.0]), st.integers(1, 3))
# Two cases that random draws reach only now and then.  In the first a
# block gains the same from joining either of two children, and must join
# the lower; in the second a pass goes on swapping after the children are
# balanced, and must keep those swaps.
@example(case=(grid_adjacency(5, 3), frozenset(range(14))), fanout=4, seed=7,
         pop_list=[2 if b in (1, 5, 10, 11, 12, 13) else 1 for b in range(36)], epsilon=0.0,
         duplicate=False, equal_seats=True, pop_scale=1.0, seat_scale=1)
@example(case=(grid_adjacency(4, 5), frozenset({0, 1, 5, 6, 10, 11, 15, 16, 17, 18, 19})),
         fanout=2, seed=0, pop_list=[2 if b in (6, 18, 19) else 1 for b in range(36)],
         epsilon=0.5, duplicate=False, equal_seats=False, pop_scale=0.9, seat_scale=1)
def test_split_region_matches_the_reference_part_for_part(
        case, fanout, seed, pop_list, epsilon, duplicate, equal_seats, pop_scale, seat_scale):
    # The reference is split_region before its loops were rewritten for
    # speed.  Parts are compared as sorted id lists: the blocks each child
    # holds, not the order it lists them in.  State populations off the
    # region's own share leave every child over or under its target, so
    # repair runs to the end of its passes.
    adjacency, region = case
    fanout = min(fanout, len(region))
    order = sorted(region)
    pops = dict(enumerate(pop_list))
    neighbors, region_pops = region_graph(order, adjacency, pops)
    rng = random.Random(seed)
    centers, maps, _ = select_centers(neighbors, region_pops, fanout, rng)
    if duplicate:
        centers[-1], maps[-1] = centers[0], maps[0]
    child_seats = ([rng.randint(1, 3)] * fanout if equal_seats
                   else [rng.randint(1, 3) for _ in centers])
    total_seats = seat_scale * sum(child_seats)
    # A state has people (load_state rejects one without), even where the region has none.
    state_pop = pop_scale * seat_scale * (sum(pops[b] for b in region) or 1)
    # Both get the region's graph; the reference's block b is state id ids[b].
    ids = [3 * b + 100 for b in order]
    args = (neighbors, region_pops, centers, maps, child_seats, state_pop, total_seats,
            epsilon)
    parts = split_region(*args)
    expected = reference_split_region(range(len(order)), *args, ids)
    event(f"split found: {expected is not None}")
    if expected is None:
        assert parts is None
    else:
        assert parts is not None
        assert [sorted(ids[b] for b in p) for p in parts] == [sorted(p) for p in expected]


def test_a_center_with_no_people_is_taken_before_any_child_grows_past_its_center():
    # Child 0's center, block 1, holds no people, so child 0 is still the
    # least full child once it has taken it.  Its nearest frontier block is
    # block 0, child 1's center, which child 1 must take first: were child 0
    # to grow again before child 1 is seeded, child 1 would be left empty.
    neighbors = [(1,), (0, 2), (1, 3), (2,)]
    pops = [1, 0, 1, 1]
    centers = [1, 0]
    maps = [_bfs_distances(neighbors, c) for c in centers]
    # targets 1.5 and 1.5, each within 0.75
    args = (neighbors, pops, centers, maps, [1, 1], 3, 2, 0.5)
    assert reference_split_region(range(4), *args, range(4)) == [{1, 2, 3}, {0}]
    assert split_region(*args) == [[1, 2, 3], [0]]


def test_repair_moves_a_block_to_the_lower_child_on_a_tied_gain():
    # Block 1 joins child 2 in growth and leaves it overfull.  Children 0
    # and 1 are equally underfull, so moving block 1 to either lowers the
    # balance error by the same amount; child 0 gets it.
    neighbors = [(1,), (0, 2, 3), (1,), (1,)]
    pops = [1, 3, 1, 0.5]
    centers = [0, 2, 3]
    maps = [_bfs_distances(neighbors, c) for c in centers]
    # targets 2.5, 2.5 and 1.5: growth leaves errors -1.5, -1.5 and 2
    parts = split_region(neighbors, pops, centers, maps, [5, 5, 3], 6.5, 13, 0.7)
    assert parts == [[0, 1], [2], [3]]


def test_repair_never_moves_a_childs_only_block():
    # A 2 x 2 grid.  Growth gives child 0 blocks 1 and 3, child 1 block 2
    # and child 2 block 0: errors 2.5, -4 and 1.5 against targets 3.5, 7
    # and 3.5.  The scan reaches block 0 first, and moving it to child 1
    # would lower the total error, but it is child 2's only block, whose
    # move would leave child 2 empty and the split failed.  Block 3 moves to
    # child 1 instead, which balances every child.
    neighbors = [(1, 2), (0, 3), (0, 3), (1, 2)]
    pops = [5, 5, 3, 1]
    centers = [3, 2, 0]
    maps = [_bfs_distances(neighbors, c) for c in centers]
    args = (neighbors, pops, centers, maps, [1, 2, 1], 14, 4, 0.5)
    assert reference_split_region(range(4), *args, range(4)) == [{1}, {2, 3}, {0}]
    assert split_region(*args) == [[1], [2, 3], [0]]


@pytest.mark.parametrize("pops, balanced", [
    ([10_100, 9_900], True),   # each district exactly EPSILON * 10,000 off its target
    ([10_101, 9_899], False),  # one person past that edge
], ids=["at_edge", "past_edge"])
def test_builder_and_validator_share_the_balance_window(pops, balanced):
    # Two one-seat children of a two-block path, one block each: growth has
    # no choice and repair cannot move a child's only block.
    state = make_path_state(pops, [0.5, 0.5], seats=2)
    neighbors = [(1,), (0,)]
    maps = [_bfs_distances(neighbors, c) for c in (0, 1)]
    parts = split_region(neighbors, pops, [0, 1], maps, [1, 1], state.total_population, 2,
                         EPSILON)
    assert parts == ([[0], [1]] if balanced else None)
    plan = Plan((District(frozenset({0}), 1), District(frozenset({1}), 1)))
    assert validate_plan(state, plan).ok is balanced


def test_split_region_succeeds_on_an_easy_grid():
    # Four 1-seat children of a 12x12 uniform grid with 1% tolerance
    state = generate_synthetic_state(144, 4, 0.5, 0, seed=0)
    pops = {b.id: b.population for b in state.blocks}
    # the region is the whole state, so each position is the block's id
    graph = region_graph(sorted(state.block_ids), state.adjacency, pops)
    successes = 0
    for seed in range(10):
        centers, maps, _ = select_centers(*graph, 4, random.Random(seed))
        parts = split_region(*graph, centers, maps, [1, 1, 1, 1], state.total_population, 4,
                             EPSILON)
        if parts is not None:
            successes += 1
            assert all(is_connected(p, state.adjacency) for p in parts)
    assert successes > 0
