import random

import pytest

from mmdistrict.model import BalanceTolerance, generate_synthetic_state, validate_plan
from mmdistrict.tree import (
    SizeAllocation,
    TreeBuildError,
    assign_child_sizes,
    build_tree,
    count_plans,
    enumerate_plans,
    plan_from_leaves,
    sample_counts,
    sample_plans,
    select_centers,
    walk_nodes,
)
from conftest import make_path_state


def test_sample_counts_schedule():
    assert sample_counts(10) == (251, 5)
    assert sample_counts(1000) == (1, 1)
    assert sample_counts(2) == (1733, 12)
    assert sample_counts(1) == (3981, 17)
    with pytest.raises(ValueError):
        sample_counts(0)


def test_size_allocation():
    a = SizeAllocation.for_seats(7, 3)
    assert (a.small_size, a.large_count, a.small_count) == (2, 1, 2)
    b = SizeAllocation.for_seats(6, 4)
    assert (b.small_size, b.large_count, b.small_count) == (1, 2, 2)
    with pytest.raises(ValueError):
        SizeAllocation.for_seats(4, 5)
    with pytest.raises(ValueError):
        SizeAllocation.for_seats(4, 0)


def test_select_centers_exhaustion_and_determinism():
    state = make_path_state([10] * 6, [0.5] * 6, seats=2)
    pops = {b.id: b.population for b in state.blocks}
    region = frozenset(range(6))
    centers, maps = select_centers(region, state.adjacency, pops, 6, random.Random(0))
    assert sorted(centers) == list(range(6))
    a, maps_a = select_centers(region, state.adjacency, pops, 3, random.Random(5))
    b, maps_b = select_centers(region, state.adjacency, pops, 3, random.Random(5))
    assert a == b
    assert maps_a == maps_b
    with pytest.raises(ValueError):
        select_centers(region, state.adjacency, pops, 7, random.Random(0))


def test_select_centers_prefers_far_heavy_blocks():
    # Two heavy endpoints on a light path: both should almost always seed
    pops = [500] + [1] * 10 + [500]
    state = make_path_state(pops, [0.5] * 12, seats=2)
    pop_map = {b.id: b.population for b in state.blocks}
    region = frozenset(range(12))
    hits = 0
    for seed in range(400):
        centers, maps = select_centers(region, state.adjacency, pop_map, 2, random.Random(seed))
        if set(centers) == {0, 11}:
            hits += 1
    assert hits / 400 > 0.9


def test_assign_child_sizes_preserves_totals():
    rng = random.Random(0)
    for _ in range(200):
        f = rng.randint(2, 4)
        n_districts = rng.randint(f, 8)
        n_large = rng.randint(0, n_districts)
        n_small = n_districts - n_large
        cell_pops = [rng.uniform(1, 100) for _ in range(f)]
        sizes = assign_child_sizes(n_districts, n_small, n_large, cell_pops)
        assert sum(s for s, _ in sizes) == n_small
        assert sum(l for _, l in sizes) == n_large
        assert all(s + l >= 1 for s, l in sizes)


def test_assign_child_sizes_rejects_excess_children():
    with pytest.raises(ValueError):
        assign_child_sizes(2, 2, 0, [1.0, 1.0, 1.0])


def test_tree_node_invariants(grid_state):
    tree = build_tree(grid_state, 2, seed=1, root_samples=10, internal_samples=3)
    j = tree.allocation.small_size
    for node in walk_nodes(tree):
        assert node.n_small + node.n_large == node.n_districts
        assert node.n_small * j + node.n_large * (j + 1) == node.seats
        for sample in node.samples:
            regions = [c.region for c in sample]
            combined = set().union(*regions)
            assert combined == set(node.region)
            assert sum(len(r) for r in regions) == len(node.region)
            assert sum(c.seats for c in sample) == node.seats
            assert sum(c.n_small for c in sample) == node.n_small
            assert sum(c.n_large for c in sample) == node.n_large


def test_single_district_tree_is_one_leaf(grid_state):
    tree = build_tree(grid_state, 1, seed=0)
    assert tree.root.is_leaf
    assert tree.root.seats == grid_state.total_seats
    assert tree.root.region == grid_state.block_ids
    plans = sample_plans(tree, 3, seed=0)
    assert all(p == plans[0] for p in plans)


def test_smd_tree_leaves_have_one_seat(grid_state):
    tree = build_tree(grid_state, 4, seed=2, root_samples=10, internal_samples=3)
    for node in walk_nodes(tree):
        if node.is_leaf:
            assert node.seats == 1


def test_all_sampled_plans_validate(grid_state):
    for k in (2, 3, 4):
        tree = build_tree(grid_state, k, seed=k, root_samples=10, internal_samples=3)
        for plan in sample_plans(tree, 20, seed=k):
            report = validate_plan(grid_state, plan, tree.tol)
            assert report.ok, (k, report.violations)
            assert len(plan.districts) == k


def test_build_tree_deterministic(grid_state):
    def shape(tree):
        return [(n.region, n.seats, n.n_districts, len(n.samples))
                for n in walk_nodes(tree)]
    a = build_tree(grid_state, 3, seed=7, root_samples=8, internal_samples=3)
    b = build_tree(grid_state, 3, seed=7, root_samples=8, internal_samples=3)
    assert shape(a) == shape(b)


def test_build_tree_reports_diagnostics(grid_state):
    tree = build_tree(grid_state, 2, seed=1, root_samples=6, internal_samples=2)
    diag = tree.diagnostics
    assert diag["k"] == 2
    assert diag["leaf_count"] > 0
    assert diag["implicit_plan_count"] == count_plans(tree.root)
    assert 0 in diag["sample_attempts_per_depth"]


def test_build_tree_raises_when_infeasible():
    # Uniform blocks cannot form three balanced 2-seat districts out of ten
    state = generate_synthetic_state(10, 6, 0.5, 0, seed=0)
    with pytest.raises(TreeBuildError):
        build_tree(state, 3, seed=0, root_samples=3, internal_samples=2)


def test_enumerate_matches_count(grid_state):
    tree = build_tree(grid_state, 2, seed=3, root_samples=6, internal_samples=2)
    plans = enumerate_plans(tree)
    assert len(plans) == count_plans(tree.root)
    for leaves in plans[:10]:
        assert validate_plan(grid_state, plan_from_leaves(leaves), tree.tol).ok


def test_enumerate_respects_limit(grid_state):
    tree = build_tree(grid_state, 2, seed=3, root_samples=6, internal_samples=2)
    if count_plans(tree.root) > 1:
        with pytest.raises(ValueError):
            enumerate_plans(tree, limit=1)


def test_sample_plans_empty_request(grid_state):
    tree = build_tree(grid_state, 2, seed=3, root_samples=4, internal_samples=2)
    assert sample_plans(tree, 0, seed=0) == []


def test_nonempty_on_benign_grids():
    state = generate_synthetic_state(144, 6, 0.45, 1, seed=4)
    for k in range(1, 7):
        tree = build_tree(state, k, seed=k, root_samples=4, internal_samples=2)
        assert count_plans(tree.root) >= 1


def test_node_count_excludes_nodes_of_rejected_samples():
    # Here some samples are rejected after their children were created (a
    # child none of whose own samples worked out), so the node ids run past
    # the nodes the tree keeps.
    state = generate_synthetic_state(36, 6, 0.4, 0, seed=1)
    tree = build_tree(state, 6, seed=1, root_samples=6, internal_samples=2)
    kept = list(walk_nodes(tree))
    assert max(n.node_id for n in kept) > len(kept)
    assert tree.diagnostics["node_count"] == len(kept)
    assert tree.diagnostics["leaf_count"] == sum(1 for n in kept if n.is_leaf)
