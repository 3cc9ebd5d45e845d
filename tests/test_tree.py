import dataclasses
import multiprocessing
import multiprocessing.process
import os
import random
import signal
import threading

import pytest

import mmdistrict.tree as tree_mod
from mmdistrict.model import (BalanceTolerance, StateInstance, generate_synthetic_state,
                              validate_plan)
from mmdistrict.tree import (
    SizeAllocation,
    TreeBuildError,
    assign_child_sizes,
    build_tree,
    count_plans,
    plan_from_leaves,
    sample_counts,
    sample_plans,
    select_centers,
    walk_nodes,
)
from conftest import enumerate_plans, make_path_state, needs_fork


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


def test_sample_plans_rejects_a_negative_count(grid_state):
    tree = build_tree(grid_state, 2, seed=3, root_samples=4, internal_samples=2)
    with pytest.raises(ValueError, match="plan count must be >= 0, got -1"):
        sample_plans(tree, -1, seed=0)


def test_nonempty_on_benign_grids():
    state = generate_synthetic_state(144, 6, 0.45, 1, seed=4)
    for k in range(1, 7):
        tree = build_tree(state, k, seed=k, root_samples=4, internal_samples=2)
        assert count_plans(tree.root) >= 1


def test_node_count_excludes_nodes_of_rejected_samples():
    # The test needs a build where some sample is rejected after its children
    # were created (a child none of whose own samples worked out), so that
    # the node ids run past the nodes the tree keeps.  Which seeds do that
    # depends on the samples' RNG streams, so it takes the first of a range.
    state = generate_synthetic_state(36, 6, 0.4, 0, seed=1)
    for seed in range(20):
        tree = build_tree(state, 6, seed=seed, root_samples=6, internal_samples=2)
        kept = list(walk_nodes(tree))
        if max(n.node_id for n in kept) > len(kept):
            break
    assert max(n.node_id for n in kept) > len(kept)
    assert tree.diagnostics["node_count"] == len(kept)
    assert tree.diagnostics["leaf_count"] == sum(1 for n in kept if n.is_leaf)


def _tree_dump(tree):
    nodes = [(n.node_id, tuple(n.region), n.seats, n.n_small, n.n_large,
              [[c.node_id for c in sample] for sample in n.samples])
             for n in walk_nodes(tree)]
    return nodes, tree.diagnostics


@needs_fork
def test_trees_do_not_depend_on_the_pool_size(monkeypatch):
    # At k = 6, seed 13 rejects internal samples after creating their
    # children, so the node id offsets and the failure counts are compared too.
    state = generate_synthetic_state(36, 6, 0.4, 0, seed=1)
    dumps = {}
    for workers in (1, 2):
        monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: workers)
        dumps[workers] = [_tree_dump(build_tree(state, k, seed=seed, root_samples=6,
                                                internal_samples=2))
                          for k, seed in ((2, 2), (4, 2), (6, 13))]
    assert dumps[1] == dumps[2]
    assert any(diag["sample_failures_per_depth"] for _, diag in dumps[2])


def _relabelled(state, label):
    """``state`` with every block id ``b`` replaced by ``label(b)``."""
    return StateInstance([dataclasses.replace(b, id=label(b.id)) for b in state.blocks],
                         {label(b): {label(v) for v in nbrs}
                          for b, nbrs in state.adjacency.items()},
                         state.total_seats)


def _dump_by_id(tree, original_id):
    """``_tree_dump`` with each region mapped through ``original_id``, as a set."""
    nodes = [(n.node_id, frozenset(map(original_id, n.region)), n.seats, n.n_small, n.n_large,
              [[c.node_id for c in sample] for sample in n.samples])
             for n in walk_nodes(tree)]
    return nodes, tree.diagnostics


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_trees_do_not_depend_on_block_ids_or_their_listing_order(monkeypatch, workers):
    # Ids that are not 0..n-1 must keep their sorted order through the
    # builder's dense indices, and the order the blocks are listed in must
    # not matter at all.
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: workers)
    state = generate_synthetic_state(36, 6, 0.4, 0, seed=1)
    relabelled = _relabelled(state, lambda b: 1000 + 7 * b)
    blocks = list(state.blocks)
    random.Random(0).shuffle(blocks)
    shuffled = StateInstance(blocks, state.adjacency, state.total_seats)
    for k, seed in ((2, 2), (4, 2), (6, 13)):
        def dump(s, original_id=lambda b: b):
            return _dump_by_id(build_tree(s, k, seed=seed, root_samples=6, internal_samples=2),
                               original_id)
        want = dump(state)
        assert dump(relabelled, lambda b: (b - 1000) // 7) == want
        assert dump(shuffled) == want


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_build_trees_match_single_builds(monkeypatch, workers):
    # On this path no two-district split balances, but three districts do.
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: workers)
    state = make_path_state([1, 1, 2, 2], [0.6, 0.4, 0.5, 0.3], seats=6)
    seed, counts = 1, {"root_samples": 6, "internal_samples": 2}
    got = list(tree_mod.build_trees(state, (1, 2, 3), seed, **counts))
    assert [k for k, _ in got] == [1, 2, 3]
    failed = got[1][1]
    assert isinstance(failed, TreeBuildError)
    with pytest.raises(TreeBuildError, match=f"^{failed}$"):
        build_tree(state, 2, seed=seed * 100003 + 2, **counts)
    for k, tree in (got[0], got[2]):
        assert _tree_dump(tree) == _tree_dump(build_tree(state, k, seed=seed * 100003 + k,
                                                         **counts))
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_pooled_build_starts_no_thread_in_the_parent(grid_state, monkeypatch):
    threads, processes = [], []
    thread_start = threading.Thread.start
    process_start = multiprocessing.process.BaseProcess.start

    def record_thread(self):
        threads.append(self.name)
        thread_start(self)

    def record_process(self):
        processes.append(self)
        process_start(self)

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    monkeypatch.setattr(threading.Thread, "start", record_thread)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record_process)
    build_tree(grid_state, 4, seed=1, root_samples=4, internal_samples=2)
    assert (len(processes), threads) == (2, [])
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_dead_worker_raises_instead_of_hanging(grid_state, monkeypatch):
    parent = os.getpid()
    split_region = tree_mod.split_region

    def exit_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return split_region(*args, **kwargs)

    def hung(signum, frame):
        raise AssertionError("the build still waits on a dead worker")

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    monkeypatch.setattr(tree_mod, "split_region", exit_in_a_worker)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            build_tree(grid_state, 4, seed=1, root_samples=4, internal_samples=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_first_root_samples_do_not_depend_on_later_ones(grid_state):
    three = build_tree(grid_state, 4, seed=5, root_samples=3, internal_samples=2)
    five = build_tree(grid_state, 4, seed=5, root_samples=5, internal_samples=2)
    assert len(three.root.samples) == 3
    assert three.root.samples == five.root.samples[:3]


@needs_fork
def test_worker_exception_reaches_the_caller(grid_state, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("split failed in a worker")

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    monkeypatch.setattr(tree_mod, "split_region", fail)
    with pytest.raises(RuntimeError, match="split failed in a worker"):
        build_tree(grid_state, 4, seed=1, root_samples=4, internal_samples=2)
    assert multiprocessing.active_children() == []
