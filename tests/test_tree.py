import contextlib
import dataclasses
import itertools
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import mmdistrict.tree as tree_mod
from mmdistrict.model import StateInstance, generate_synthetic_state, validate_plan
from mmdistrict.tree import (
    SizeAllocation,
    TreeBuildError,
    assign_child_sizes,
    build_tree,
    count_plans,
    plan_from_leaves,
    region_graph,
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
    # the region is the whole state, so each position is the block's id
    graph = region_graph(range(6), state.adjacency, pops)
    centers, maps, _ = select_centers(*graph, 6, random.Random(0))
    assert sorted(centers) == list(range(6))
    a, maps_a, _ = select_centers(*graph, 3, random.Random(5))
    b, maps_b, _ = select_centers(*graph, 3, random.Random(5))
    assert a == b
    assert maps_a == maps_b
    for n_children in (0, 7):
        with pytest.raises(ValueError):
            select_centers(*graph, n_children, random.Random(0))


def test_select_centers_prefers_far_heavy_blocks():
    # Two heavy endpoints on a light path: both should almost always seed
    pops = [500] + [1] * 10 + [500]
    state = make_path_state(pops, [0.5] * 12, seats=2)
    graph = region_graph(range(12), state.adjacency, pops)
    hits = 0
    for seed in range(400):
        centers, maps, _ = select_centers(*graph, 2, random.Random(seed))
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
        sizes = assign_child_sizes(n_small, n_large, cell_pops)
        assert sum(s for s, _ in sizes) == n_small
        assert sum(l for _, l in sizes) == n_large
        assert all(s + l >= 1 for s, l in sizes)


def test_assign_child_sizes_rejects_excess_children():
    with pytest.raises(ValueError):
        assign_child_sizes(2, 0, [1.0, 1.0, 1.0])


def test_tree_node_invariants(grid_state):
    tree = build_tree(grid_state, 2, seed=1, root_samples=10, internal_samples=3)
    j = SizeAllocation.for_seats(grid_state.total_seats, 2).small_size
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
    assert tree.root.region == tuple(sorted(grid_state.block_ids))
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
            report = validate_plan(grid_state, plan)
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


def test_an_infeasible_build_says_what_it_tried():
    # The state of ``synth --blocks 64 --seats 6 --r-share 0.4 --corr 2 --seed 3``,
    # whose k = 4 build under ``diversity --seed 0`` (build seed 4) finds no map.
    state = generate_synthetic_state(64, 6, 0.4, 2, seed=3)
    with pytest.raises(TreeBuildError) as failed:
        build_tree(state, 4, seed=4, root_samples=30, internal_samples=4)
    assert str(failed.value) == (
        "no feasible 4-district map found for seed 4: all 30 root samples rejected "
        "(failed/tried per depth: 0: 30/30, 1: 12/12)")


def test_enumerate_matches_count(grid_state):
    tree = build_tree(grid_state, 2, seed=3, root_samples=6, internal_samples=2)
    plans = enumerate_plans(tree)
    assert len(plans) == count_plans(tree.root)
    for leaves in plans[:10]:
        assert validate_plan(grid_state, plan_from_leaves(leaves)).ok


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
    # The last build has fewer root samples than three processes, so one of
    # them never gets a task of it.
    state = generate_synthetic_state(36, 6, 0.4, 0, seed=1)
    dumps = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: workers)
        dumps[workers] = [_tree_dump(build_tree(state, k, seed=seed, root_samples=n_root,
                                                internal_samples=2))
                          for k, seed, n_root in ((2, 2, 6), (4, 2, 6), (6, 13, 6), (4, 5, 2))]
    assert dumps[1] == dumps[2] == dumps[3]
    assert any(diag["sample_failures_per_depth"] for _, diag in dumps[2])


def _relabelled(state, label):
    """``state`` with every block id ``b`` replaced by ``label(b)``."""
    return StateInstance([dataclasses.replace(b, id=label(b.id)) for b in state.blocks],
                         {label(b): {label(v) for v in nbrs}
                          for b, nbrs in state.adjacency.items()},
                         state.total_seats)


def _dump_by_id(tree, original_id):
    """``_tree_dump`` with each region mapped through ``original_id``, in region order."""
    nodes = [(n.node_id, tuple(map(original_id, n.region)), n.seats, n.n_small, n.n_large,
              [[c.node_id for c in sample] for sample in n.samples])
             for n in walk_nodes(tree)]
    return nodes, tree.diagnostics


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_trees_do_not_depend_on_block_ids_or_their_listing_order(monkeypatch, workers):
    # Ids that are not 0..n-1 must keep their sorted order through the
    # builder's dense indices, and the order the blocks are listed in must
    # not matter at all.  The relabelling keeps id order, so every region,
    # an ascending tuple, maps back to the plain state's exactly.
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
def test_regions_are_ascending_tuples_of_the_states_own_ids(monkeypatch, workers):
    # Ids of 1,000 and more are int objects of their own, and one a worker
    # sent back would be a new object once unpickled: every region must hold
    # the state's block_map keys themselves, which the whole tree then shares.
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: workers)
    state = _relabelled(generate_synthetic_state(36, 6, 0.4, 0, seed=1), lambda b: 1000 + 7 * b)
    own = {b: b for b in state.block_map}
    tree = build_tree(state, 4, seed=2, root_samples=6, internal_samples=2)
    nodes = list(walk_nodes(tree))
    assert len(nodes) > 1
    for node in nodes:
        assert type(node.region) is tuple
        assert all(a < b for a, b in zip(node.region, node.region[1:]))
        assert all(b is own[b] for b in node.region)
    leaves = tree_mod.descend(tree.root, lambda n: n.samples[0])
    assert [d.block_ids for d in plan_from_leaves(leaves).districts] == [
        leaf.region for leaf in leaves]
    for plan in sample_plans(tree, 3, seed=0):
        assert all(all(a < b for a, b in zip(d.block_ids, d.block_ids[1:])) for d in plan.districts)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork),
                                     pytest.param(3, marks=needs_fork)])
def test_build_trees_match_single_builds(monkeypatch, workers):
    # On this path no two-district split balances, but three districts do.
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: workers)
    state = make_path_state([1, 1, 2, 2], [0.6, 0.4, 0.5, 0.3], seats=6)
    seed, counts = 1, {"root_samples": 6, "internal_samples": 2}
    got = list(tree_mod.build_trees(state, (1, 2, 3), seed, **counts))
    assert [k for k, _ in got] == [1, 2, 3]
    failed = got[1][1]
    assert isinstance(failed, TreeBuildError)
    with pytest.raises(TreeBuildError, match=f"^{re.escape(str(failed))}$"):
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
    assert (len(processes), threads) == (1, [])  # the caller is the second process
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors via /proc")
@pytest.mark.parametrize("fails", [False, True], ids=["built", "worker_error"])
def test_a_pooled_build_closes_its_pipes(grid_state, monkeypatch, fails):
    # A leaked multiprocessing pipe raises no ResourceWarning, so count
    # descriptors.  A failed build's traceback still holds the pool.
    def fail(*args, **kwargs):
        raise RuntimeError("split failed in a worker")

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    if fails:
        monkeypatch.setattr(tree_mod, "split_region", fail)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
        build_tree(grid_state, 4, seed=1, root_samples=4, internal_samples=2)
    assert len(os.listdir("/proc/self/fd")) == before


@needs_fork
def test_a_dead_worker_raises_instead_of_hanging(grid_state, monkeypatch):
    parent = os.getpid()
    split_region = tree_mod.split_region

    def exit_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.01)  # the caller runs samples too; this lets the worker claim one
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


@needs_fork
@pytest.mark.parametrize("processes", [2, 3])
def test_a_pool_runs_every_task_once_and_the_caller_runs_some(grid_state, monkeypatch, tmp_path,
                                                              processes):
    # Every run of a root sample, in a worker or in the caller, appends its
    # process and task to one file.  The parent's only permit-pipe writes are
    # permits and its only result-pipe reads are results, so record both
    # there: it sends IN_FLIGHT permits per forked worker, then one per result.
    parent, events, runs = os.getpid(), [], tmp_path / "runs"
    root_sample = tree_mod._root_sample
    send_bytes, recv = multiprocessing.connection.Connection.send_bytes, \
        multiprocessing.connection.Connection.recv

    def recorded_root_sample(blocks, build, i):
        with open(runs, "a") as f:
            f.write(f"{os.getpid()} {build.seed} {i}\n")
        return root_sample(blocks, build, i)

    def recorded_send_bytes(self, buf, *args):
        if os.getpid() == parent:
            events.append(1)
        send_bytes(self, buf, *args)

    def recorded_recv(self):
        obj = recv(self)
        if os.getpid() == parent:
            events.append(-1)
        return obj

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: processes)
    monkeypatch.setattr(tree_mod, "_root_sample", recorded_root_sample)
    monkeypatch.setattr(multiprocessing.connection.Connection, "send_bytes", recorded_send_bytes)
    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", recorded_recv)
    ks, n_root = (1, 2, 3, 4), 5
    built = list(tree_mod.build_trees(grid_state, ks, 1, root_samples=n_root, internal_samples=2))
    assert [k for k, _ in built] == list(ks)
    ran = [line.split() for line in runs.read_text().splitlines()]
    assert sorted((int(seed), int(i)) for _, seed, i in ran) == [
        (1 * 100003 + k, i) for k in ks[1:] for i in range(n_root)]  # k = 1 has none
    assert str(parent) in {pid for pid, _, _ in ran}
    window = tree_mod.IN_FLIGHT * (processes - 1)
    assert events.count(1) == window + events.count(-1)
    assert max(itertools.accumulate(events)) <= window
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors via /proc")
@pytest.mark.parametrize("processes", [2, 3])
def test_an_error_in_a_sample_the_caller_runs_is_raised_as_is(grid_state, monkeypatch, processes):
    parent, split_region = os.getpid(), tree_mod.split_region

    def fail_in_the_caller(*args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("split failed in the caller")
        return split_region(*args, **kwargs)

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: processes)
    monkeypatch.setattr(tree_mod, "split_region", fail_in_the_caller)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match="split failed in the caller") as raised:
        build_tree(grid_state, 4, seed=1, root_samples=12, internal_samples=2)
    assert raised.value.__cause__ is None  # no "in a root-sample worker" chain
    assert multiprocessing.active_children() == []
    assert len(os.listdir("/proc/self/fd")) == before


#: Runs a three-process build, the caller and two forked workers, whose
#: workers sleep in every split, printing each worker's pid as it starts.
SLOW_POOLED_BUILD = """
import multiprocessing.process, os, time
import mmdistrict.tree as tree_mod
from mmdistrict.model import generate_synthetic_state

parent, split_region = os.getpid(), tree_mod.split_region
start = multiprocessing.process.BaseProcess.start

def slow_split(*args, **kwargs):
    if os.getpid() != parent:
        time.sleep(0.01)
    return split_region(*args, **kwargs)

def announced_start(self):
    start(self)
    print(self.pid, flush=True)

tree_mod._pool_size = lambda work, n_samples: 3
tree_mod.split_region = slow_split
multiprocessing.process.BaseProcess.start = announced_start
tree_mod.build_tree(generate_synthetic_state(16, 4, 0.4, 1, seed=3), 4, seed=1,
                    root_samples=100_000, internal_samples=2)
"""


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states via /proc")
def test_workers_do_not_outlive_a_killed_parent(tmp_path):
    # A SIGKILLed parent runs no cleanup: its workers end only because the
    # task pipe reaches EOF, since each worker closed its copy of the parent's
    # ends.  A worker whose result finds no reader exits quietly, too.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    pids, stderr = tmp_path / "pids", tmp_path / "stderr"
    with open(pids, "w") as out, open(stderr, "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", SLOW_POOLED_BUILD], env=env,
                                stdout=out, stderr=err)
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(line) for line in pids.read_text().split()]
        assert len(workers) == 2, "the build did not start two workers"
        time.sleep(0.5)  # the workers are mid-build
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while not all(map(_gone_or_zombie, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone_or_zombie, workers))
        assert "Traceback" not in stderr.read_text()
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if not _gone_or_zombie(pid):
                os.kill(pid, signal.SIGKILL)
