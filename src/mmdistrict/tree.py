"""Stochastic hierarchical partitioning into a sample tree of district maps.

Each node holds a region, a seat total, and a district count split into
small (j-seat) and large (j+1-seat) districts.  A node carries several
sampled subdivisions of its region; leaves are single districts that are
contiguous and population balanced against the statewide per-seat target.
The tree therefore encodes a product-sum number of distinct plans.

Block ``i`` is the state's ``i``-th block, which ``StateInstance`` lists in
ascending id order.  A region is an ascending tuple of block indices in the
builder, and an ascending tuple of the state's own id objects in the tree.
Each node works on its region's graph (``region_graph``), taken from its
parent's: position ``i`` is block ``region[i]``, its neighbours are a tuple
of positions, and populations, distances and owners are lists as long as the
region, so below the root no node's work grows with the state.  Positions
keep id order, so every sorted scan and tie-break orders as it would on ids,
and so does a growth heap's int key ``distance * m + position`` (m blocks),
as ``(distance, position)``.  A leaf's region becomes its district's ids as is.

A subdivision attempt runs one breadth-first search per center, inside the
node's region: ``select_centers`` runs it as it picks the center and puts each
block in its nearest center's Voronoi cell, and ``split_region``'s growth
heaps reuse those distance lists.  Every child region stays contiguous from
growth through repair, so repair checks that a move keeps its donor whole
around the moved block, rather than searching the whole donor district.

Root sample ``i`` of a build draws everything, its internal samples
included, from its own stream ``random.Random(f"{seed}:{i}")``, so no sample
reads another's RNG state.  ``build_trees`` plans a command's builds on one
state, one per district count, up front in one root-sample pool, whose
caller claims ``(build, sample index)`` tasks in plan order and runs one
whenever the result it needs has not come.  From ``POOL_MIN_WORK`` summed
estimated work on, workers forked once with the state and the builds, one
process per usable CPU with the caller, claim tasks too, held back only by
the result pipe, so they build the next k while the caller scores the last
tree or runs its elections; a worker with no task left exits, and one that
dies raises.  ``build_tree`` merges the results in sample order, and alone
opens a pool for its build.  The tree, its node ids and its diagnostics do
not depend on the number of cores.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import heapq
import itertools
import mmap
import operator
import os
import random
import signal
import traceback
from dataclasses import dataclass, field

# is_connected is not called here; it stays bound in this module because
# perfbench/tracer.py times the calls made through this name.
from .model import EPSILON, District, Plan, SizeAllocation, balance_slack, is_connected  # noqa: F401


class TreeBuildError(RuntimeError):
    """Raised when no feasible map can be sampled."""


@dataclass
class TreeNode:
    """A region, its seats, its j- and (j+1)-seat district counts and its subdivisions."""
    node_id: int
    region: tuple
    seats: int
    n_small: int
    n_large: int
    samples: list = field(default_factory=list)

    @property
    def n_districts(self):
        return self.n_small + self.n_large

    @property
    def is_leaf(self):
        return self.n_districts == 1


@dataclass
class SampleTree:
    """A built tree; its root's seats and district counts are the allocation."""
    root: TreeNode
    diagnostics: dict


def sample_counts(k: int):
    """(root, internal) sampling counts: (1000/k)^1.2 and (300/k)^0.5, floored at 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (max(1, round((1000 / k) ** 1.2)), max(1, round((300 / k) ** 0.5)))


def region_graph(part, neighbors, pops):
    """The graph of ``part``, distinct blocks of the graph ``neighbors``, ``pops``.

    Returns ``(neighbors, pops)`` for the part alone, lists as long as it:
    position ``i`` is ``part[i]``, its neighbours are the positions of its
    neighbours inside ``part``, in the order ``neighbors`` lists them, and its
    population is ``pops[part[i]]``.  So a grandchild's graph taken from its
    parent's graph is the one taken from the state's.  ``select_centers``,
    ``split_region`` and the searches under them walk these lists, so they
    never test region membership themselves.
    """
    position = [-1] * len(neighbors)
    for i, b in enumerate(part):
        position[b] = i
    return ([tuple([p for v in neighbors[b] if (p := position[v]) >= 0]) for b in part],
            [pops[b] for b in part])


def _bfs_distances(neighbors, source):
    """Hop distance from ``source`` to every block of the graph ``neighbors``.

    A block the search does not reach holds the graph's size, above any hop
    distance inside it.
    """
    unreached = len(neighbors)
    dist = [unreached] * unreached
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if dist[v] == unreached:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    return dist


def _weighted_choice(totals, rng):
    """The first position whose running weight total reaches a uniform draw below the
    last total; a draw of 0.0, or totals that are all 0, take position 0."""
    return bisect.bisect_left(totals, rng.random() * totals[-1])


def select_centers(neighbors, pops, n_children: int, rng):
    """Spread centers: first population-weighted, then pop * hop-distance^2.

    ``neighbors`` and ``pops`` are the region's graph (see ``region_graph``),
    which is connected.  Each center is drawn over all m positions: the first
    weighted by population, each later one by ``pops[b] * d * d``, ``d`` being
    ``nearest[b]``, the element-wise minimum of the breadth-first distances
    from the centers so far, so a center weighs 0; if every weight is 0, each
    non-center weighs 1.  Returns ``(centers, dist_maps, cell)``: ``dist_maps[i]``
    is ``_bfs_distances`` from ``centers[i]``, for ``split_region`` to reuse;
    ``cell[b]`` is the index of ``b``'s nearest center, the earliest on a tie
    and 0 if none reaches it, for ``_voronoi_cell_pops``.
    """
    m = len(neighbors)
    if not 1 <= n_children <= m:
        raise ValueError(f"region of {m} blocks cannot host {n_children} centers")
    if n_children == m:
        return list(range(m)), [_bfs_distances(neighbors, b) for b in range(m)], list(range(m))
    centers, dist_maps, cell = [], [], [0] * m
    totals = list(itertools.accumulate(pops))
    while True:
        c = len(centers)
        centers.append(_weighted_choice(totals, rng))
        dist_maps.append(dist := _bfs_distances(neighbors, centers[c]))
        if c == 0:
            nearest = dist[:]  # a copy, which the later centers lower in place
        else:  # only a strictly nearer center takes a block; the scan reads b before b is written
            for b in itertools.compress(range(m), map(operator.lt, dist, nearest)):
                nearest[b] = dist[b]
                cell[b] = c
        if c + 1 == n_children:
            return centers, dist_maps, cell
        totals = list(itertools.accumulate([p * (d * d) for p, d in zip(pops, nearest)]))
        if not totals[-1]:
            totals = list(itertools.accumulate([1 if d else 0 for d in nearest]))


def assign_child_sizes(n_small, n_large, cell_pops):
    """Per-child (n_small, n_large) proportional to Voronoi cell population.

    District counts use largest-remainder rounding with at least one district
    per child; the parent's large districts are spread across children in
    proportion to their district counts.
    """
    f, n_districts = len(cell_pops), n_small + n_large
    if f > n_districts:
        raise ValueError(f"{f} children need at least {f} districts, have {n_districts}")
    total_pop = sum(cell_pops) or 1.0
    ideal = [n_districts * p / total_pop for p in cell_pops]
    counts = [1] * f
    for _ in range(n_districts - f):
        i = max(range(f), key=lambda i: (ideal[i] - counts[i], -i))
        counts[i] += 1
    ideal_large = [n_large * counts[i] / n_districts for i in range(f)]
    larges = [0] * f
    for _ in range(n_large):
        eligible = [i for i in range(f) if larges[i] < counts[i]]
        i = max(eligible, key=lambda i: (ideal_large[i] - larges[i], -i))
        larges[i] += 1
    return [(counts[i] - larges[i], larges[i]) for i in range(f)]


def _stays_connected(owner, b, neighbors):
    """Whether ``b``'s child stays connected without ``b``, given that it is connected.

    The child is every block ``v`` with ``owner[v] == owner[b]``.  A block
    with one neighbour in its child can always leave.  One with none is the
    child's only block, as the child is connected, and must stay, or the
    child would be empty.  Otherwise every remaining block still reaches one
    of those neighbours, so a search from the first of them, avoiding ``b``,
    decides: it stops as soon as it has reached the others, and only at a
    cut block does it search the whole of its side.
    """
    a = owner[b]
    ends = [v for v in neighbors[b] if owner[v] == a]
    if len(ends) <= 1:
        return bool(ends)
    missing = set(ends[1:])
    seen = {b, ends[0]}
    frontier = [ends[0]]
    while frontier:
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if owner[v] == a and v not in seen:
                    if v in missing:
                        missing.discard(v)
                        if not missing:
                            return True
                    seen.add(v)
                    reached.append(v)
        frontier = reached
    return False


def split_region(neighbors, pops, centers, dist_maps, child_seats,
                 state_pop, total_seats, epsilon):
    """Grow child regions from centers, then move blocks between them toward balance.

    Each child targets state_pop * seats / total_seats people.  Growth is
    capacity-weighted nearest-frontier accretion, ordered by the hop
    distances ``dist_maps`` that ``select_centers`` returned with the
    centers, over the region's graph ``neighbors``, ``pops`` (see
    ``region_graph``), first taking every center, in index order, even one
    that holds no people.  A frontier heap key is the int ``dist[v] * n + v``:
    ``n``, the region's size, exceeds every position, so the keys order as
    ``(dist[v], v)`` would, and ``key % n`` is the position; positions keep
    block order, so the keys order as ``(dist, block)`` too.  Each repair
    pass scans the positions in order, moving a block to the adjacent child
    that lowers total balance error most, the lowest on a tie, if its donor stays contiguous.
    Growth only adds blocks next to a child and repair keeps every donor
    contiguous, so ``_stays_connected`` can decide that from the moved
    block's surroundings.  Returns each child's list of positions, in
    ascending order, or None if a center repeats or any child misses its
    tolerance.
    """
    f, n = len(centers), len(neighbors)
    if len(set(centers)) < f:
        return None  # duplicate centers cannot seed distinct children
    targets = [state_pop * s / total_seats for s in child_seats]
    slack = [balance_slack(t, epsilon) for t in targets]

    owner = [-1] * n
    child_pop = [0.0] * f
    heaps = [[center] for center in centers]  # a center's key: distance 0, so its position
    pushed = [bytearray(n) for _ in range(f)]  # blocks ever on each child's frontier
    push, pop = heapq.heappush, heapq.heappop

    # The least full child grows next, equally full children by index; each
    # starts below any fill, so each takes its center first.  A child gains frontier
    # blocks only when it grows, so one whose frontier has run out leaves the
    # queue for good.
    growing = [(-1.0, c) for c in range(f)]
    n_assigned = 0
    while n_assigned < n:
        if not growing:
            return None
        c = growing[0][1]
        heap = heaps[c]
        while heap:
            b = pop(heap) % n
            if owner[b] < 0:
                break
        else:
            pop(growing)
            continue
        owner[b] = c
        child_pop[c] += pops[b]
        dist, seen = dist_maps[c], pushed[c]
        for v in neighbors[b]:
            if owner[v] < 0 and not seen[v]:
                seen[v] = 1
                push(heap, dist[v] * n + v)
        n_assigned += 1
        heapq.heapreplace(growing, (child_pop[c] / targets[c], c))

    err = [child_pop[i] - targets[i] for i in range(f)]

    def balanced():
        return all(abs(err[i]) <= slack[i] for i in range(f))

    # Most splits need repair (5,813 of 8,449 in a 144-block sweep of k = 1..6),
    # and most visits move nothing (434,014 of 454,416): a block with no
    # neighbour in another child has no child to move to.
    max_swaps = 10 * n
    swaps = 0
    while not balanced() and swaps < max_swaps:
        improved = False
        for b in range(n):
            a = owner[b]
            p = pops[b]
            moved_a, kept_a = abs(err[a] - p), abs(err[a])
            best_delta, best_t = -1e-12, None
            for v in neighbors[b]:
                t = owner[v]
                if t == a:
                    continue
                delta = (moved_a + abs(err[t] + p)) - (kept_a + abs(err[t]))
                if delta < best_delta or delta == best_delta and best_t is not None and t < best_t:
                    best_delta, best_t = delta, t
            if best_t is None or not _stays_connected(owner, b, neighbors):
                continue
            owner[b] = best_t
            err[a] -= p
            err[best_t] += p
            swaps += 1
            improved = True
            if swaps >= max_swaps:
                break
        if not improved:
            break

    if not balanced():
        return None
    children = [[] for _ in range(f)]
    for b, c in enumerate(owner):
        children[c].append(b)
    return children


#: Center-resampling attempts per node sample before giving up on it.
SPLIT_RETRIES = 20
#: Largest number of children a node subdivision may have.
MAX_FANOUT = 4
#: Smallest estimated work, in block visits summed over one command's builds,
#: for which a ``_RootSamplePool`` forks workers; see ``_pool_size``.  Timed
#: on a 2-core VM, one build per pool of the caller and one worker against
#: the same build serially (pooled / serial median of 21 or 31 alternating
#: builds each, seven runs; median and range over the runs): the pool wins
#: in every run from 10,800 on.  144 blocks, k = 2: 2,880 took 1.44x
#: (1.01-1.58), 4,320 1.16x (0.98-1.30), 5,760 1.09x (0.78-1.16), 6,480
#: 0.96x (0.85-1.11), 7,200 0.91x (0.86-1.09), 10,800 0.85x (0.71-0.95),
#: 14,400 0.81x (0.62-0.86); 64 blocks, k = 2: 1,920 1.64x (1.36-1.83);
#: 64 blocks, k = 4, 4 internal samples: 5,760 1.26x (1.03-1.48), 17,280
#: 0.81x (0.74-0.93).  A command pays the start-up once, so the threshold
#: applies to its sum.
POOL_MIN_WORK = 10_800


def _state_graph(state):
    """``(neighbors, pops)`` of the state's blocks on dense indices, which every root
    sample reads: block ``i`` is ``state.blocks[i]``, its neighbours in
    ``state.adjacency`` order."""
    index = {b: i for i, b in enumerate(state.block_map)}
    return (tuple(tuple(index[v] for v in state.adjacency[b]) for b in state.block_map),
            tuple(b.population for b in state.blocks))


@dataclass(frozen=True)
class _Build:
    """One build's parameters, which each of its root samples reads."""
    allocation: SizeAllocation
    n_root: int
    n_internal: int
    seed: int

    @classmethod
    def of(cls, n_seats, k, seed, root_samples, internal_samples):
        """A k-district build; a sample count of None follows ``sample_counts``."""
        alloc = SizeAllocation.for_seats(n_seats, k)
        default_root, default_internal = sample_counts(k)
        counts = (default_root if root_samples is None else root_samples,
                  default_internal if internal_samples is None else internal_samples)
        for name, count in zip(("root_samples", "internal_samples"), counts):
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        return cls(alloc, *counts, seed)


def _root_sample(state, graph, build: _Build, i: int):
    """Root sample ``i`` of ``build`` on ``state``, whose ``_state_graph`` is
    ``graph``, and its whole subtree, from its own stream.

    Every draw, the internal samples' included, comes from
    ``random.Random(f"{seed}:{i}")``.  Returns ``(children, created,
    attempts, failures)``: the children as ``(node_id, block indices, seats,
    n_small, n_large, samples)`` with nested tuples, or None when the sample
    is rejected; how many nodes the sample created, rejected ones included,
    numbered 1..created in creation order; and its attempts and failures per
    depth.  It must not call numpy: pool workers are forked from a process
    whose BLAS threads may hold locks.

    The root region is every block, and ``split_region`` lists each child's
    positions in ascending order, so every region is ascending.  ``_decode``
    maps a region's indices to state ids.
    """
    rng = random.Random(f"{build.seed}:{i}")
    j = build.allocation.small_size
    node_ids = itertools.count(1)
    attempts, failures = {}, {}

    def subdivide(region, neighbors, pops, n_small, n_large, depth):
        fanout = rng.randint(2, min(MAX_FANOUT, n_small + n_large))
        if fanout > len(region):
            return None
        parts = sizes = None
        for _ in range(SPLIT_RETRIES):
            centers, dist_maps, cell = select_centers(neighbors, pops, fanout, rng)
            sizes = assign_child_sizes(n_small, n_large, _voronoi_cell_pops(pops, cell, fanout))
            child_seats = [s * j + l * (j + 1) for s, l in sizes]
            parts = split_region(neighbors, pops, centers, dist_maps, child_seats,
                                 state.total_population, state.total_seats, EPSILON)
            if parts is not None:
                break
        if parts is None:
            return None
        # Every child is numbered before any child's own samples are drawn.
        child_ids = [next(node_ids) for _ in parts]
        children = []
        for node_id, part, seats, (s, l) in zip(child_ids, parts, child_seats, sizes):
            child_region = tuple([region[i] for i in part])
            samples = []
            if s + l > 1:
                child_graph = region_graph(part, neighbors, pops)
                for _ in range(build.n_internal):
                    sample = try_sample(child_region, *child_graph, s, l, depth + 1)
                    if sample is not None:
                        samples.append(sample)
                if not samples:
                    return None
            children.append((node_id, child_region, seats, s, l, tuple(samples)))
        return tuple(children)

    def try_sample(region, neighbors, pops, n_small, n_large, depth):
        attempts[depth] = attempts.get(depth, 0) + 1
        children = subdivide(region, neighbors, pops, n_small, n_large, depth)
        if children is None:
            failures[depth] = failures.get(depth, 0) + 1
        return children

    children = try_sample(range(len(state.blocks)), *graph,
                          build.allocation.small_count, build.allocation.large_count, 0)
    return children, next(node_ids) - 1, attempts, failures


def _decode(encoded, id_offset, ids):
    """A ``_root_sample`` child as a ``TreeNode``, with the seats ``subdivide`` gave
    ``split_region``; block ``b`` is state id ``ids[b]``, the parent's own object,
    which every node shares (an unpickled id would be a new one)."""
    node_id, indices, seats, n_small, n_large, samples = encoded
    return TreeNode(node_id=id_offset + node_id, region=tuple([ids[b] for b in indices]),
                    seats=seats, n_small=n_small, n_large=n_large,
                    samples=[[_decode(c, id_offset, ids) for c in sample] for sample in samples])


def _pool_size(work, n_samples):
    """Processes, the caller included, for ``work`` estimated block visits in
    builds of at most ``n_samples`` root samples; 1 runs them serially."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if work < POOL_MIN_WORK or cpus < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(cpus, n_samples)


class WorkerExitError(RuntimeError):
    """Raised when a root-sample worker exits while its pool is open."""


def _claim(tasks, claimed, lock):
    """The next unclaimed task of ``tasks``, or None; ``claimed`` is the shared count."""
    with lock:
        t = int.from_bytes(claimed, "little")
        claimed[:] = min(t + 1, len(tasks)).to_bytes(8, "little")
    return tasks[t] if t < len(tasks) else None


def _work(state, graph, plan, claim, results, result_lock, parent_results):
    """A pool worker: it claims ``(build, i)`` tasks until none is left, sending
    ``(build, i, ok, result or (exception, traceback text))`` for each, then
    exits.  It returns only when ``claim()`` gives None, by which time every
    result it claimed is in the pipe the parent holds open, or when a send
    finds no reader, which needs the parent to be gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    parent_results.close()  # so, once the parent is gone, sends fail
    while (task := claim()) is not None:
        b, i = task
        try:
            message = (b, i, True, _root_sample(state, graph, plan[b], i))
        except Exception as e:  # raised in the parent when it reaches sample i
            message = (b, i, False, (e, traceback.format_exc()))
        with result_lock:
            try:
                results.send(message)
            except BrokenPipeError:  # the parent is gone, so no one reads the result
                return


class _RootSamplePool:
    """Runs the root samples of ``plan``, a list of ``_Build``s with k > 1, on ``state``.

    A k-district build's root sample splits the state's blocks once, then
    each of up to k - 2 internal nodes below the root about ``n_internal``
    times, so the builds' work is estimated as the sum of root samples *
    blocks * (1 + n_internal * (k - 2)).

    The caller claims tasks in plan order, and runs one whenever the result
    it needs next has not come and none waits, raising its exception as is
    on reaching that sample.  Below ``POOL_MIN_WORK``, and without ``fork``,
    it claims alone, from an iterator over the tasks.  Otherwise it forks
    ``_pool_size`` - 1 workers here, once, with the state, its graph and the
    builds, and all claim through one shared count; a worker claims until no
    task is left, held back only by a full result pipe, so it runs on into
    the next build while the caller works on the last tree, then exits.  The
    caller waits in its own thread on the result pipe and the workers'
    sentinels, so a worker that exits with an error or a signal raises
    ``WorkerExitError``.  Fork, not spawn, because a spawned worker would
    import the package and receive the state again; the workers run pure
    Python, so forking after numpy has started threads is safe here.  Close
    it; callers wrap it in ``contextlib.closing``.
    """

    def __init__(self, state, plan):
        self._sample_args, self._plan = (state, _state_graph(state)), plan
        self._next_build = enumerate(plan)
        tasks = [(b, i) for b, build in enumerate(plan) for i in range(build.n_root)]
        work = sum(b.n_root * len(state.blocks)
                   * (1 + b.n_internal * (b.allocation.small_count + b.allocation.large_count - 2))
                   for b in plan)
        processes = _pool_size(work, max((b.n_root for b in plan), default=1))
        self._workers, self._ends, self._results = [], (), None
        self._done = {}  # (build, i) -> (ok, result or exception) of a task done ahead of use
        if processes < 2:
            self._claim = functools.partial(next, iter(tasks), None)
            return
        import multiprocessing.connection

        ctx = multiprocessing.get_context("fork")
        self._wait = multiprocessing.connection.wait
        claimed = mmap.mmap(-1, 8)  # anonymous, so the forks share it with no descriptor
        self._claim = functools.partial(_claim, tasks, claimed, ctx.Lock())
        # The parent keeps a result writer, so a dead worker shows as its sentinel, never as EOF.
        self._results, result_writer = ctx.Pipe(duplex=False)
        self._ends = (self._results, result_writer, claimed)
        args = (*self._sample_args, plan, self._claim, result_writer, ctx.Lock(), self._results)
        try:
            for _ in range(processes - 1):
                (p := ctx.Process(target=_work, args=args, daemon=True)).start()
                self._workers.append(p)
        except BaseException:
            self.close()
            raise

    def samples(self):
        """``_root_sample`` results of the next planned build, in sample order."""
        b, build = next(self._next_build)
        return self._collect(b, build.n_root)

    def _collect(self, b, n_samples):
        for i in range(n_samples):
            while (b, i) not in self._done:
                if self._results and self._results.poll() or (task := self._claim()) is None:
                    self._receive()
                    continue
                try:  # the caller runs a task while no result waits
                    self._done[task] = True, _root_sample(*self._sample_args, self._plan[task[0]],
                                                          task[1])
                except Exception as e:  # raised when the caller reaches the sample
                    self._done[task] = False, e
            ok, value = self._done.pop((b, i))
            if not ok:
                raise value
            yield value

    def _receive(self):
        ready = self._wait([self._results, *(p.sentinel for p in self._workers)])
        for p in [p for p in self._workers if p.sentinel in ready]:
            p.join()
            if p.exitcode:
                how = (f"was killed by signal {-p.exitcode}" if p.exitcode < 0
                       else f"exited with code {p.exitcode}")
                raise WorkerExitError(f"root-sample worker {p.pid} {how}")
            self._workers.remove(p)  # it ran out of tasks, after sending every result
        if self._results in ready:
            b, i, ok, value = self._results.recv()
            if not ok:
                value, worker_traceback = value
                value.__cause__ = RuntimeError(f"in a root-sample worker:\n{worker_traceback}")
            self._done[b, i] = ok, value

    def close(self):
        for p in self._workers:
            p.kill()
        for p in self._workers:
            p.join()
        for end in self._ends:
            end.close()
        self._workers, self._ends = [], ()


def build_trees(state, ks, seed: int, root_samples: int = None, internal_samples: int = None):
    """Yield ``(k, tree)`` for each k of ``ks`` in order, all from one root-sample pool.

    Each k's ``build_tree`` gets its own seed, derived from ``seed``; a k that
    finds no map yields its ``TreeBuildError``, and the later k still build.
    The pool closes when the generator ends or is closed, as it is when a
    caller's exception releases it.
    """
    builds = [(k, seed * 100003 + k) for k in ks]
    plan = [_Build.of(state.total_seats, k, k_seed, root_samples, internal_samples)
            for k, k_seed in builds if k > 1]
    with contextlib.closing(_RootSamplePool(state, plan)) as pool:
        for k, k_seed in builds:
            try:  # build_tree through its module name, which perfbench/tracer.py times
                yield k, build_tree(state, k, k_seed, root_samples, internal_samples, pool)
            except TreeBuildError as e:
                yield k, e


def build_tree(state, k: int, seed: int = 0, root_samples: int = None,
               internal_samples: int = None, pool: _RootSamplePool = None) -> SampleTree:
    """Sample a hierarchy of region subdivisions encoding K-district plans.

    Sampling counts default to the (1000/k)^1.2 and (300/k)^0.5 schedule;
    pass explicit counts for quicker, smaller trees.  Samples whose
    geometry fails, or whose internal children end up empty, are pruned
    and tallied in the diagnostics.

    Root sample ``i`` and its whole subtree draw only from
    ``random.Random(f"{seed}:{i}")``.  A ``str`` seed goes through SHA-512,
    so the stream does not depend on ``PYTHONHASHSEED``, and the first n
    samples do not depend on how many follow.  The root samples run in a
    pool of their own, or, from ``build_trees``, in ``pool``, whose next
    planned build this is.  The tree, its node ids and its diagnostics are
    the same for any worker count.
    """
    build = _Build.of(state.total_seats, k, seed, root_samples, internal_samples)
    alloc = build.allocation
    root = TreeNode(node_id=1, region=tuple(state.block_map), seats=state.total_seats,
                    n_small=alloc.small_count, n_large=alloc.large_count)
    attempts, failures = {}, {}
    if k > 1:
        with contextlib.ExitStack() as own:
            if pool is None:
                pool = own.enter_context(contextlib.closing(_RootSamplePool(state, [build])))
            # Node ids run in creation order, as if the samples ran one after another.
            id_offset = root.node_id
            for children, created, sample_attempts, sample_failures in pool.samples():
                if children is not None:
                    root.samples.append([_decode(c, id_offset, root.region) for c in children])
                id_offset += created
                for total, counts in ((attempts, sample_attempts), (failures, sample_failures)):
                    for depth, n in counts.items():
                        total[depth] = total.get(depth, 0) + n
        if not root.samples:
            tried = ", ".join(f"{d}: {failures.get(d, 0)}/{n}" for d, n in sorted(attempts.items()))
            raise TreeBuildError(
                f"no feasible {k}-district map found for seed {seed}: all {build.n_root} root "
                f"samples rejected (failed/tried per depth: {tried})")

    nodes = list(_subtree(root))
    return SampleTree(root, {
        "k": k,
        "node_count": len(nodes),
        "leaf_count": sum(node.is_leaf for node in nodes),
        "sample_attempts_per_depth": attempts,
        "sample_failures_per_depth": failures,
        "implicit_plan_count": count_plans(root),
    })


def _voronoi_cell_pops(pops, cell, n_cells):
    """Population of each of ``n_cells`` Voronoi cells, position ``b`` being in
    ``cell[b]`` as ``select_centers`` assigned it; ``pops`` is the region's
    population list, summed in position order.
    """
    cell_pops = [0.0] * n_cells
    for c, p in zip(cell, pops):
        cell_pops[c] += p
    return cell_pops


def walk_nodes(tree: SampleTree):
    """Every node in the tree, parents before children."""
    return _subtree(tree.root)


def _subtree(node: TreeNode):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for sample in node.samples:
            stack.extend(sample)


def fold(root: TreeNode, leaf, within, across) -> dict:
    """Per node id under ``root``, children first: ``leaf(node)`` at a leaf, else ``across``
    over the node's samples of each sample's child values reduced by ``within``."""
    values = {}
    for node in reversed(list(_subtree(root))):
        values[node.node_id] = leaf(node) if node.is_leaf else across([
            functools.reduce(within, [values[c.node_id] for c in sample]) for sample in node.samples])
    return values


def descend(node: TreeNode, pick) -> list:
    """Leaves, in order, of the plan taking sample ``pick(n)`` at each internal node, in preorder."""
    leaves, stack = [], [node]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(reversed(pick(node)))
    return leaves


def count_plans(node: TreeNode) -> int:
    return fold(node, lambda n: 1, operator.mul, sum)[node.node_id]


def plan_from_leaves(leaves) -> Plan:
    return Plan(tuple(District(block_ids=n.region, seats=n.seats) for n in leaves))


def sample_plans(tree: SampleTree, count: int, seed: int = 0):
    """Draw plans by independent top-down descent, one uniform sample per node."""
    if count < 0:
        raise ValueError(f"plan count must be >= 0, got {count}")
    draw = random.Random(seed).choice
    return [plan_from_leaves(descend(tree.root, lambda n: draw(n.samples))) for _ in range(count)]
