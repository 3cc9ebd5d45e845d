"""Stochastic hierarchical partitioning into a sample tree of district maps.

Each node holds a region, a seat total, and a district count split into
small (j-seat) and large (j+1-seat) districts.  A node carries several
sampled subdivisions of its region; leaves are single districts that are
contiguous and population balanced against the statewide per-seat target.
The tree therefore encodes a product-sum number of distinct plans.

The builder works on dense block indices: block ``i`` is the state's
``i``-th smallest id, its neighbours are a tuple of indices, and
populations, distances and owners are lists indexed by block.  The index
map keeps id order, so every ``(distance, block)`` heap key, sorted scan and
tie-break orders as it would on ids.  Node regions stay frozensets of state
ids: each child's id set receives the same adds and discards, in the same
order, as the split makes, so a region iterates its blocks, and leaf
scoring sums over them, in one fixed order.

A subdivision attempt runs one breadth-first search per center, inside the
node's region: ``select_centers`` runs it as it picks the center, and the
Voronoi cell populations and the growth heaps of ``split_region`` reuse those
distance lists.  Every child region stays contiguous from growth through
repair, so repair checks a boundary swap locally, around the moved block,
rather than searching the whole donor district.

Root sample ``i`` of a build draws everything, its internal samples
included, from its own stream ``random.Random(f"{seed}:{i}")``, so no sample
reads another's RNG state.  ``build_trees`` plans a command's builds on one
state, one per district count, up front in one root-sample pool.  When the
builds' summed estimated work reaches ``POOL_MIN_WORK``, the pool forks one
worker per usable CPU, once, with the state's blocks and the planned builds.
The workers take ``(build, sample index)`` tasks from one pipe, in build
order, so they start the next build while the caller scores the last, and
put their results on another; the parent reads them in the calling thread,
runs no helper thread, and raises when a worker dies.  ``build_tree`` merges
the results in sample order.  Smaller commands, and platforms without
``fork``, run the same per-sample function serially.  ``build_tree`` on its
own opens a pool for its build alone.  The tree, its node ids and its
diagnostics do not depend on the number of cores.
"""
from __future__ import annotations

import bisect
import contextlib
import heapq
import itertools
import os
import random
import signal
import traceback
from dataclasses import dataclass, field

# is_connected is not called here; it stays bound in this module because
# perfbench/tracer.py times the calls made through this name.
from .model import BalanceTolerance, District, Plan, is_connected  # noqa: F401


class TreeBuildError(RuntimeError):
    """Raised when no feasible map can be sampled."""


@dataclass(frozen=True)
class SizeAllocation:
    """District size multiset for N seats in K districts."""
    small_size: int   # j = floor(N / K)
    large_count: int  # L = N mod K
    small_count: int  # K - L

    @classmethod
    def for_seats(cls, n_seats: int, k: int) -> "SizeAllocation":
        if not 1 <= k <= n_seats:
            raise ValueError(f"k must be in 1..{n_seats}, got {k}")
        j, l = divmod(n_seats, k)
        return cls(small_size=j, large_count=l, small_count=k - l)


@dataclass
class TreeNode:
    node_id: int
    region: frozenset
    seats: int
    n_districts: int
    n_small: int
    n_large: int
    samples: list = field(default_factory=list)

    @property
    def is_leaf(self):
        return self.n_districts == 1


@dataclass
class SampleTree:
    root: TreeNode
    allocation: SizeAllocation
    tol: BalanceTolerance
    seed: int
    diagnostics: dict


def sample_counts(k: int):
    """(root, internal) sampling counts: (1000/k)^1.2 and (300/k)^0.5, floored at 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (max(1, round((1000 / k) ** 1.2)), max(1, round((300 / k) ** 0.5)))


def region_neighbors(region, neighbors):
    """Each block's neighbours inside ``region``, as tuples of block indices.

    ``neighbors[b]`` lists block ``b``'s neighbours anywhere in the state;
    the result, a list as long as ``neighbors``, holds ``()`` for blocks
    outside ``region``.  ``select_centers``, ``split_region`` and the searches
    under them walk these lists, so they never test region membership
    themselves.
    """
    inside = bytearray(len(neighbors))
    for b in region:
        inside[b] = 1
    restricted = [()] * len(neighbors)
    for b in region:
        nbrs = neighbors[b]
        restricted[b] = tuple(itertools.compress(nbrs, map(inside.__getitem__, nbrs)))
    return restricted


def _bfs_distances(neighbors, source, unreached):
    """Hop distance from ``source`` to every block, over ``neighbors``.

    A list as long as ``neighbors``; a block the search does not reach holds
    ``unreached``, which callers set to the region's size, above any hop
    distance inside it.
    """
    dist = [unreached] * len(neighbors)
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


def _weighted_choice(items, weights, rng):
    """The first item whose running weight total reaches a uniform draw."""
    r = rng.random() * sum(weights)
    i = bisect.bisect_left(list(itertools.accumulate(weights)), r)
    return items[i] if i < len(items) else items[-1]


def select_centers(region, neighbors, pops, n_children: int, rng):
    """Spread centers: first population-weighted, then pop * hop-distance^2.

    ``region`` holds block indices; ``neighbors`` lists each block's
    neighbours inside it (see ``region_neighbors``).  One breadth-first
    search runs from each center as it is picked.  The distance that weights
    the next pick, a block's hop distance to the nearest center so far, is
    the element-wise minimum of those lists; a block no center reaches
    weighs 0.  Returns ``(centers, dist_maps)``: ``dist_maps[i]`` is
    ``_bfs_distances`` from ``centers[i]`` with ``len(region)`` as its
    unreached value, for ``_voronoi_cell_pops`` and ``split_region`` to
    reuse.
    """
    blocks = sorted(region)
    m = len(blocks)
    if n_children > m:
        raise ValueError(f"region of {m} blocks cannot host {n_children} centers")
    if n_children == m:
        return blocks, [_bfs_distances(neighbors, b, m) for b in blocks]
    centers = [_weighted_choice(blocks, [pops[b] for b in blocks], rng)]
    dist_maps = [_bfs_distances(neighbors, centers[0], m)]
    nearest = dist_maps[0][:]
    while len(centers) < n_children:
        rest = [b for b in blocks if b not in centers]
        weights = [pops[b] * d ** 2 if (d := nearest[b]) < m else 0 for b in rest]
        if sum(weights) == 0:
            centers.append(_weighted_choice(rest, [1.0] * len(rest), rng))
        else:
            centers.append(_weighted_choice(rest, weights, rng))
        dist = _bfs_distances(neighbors, centers[-1], m)
        dist_maps.append(dist)
        if len(centers) < n_children:
            for b in blocks:
                if dist[b] < nearest[b]:
                    nearest[b] = dist[b]
    return centers, dist_maps


def assign_child_sizes(n_districts, n_small, n_large, cell_pops):
    """Per-child (n_small, n_large) proportional to Voronoi cell population.

    District counts use largest-remainder rounding with at least one district
    per child; the parent's large districts are spread across children in
    proportion to their district counts.
    """
    f = len(cell_pops)
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
    with at most one neighbour in its child can always leave.  Otherwise
    every remaining block still reaches one of those neighbours, so a search
    from the first of them, avoiding ``b``, decides: it stops as soon as it
    has reached the others, and only at a cut block does it search the whole
    of its side.
    """
    a = owner[b]
    ends = [v for v in neighbors[b] if owner[v] == a]
    if len(ends) <= 1:
        return True
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


def split_region(region, neighbors, pops, centers, dist_maps, child_seats,
                 state_pop, total_seats, epsilon, ids):
    """Grow child regions from centers, then boundary-swap toward balance.

    Each child targets state_pop * seats / total_seats people.  Growth is
    capacity-weighted nearest-frontier accretion, ordered by the hop
    distances ``dist_maps`` that ``select_centers`` returned with the
    centers; ``region`` holds block indices and ``neighbors`` lists each
    block's neighbours inside it.  Repair moves boundary blocks between
    adjacent children when that lowers total balance error and keeps the
    donor contiguous.  Growth only adds blocks next to a child and repair
    keeps every donor contiguous, so the children are contiguous before each
    swap, and ``_stays_connected`` decides a swap from the moved block's
    surroundings.  Returns each child's set of state ids (block ``b`` is
    ``ids[b]``), or None if any child misses its tolerance.
    """
    f = len(centers)
    targets = [state_pop * s / total_seats for s in child_seats]

    owner = [-1] * len(neighbors)
    child_blocks = [set() for _ in range(f)]  # state ids, added and discarded as blocks move
    child_pop = [0.0] * f
    heaps = [[] for _ in range(f)]
    pushed = [bytearray(len(neighbors)) for _ in range(f)]  # blocks ever on each child's frontier

    def assign(b, c):
        owner[b] = c
        child_blocks[c].add(ids[b])
        child_pop[c] += pops[b]
        dist, heap, seen = dist_maps[c], heaps[c], pushed[c]
        for v in neighbors[b]:
            if owner[v] < 0 and not seen[v]:
                seen[v] = 1
                heapq.heappush(heap, (dist[v], v))

    for c, center in enumerate(centers):
        if owner[center] >= 0:
            return None  # duplicate centers cannot seed distinct children
        assign(center, c)

    # The least full child grows next, equally full children by index.  A
    # child gains frontier blocks only when it grows, so one whose frontier
    # has run out leaves the queue for good.
    growing = [(child_pop[c] / targets[c], c) for c in range(f)]
    heapq.heapify(growing)
    n_assigned = f
    while n_assigned < len(region):
        if not growing:
            return None
        c = growing[0][1]
        h = heaps[c]
        while h and owner[h[0][1]] >= 0:
            heapq.heappop(h)
        if not h:
            heapq.heappop(growing)
            continue
        assign(heapq.heappop(h)[1], c)
        n_assigned += 1
        heapq.heapreplace(growing, (child_pop[c] / targets[c], c))

    err = [child_pop[i] - targets[i] for i in range(f)]

    def balanced():
        return all(abs(err[i]) <= epsilon * targets[i] + 1e-9 for i in range(f))

    def on_boundary(b):
        a = owner[b]
        return any(owner[v] != a for v in neighbors[b])

    # Only a block with a neighbour in another child can move.  Each pass
    # visits the blocks on a boundary in sorted order; a swap changes the
    # boundary only around the moved block, so neighbours that join it and
    # sort after the moved block are still visited in the same pass.  Most
    # splits grow balanced and skip repair, and with it this set.
    boundary = set() if balanced() else {
        b for b in region for v in neighbors[b] if owner[v] != owner[b]}
    max_swaps = 10 * len(region)
    swaps = 0
    while not balanced() and swaps < max_swaps:
        improved = False
        queue = sorted(boundary)
        queued = set(queue)
        while queue:
            b = heapq.heappop(queue)
            a = owner[b]
            donor = child_blocks[a]
            if len(donor) <= 1:
                continue
            nbr_children = set(map(owner.__getitem__, neighbors[b]))
            nbr_children.discard(a)
            if not nbr_children:
                continue
            p = pops[b]
            best_delta, best_t = -1e-12, None
            for t in sorted(nbr_children):
                delta = (abs(err[a] - p) + abs(err[t] + p)) - (abs(err[a]) + abs(err[t]))
                if delta < best_delta:
                    best_delta, best_t = delta, t
            if best_t is None:
                continue
            if not _stays_connected(owner, b, neighbors):
                continue
            donor.discard(ids[b])
            child_blocks[best_t].add(ids[b])
            owner[b] = best_t
            err[a] -= p
            err[best_t] += p
            for u in (b, *neighbors[b]):
                if not on_boundary(u):
                    boundary.discard(u)
                    continue
                boundary.add(u)
                if u > b and u not in queued:
                    queued.add(u)
                    heapq.heappush(queue, u)
            swaps += 1
            improved = True
            if swaps >= max_swaps:
                break
        if not improved:
            break

    return child_blocks if balanced() else None


#: Center-resampling attempts per node sample before giving up on it.
SPLIT_RETRIES = 20
#: Largest number of children a node subdivision may have.
MAX_FANOUT = 4
#: Smallest estimated work, in block visits summed over one command's builds,
#: for which a ``_RootSamplePool`` forks workers; see ``_pool_size``.  Timed
#: on a 2-core VM, one build per two-worker pool against the same build
#: serially (median of 15 alternating builds each): opening and closing the
#: pool takes about 4 ms, and the pool wins from about 15,000 on.  144
#: blocks, k = 2: 7,200 took 1.09x the serial time, 14,400 1.00x, 28,800
#: 0.85x; 400 blocks, k = 2: 20,000 0.87x; 144 blocks, k = 4, 2 internal
#: samples: 28,800 0.87x.  A command pays the start-up once, so the
#: threshold applies to its sum.
POOL_MIN_WORK = 20_000


@dataclass(frozen=True)
class _Blocks:
    """A state's blocks on dense indices, which every root sample reads.

    Block ``i`` is ``ids[i]``, the ``i``-th smallest id, and ``index`` maps
    an id back to it.  ``root_order`` lists the indices of the root region,
    ``frozenset(set(state.block_map))``, in the order that region iterates.
    """
    ids: tuple
    index: dict
    neighbors: tuple
    pops: tuple
    root_order: tuple
    total_population: float
    total_seats: int

    @classmethod
    def of(cls, state):
        ids = tuple(sorted(state.block_map))
        index = {b: i for i, b in enumerate(ids)}
        return cls(ids, index,
                   tuple(tuple(index[v] for v in state.adjacency[b]) for b in ids),
                   tuple(state.block_map[b].population for b in ids),
                   tuple(index[b] for b in frozenset(set(state.block_map))),
                   state.total_population, state.total_seats)


@dataclass(frozen=True)
class _Build:
    """One build's parameters, which each of its root samples reads."""
    small_size: int
    n_small: int
    n_large: int
    epsilon: float
    n_root: int
    n_internal: int
    seed: int

    @classmethod
    def of(cls, n_seats, k, seed, tol, root_samples, internal_samples):
        """A k-district build; a sample count of None follows ``sample_counts``."""
        alloc = SizeAllocation.for_seats(n_seats, k)
        default_root, default_internal = sample_counts(k)
        counts = (default_root if root_samples is None else root_samples,
                  default_internal if internal_samples is None else internal_samples)
        for name, count in zip(("root_samples", "internal_samples"), counts):
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        return cls(alloc.small_size, alloc.small_count, alloc.large_count, tol.epsilon,
                   *counts, seed)


def _root_sample(blocks: _Blocks, build: _Build, i: int):
    """Root sample ``i`` of ``build`` and its whole subtree, from its own stream.

    Every draw, the internal samples' included, comes from
    ``random.Random(f"{seed}:{i}")``.  Returns ``(children, created,
    attempts, failures)``: the children as ``(node_id, block ids, n_small,
    n_large, samples)`` with nested tuples, or None when the sample is
    rejected; how many nodes the sample created, rejected ones included,
    numbered 1..created in creation order; and its attempts and failures per
    depth.  It must not call numpy: pool workers are forked from a process
    whose BLAS threads may hold locks.

    A frozenset pickles as its items and unpickles at about twice the table
    size that ``frozenset(set(...))`` gives, so a region travels as the tuple
    of its frozenset's blocks and ``_decode`` rebuilds it.  Serial builds
    take the same round trip, so a region iterates its blocks, and sums over
    them, in the same order whichever way it was built.
    """
    rng = random.Random(f"{build.seed}:{i}")
    index, pops, j = blocks.index, blocks.pops, build.small_size
    node_ids = itertools.count(1)
    attempts, failures = {}, {}

    def subdivide(order, neighbors, n_small, n_large, depth):
        """``order`` lists the region's block indices in the order it iterates."""
        n_districts = n_small + n_large
        fanout = rng.randint(2, min(MAX_FANOUT, n_districts))
        if fanout > len(order):
            return None
        parts = sizes = None
        for _ in range(SPLIT_RETRIES):
            centers, dist_maps = select_centers(order, neighbors, pops, fanout, rng)
            cell_pops = _voronoi_cell_pops(order, pops, dist_maps)
            sizes = assign_child_sizes(n_districts, n_small, n_large, cell_pops)
            child_seats = [s * j + l * (j + 1) for s, l in sizes]
            parts = split_region(order, neighbors, pops, centers, dist_maps, child_seats,
                                 blocks.total_population, blocks.total_seats, build.epsilon,
                                 blocks.ids)
            if parts is not None:
                break
        if parts is None:
            return None
        # Every child is numbered before any child's own samples are drawn.
        child_ids = [next(node_ids) for _ in parts]
        children = []
        for node_id, part, (s, l) in zip(child_ids, parts, sizes):
            region = frozenset(part)
            samples = []
            if s + l > 1:
                child_order = [index[b] for b in region]
                child_neighbors = region_neighbors(child_order, blocks.neighbors)
                for _ in range(build.n_internal):
                    sample = try_sample(child_order, child_neighbors, s, l, depth + 1)
                    if sample is not None:
                        samples.append(sample)
                if not samples:
                    return None
            children.append((node_id, tuple(region), s, l, tuple(samples)))
        return tuple(children)

    def try_sample(order, neighbors, n_small, n_large, depth):
        attempts[depth] = attempts.get(depth, 0) + 1
        children = subdivide(order, neighbors, n_small, n_large, depth)
        if children is None:
            failures[depth] = failures.get(depth, 0) + 1
        return children

    children = try_sample(blocks.root_order, blocks.neighbors, build.n_small, build.n_large, 0)
    return children, next(node_ids) - 1, attempts, failures


def _decode(encoded, id_offset, small_size):
    node_id, ids, n_small, n_large, samples = encoded
    return TreeNode(node_id=id_offset + node_id, region=frozenset(set(ids)),
                    seats=n_small * small_size + n_large * (small_size + 1),
                    n_districts=n_small + n_large, n_small=n_small, n_large=n_large,
                    samples=[[_decode(c, id_offset, small_size) for c in sample]
                             for sample in samples])


def _pool_size(work, n_samples):
    """Worker processes for ``work`` estimated block visits in builds of at
    most ``n_samples`` root samples; 1 runs them serially."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if work < POOL_MIN_WORK or cpus < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(cpus, n_samples)


#: Root-sample tasks a pooled ``_RootSamplePool`` keeps outstanding per
#: worker.  It bounds the results that wait in the pipe and that the parent
#: holds out of order; a task is two small ints, so the parent's writes never
#: fill the task pipe and block while a worker blocks on its result write.
IN_FLIGHT = 3


def _work(blocks, plan, tasks, task_lock, results, result_lock, parent_ends):
    """A pool worker: ``(build, i)`` tasks in, ``(build, i, ok, result or
    (exception, traceback text))`` out, until the parent closes the task pipe
    or kills it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    for end in parent_ends:  # so the task pipe reaches EOF when the parent exits
        end.close()
    while True:
        with task_lock:
            try:
                b, i = tasks.recv()
            except EOFError:
                return
        try:
            message = (b, i, True, _root_sample(blocks, plan[b], i))
        except Exception as e:  # raised in the parent when it reaches sample i
            message = (b, i, False, (e, traceback.format_exc()))
        with result_lock:
            results.send(message)


class _RootSamplePool:
    """Runs the root samples of ``plan``, a list of ``_Build``s with k > 1, on ``blocks``.

    A k-district build's root sample splits the state's blocks once, then
    each of up to k - 2 internal nodes below the root about ``n_internal``
    times, so the builds' work is estimated as the sum of root samples *
    blocks * (1 + n_internal * (k - 2)).

    At ``POOL_MIN_WORK`` or more the pool forks its workers here, once, with
    the state's blocks and the planned builds, and queues every build's
    tasks in order, at most ``IN_FLIGHT`` per worker at a time: the workers
    start on the next build while the caller still works on the last tree.
    The parent has no helper thread.  It reads results in the calling thread,
    waiting on the result pipe and the workers' sentinels, so a worker that
    exits raises an error naming its exit code.  Below ``POOL_MIN_WORK``,
    and without ``fork``, each build's samples run serially as the caller
    takes them.  Fork, not spawn, because a spawned worker would import the
    package and receive the state again; the workers run pure Python, so
    forking after numpy has started threads is safe here.  Close it, or use
    it as a context manager.
    """

    def __init__(self, blocks: _Blocks, plan):
        self.blocks = blocks
        self._plan = plan
        self._next_build = enumerate(plan)
        work = sum(b.n_root * len(blocks.ids) * (1 + b.n_internal * (b.n_small + b.n_large - 2))
                   for b in plan)
        workers = _pool_size(work, max((b.n_root for b in plan), default=1))
        self._workers = []
        if workers > 1:
            self._fork(workers)

    def _fork(self, workers):
        import multiprocessing.connection

        ctx = multiprocessing.get_context("fork")
        self._wait = multiprocessing.connection.wait
        task_reader, self._tasks = ctx.Pipe(duplex=False)
        self._results, result_writer = ctx.Pipe(duplex=False)
        args = (self.blocks, self._plan, task_reader, ctx.Lock(), result_writer, ctx.Lock(),
                (self._tasks, self._results))
        self._workers = [ctx.Process(target=_work, args=args, daemon=True)
                         for _ in range(workers)]
        for p in self._workers:
            p.start()
        task_reader.close()
        result_writer.close()
        self._queue = ((b, i) for b, build in enumerate(self._plan)
                       for i in range(build.n_root))
        self._in_flight = 0
        self._done = {}  # (build, i) -> (ok, value) of a result received ahead of use
        self._submit()

    def samples(self):
        """``_root_sample`` results of the next planned build, in sample order."""
        b, build = next(self._next_build)
        if not self._workers:
            return (_root_sample(self.blocks, build, i) for i in range(build.n_root))
        return self._collect(b, build.n_root)

    def _collect(self, b, n_samples):
        for i in range(n_samples):
            while (b, i) not in self._done:
                self._receive()
            ok, value = self._done.pop((b, i))
            if not ok:
                error, worker_traceback = value
                raise error from RuntimeError(f"in a root-sample worker:\n{worker_traceback}")
            yield value

    def _submit(self):
        while self._in_flight < IN_FLIGHT * len(self._workers):
            task = next(self._queue, None)
            if task is None:
                return
            self._tasks.send(task)
            self._in_flight += 1

    def _receive(self):
        ready = self._wait([self._results, *(p.sentinel for p in self._workers)])
        for p in self._workers:
            if p.sentinel in ready:
                p.join()
                raise RuntimeError(f"root-sample worker {p.pid} exited with code {p.exitcode}")
        b, i, ok, value = self._results.recv()
        self._in_flight -= 1
        self._done[b, i] = ok, value
        self._submit()

    def close(self):
        if self._workers:
            for p in self._workers:
                p.kill()
            for p in self._workers:
                p.join()
            self._tasks.close()
            self._results.close()
            self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def build_trees(state, ks, seed: int, root_samples: int = None, internal_samples: int = None,
                tol: BalanceTolerance = BalanceTolerance()):
    """Yield ``(k, tree)`` for each k of ``ks`` in order, all from one root-sample pool.

    Each k's ``build_tree`` gets its own seed, derived from ``seed``; a k that
    finds no map yields its ``TreeBuildError``, and the later k still build.
    The pool closes when the generator ends or is closed, as it is when a
    caller's exception releases it.
    """
    builds = [(k, seed * 100003 + k) for k in ks]
    plan = [_Build.of(state.total_seats, k, k_seed, tol, root_samples, internal_samples)
            for k, k_seed in builds if k > 1]
    with _RootSamplePool(_Blocks.of(state), plan) as pool:
        for k, k_seed in builds:
            try:  # build_tree through its module name, which perfbench/tracer.py times
                yield k, build_tree(state, k, tol, k_seed, root_samples, internal_samples, pool)
            except TreeBuildError as e:
                yield k, e


def build_tree(state, k: int, tol: BalanceTolerance = BalanceTolerance(),
               seed: int = 0, root_samples: int = None,
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
    build = _Build.of(state.total_seats, k, seed, tol, root_samples, internal_samples)
    j = build.small_size
    root = TreeNode(node_id=1, region=frozenset(set(state.block_map)), seats=state.total_seats,
                    n_districts=k, n_small=build.n_small, n_large=build.n_large)
    attempts, failures = {}, {}
    if k > 1:
        with contextlib.ExitStack() as own:
            if pool is None:
                pool = own.enter_context(_RootSamplePool(_Blocks.of(state), [build]))
            # Node ids run in creation order, as if the samples ran one after another.
            id_offset = root.node_id
            for children, created, sample_attempts, sample_failures in pool.samples():
                if children is not None:
                    root.samples.append([_decode(c, id_offset, j) for c in children])
                id_offset += created
                for total, counts in ((attempts, sample_attempts), (failures, sample_failures)):
                    for depth, n in counts.items():
                        total[depth] = total.get(depth, 0) + n
        if not root.samples:
            raise TreeBuildError(f"no feasible {k}-district map found for seed {seed}")

    tree = SampleTree(root, SizeAllocation(j, build.n_large, build.n_small), tol, seed, {})
    node_count = leaf_count = 0
    for node in walk_nodes(tree):
        node_count += 1
        leaf_count += node.is_leaf
    tree.diagnostics = {
        "k": k,
        "node_count": node_count,
        "leaf_count": leaf_count,
        "sample_attempts_per_depth": attempts,
        "sample_failures_per_depth": failures,
        "implicit_plan_count": count_plans(root),
    }
    return tree


def _voronoi_cell_pops(region, pops, dist_maps):
    """Population of each center's Voronoi cell, from the centers' distance lists.

    A block joins its nearest center by hop distance, the earliest center on
    a tie, and a block no center reaches joins the first.  The populations
    are summed in ``region``'s order.
    """
    nearest = dist_maps[0][:]
    cell = [0] * len(nearest)
    for i in range(1, len(dist_maps)):
        dist = dist_maps[i]
        for b in region:
            if dist[b] < nearest[b]:
                nearest[b] = dist[b]
                cell[b] = i
    cell_pops = [0.0] * len(dist_maps)
    for b in region:
        cell_pops[cell[b]] += pops[b]
    return cell_pops


def walk_nodes(tree: SampleTree):
    """Every node in the tree, parents before children."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        for sample in node.samples:
            stack.extend(sample)


def count_plans(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    total = 0
    for sample in node.samples:
        prod = 1
        for child in sample:
            prod *= count_plans(child)
        total += prod
    return total


def plan_from_leaves(leaves) -> Plan:
    return Plan(tuple(District(block_ids=n.region, seats=n.seats) for n in leaves))


def sample_plans(tree: SampleTree, count: int, seed: int = 0):
    """Draw plans by independent top-down descent, one uniform sample per node."""
    if count < 0:
        raise ValueError(f"plan count must be >= 0, got {count}")
    rng = random.Random(seed)

    def descend(node):
        if node.is_leaf:
            return [node]
        sample = rng.choice(node.samples)
        leaves = []
        for child in sample:
            leaves.extend(descend(child))
        return leaves

    return [plan_from_leaves(descend(tree.root)) for _ in range(count)]
