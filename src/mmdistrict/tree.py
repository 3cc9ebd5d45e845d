"""Stochastic hierarchical partitioning into a sample tree of district maps.

Each node holds a region, a seat total, and a district count split into
small (j-seat) and large (j+1-seat) districts.  A node carries several
sampled subdivisions of its region; leaves are single districts that are
contiguous and population balanced against the statewide per-seat target.
The tree therefore encodes a product-sum number of distinct plans.

A subdivision attempt runs one breadth-first search per center, inside the
node's region: ``select_centers`` runs it as it picks the center, and the
Voronoi cell populations and the growth heaps of ``split_region`` reuse those
distance maps.  Every child region stays contiguous from growth through
repair, so repair checks a boundary swap locally, around the moved block,
rather than searching the whole donor district.
"""
from __future__ import annotations

import heapq
import random
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


def region_neighbors(region, adjacency):
    """Each block of ``region`` with its neighbours inside ``region``.

    ``select_centers``, ``split_region`` and the searches under them walk
    these lists, so they never test region membership themselves.
    """
    return {b: tuple(v for v in adjacency[b] if v in region) for b in region}


def _bfs_distances(neighbors, source):
    """Hop distance from ``source`` to every block it reaches over ``neighbors``."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if v not in dist:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    return dist


def _weighted_choice(items, weights, rng):
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if acc >= r:
            return item
    return items[-1]


def select_centers(region, neighbors, pops, n_children: int, rng):
    """Spread centers: first population-weighted, then pop * hop-distance^2.

    ``neighbors`` lists each block's neighbours inside ``region`` (see
    ``region_neighbors``).  One breadth-first search runs from each center as
    it is picked.  The distance that weights the next pick, a block's hop
    distance to the nearest center so far, is the element-wise minimum of
    those maps.  Returns ``(centers, dist_maps)``: ``dist_maps[i]`` maps every
    block ``centers[i]`` reaches to its hop distance, for
    ``_voronoi_cell_pops`` and ``split_region`` to reuse.
    """
    blocks = sorted(region)
    if n_children > len(blocks):
        raise ValueError(f"region of {len(blocks)} blocks cannot host {n_children} centers")
    if n_children == len(blocks):
        return blocks, [_bfs_distances(neighbors, b) for b in blocks]
    centers = [_weighted_choice(blocks, [pops[b] for b in blocks], rng)]
    dist_maps = [_bfs_distances(neighbors, centers[0])]
    nearest = dict(dist_maps[0])
    unreached = len(blocks)
    while len(centers) < n_children:
        rest = [b for b in blocks if b not in centers]
        weights = [pops[b] * nearest.get(b, 0) ** 2 for b in rest]
        if sum(weights) == 0:
            centers.append(_weighted_choice(rest, [1.0] * len(rest), rng))
        else:
            centers.append(_weighted_choice(rest, weights, rng))
        dist = _bfs_distances(neighbors, centers[-1])
        dist_maps.append(dist)
        if len(centers) < n_children:
            for b, d in dist.items():
                if d < nearest.get(b, unreached):
                    nearest[b] = d
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


def _stays_connected(blocks, b, neighbors):
    """Whether ``blocks`` without ``b`` is connected, given that ``blocks`` is.

    ``neighbors`` may list blocks outside ``blocks``; they are skipped.  A
    block with at most one neighbour in ``blocks`` can always leave.
    Otherwise every remaining block still reaches one of those neighbours,
    so a search from the first of them, avoiding ``b``, decides: it stops as
    soon as it has reached the others, and only at a cut block does it
    search the whole of its side.
    """
    ends = [v for v in neighbors[b] if v in blocks]
    if len(ends) <= 1:
        return True
    missing = set(ends[1:])
    seen = {b, ends[0]}
    frontier = [ends[0]]
    while frontier:
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if v in blocks and v not in seen:
                    if v in missing:
                        missing.discard(v)
                        if not missing:
                            return True
                    seen.add(v)
                    reached.append(v)
        frontier = reached
    return False


def split_region(region, neighbors, pops, centers, dist_maps, child_seats,
                 state_pop, total_seats, epsilon):
    """Grow child regions from centers, then boundary-swap toward balance.

    Each child targets state_pop * seats / total_seats people.  Growth is
    capacity-weighted nearest-frontier accretion, ordered by the hop
    distances ``dist_maps`` that ``select_centers`` returned with the
    centers; ``neighbors`` lists each block's neighbours inside ``region``.
    Repair moves boundary blocks between adjacent children when that lowers
    total balance error and keeps the donor contiguous.  Growth only adds
    blocks next to a child and repair keeps every donor contiguous, so the
    children are contiguous before each swap, and ``_stays_connected``
    decides a swap from the moved block's surroundings.  Returns child block
    sets, or None if any child misses its tolerance.
    """
    f = len(centers)
    targets = [state_pop * s / total_seats for s in child_seats]
    unreached = len(region)

    owner = {}
    child_blocks = [set() for _ in range(f)]
    child_pop = [0.0] * f
    fullness = [0.0] * f  # child_pop / target: the least full child grows next
    heaps = [[] for _ in range(f)]

    def assign(b, c):
        owner[b] = c
        child_blocks[c].add(b)
        child_pop[c] += pops[b]
        fullness[c] = child_pop[c] / targets[c]
        dist, heap = dist_maps[c], heaps[c]
        for v in neighbors[b]:
            if v not in owner:
                heapq.heappush(heap, (dist.get(v, unreached), v))

    for c, center in enumerate(centers):
        if center in owner:
            return None  # duplicate centers cannot seed distinct children
        assign(center, c)

    n_assigned = f
    while n_assigned < len(region):
        # a stable sort: equally full children take turns by index
        for c in sorted(range(f), key=fullness.__getitem__):
            h = heaps[c]
            while h and h[0][1] in owner:
                heapq.heappop(h)
            if h:
                assign(heapq.heappop(h)[1], c)
                n_assigned += 1
                break
        else:
            return None

    err = [child_pop[i] - targets[i] for i in range(f)]

    def balanced():
        return all(abs(err[i]) <= epsilon * targets[i] + 1e-9 for i in range(f))

    max_swaps = 10 * len(region)
    swaps = 0
    scan = sorted(region)
    while not balanced() and swaps < max_swaps:
        improved = False
        for b in scan:
            a = owner[b]
            donor = child_blocks[a]
            if len(donor) <= 1:
                continue
            nbr_children = {owner[v] for v in neighbors[b]}
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
            if not _stays_connected(donor, b, neighbors):
                continue
            donor.discard(b)
            child_blocks[best_t].add(b)
            owner[b] = best_t
            err[a] -= p
            err[best_t] += p
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


def build_tree(state, k: int, tol: BalanceTolerance = BalanceTolerance(),
               seed: int = 0, root_samples: int = None,
               internal_samples: int = None) -> SampleTree:
    """Sample a hierarchy of region subdivisions encoding K-district plans.

    Sampling counts default to the (1000/k)^1.2 and (300/k)^0.5 schedule;
    pass explicit counts for quicker, smaller trees.  Samples whose
    geometry fails, or whose internal children end up empty, are pruned
    and tallied in the diagnostics.
    """
    n_seats = state.total_seats
    alloc = SizeAllocation.for_seats(n_seats, k)
    default_root, default_internal = sample_counts(k)
    n_root = default_root if root_samples is None else root_samples
    n_internal = default_internal if internal_samples is None else internal_samples

    rng = random.Random(seed)
    adjacency = state.adjacency
    pops = {b.id: b.population for b in state.blocks}
    state_pop = state.total_population
    j = alloc.small_size

    counter = [0]
    attempts, failures = {}, {}

    def make_node(region, n_small, n_large):
        counter[0] += 1
        return TreeNode(node_id=counter[0], region=frozenset(region),
                        seats=n_small * j + n_large * (j + 1),
                        n_districts=n_small + n_large, n_small=n_small, n_large=n_large)

    def try_sample(node, neighbors, depth):
        fanout = rng.randint(2, min(MAX_FANOUT, node.n_districts))
        if fanout > len(node.region):
            return None
        parts = sizes = None
        for _ in range(SPLIT_RETRIES):
            centers, dist_maps = select_centers(node.region, neighbors, pops, fanout, rng)
            cell_pops = _voronoi_cell_pops(node.region, pops, dist_maps)
            sizes = assign_child_sizes(node.n_districts, node.n_small, node.n_large, cell_pops)
            child_seats = [s * j + l * (j + 1) for s, l in sizes]
            parts = split_region(node.region, neighbors, pops, centers, dist_maps, child_seats,
                                 state_pop, n_seats, tol.epsilon)
            if parts is not None:
                break
        if parts is None:
            return None
        children = [make_node(part, s, l) for part, (s, l) in zip(parts, sizes)]
        for child in children:
            if not child.is_leaf:
                fill(child, depth + 1)
                if not child.samples:
                    return None
        return children

    def fill(node, depth):
        n_samples = n_root if depth == 0 else n_internal
        neighbors = region_neighbors(node.region, adjacency)
        for _ in range(n_samples):
            attempts[depth] = attempts.get(depth, 0) + 1
            children = try_sample(node, neighbors, depth)
            if children is None:
                failures[depth] = failures.get(depth, 0) + 1
            else:
                node.samples.append(children)

    root = make_node(set(pops), alloc.small_count, alloc.large_count)
    if k > 1:
        fill(root, 0)
        if not root.samples:
            raise TreeBuildError(f"no feasible {k}-district map found for seed {seed}")

    tree = SampleTree(root, alloc, tol, seed, {})
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
    """Population of each center's Voronoi cell, from the centers' distance maps.

    A block joins its nearest center by hop distance, the earliest center on
    a tie.
    """
    nearest = dict.fromkeys(region, len(region) + 1)
    cell = dict.fromkeys(region, 0)
    for i, dist in enumerate(dist_maps):
        for b, d in dist.items():
            if d < nearest[b]:
                nearest[b] = d
                cell[b] = i
    cell_pops = [0.0] * len(dist_maps)
    for b, i in cell.items():
        cell_pops[i] += pops[b]
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


def enumerate_plans(tree: SampleTree, limit: int = 100000):
    """All encoded plans as leaf-node tuples; errors out past ``limit``."""
    if count_plans(tree.root) > limit:
        raise ValueError(f"tree encodes more than {limit} plans")

    def expand(node):
        if node.is_leaf:
            return [(node,)]
        result = []
        for sample in node.samples:
            combos = [()]
            for child in sample:
                combos = [c + sub for c in combos for sub in expand(child)]
            result.extend(combos)
        return result

    return expand(tree.root)

