"""Earlier versions of three tree builder steps, kept verbatim as the oracles
that ``tests/test_tree_properties.py`` compares the current ones against.

``split_region`` is as it was before its growth and repair loops were
rewritten; the two must return None together and otherwise parts that hold
the same blocks.  ``select_centers`` and ``_weighted_choice`` are as they were
before every pick was drawn from running totals over all positions of the
region; on a connected region the two pickers must return the same centers
and distance lists from the same RNG state.  ``_voronoi_cell_pops`` is as it
was before ``select_centers`` assigned each block's cell while it picked the
centers; from those centers' distance lists it must give the same cell
populations as the current one does from that cell list.
"""
import bisect
import heapq
import itertools

from mmdistrict.tree import _bfs_distances, _stays_connected


def _weighted_choice(items, weights, rng):
    """The first item whose running weight total reaches a uniform draw."""
    # The weights are ints or all 1.0, so the last total is their exact sum (on
    # Python 3.12+ sum() compensates other floats); a draw below it hits an item.
    totals = list(itertools.accumulate(weights))
    return items[bisect.bisect_left(totals, rng.random() * totals[-1])]


def select_centers(neighbors, pops, n_children: int, rng):
    """Spread centers: first population-weighted, then pop * hop-distance^2.

    ``neighbors`` and ``pops`` are the region's graph (see ``region_graph``).
    One breadth-first search runs from each center as it is picked.  The
    distance that weights the next pick, a block's hop distance to the
    nearest center so far, is the element-wise minimum of those lists; a
    block no center reaches weighs 0.  Returns ``(centers, dist_maps)``:
    ``dist_maps[i]`` is ``_bfs_distances`` from ``centers[i]``, for
    ``_voronoi_cell_pops`` and ``split_region`` to reuse.
    """
    m = len(neighbors)
    if n_children > m:
        raise ValueError(f"region of {m} blocks cannot host {n_children} centers")
    if n_children == m:
        return list(range(m)), [_bfs_distances(neighbors, b) for b in range(m)]
    centers = [_weighted_choice(range(m), pops, rng)]
    dist_maps = [_bfs_distances(neighbors, centers[0])]
    nearest = dist_maps[0]
    while len(centers) < n_children:
        rest = [b for b in range(m) if b not in centers]
        weights = [pops[b] * (d * d) if (d := nearest[b]) < m else 0 for b in rest]
        centers.append(_weighted_choice(rest, weights if any(weights) else [1.0] * len(rest), rng))
        dist = _bfs_distances(neighbors, centers[-1])
        dist_maps.append(dist)
        if len(centers) < n_children:
            nearest = [d if d < e else e for d, e in zip(nearest, dist)]
    return centers, dist_maps


def _voronoi_cell_pops(pops, dist_maps):
    """Population of each center's Voronoi cell, from the centers' distance lists.

    A block joins its nearest center by hop distance, the earliest center on
    a tie, and a block no center reaches joins the first.  ``pops`` is the
    region's population list, summed in position order.
    """
    nearest = dist_maps[0][:]
    cell = [0] * len(nearest)
    for i in range(1, len(dist_maps)):
        for b, d in enumerate(dist_maps[i]):
            if d < nearest[b]:
                nearest[b] = d
                cell[b] = i
    cell_pops = [0.0] * len(dist_maps)
    for c, p in zip(cell, pops):
        cell_pops[c] += p
    return cell_pops


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
