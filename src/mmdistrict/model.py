"""Block-graph data model: states, districts, plans, validation, and synthetic states.

A state is an adjacency graph of atomic blocks carrying population and
two-party vote counts.  A plan partitions the blocks into contiguous,
population-balanced districts, each with a seat count.  All objects are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np


class StateFormatError(ValueError):
    """Raised when an input file violates its schema or an invariant."""


@dataclass(frozen=True)
class Block:
    id: int
    population: int
    votes_r: float
    votes_d: float
    x: float
    y: float

    def __post_init__(self):
        if self.population < 0:
            raise StateFormatError(f"block {self.id}: negative population {self.population}")
        if self.votes_r < 0 or self.votes_d < 0:
            raise StateFormatError(f"block {self.id}: negative vote counts")


@dataclass(frozen=True)
class BalanceTolerance:
    epsilon: float = 0.01

    def __post_init__(self):
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")


class StateInstance:
    """Validated block graph with a statewide seat count."""

    def __init__(self, blocks, adjacency, total_seats):
        blocks = tuple(blocks)
        ids = [b.id for b in blocks]
        seen = set()
        for i in ids:
            if i in seen:
                raise StateFormatError(f"duplicate block id {i}")
            seen.add(i)
        if total_seats < 1:
            raise StateFormatError(f"total_seats must be >= 1, got {total_seats}")
        adj = {}
        for bid, nbrs in adjacency.items():
            if bid not in seen:
                raise StateFormatError(f"adjacency references unknown block {bid}")
            adj[bid] = frozenset(nbrs)
        for bid in ids:
            adj.setdefault(bid, frozenset())
        for bid, nbrs in adj.items():
            for n in nbrs:
                if n not in seen:
                    raise StateFormatError(f"block {bid} lists unknown neighbor {n}")
                if bid not in adj[n]:
                    raise StateFormatError(f"adjacency not symmetric: {bid}->{n} but not {n}->{bid}")
        self.blocks = blocks
        self.adjacency = adj
        self.total_seats = int(total_seats)
        self.block_map = {b.id: b for b in blocks}
        self.total_population = sum(b.population for b in blocks)
        if self.total_population <= 0:
            raise StateFormatError("total population must be positive")
        if not is_connected(set(ids), adj):
            raise StateFormatError("block graph is disconnected")

    @property
    def block_ids(self):
        return frozenset(self.block_map)

    def statewide_vote_share(self) -> float:
        """Statewide R share of the two-party vote."""
        return vote_share(self.blocks)


@dataclass(frozen=True)
class District:
    block_ids: frozenset
    seats: int

    def __post_init__(self):
        if not self.block_ids:
            raise ValueError("district must contain at least one block")
        if self.seats < 1:
            raise ValueError(f"district seats must be >= 1, got {self.seats}")


@dataclass(frozen=True)
class Plan:
    districts: tuple

    def __post_init__(self):
        if not self.districts:
            raise ValueError("plan must contain at least one district")

    @property
    def total_seats(self):
        return sum(d.seats for d in self.districts)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def is_connected(region, adjacency) -> bool:
    """BFS connectivity over the induced subgraph on ``region``."""
    if not region:
        return False
    region = set(region)
    start = next(iter(region))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in region and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(region)


def vote_share(blocks) -> float:
    """Two-party R vote share of the blocks, summed in iteration order; 0.5 when no votes."""
    r = d = 0.0
    for b in blocks:
        r += b.votes_r
        d += b.votes_d
    total = r + d
    return 0.5 if total == 0 else r / total


def district_vote_share(state: StateInstance, district: District) -> float:
    """Two-party R vote share over the district's blocks; KeyError on an unknown block."""
    return vote_share(state.block_map[bid] for bid in district.block_ids)


def district_population(state: StateInstance, district: District) -> int:
    return sum(state.block_map[bid].population for bid in district.block_ids)


def validate_plan(state: StateInstance, plan: Plan, tol: BalanceTolerance = BalanceTolerance()) -> ValidationReport:
    """Check partition, contiguity, balance, seat total, and the size multiset.

    District seat sizes must all be j = floor(N/K) or j+1, with exactly
    N mod K districts of the larger size.
    """
    report = ValidationReport()
    n_total = state.total_seats

    assigned = []
    for d in plan.districts:
        assigned.extend(d.block_ids)
    counted = set()
    dupes = set()
    for bid in assigned:
        if bid in counted:
            dupes.add(bid)
        counted.add(bid)
    missing = state.block_ids - counted
    unknown = counted - state.block_ids
    if dupes:
        report.violations.append(f"partition: blocks in multiple districts: {sorted(dupes)}")
    if missing:
        report.violations.append(f"partition: blocks missing from plan: {sorted(missing)}")
    if unknown:
        report.violations.append(f"partition: unknown block ids: {sorted(unknown)}")

    for i, d in enumerate(plan.districts):
        if not d.block_ids - unknown:
            continue
        if not is_connected(d.block_ids & state.block_ids, state.adjacency):
            report.violations.append(f"district {i}: not contiguous")

    seat_sum = plan.total_seats
    if seat_sum != n_total:
        report.violations.append(f"seat total {seat_sum} != state total {n_total}")

    k = len(plan.districts)
    j, n_large = n_total // k, n_total % k
    sizes = sorted(d.seats for d in plan.districts)
    expected = sorted([j] * (k - n_large) + [j + 1] * n_large)
    if sizes != expected:
        report.violations.append(f"size allocation {sizes} != required {expected} for K={k}, N={n_total}")

    if not unknown:
        pop = state.total_population
        for i, d in enumerate(plan.districts):
            target = d.seats / n_total
            ratio = district_population(state, d) / pop
            if abs(ratio - target) > tol.epsilon * target + 1e-12:
                report.violations.append(
                    f"district {i}: population ratio {ratio:.6f} outside "
                    f"{target:.6f} +/- {tol.epsilon:.4f} relative")
    return report


# ---------------------------------------------------------------------------
# File I/O

def read_json(path):
    """Parse a JSON file; invalid JSON raises StateFormatError naming the path."""
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise StateFormatError(f"{path}: invalid JSON: {e}") from e


def write_json(data, path) -> None:
    """Write indented JSON with sorted keys and a final newline."""
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def load_state(path) -> StateInstance:
    """Load and validate a state JSON file."""
    data = read_json(path)
    try:
        total_seats = data["total_seats"]
        raw_blocks = data["blocks"]
    except (KeyError, TypeError) as e:
        raise StateFormatError(f"{path}: missing field {e}") from e
    blocks = []
    adjacency = {}
    for rec in raw_blocks:
        try:
            blocks.append(Block(
                id=int(rec["id"]), population=int(rec["population"]),
                votes_r=float(rec["votes_r"]), votes_d=float(rec["votes_d"]),
                x=float(rec["x"]), y=float(rec["y"])))
            adjacency[int(rec["id"])] = {int(n) for n in rec["neighbors"]}
        except (KeyError, TypeError, ValueError) as e:
            raise StateFormatError(f"{path}: malformed block record {rec!r}: {e}") from e
    return StateInstance(blocks, adjacency, total_seats)


def save_state(state: StateInstance, path) -> None:
    data = {
        "total_seats": state.total_seats,
        "blocks": [
            {"id": b.id, "population": b.population, "votes_r": b.votes_r,
             "votes_d": b.votes_d, "x": b.x, "y": b.y,
             "neighbors": sorted(state.adjacency[b.id])}
            for b in sorted(state.blocks, key=lambda b: b.id)
        ],
    }
    write_json(data, path)


def load_plan(path) -> Plan:
    """Load a plan JSON file; a malformed file raises StateFormatError naming it."""
    data = read_json(path)
    try:
        districts = tuple(
            District(block_ids=frozenset(int(b) for b in d["blocks"]), seats=int(d["seats"]))
            for d in data["districts"])
    except (KeyError, TypeError, ValueError) as e:
        raise StateFormatError(f"{path}: malformed plan: {e}") from e
    return Plan(districts)


def save_plan(plan: Plan, path) -> None:
    data = {"districts": [
        {"seats": d.seats, "blocks": sorted(d.block_ids)} for d in plan.districts]}
    write_json(data, path)


# ---------------------------------------------------------------------------
# Synthetic states

#: Standard deviation of block-level R share around the statewide mean.
SHARE_NOISE = 0.3
#: Fraction of the population casting votes in the synthetic history.
TURNOUT = 0.8


def _grid_dims(n_blocks: int):
    rows = 1
    for r in range(1, int(np.sqrt(n_blocks)) + 1):
        if n_blocks % r == 0:
            rows = r
    return rows, n_blocks // rows


def generate_synthetic_state(n_blocks: int, seats: int, r_share: float,
                             spatial_correlation: float, seed: int) -> StateInstance:
    """Grid-graph state with a smoothed random R-share field.

    Block shares are drawn i.i.d. and then neighbor-averaged
    ``round(spatial_correlation)`` times, so larger values yield stronger
    spatial clustering.  The field is shifted after generation so the
    statewide share lands within 0.01 of ``r_share``.
    """
    if n_blocks < 1 or seats < 1:
        raise ValueError("n_blocks and seats must be positive")
    if not 0 < r_share < 1:
        raise ValueError(f"r_share must be in (0, 1), got {r_share}")
    if spatial_correlation < 0:
        raise ValueError("spatial_correlation must be >= 0")
    rows, cols = _grid_dims(n_blocks)
    rng = np.random.default_rng(seed)

    neighbors = {}
    for r in range(rows):
        for c in range(cols):
            bid = r * cols + c
            nbrs = set()
            if r > 0:
                nbrs.add(bid - cols)
            if r < rows - 1:
                nbrs.add(bid + cols)
            if c > 0:
                nbrs.add(bid - 1)
            if c < cols - 1:
                nbrs.add(bid + 1)
            neighbors[bid] = nbrs

    z = rng.standard_normal(n_blocks)
    for _ in range(int(round(spatial_correlation))):
        smoothed = np.array([
            0.5 * z[i] + 0.5 * np.mean([z[n] for n in neighbors[i]])
            for i in range(n_blocks)])
        z = smoothed
    std = z.std()
    if std > 0:
        z = (z - z.mean()) / std

    share = np.clip(r_share + SHARE_NOISE * z, 0.02, 0.98)
    # Shift so the (population-uniform) statewide share matches the target.
    for _ in range(50):
        delta = r_share - share.mean()
        if abs(delta) <= 0.005:
            break
        share = np.clip(share + delta, 0.02, 0.98)

    population = 1000
    blocks = []
    for bid in range(n_blocks):
        total_votes = population * TURNOUT
        blocks.append(Block(
            id=bid, population=population,
            votes_r=float(share[bid] * total_votes),
            votes_d=float((1 - share[bid]) * total_votes),
            x=float(bid % cols), y=float(bid // cols)))
    return StateInstance(blocks, neighbors, seats)
