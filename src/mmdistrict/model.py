"""Block-graph data model: states, districts, plans, validation, and synthetic states.

A state is an adjacency graph of atomic blocks carrying population and
two-party vote counts.  A plan partitions the blocks into contiguous,
population-balanced districts, each with a seat count.  All objects are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter, deque
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
        finite = math.isfinite
        if not (finite(self.votes_r) and finite(self.votes_d) and finite(self.x) and finite(self.y)):
            name = next(n for n in ("votes_r", "votes_d", "x", "y") if not finite(getattr(self, n)))
            raise StateFormatError(f"block {self.id}: {name} {getattr(self, name)} is not finite")
        if self.votes_r < 0 or self.votes_d < 0:
            raise StateFormatError(f"block {self.id}: negative vote counts")


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


#: Relative population tolerance of every district; see ``balance_slack``.
EPSILON = 0.01


def balance_slack(target, epsilon):
    """People a district may be off its ``target``, P*s/N for s of N seats; 1e-9 absorbs rounding."""
    return epsilon * target + 1e-9


class StateInstance:
    """Validated block graph with a statewide seat count; ``blocks`` and ``block_map``
    hold the blocks in ascending id order, whatever order they were given in."""

    def __init__(self, blocks, adjacency, total_seats):
        blocks = tuple(sorted(blocks, key=lambda b: b.id))
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
            if bid in nbrs:
                raise StateFormatError(f"block {bid} lists itself as a neighbor")
            for n in nbrs:
                if n not in seen:
                    raise StateFormatError(f"block {bid} lists unknown neighbor {n}")
                if bid not in adj[n]:
                    raise StateFormatError(f"adjacency not symmetric: {bid}->{n} but not {n}->{bid}")
        self.blocks = blocks
        self.adjacency = adj
        self.total_seats = int(total_seats)
        self.block_map = {b.id: b for b in blocks}
        population, r, d = 0, 0.0, 0.0
        for b in blocks:
            population, r, d = population + b.population, r + b.votes_r, d + b.votes_d
        self.total_population = population
        if self.total_population <= 0:
            raise StateFormatError("total population must be positive")
        # Every block and region holds at most the total, so float() of any population is finite.
        if self.total_population > sys.float_info.max:
            raise StateFormatError("total population is too large for a float")
        if self.total_seats > self.total_population:
            raise StateFormatError(f"total_seats {total_seats} exceeds the total population "
                                   f"{self.total_population}")
        if not is_connected(set(ids), adj):
            raise StateFormatError("block graph is disconnected")
        if not math.isfinite(r + d):
            raise StateFormatError(f"the summed votes, {r} R and {d} D, are not finite")

    @property
    def block_ids(self):
        return frozenset(self.block_map)

    def statewide_vote_share(self) -> float:
        """Statewide R share of the two-party vote, summed in ascending id order, as every region is."""
        return vote_share(self.blocks)


@dataclass(frozen=True)
class District:
    """A district's seats and its block ids, held as an ascending tuple without repeats."""
    block_ids: tuple
    seats: int

    def __post_init__(self):
        object.__setattr__(self, "block_ids", tuple(sorted(set(self.block_ids))))
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


def region_vote_share(state: StateInstance, block_ids) -> float:
    """Two-party R vote share over ``block_ids``, summed in ascending id order: a district's ids
    and a tree region are in that order already, and ids in any other order sum alike."""
    return vote_share(map(state.block_map.__getitem__, sorted(block_ids)))


def district_vote_share(state: StateInstance, district: District) -> float:
    """Two-party R vote share over the district's blocks; KeyError on an unknown block."""
    return region_vote_share(state, district.block_ids)


def district_population(state: StateInstance, district: District) -> int:
    return sum(state.block_map[bid].population for bid in district.block_ids)


def validate_plan(state: StateInstance, plan: Plan) -> ValidationReport:
    """Check partition, contiguity, balance, seat total, and the size multiset.

    District seat sizes must be ``SizeAllocation.for_seats(N, K)``'s, which
    more districts than seats cannot have: their seat total is wrong already.
    """
    report = ValidationReport()
    n_total = state.total_seats

    counts = Counter(bid for d in plan.districts for bid in d.block_ids)
    dupes = {bid for bid, n in counts.items() if n > 1}
    missing = state.block_ids - counts.keys()
    unknown = counts.keys() - state.block_ids
    if dupes:
        report.violations.append(f"partition: blocks in multiple districts: {sorted(dupes)}")
    if missing:
        report.violations.append(f"partition: blocks missing from plan: {sorted(missing)}")
    if unknown:
        report.violations.append(f"partition: unknown block ids: {sorted(unknown)}")

    for i, d in enumerate(plan.districts):
        if unknown.issuperset(d.block_ids):
            continue
        if not is_connected([b for b in d.block_ids if b not in unknown], state.adjacency):
            report.violations.append(f"district {i}: not contiguous")

    seat_sum = plan.total_seats
    if seat_sum != n_total:
        report.violations.append(f"seat total {seat_sum} != state total {n_total}")

    k = len(plan.districts)
    if k <= n_total:
        a = SizeAllocation.for_seats(n_total, k)
        sizes = sorted(d.seats for d in plan.districts)
        expected = [a.small_size] * a.small_count + [a.small_size + 1] * a.large_count
        if sizes != expected:
            report.violations.append(
                f"size allocation {sizes} != required {expected} for K={k}, N={n_total}")

    if not unknown:
        pop = state.total_population
        for i, d in enumerate(plan.districts):
            if d.seats > n_total:  # impossible, and its target may overflow a float
                report.violations.append(f"district {i}: {d.seats} seats exceed the state's {n_total}")
                continue
            people, target = district_population(state, d), pop * d.seats / n_total
            if abs(people - target) > balance_slack(target, EPSILON):
                report.violations.append(
                    f"district {i}: population ratio {people / pop:.6f} outside "
                    f"{d.seats / n_total:.6f} +/- {EPSILON:.4f} relative")
    return report


# ---------------------------------------------------------------------------
# File I/O

def read_json(path):
    """Parse a JSON file; invalid JSON raises StateFormatError naming the path."""
    try:
        with open(path) as f:
            return json.load(f)
    except (ValueError, RecursionError) as e:  # also too many digits, non-UTF-8 text, deep nesting
        raise StateFormatError(f"{path}: invalid JSON: {e}") from e


def write_json(data, path) -> None:
    """Write indented JSON with sorted keys and a final newline."""
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _number(v, where, name, whole=False):
    """A file's number: an int where it must be ``whole`` (an integral float counts), else a float."""
    if type(v) is int:
        try:
            return v if whole else float(v)
        except OverflowError:
            raise StateFormatError(f"{where}: {name} is too large for a float") from None
    if type(v) is float and (not whole or v.is_integer()):
        return int(v) if whole else v
    # int() and float() would take a bool or a numeric string, and int() truncates 3.5.
    raise StateFormatError(f"{where}: {name} {v!r} is not {'an integer' if whole else 'a number'}")


def load_state(path) -> StateInstance:
    """Load and validate a state JSON file; a malformed file raises StateFormatError naming it."""
    data = read_json(path)
    try:
        total_seats = _number(data["total_seats"], path, "total_seats", whole=True)
        raw_blocks = data["blocks"]
    except (KeyError, TypeError) as e:
        raise StateFormatError(f"{path}: missing field {e}") from e
    if type(raw_blocks) is not list:
        raise StateFormatError(f"{path}: blocks {raw_blocks!r} is not a list")
    blocks, adjacency = [], {}
    for rec in raw_blocks:
        try:
            where = f"block {rec['id']}"
            bid = _number(rec["id"], where, "id", whole=True)
            blocks.append(Block(
                bid, _number(rec["population"], where, "population", whole=True),
                _number(rec["votes_r"], where, "votes_r"), _number(rec["votes_d"], where, "votes_d"),
                _number(rec["x"], where, "x"), _number(rec["y"], where, "y")))
            adjacency[bid] = {_number(n, where, "neighbor id", whole=True) for n in rec["neighbors"]}
        except (KeyError, TypeError, ValueError) as e:
            raise StateFormatError(f"{path}: malformed block record {rec!r}: {e}") from e
    try:
        return StateInstance(blocks, adjacency, total_seats)
    except StateFormatError as e:
        raise StateFormatError(f"{path}: {e}") from e


def save_state(state: StateInstance, path) -> None:
    """Write the blocks in id order in ``write_json``'s bytes, one record at a time."""
    records = []
    for b in state.blocks:
        nbrs = sorted(state.adjacency[b.id])
        listed = "[\n        " + ",\n        ".join(map(repr, nbrs)) + "\n      ]" if nbrs else "[]"
        records.append(f'    {{\n      "id": {b.id!r},\n      "neighbors": {listed},\n'
                       f'      "population": {b.population!r},\n      "votes_d": {b.votes_d!r},\n'
                       f'      "votes_r": {b.votes_r!r},\n      "x": {b.x!r},\n      "y": {b.y!r}\n    }}')
    with open(path, "w") as f:
        f.write('{\n  "blocks": [\n' + ",\n".join(records)
                + f'\n  ],\n  "total_seats": {state.total_seats!r}\n}}\n')


def load_plan(path) -> Plan:
    """Load a plan JSON file; a malformed file raises StateFormatError naming it."""
    data = read_json(path)
    try:
        districts = []
        for i, d in enumerate(data["districts"]):
            where = f"district {i}"
            block_ids = [_number(b, where, "block id", whole=True) for b in d["blocks"]]
            seats = _number(d["seats"], where, "seats", whole=True)
            try:
                districts.append(District(block_ids, seats))
            except ValueError as e:
                raise StateFormatError(f"{where}: {e}") from e
        return Plan(tuple(districts))
    except (KeyError, TypeError, ValueError) as e:
        raise StateFormatError(f"{path}: malformed plan: {e}") from e


def save_plan(plan: Plan, path) -> None:
    data = {"districts": [
        {"seats": d.seats, "blocks": list(d.block_ids)} for d in plan.districts]}
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


def _smooth(z, neighbors, passes):
    """``passes`` times, or until a pass changes no bit, z becomes half itself plus half its
    neighbours' mean, summed in set order as ``np.mean`` over them did, bit for bit; a block
    without neighbours keeps its z.  After a pass that changes no bit, no later pass would."""
    n = len(z)
    order = [list(neighbors[i]) for i in range(n)]
    width = max(map(len, order))
    # Missing neighbours point past the end, at -0.0, and x + -0.0 == x for every x.
    table = np.array([nbrs + [n] * (width - len(nbrs)) for nbrs in order], dtype=np.intp)
    degree = (table < n).sum(axis=1)
    for _ in range(passes):
        padded = np.append(z, -0.0)
        total = np.full(n, -0.0)
        for column in table.T:
            total += padded[column]
        z, last = np.where(degree > 0, 0.5 * z + 0.5 * (total / np.maximum(degree, 1)), z), z
        if z.tobytes() == last.tobytes():
            break
    return z


def generate_synthetic_state(n_blocks: int, seats: int, r_share: float,
                             spatial_correlation: float, seed: int) -> StateInstance:
    """Grid-graph state with a smoothed random R-share field.

    Block shares are drawn i.i.d. and then neighbor-averaged
    ``round(spatial_correlation)`` times, or until the field stops changing,
    so larger values yield stronger clustering.  The field is shifted so the
    statewide share lands within 0.01 of ``r_share``.
    """
    if n_blocks < 1 or seats < 1:
        raise ValueError("n_blocks and seats must be positive")
    if not 0 < r_share < 1:
        raise ValueError(f"r_share must be in (0, 1), got {r_share}")
    if not 0 <= spatial_correlation < math.inf:
        raise ValueError(f"spatial_correlation must be finite and >= 0, got {spatial_correlation}")
    rows, cols = _grid_dims(n_blocks)
    rng = np.random.default_rng(seed)

    neighbors = {}
    for bid in range(n_blocks):
        r, c = divmod(bid, cols)
        neighbors[bid] = nbrs = set()
        if r > 0:
            nbrs.add(bid - cols)
        if r < rows - 1:
            nbrs.add(bid + cols)
        if c > 0:
            nbrs.add(bid - 1)
        if c < cols - 1:
            nbrs.add(bid + 1)

    z = _smooth(rng.standard_normal(n_blocks), neighbors, int(round(spatial_correlation)))
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
    total_votes = population * TURNOUT
    blocks = [Block(bid, population, r, d, float(bid % cols), float(bid // cols))
              for bid, r, d in zip(range(n_blocks), (share * total_votes).tolist(),
                                   ((1 - share) * total_votes).tolist())]
    return StateInstance(blocks, neighbors, seats)
