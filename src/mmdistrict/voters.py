"""Synthetic voter files, candidate slates, and ballot construction.

Stands in for a proprietary individual-level voter file: voters are placed
around block centroids with party labels calibrated to the block vote share
and one-dimensional partisan scores (D negative, R positive).  A ``VoterFile``
is column arrays, one row per voter: the ``Voters`` columns (id, party,
score, x, y) and a block-id column, which the generator and the CSV loader
fill directly.  An index from each block to its rows makes a district's
voters its blocks' rows, sorted back into file order.  Candidate slates and
ballots are built from those columns.  Ballots rank all own-party candidates
before the other party, by score or geographic distance, so every simulated
election satisfies the party-line assumption; voters with the same ranking
are returned as one ``BallotGroup``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .model import StateFormatError, vote_share
from .stv import BallotGroup, Candidate

#: Voters are jittered uniformly within this radius (km) of the block centroid.
LOCATION_JITTER_KM = 0.5
#: Coefficient on (block share - 1/2) added to every score in the block.
BLOCK_LEAN_SHIFT = 1.0

RANKING_MODES = ("partisan_score", "geographic")


@dataclass(frozen=True, eq=False)
class Voters:
    """Column arrays of some voters of a file, one entry per voter, in file order."""
    id: np.ndarray  # int64
    party: np.ndarray  # "R" or "D"
    score: np.ndarray  # partisan score
    x: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.id)

    def take(self, rows):
        """The voters at ``rows``, in that order."""
        return Voters(self.id[rows], self.party[rows], self.score[rows],
                      self.x[rows], self.y[rows])


@dataclass(frozen=True, eq=False)
class VoterFile:
    """Voters with unique ids: their columns, each one's block id, and a block id -> rows index."""
    columns: Voters
    block_id: np.ndarray  # int64
    block_rows: dict = field(init=False, repr=False)  # ascending rows

    @classmethod
    def of(cls, ids, block_ids, parties, scores, xs, ys):
        """A voter file from its columns as sequences, in the CSV's column order."""
        return cls(Voters(np.array(ids, dtype=np.int64), np.array(parties, dtype="<U1"),
                          np.array(scores, dtype=float), np.array(xs, dtype=float),
                          np.array(ys, dtype=float)),
                   np.array(block_ids, dtype=np.int64))

    def __post_init__(self):
        columns, blocks = self.columns, self.block_id
        if len({len(blocks), *map(len, vars(columns).values())}) > 1:
            raise ValueError("voter columns differ in length")
        sorted_ids = np.sort(columns.id)
        repeats = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if len(repeats):
            raise ValueError(f"voter id {repeats[0]} repeats")
        by_block = np.argsort(blocks, kind="stable")
        block_ids, starts = np.unique(blocks[by_block], return_index=True)
        object.__setattr__(self, "block_rows",
                           dict(zip(block_ids.tolist(), np.split(by_block, starts[1:]))))

    def in_district(self, district):
        """The district's voters: its blocks' rows, sorted back into file order."""
        parts = [self.block_rows[b] for b in district.block_ids if b in self.block_rows]
        rows = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.intp)
        return self.columns.take(rows)


def generate_voter_file(state, voters_per_block: int, score_spread: float,
                        seed: int) -> VoterFile:
    """Sample voters calibrated to each block's vote share, block by block in the state's id order.

    Block b receives round(voters_per_block * pop_b / mean_pop) voters, with
    the R count matching the block share to within one voter.  Scores are
    party-conditional Gaussians (means +1/-1, sd score_spread) plus a shift
    proportional to the block's partisan lean.
    """
    if voters_per_block < 1:
        raise ValueError("voters_per_block must be >= 1")
    if not 0 < score_spread < math.inf:
        raise ValueError(f"score_spread must be finite and positive, got {score_spread}")
    outside = next((b.id for b in state.blocks if not -2**63 <= b.id < 2**63), None)
    if outside is not None:
        raise ValueError(f"block id {outside} is outside the int64 range of a voter file")
    rng = np.random.default_rng(seed)
    mean_pop = state.total_population / len(state.blocks)
    blocks, parties, scores, xs, ys = [], [], [], [], []
    for block in state.blocks:
        n = int(round(voters_per_block * block.population / mean_pop))
        share = vote_share((block,))
        n_r = int(round(share * n))
        shift = BLOCK_LEAN_SHIFT * (share - 0.5)
        block_parties = ["R"] * n_r + ["D"] * (n - n_r)
        blocks += [block.id] * n
        parties += block_parties
        for p in block_parties:
            scores.append(rng.normal(1.0 if p == "R" else -1.0, score_spread) + shift)
            radius = LOCATION_JITTER_KM * math.sqrt(rng.uniform())
            theta = rng.uniform(0, 2 * math.pi)
            xs.append(block.x + radius * math.cos(theta))
            ys.append(block.y + radius * math.sin(theta))
    return VoterFile.of(range(len(blocks)), blocks, parties, scores, xs, ys)


def planar_distances(dx, dy):
    """``math.hypot`` of each (dx, dy) pair, in dx's shape.

    Not ``np.hypot``: the two can differ in the last bit.
    """
    return np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()),
                       float, dx.size).reshape(dx.shape)


def _quantiles(values, qs):
    """``np.quantile(values, qs)`` (linear method) from one sort, with numpy's arithmetic."""
    ordered = np.sort(values).tolist()
    last = len(ordered) - 1
    out = []
    for q in qs:
        at = last * q
        # At or past the last value numpy reads index -1 on both sides, and takes gamma from -1.
        below = -1 if at >= last else math.floor(at)
        gamma = at - below
        a, b = ordered[below], ordered[below + 1 if below >= 0 else -1]
        out.append(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)
    return out


def generate_candidates(voters: Voters, seats: int, per_party: int):
    """Quantile-spread candidate slates for both parties from a district's voters.

    Candidate j of a party sits at the (j + 0.5) / per_party quantile of that
    party's voter score distribution in the district, and at the matching
    quantile of distance from the district's voter centroid.  Deterministic.
    """
    if per_party < seats:
        raise ValueError(f"per_party {per_party} < district seats {seats}")
    if voters:
        cx = float(np.mean(voters.x))
        cy = float(np.mean(voters.y))
    else:
        cx = cy = 0.0
    qs = [(j + 0.5) / per_party for j in range(per_party)]
    dist = planar_distances(voters.x - cx, voters.y - cy)
    is_r = voters.party == "R"
    candidates = []
    for party, mask in (("R", is_r), ("D", ~is_r)):
        members = voters.take(mask)
        n = len(members)
        if n:
            by_dist = np.lexsort((members.id, dist[mask]))
            picks = by_dist[[min(n - 1, int(q * n)) for q in qs]]
            slate = zip(_quantiles(members.score, qs),
                        zip(members.x[picks].tolist(), members.y[picks].tolist()))
        else:
            slate = [(1.0 if party == "R" else -1.0, (cx, cy))] * per_party
        for score, loc in slate:
            candidates.append(Candidate(id=len(candidates), party=party, score=score,
                                        location=loc))
    return candidates


def build_ballots(voters: Voters, candidates, mode: str):
    """Full party-line rankings: own party nearest-first, then the other party.

    Distance is |score difference| in partisan_score mode and planar distance
    in geographic mode; ties break by candidate id.  All voters are ranked in
    one ``np.lexsort`` over the voters x candidates keys.  Returns one
    ``BallotGroup`` of weight 1 per distinct ranking, in order of first
    appearance, holding its voters' ids in file order.
    """
    if mode not in RANKING_MODES:
        raise ValueError(f"unknown ranking mode {mode!r}")
    parties = {c.party for c in candidates}
    if parties != {"R", "D"}:
        raise ValueError("candidates must include at least one per party")

    if not voters:
        return []
    # np.lexsort sorts each voter's row by its last key first: other party,
    # then distance, then candidate id.
    ids = np.array([c.id for c in candidates])
    other = voters.party[:, None] != np.array([c.party for c in candidates])
    if mode == "partisan_score":
        dist = np.abs(voters.score[:, None] - np.array([c.score for c in candidates]))
    else:
        cx, cy = np.array([c.location for c in candidates]).T
        dist = planar_distances(voters.x[:, None] - cx, voters.y[:, None] - cy)
    rankings = ids[np.lexsort((np.broadcast_to(ids, dist.shape), dist, other))]
    # A stable sort of the rows puts equal rankings in runs, each run's voters
    # in file order; a run's first voter orders the groups.
    by_row = np.lexsort(rankings.T)
    starts = np.flatnonzero(np.concatenate(([True], np.diff(rankings[by_row], axis=0).any(axis=1))))
    bounds = np.concatenate((starts, [len(by_row)])).tolist()
    first = by_row[starts]
    voter_ids = voters.id[by_row].tolist()
    group_rankings = rankings[first].tolist()
    return [BallotGroup(tuple(group_rankings[g]), 1.0, tuple(voter_ids[bounds[g]:bounds[g + 1]]))
            for g in np.argsort(first).tolist()]


# ---------------------------------------------------------------------------
# Voter file CSV: voter_id, block_id, party, partisan_score, x, y

def load_voter_file(path) -> VoterFile:
    """Load a voter file; a malformed one raises StateFormatError naming the path and line."""
    columns = ([], [], [], [], [], [])  # in the CSV's column order
    line_of = {}  # voter id -> line it was read from
    # A byte that is not UTF-8 reads as a lone surrogate, which fails the check of
    # the field holding it, on its own line; strict decoding fails a chunk ahead.
    with open(path, newline="", errors="surrogateescape") as f:
        reader = csv.reader(f)
        try:
            expected = ["voter_id", "block_id", "party", "partisan_score", "x", "y"]
            if (header := next(reader, None)) != expected:
                raise ValueError(f"expected the voter_id header {','.join(expected)}, got {header}")
            for row in reader:
                if len(row) != 6 or row[2] not in ("R", "D"):
                    raise ValueError(f"expected 6 fields with party R or D, got {row}")
                voter_id, block_id = int(row[0]), int(row[1])
                for name, value in (("voter_id", voter_id), ("block_id", block_id)):
                    if not -2**63 <= value < 2**63:
                        raise ValueError(f"{name} {value} is outside the int64 range")
                score, x, y = map(float, row[3:])
                for name, value in (("partisan_score", score), ("x", x), ("y", y)):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} {value} is not finite")
                if voter_id in line_of:
                    raise ValueError(f"voter id {voter_id} repeats line {line_of[voter_id]}")
                line_of[voter_id] = reader.line_num
                for column, value in zip(columns, (voter_id, block_id, row[2], score, x, y)):
                    column.append(value)
        except (ValueError, csv.Error) as e:  # csv.Error: a field past csv.field_size_limit()
            # An empty file fails at line 1, where its header belongs.
            raise StateFormatError(f"{path}: line {max(reader.line_num, 1)}: {e}") from e
    return VoterFile.of(*columns)
