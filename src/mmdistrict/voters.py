"""Synthetic voter files, candidate slates, and ballot construction.

Stands in for a proprietary individual-level voter file: voters are placed
around block centroids with party labels calibrated to the block vote share
and one-dimensional partisan scores (D negative, R positive).  Ballots rank
all own-party candidates before the other party, by score or geographic
distance, so every simulated election satisfies the party-line assumption.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import StateFormatError, vote_share
from .stv import Ballot, Candidate

#: Voters are jittered uniformly within this radius (km) of the block centroid.
LOCATION_JITTER_KM = 0.5
#: Coefficient on (block share - 1/2) added to every score in the block.
BLOCK_LEAN_SHIFT = 1.0

RANKING_MODES = ("partisan_score", "geographic")


@dataclass(frozen=True)
class Voter:
    id: int
    block_id: int
    party: str
    partisan_score: float
    x: float
    y: float


@dataclass(frozen=True)
class VoterFile:
    voters: tuple

    def in_district(self, district):
        return [v for v in self.voters if v.block_id in district.block_ids]


def generate_voter_file(state, voters_per_block: int, score_spread: float,
                        seed: int) -> VoterFile:
    """Sample voters calibrated to each block's vote share.

    Block b receives round(voters_per_block * pop_b / mean_pop) voters, with
    the R count matching the block share to within one voter.  Scores are
    party-conditional Gaussians (means +1/-1, sd score_spread) plus a shift
    proportional to the block's partisan lean.
    """
    if voters_per_block < 1:
        raise ValueError("voters_per_block must be >= 1")
    if score_spread <= 0:
        raise ValueError("score_spread must be positive")
    rng = np.random.default_rng(seed)
    mean_pop = state.total_population / len(state.blocks)
    voters = []
    next_id = 0
    for block in sorted(state.blocks, key=lambda b: b.id):
        n = int(round(voters_per_block * block.population / mean_pop))
        if n == 0:
            continue
        share = vote_share((block,))
        n_r = int(round(share * n))
        shift = BLOCK_LEAN_SHIFT * (share - 0.5)
        parties = ["R"] * n_r + ["D"] * (n - n_r)
        for p in parties:
            mean = 1.0 if p == "R" else -1.0
            score = rng.normal(mean, score_spread) + shift
            radius = LOCATION_JITTER_KM * math.sqrt(rng.uniform())
            theta = rng.uniform(0, 2 * math.pi)
            voters.append(Voter(
                id=next_id, block_id=block.id, party=p, partisan_score=float(score),
                x=block.x + radius * math.cos(theta),
                y=block.y + radius * math.sin(theta)))
            next_id += 1
    return VoterFile(tuple(voters))


def generate_candidates(voters, seats: int, per_party: int):
    """Quantile-spread candidate slates for both parties from a district's voters.

    Candidate j of a party sits at the (j + 0.5) / per_party quantile of that
    party's voter score distribution in the district, and at the matching
    quantile of distance from the district's voter centroid.  Deterministic.
    """
    if per_party < seats:
        raise ValueError(f"per_party {per_party} < district seats {seats}")
    if voters:
        cx = float(np.mean([v.x for v in voters]))
        cy = float(np.mean([v.y for v in voters]))
    else:
        cx = cy = 0.0
    candidates = []
    for party in ("R", "D"):
        members = [v for v in voters if v.party == party]
        scores = np.array([v.partisan_score for v in members])
        by_dist = sorted(members, key=lambda v: (math.hypot(v.x - cx, v.y - cy), v.id))
        for j in range(per_party):
            q = (j + 0.5) / per_party
            if members:
                score = float(np.quantile(scores, q))
                pick = by_dist[min(len(by_dist) - 1, int(q * len(by_dist)))]
                loc = (pick.x, pick.y)
            else:
                score = 1.0 if party == "R" else -1.0
                loc = (cx, cy)
            candidates.append(Candidate(id=len(candidates), party=party, score=score,
                                        location=loc))
    return candidates


def build_ballots(voters, candidates, mode: str):
    """Full party-line rankings: own party nearest-first, then the other party.

    Distance is |score difference| in partisan_score mode and planar distance
    in geographic mode; ties break by candidate id.
    """
    if mode not in RANKING_MODES:
        raise ValueError(f"unknown ranking mode {mode!r}")
    parties = {c.party for c in candidates}
    if parties != {"R", "D"}:
        raise ValueError("candidates must include at least one per party")

    def dist(voter, cand):
        if mode == "partisan_score":
            return abs(voter.partisan_score - cand.score)
        return math.hypot(voter.x - cand.location[0], voter.y - cand.location[1])

    ballots = []
    for v in voters:
        own = sorted((c for c in candidates if c.party == v.party),
                     key=lambda c: (dist(v, c), c.id))
        other = sorted((c for c in candidates if c.party != v.party),
                       key=lambda c: (dist(v, c), c.id))
        ballots.append(Ballot(voter_id=v.id, ranking=tuple(c.id for c in own + other)))
    return ballots


# ---------------------------------------------------------------------------
# Voter file CSV: voter_id, block_id, party, partisan_score, x, y

def load_voter_file(path) -> VoterFile:
    """Load a voter file; a malformed one raises StateFormatError naming the path and line."""
    voters = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[0] != "voter_id":
            raise StateFormatError(f"{path}: line 1: expected a voter_id header, got {header}")
        for row in reader:
            try:
                if len(row) != 6 or row[2] not in ("R", "D"):
                    raise ValueError(f"expected 6 fields with party R or D, got {row}")
                voters.append(Voter(int(row[0]), int(row[1]), row[2], *map(float, row[3:])))
            except ValueError as e:
                raise StateFormatError(f"{path}: line {reader.line_num}: {e}") from e
    return VoterFile(tuple(voters))


def save_voter_file(voter_file: VoterFile, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["voter_id", "block_id", "party", "partisan_score", "x", "y"])
        for v in voter_file.voters:
            writer.writerow([v.id, v.block_id, v.party, repr(v.partisan_score),
                             repr(v.x), repr(v.y)])
