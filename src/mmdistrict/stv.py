"""Fractional (Scottish) STV election engine over explicit ranked ballots.

Each round counts weighted first preferences among continuing candidates,
elects every candidate at or above the Droop quota simultaneously, and
otherwise eliminates the lowest-count candidate.  Surplus transfer keeps a
(Q-1)/total fraction of each supporting ballot with the winner and passes
the surplus/total fraction to the ballot's next continuing preference.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field

from .model import StateFormatError
from .rules import SeatOutcome

#: Slack for floating-point comparisons against the integer quota.
WEIGHT_EPS = 1e-9


@dataclass(frozen=True)
class Candidate:
    id: int
    party: str  # "R" or "D"
    score: float = 0.0
    location: tuple = (0.0, 0.0)


@dataclass
class Ballot:
    voter_id: int
    ranking: tuple
    weight: float = 1.0

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError(f"ballot {self.voter_id} ranks a candidate twice")
        if not 0 < self.weight <= 1:
            raise ValueError(f"ballot {self.voter_id} weight {self.weight} not in (0, 1]")


@dataclass
class RoundRecord:
    number: int
    counts: dict
    elected: list
    eliminated: object  # candidate id or None
    transfer_factors: dict
    continuing_weight: float
    retained_weight: float
    exhausted_weight: float


@dataclass
class ElectionResult:
    winners: list
    rounds: list
    coalitions: dict  # winner id -> {voter_id: weight at election}
    quota: int

    def round_log(self):
        """Round log as JSON-serializable dicts, one per round."""
        return [
            {"round": r.number, "counts": {str(k): v for k, v in sorted(r.counts.items())},
             "elected": r.elected, "eliminated": r.eliminated,
             "transfer_factors": {str(k): v for k, v in sorted(r.transfer_factors.items())},
             "continuing_weight": r.continuing_weight,
             "retained_weight": r.retained_weight,
             "exhausted_weight": r.exhausted_weight}
            for r in self.rounds]


def droop_quota(v: int, m: int) -> int:
    """floor(v / (m + 1)) + 1 for v voters and m seats."""
    if v < 1 or m < 1:
        raise ValueError("voters and seats must be positive")
    return v // (m + 1) + 1


class _WorkingBallot:
    __slots__ = ("voter_id", "ranking", "pos", "weight")

    def __init__(self, ballot):
        self.voter_id = ballot.voter_id
        self.ranking = ballot.ranking
        self.pos = 0
        self.weight = ballot.weight

    def advance(self, continuing):
        """Move to the next continuing preference; False when exhausted."""
        n = len(self.ranking)
        while self.pos < n and self.ranking[self.pos] not in continuing:
            self.pos += 1
        return self.pos < n

    @property
    def current(self):
        return self.ranking[self.pos]


def run_stv(ballots, candidates, seats: int, seed: int = 0) -> ElectionResult:
    """Run a fractional STV election and log every round.

    Elimination ties are broken by eliminating an R candidate before a D
    candidate, uniformly at random within a party from the seeded generator.
    Stops when all seats are filled or the continuing candidates exactly
    cover the remaining seats (those are elected in descending vote order).
    """
    if seats < 1:
        raise ValueError("seats must be >= 1")
    if seats > len(candidates):
        raise ValueError(f"seats {seats} exceeds candidate count {len(candidates)}")
    if not ballots:
        raise ValueError("no ballots")
    cand_ids = {c.id for c in candidates}
    party = {c.id: c.party for c in candidates}
    for b in ballots:
        unknown = set(b.ranking) - cand_ids
        if unknown:
            raise ValueError(f"ballot {b.voter_id} ranks unknown candidates {sorted(unknown)}")

    rng = random.Random(seed)
    quota = droop_quota(len(ballots), seats)
    continuing = set(cand_ids)
    piles = {c: [] for c in cand_ids}
    exhausted = 0.0
    retained = 0.0
    winners = []
    coalitions = {}
    rounds = []

    for b in ballots:
        wb = _WorkingBallot(b)
        if wb.advance(continuing):
            piles[wb.current].append(wb)
        else:
            exhausted += wb.weight

    def totals():
        return {c: sum(wb.weight for wb in piles[c]) for c in continuing}

    def transfer(pile, keep_factor, destinations):
        nonlocal exhausted
        moved = 0.0
        for wb in pile:
            wb.weight *= keep_factor
            if wb.weight <= 0:
                continue
            if wb.advance(destinations):
                piles[wb.current].append(wb)
                moved += wb.weight
            else:
                exhausted += wb.weight
        return moved

    round_no = 0
    while len(winners) < seats:
        round_no += 1
        counts = totals()
        factors = {}

        if len(continuing) == seats - len(winners):
            # Remaining candidates exactly cover the remaining seats.
            by_votes = sorted(continuing, key=lambda c: (-counts[c], c))
            for c in by_votes:
                winners.append(c)
                coalitions[c] = _merge_coalition(piles[c])
                retained += counts[c]
            continuing.clear()
            rounds.append(RoundRecord(round_no, counts, by_votes, None, {},
                                      0.0, retained, exhausted))
            break

        # With V not divisible by seats+1, one more candidate than the
        # remaining seats can reach quota; elect at most the remaining
        # count, highest totals first, exact ties resolved toward party D.
        reachers = sorted((c for c in continuing if counts[c] >= quota - WEIGHT_EPS),
                          key=lambda c: (-counts[c], party[c] != "D", c))
        reachers = reachers[:seats - len(winners)]
        if reachers:
            for c in reachers:
                continuing.discard(c)
            for c in reachers:
                total = counts[c]
                winners.append(c)
                coalitions[c] = _merge_coalition(piles[c])
                surplus = total - (quota - 1)
                keep = surplus / total
                factors[c] = keep
                retained += total - surplus
                pile = piles.pop(c)
                transfer(pile, keep, continuing)
            eliminated = None
        else:
            low = min(counts.values())
            tied = sorted(c for c in continuing if counts[c] <= low + WEIGHT_EPS)
            pool = [c for c in tied if party[c] == "R"] or tied
            victim = pool[0] if len(pool) == 1 else rng.choice(pool)
            continuing.discard(victim)
            pile = piles.pop(victim)
            transfer(pile, 1.0, continuing)
            eliminated = victim

        cont_weight = sum(sum(wb.weight for wb in piles[c]) for c in continuing)
        rounds.append(RoundRecord(round_no, counts, list(reachers), eliminated, factors,
                                  cont_weight, retained, exhausted))

    return ElectionResult(winners, rounds, coalitions, quota)


def _merge_coalition(pile):
    coalition = {}
    for wb in pile:
        coalition[wb.voter_id] = coalition.get(wb.voter_id, 0.0) + wb.weight
    return coalition


def partisan_split(result: ElectionResult, candidates) -> SeatOutcome:
    """Count winners by party."""
    if not result.winners:
        raise ValueError("election produced no winners")
    party = {c.id: c.party for c in candidates}
    r = sum(1 for w in result.winners if party[w] == "R")
    return SeatOutcome(r, len(result.winners) - r)


# ---------------------------------------------------------------------------
# Ballot CSV (debugging input): voter_id, weight, semicolon-separated ranking

def load_ballots(path):
    """Load a ballot file; a malformed row raises StateFormatError naming the path and line."""
    ballots = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                voter_id, weight, ranking = row
                ballots.append(Ballot(
                    voter_id=int(voter_id), weight=float(weight),
                    ranking=tuple(int(c) for c in ranking.split(";") if c)))
            except ValueError as e:
                raise StateFormatError(f"{path}: line {reader.line_num}: {e}") from e
    return ballots


def save_ballots(ballots, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for b in ballots:
            writer.writerow([b.voter_id, b.weight, ";".join(str(c) for c in b.ranking)])
