"""Fractional (Scottish) STV election engine over explicit ranked ballots.

A ``BallotGroup`` is the ballots of some voters who cast one ranking at one
weight; a per-voter ``Ballot`` is a group of one.  The count regroups its
input by (ranking, weight), so each distinct pair is counted once: a group
counts weight x members, and its members share one weight history, so the
count is the same as ballot by ballot up to float summation order.  A
winner's coalition is the groups on its pile when it is seated, each as its
voter ids and the one weight every member then holds.  The Droop quota is
floor(W / (m + 1)) + 1 for total ballot weight W and m seats.  Each round
counts weighted first preferences among continuing candidates, elects every
candidate at or above the quota simultaneously, and otherwise eliminates the
lowest-count candidate.  Surplus transfer keeps a (Q-1)/total fraction of
each supporting ballot with the winner and passes the surplus/total fraction
to the ballot's next continuing preference.

An elimination tie within one party is the only place the count reads its
seeded generator; ``ElectionResult.tie_draws`` counts those draws, so a
result with ``tie_draws == 0`` is the same for every seed.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

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
class BallotGroup:
    """The ballots of ``voter_ids``, each casting ``ranking`` at ``weight``.

    Errors name the group's first voter id.
    """
    ranking: tuple
    weight: float
    voter_ids: tuple

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError(f"ballot {self.voter_ids[0]} ranks a candidate twice")
        if not 0 < self.weight <= 1:
            raise ValueError(f"ballot {self.voter_ids[0]} weight {self.weight} not in (0, 1]")


class Ballot(BallotGroup):
    """One voter's ballot: a group of one."""

    def __init__(self, voter_id: int, ranking: tuple, weight: float = 1.0):
        super().__init__(ranking, weight, (voter_id,))

    @property
    def voter_id(self):
        return self.voter_ids[0]


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
    coalitions: dict  # winner id -> ((voter ids, weight at election), ...) in pile order
    quota: int
    tie_draws: int  # elimination ties broken by a random draw

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


def droop_quota(w: float, m: int) -> int:
    """floor(w / (m + 1)) + 1 for total ballot weight w > 0 and m seats.

    With unit weights w is the voter count; a total below one still gives
    quota 1.
    """
    if not w > 0 or m < 1:
        raise ValueError("ballot weight and seats must be positive")
    return int(w // (m + 1)) + 1


class _WorkingBallot:
    """The ballots of one (ranking, weight) group, counted together."""
    __slots__ = ("voter_ids", "size", "ranking", "pos", "weight")

    def __init__(self, ranking, weight, voter_ids):
        self.voter_ids = voter_ids
        self.size = len(voter_ids)
        self.ranking = ranking
        self.pos = 0
        self.weight = weight

    @property
    def count(self):
        return self.weight * self.size

    def advance(self, continuing):
        """Move to the next continuing preference; False when exhausted."""
        n = len(self.ranking)
        while self.pos < n and self.ranking[self.pos] not in continuing:
            self.pos += 1
        return self.pos < n

    @property
    def current(self):
        return self.ranking[self.pos]


def _group(ballots):
    """One working ballot per distinct (ranking, weight), in order of first appearance."""
    members = {}
    for b in ballots:
        members.setdefault((b.ranking, b.weight), []).extend(b.voter_ids)
    return [_WorkingBallot(ranking, weight, tuple(ids))
            for (ranking, weight), ids in members.items()]


def run_stv(ballots, candidates, seats: int, seed: int = 0) -> ElectionResult:
    """Run a fractional STV election over ballot groups and log every round.

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
    groups = _group(ballots)
    for wb in groups:
        unknown = set(wb.ranking) - cand_ids
        if unknown:
            raise ValueError(
                f"ballot {wb.voter_ids[0]} ranks unknown candidates {sorted(unknown)}")

    rng = random.Random(seed)
    quota = droop_quota(math.fsum(itertools.chain.from_iterable(
        itertools.repeat(wb.weight, wb.size) for wb in groups)), seats)
    continuing = set(cand_ids)
    piles = {c: [] for c in cand_ids}
    exhausted = 0.0
    retained = 0.0
    winners = []
    coalitions = {}
    rounds = []
    tie_draws = 0

    for wb in groups:
        if wb.advance(continuing):
            piles[wb.current].append(wb)
        else:
            exhausted += wb.count

    def totals():
        return {c: sum(wb.count for wb in piles[c]) for c in continuing}

    def transfer(pile, keep_factor, destinations):
        nonlocal exhausted
        for wb in pile:
            wb.weight *= keep_factor
            if wb.weight <= 0:
                continue
            if wb.advance(destinations):
                piles[wb.current].append(wb)
            else:
                exhausted += wb.count

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
                coalitions[c] = tuple((wb.voter_ids, wb.weight) for wb in piles[c])
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
                coalitions[c] = tuple((wb.voter_ids, wb.weight) for wb in piles[c])
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
            if len(pool) == 1:
                victim = pool[0]
            else:
                victim = rng.choice(pool)
                tie_draws += 1
            continuing.discard(victim)
            pile = piles.pop(victim)
            transfer(pile, 1.0, continuing)
            eliminated = victim

        cont_weight = sum(sum(wb.count for wb in piles[c]) for c in continuing)
        rounds.append(RoundRecord(round_no, counts, list(reachers), eliminated, factors,
                                  cont_weight, retained, exhausted))

    return ElectionResult(winners, rounds, coalitions, quota, tie_draws)


def partisan_split(result: ElectionResult, candidates) -> SeatOutcome:
    """Count winners by party."""
    if not result.winners:
        raise ValueError("election produced no winners")
    party = {c.id: c.party for c in candidates}
    r = sum(1 for w in result.winners if party[w] == "R")
    return SeatOutcome(r, len(result.winners) - r)
