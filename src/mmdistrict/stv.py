"""Fractional (Scottish) STV election engine over explicit ranked ballots.

The count works in whole units of 10**-5 of a vote (``UNIT`` to a vote), as
the Scottish rules compute transfer values to five decimal places and ignore
the remainder.  So every count, the quota and every comparison is an exact
integer, and a tie is a tie.  A ``BallotGroup`` is the ballots of some
voters who cast one ranking at one weight; a per-voter ``Ballot`` is a group
of one.  The count converts each weight once, to the nearest unit, and
regroups its input by (ranking, units): a group counts units x members, and
its members share one weight history, so the count is the same integers as
ballot by ballot.  A winner's coalition is the groups on its pile when it is
seated, each as its voter ids and the one weight every member then holds.
The Droop quota is floor(W / (m + 1)) + 1 for total ballot weight W and m
seats.  A running tally holds the units on each continuing candidate's pile;
each round elects every candidate at or above the quota simultaneously, and
otherwise eliminates the lowest.  A winner with T units and surplus
S = T - (Q - 1) votes passes each supporting ballot of w units to its next
continuing preference at w * S // T units, and retains the rest: Q - 1 votes
plus the truncation remainder.  Counts leave the count in votes.

An elimination tie within one party is the only place the count reads its
seeded generator; ``ElectionResult.tie_draws`` counts those draws, so a
result with ``tie_draws == 0`` is the same for every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .rules import SeatOutcome

#: Count units to a vote: transfer values to five decimal places.
UNIT = 100_000


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
        if not self.voter_ids:
            raise ValueError(f"ballot group ranking {self.ranking} has no voters")
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


def droop_quota(w, m: int) -> int:
    """floor(w / (m + 1)) + 1 for total ballot weight w > 0 and m seats.

    With unit weights w is the voter count; a total below one still gives
    quota 1.  ``run_stv`` passes its exact total in votes as a ``Fraction``.
    """
    if not w > 0 or m < 1:
        raise ValueError("ballot weight and seats must be positive")
    return int(w // (m + 1)) + 1


class _WorkingBallot:
    """The ballots of one (ranking, weight) group, counted together; weight in units."""
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
        """The next continuing preference from ``pos`` on, or None when exhausted."""
        while self.pos < len(self.ranking):
            if self.ranking[self.pos] in continuing:
                return self.ranking[self.pos]
            self.pos += 1
        return None


def _group(ballots):
    """One working ballot per distinct (ranking, weight in units), in order of first appearance."""
    members = {}
    for b in ballots:
        units = round(b.weight * UNIT)
        if not units:
            raise ValueError(f"ballot {b.voter_ids[0]} weight {b.weight} rounds to 0 units of 1/{UNIT}")
        members.setdefault((b.ranking, units), []).extend(b.voter_ids)
    return [_WorkingBallot(ranking, units, tuple(ids))
            for (ranking, units), ids in members.items()]


def run_stv(ballots, candidates, seats: int, seed: int = 0) -> ElectionResult:
    """Run a fractional STV election over ballot groups and log every round.

    Elimination ties are broken by eliminating an R candidate before a D
    candidate, uniformly at random within a party from the seeded generator.
    Stops when all seats are filled or the continuing candidates exactly
    cover the remaining seats (those are elected in descending vote order).
    """
    party = {}
    for c in candidates:
        if c.id in party:
            raise ValueError(f"candidate id {c.id} is repeated")
        if c.party not in ("R", "D"):
            raise ValueError(f"candidate {c.id} has party {c.party!r}, not 'R' or 'D'")
        party[c.id] = c.party
    if seats < 1:
        raise ValueError("seats must be >= 1")
    if seats > len(party):
        raise ValueError(f"seats {seats} exceeds candidate count {len(party)}")
    if not ballots:
        raise ValueError("no ballots")
    cand_ids = set(party)
    groups = _group(ballots)
    for wb in groups:
        unknown = set(wb.ranking) - cand_ids
        if unknown:
            raise ValueError(
                f"ballot {wb.voter_ids[0]} ranks unknown candidates {sorted(unknown)}")

    rng = random.Random(seed)
    continuing = set(cand_ids)
    piles = {c: [] for c in cand_ids}
    tally = {c: 0 for c in cand_ids}  # units on each candidate's pile while it continues
    exhausted = retained = tie_draws = 0
    winners, coalitions, rounds = [], {}, []

    def place(wb):
        """Put a group on its next continuing preference's pile, or exhaust it; return its units."""
        nonlocal exhausted
        units = wb.count
        c = wb.advance(continuing)
        if c is None:
            exhausted += units
        else:
            piles[c].append(wb)
            tally[c] += units
        return units

    def transfer(pile, surplus, total):
        """Pass each ballot of w units on at w * surplus // total units; return the units passed."""
        passed = 0
        for wb in pile:
            wb.weight = wb.weight * surplus // total
            if wb.weight:
                passed += place(wb)
        return passed

    def seat(c):
        winners.append(c)
        coalitions[c] = tuple((wb.voter_ids, wb.weight / UNIT) for wb in piles[c])

    def record(counts, elected, eliminated, factors):
        """The round in votes."""
        rounds.append(RoundRecord(round_no, {c: n / UNIT for c, n in counts.items()}, elected,
                                  eliminated, factors, sum(tally[c] for c in continuing) / UNIT,
                                  retained / UNIT, exhausted / UNIT))

    quota = droop_quota(Fraction(sum(place(wb) for wb in groups), UNIT), seats)
    round_no = 0
    while len(winners) < seats:
        round_no += 1
        counts = {c: tally[c] for c in continuing}
        factors = {}

        if len(continuing) == seats - len(winners):
            # Remaining candidates exactly cover the remaining seats.
            by_votes = sorted(continuing, key=lambda c: (-counts[c], c))
            for c in by_votes:
                seat(c)
                retained += counts[c]
            continuing.clear()
            record(counts, by_votes, None, {})
            break

        # With V not divisible by seats+1, one more candidate than the
        # remaining seats can reach quota; elect at most the remaining
        # count, highest totals first, exact ties resolved toward party D.
        reachers = sorted((c for c in continuing if counts[c] >= quota * UNIT),
                          key=lambda c: (-counts[c], party[c] != "D", c))
        reachers = reachers[:seats - len(winners)]
        if reachers:
            continuing.difference_update(reachers)
            for c in reachers:
                total = counts[c]
                seat(c)
                surplus = total - (quota - 1) * UNIT
                factors[c] = surplus / total
                retained += total - transfer(piles.pop(c), surplus, total)
            eliminated = None
        else:
            low = min(counts.values())
            tied = sorted(c for c in continuing if counts[c] == low)
            pool = [c for c in tied if party[c] == "R"] or tied
            victim = rng.choice(pool) if len(pool) > 1 else pool[0]
            tie_draws += len(pool) > 1
            continuing.discard(victim)
            transfer(piles.pop(victim), 1, 1)
            eliminated = victim

        record(counts, list(reachers), eliminated, factors)

    return ElectionResult(winners, rounds, coalitions, quota, tie_draws)


def partisan_split(result: ElectionResult, candidates) -> SeatOutcome:
    """Count winners by party."""
    if not result.winners:
        raise ValueError("election produced no winners")
    party = {c.id: c.party for c in candidates}
    r = sum(1 for w in result.winners if party[w] == "R")
    return SeatOutcome(r, len(result.winners) - r)
