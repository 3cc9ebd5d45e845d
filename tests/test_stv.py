import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from mmdistrict import stv
from mmdistrict.rules import PAV, STV, deterministic_seats
from mmdistrict.stv import (
    UNIT,
    Ballot,
    BallotGroup,
    Candidate,
    _group,
    droop_quota,
    partisan_split,
    run_stv,
)

R1, R2, D1 = (Candidate(id=0, party="R"), Candidate(id=1, party="R"),
              Candidate(id=2, party="D"))


def party_line_ballots(n_r, n_d, r_ids, d_ids, rng):
    """Party-line profile with random intra- and other-party orders."""
    ballots = []
    for i in range(n_r + n_d):
        own = list(r_ids if i < n_r else d_ids)
        other = list(d_ids if i < n_r else r_ids)
        rng.shuffle(own)
        rng.shuffle(other)
        ballots.append(Ballot(voter_id=i, ranking=tuple(own + other)))
    return ballots


def per_voter(coalition, value=float):
    """A coalition's (voter ids, weight) groups as voter id -> summed ``value(weight)``."""
    merged = {}
    for ids, weight in coalition:
        for voter_id in ids:
            merged[voter_id] = merged.get(voter_id, 0) + value(weight)
    return merged


def units(weight):
    """A weight in votes as the count's whole units."""
    return round(weight * UNIT)


def check_conservation(result, total_weight):
    for r in result.rounds:
        residual = r.continuing_weight + r.retained_weight + r.exhausted_weight - total_weight
        assert abs(residual) < 1e-9, (r.number, residual)


def test_droop_quota_values():
    assert droop_quota(100, 4) == 21
    assert droop_quota(9, 2) == 4
    assert droop_quota(1, 1) == 1
    with pytest.raises(ValueError):
        droop_quota(0, 1)


def test_droop_quota_of_fractional_totals():
    assert droop_quota(6.0, 1) == 4
    assert droop_quota(6.5, 2) == 3
    assert droop_quota(0.5, 1) == 1
    with pytest.raises(ValueError):
        droop_quota(-0.5, 1)


def test_quota_comes_from_total_ballot_weight():
    # Six half-weight ballots and three whole ones: total weight 6, so one
    # seat needs floor(6 / 2) + 1 = 4, not the ballot-count quota 5.  R1
    # holds 3 + 1 = 4 first preferences and is elected in round one.
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2), weight=0.5) for i in range(6)]
    ballots.append(Ballot(voter_id=6, ranking=(0, 1, 2)))
    ballots += [Ballot(voter_id=7 + i, ranking=(2, 0, 1)) for i in range(2)]
    result = run_stv(ballots, [R1, R2, D1], seats=1, seed=0)
    assert result.quota == 4
    assert result.rounds[0].counts == {0: 4.0, 1: 0.0, 2: 2.0}
    assert result.rounds[0].elected == [0]
    assert result.winners == [0] and len(result.rounds) == 1
    check_conservation(result, 6.0)


def test_two_seat_hand_trace():
    # 6 R voters rank R1 > R2 > D1; 3 D voters rank D1 first.  Q = 4.
    # R1 elected with keep factor 1/2, R2 and D1 tie at 3 and the R
    # candidate is eliminated, leaving D1 to take the last seat.
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2)) for i in range(6)]
    ballots += [Ballot(voter_id=6 + i, ranking=(2, 0, 1)) for i in range(3)]
    result = run_stv(ballots, [R1, R2, D1], seats=2, seed=0)
    assert result.quota == 4
    assert result.winners == [0, 2]
    assert result.rounds[0].elected == [0]
    assert result.rounds[0].transfer_factors[0] == pytest.approx(0.5)
    assert result.rounds[1].eliminated == 1
    assert partisan_split(result, [R1, R2, D1]) == deterministic_seats(6 / 9, 2, STV)
    check_conservation(result, 9.0)


def test_winner_coalitions_sum_to_vote_count():
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2)) for i in range(6)]
    ballots += [Ballot(voter_id=6 + i, ranking=(2, 0, 1)) for i in range(3)]
    result = run_stv(ballots, [R1, R2, D1], seats=2, seed=0)
    # R1 elected holding 6 votes; D1 seated by the stopping rule with 3 + 3
    assert sum(per_voter(result.coalitions[0]).values()) == pytest.approx(6.0)
    assert sum(per_voter(result.coalitions[2]).values()) == pytest.approx(6.0)
    assert set(per_voter(result.coalitions[0])) == set(range(6))


def test_single_seat_elimination_and_transfer():
    cands = [Candidate(id=0, party="R"), Candidate(id=1, party="R"),
             Candidate(id=2, party="D")]
    ballots = [Ballot(voter_id=0, ranking=(0, 1, 2)),
               Ballot(voter_id=1, ranking=(1, 0, 2)),
               Ballot(voter_id=2, ranking=(2, 0, 1))]
    result = run_stv(ballots, cands, seats=1, seed=4)
    assert len(result.winners) == 1
    w = result.winners[0]
    assert sum(per_voter(result.coalitions[w]).values()) >= result.quota - 1
    check_conservation(result, 3.0)


def test_stopping_rule_elects_remaining_by_vote_order():
    cands = [Candidate(id=0, party="R"), Candidate(id=1, party="D")]
    ballots = [Ballot(voter_id=0, ranking=(1, 0)),
               Ballot(voter_id=1, ranking=(1, 0)),
               Ballot(voter_id=2, ranking=(0, 1))]
    result = run_stv(ballots, cands, seats=2, seed=0)
    assert result.winners == [1, 0]  # descending first-preference count
    assert result.rounds[0].eliminated is None
    check_conservation(result, 3.0)


def test_elimination_tie_removes_r_before_d():
    cands = [Candidate(id=0, party="R"), Candidate(id=1, party="D")]
    ballots = [Ballot(voter_id=0, ranking=(0, 1)),
               Ballot(voter_id=1, ranking=(1, 0))]
    result = run_stv(ballots, cands, seats=1, seed=0)
    assert result.rounds[0].eliminated == 0
    assert result.winners == [1]


def test_party_line_split_matches_closed_form_on_divisible_electorates():
    # The interval formula is exact when (m + 1) divides V and the profile
    # is off the seat boundaries.  At a boundary (y * (m + 1) integer) the
    # formula awards the knife-edge seat to D by convention, while the
    # mechanical count can hand it to either party through the stopping
    # rule, so boundary profiles are excluded here.
    rng = random.Random(42)
    for trial in range(60):
        m = rng.randint(1, 5)
        v = (m + 1) * rng.randint(2, 40)
        n_r = rng.randint(0, v)
        while n_r % (v // (m + 1)) == 0:
            n_r = rng.randint(0, v)
        cands = [Candidate(id=i, party="R" if i < m else "D") for i in range(2 * m)]
        ballots = party_line_ballots(n_r, v - n_r, range(m), range(m, 2 * m), rng)
        split = partisan_split(run_stv(ballots, cands, m, seed=trial), cands)
        expected = deterministic_seats(n_r / v, m, STV)
        assert split == expected, (m, v, n_r)
        assert expected.seats_r == deterministic_seats(n_r / v, m, PAV).seats_r


def test_closed_form_requires_divisible_electorate():
    # With V = 174 voters and m = 4 the quota is 35 but each winner retains
    # only Q - 1 = 34 votes, so a party with 139 votes can fill
    # floor(139 / 34) = 4 quota slots even though floor(139/174 * 5) = 3.
    # The interval formula assumes V divisible by m + 1 and predicts one R
    # seat here; the mechanical count can deny it.
    m, n_r = 4, 35
    cands = [Candidate(id=i, party="R" if i < m else "D") for i in range(2 * m)]
    ballots = []
    vid = 0
    for first, count in zip(range(4), (9, 9, 9, 8)):  # R spread below quota
        rest = tuple(c for c in range(4) if c != first)
        for _ in range(count):
            ballots.append(Ballot(voter_id=vid, ranking=(first,) + rest + (4, 5, 6, 7)))
            vid += 1
    for first, count in zip((4, 5, 6), (35, 35, 35)):  # three D slates at quota
        rest = tuple(c for c in (4, 5, 6) if c != first)
        for _ in range(count):
            ballots.append(Ballot(voter_id=vid, ranking=(first, 7) + rest + (0, 1, 2, 3)))
            vid += 1
    for _ in range(34):
        ballots.append(Ballot(voter_id=vid, ranking=(7, 4, 5, 6, 0, 1, 2, 3)))
        vid += 1
    assert vid == 174
    result = run_stv(ballots, cands, m, seed=0)
    # D4, D5, D6 elected at quota 35; their three surplus votes lift D7
    # from 34 to 37, filling the fourth seat
    split = partisan_split(result, cands)
    assert split.seats_r == 0
    assert deterministic_seats(n_r / 174, m, STV).seats_r == 1


def test_simultaneous_election_of_all_quota_reachers():
    # 13 + 13 + 13 + 1 first preferences over 3 seats: quota is 11 and the
    # three front-runners are elected together in round one.
    cands = [Candidate(id=i, party="R" if i < 2 else "D") for i in range(4)]
    ballots = []
    vid = 0
    for first, count in zip(range(4), (13, 13, 13, 1)):
        rest = tuple(c for c in range(4) if c != first)
        for _ in range(count):
            ballots.append(Ballot(voter_id=vid, ranking=(first,) + rest))
            vid += 1
    result = run_stv(ballots, cands, seats=3, seed=0)
    assert result.quota == 11
    assert sorted(result.rounds[0].elected) == [0, 1, 2]
    assert sorted(result.winners) == [0, 1, 2]
    check_conservation(result, 40.0)


def test_fuzzed_elections_conserve_weight_and_fill_seats():
    rng = random.Random(7)
    for trial in range(200):
        m = rng.randint(1, 4)
        n_cands = 2 * m
        cands = [Candidate(id=i, party="R" if i < m else "D") for i in range(n_cands)]
        v = rng.randint(m + 1, 40)
        ballots = []
        for i in range(v):
            order = list(range(n_cands))
            rng.shuffle(order)
            cut = rng.randint(1, n_cands)
            ballots.append(Ballot(voter_id=i, ranking=tuple(order[:cut])))
        result = run_stv(ballots, cands, m, seed=trial)
        assert len(result.winners) == m
        assert len(set(result.winners)) == m
        check_conservation(result, float(v))


def test_round_log_is_serializable(tmp_path):
    import json
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2)) for i in range(6)]
    ballots += [Ballot(voter_id=6 + i, ranking=(2, 0, 1)) for i in range(3)]
    result = run_stv(ballots, [R1, R2, D1], seats=2, seed=0)
    text = json.dumps(result.round_log())
    assert '"round": 1' in text


def test_deterministic_given_seed():
    rng = random.Random(3)
    cands = [Candidate(id=i, party="R" if i < 3 else "D") for i in range(6)]
    ballots = party_line_ballots(20, 22, range(3), range(3, 6), rng)
    a = run_stv(ballots, cands, 3, seed=5)
    b = run_stv(ballots, cands, 3, seed=5)
    assert a.winners == b.winners
    assert a.round_log() == b.round_log()


def test_input_validation():
    cands = [R1, D1]
    with pytest.raises(ValueError):
        run_stv([Ballot(0, (0, 2))], cands, 3, seed=0)  # seats > candidates
    with pytest.raises(ValueError):
        run_stv([], cands, 1, seed=0)
    with pytest.raises(ValueError):
        run_stv([Ballot(0, (9,))], cands, 1, seed=0)  # unknown candidate
    with pytest.raises(ValueError):
        Ballot(0, (0, 0))  # duplicate rank
    with pytest.raises(ValueError):
        Ballot(0, (0,), weight=0.0)
    with pytest.raises(ValueError):
        Ballot(0, (0,), weight=1.5)
    with pytest.raises(ValueError, match="candidate id 0 is repeated"):
        run_stv([Ballot(0, (0,))], [Candidate(0, "R"), Candidate(0, "D")], 2)
    with pytest.raises(ValueError, match="candidate 0 has party 'Q'"):
        run_stv([Ballot(0, (0,))], [Candidate(0, "Q"), D1], 1)


def test_partisan_split_counts():
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2)) for i in range(6)]
    ballots += [Ballot(voter_id=6 + i, ranking=(2, 0, 1)) for i in range(3)]
    result = run_stv(ballots, [R1, R2, D1], seats=2, seed=0)
    split = partisan_split(result, [R1, R2, D1])
    assert (split.seats_r, split.seats_d, split.total) == (1, 1, 2)


@st.composite
def weighted_elections(draw):
    """(ballots, candidates, seats) with fractional weights and truncated rankings."""
    seats = draw(st.integers(1, 5))
    n_cands = draw(st.integers(seats, 2 * seats + 1))
    cands = [Candidate(id=i, party=draw(st.sampled_from("RD"))) for i in range(n_cands)]
    ballots = []
    for i in range(draw(st.integers(1, 40))):
        order = draw(st.permutations(range(n_cands)))
        ballots.append(Ballot(voter_id=i, ranking=tuple(order[:draw(st.integers(1, n_cands))]),
                              weight=draw(st.floats(1e-3, 1.0))))
    return ballots, cands, seats


@settings(max_examples=300, deadline=None)
@given(weighted_elections(), st.integers(0, 2 ** 32 - 1))
def test_run_stv_conserves_fractional_ballot_weight(election, seed):
    ballots, cands, seats = election
    result = run_stv(ballots, cands, seats, seed=seed)
    assert len(set(result.winners)) == seats
    # Criterion 4 measures the residual against the ballot count, which
    # equals the total weight only for unit weights.  The count conserves
    # the weights it reads, each rounded to a whole unit.
    check_conservation(result, sum(units(b.weight) for b in ballots) / UNIT)
    # Each winner's coalition holds exactly the count that seated it.
    seated = {c: r.counts[c] for r in result.rounds for c in r.elected}
    for c in result.winners:
        assert sum(units(w) * len(ids) for ids, w in result.coalitions[c]) == units(seated[c])


def ungrouped_stv(ballots, candidates, seats, seed):
    """Reference count: one working ballot per input ballot, in whole units of 1/UNIT vote."""
    cand_ids = {c.id for c in candidates}
    party = {c.id: c.party for c in candidates}
    rng = random.Random(seed)
    working = [SimpleNamespace(voter_id=b.voter_id, ranking=b.ranking, pos=0,
                               weight=units(b.weight)) for b in ballots]
    quota = droop_quota(Fraction(sum(wb.weight for wb in working), UNIT), seats)
    continuing = set(cand_ids)
    piles = {c: [] for c in cand_ids}
    exhausted = retained = 0
    winners, coalitions, rounds = [], {}, []

    def place(wb, destinations):
        """Pile the ballot under its next continuing preference, or exhaust it."""
        nonlocal exhausted
        while wb.pos < len(wb.ranking) and wb.ranking[wb.pos] not in destinations:
            wb.pos += 1
        if wb.pos < len(wb.ranking):
            piles[wb.ranking[wb.pos]].append(wb)
        else:
            exhausted += wb.weight

    def coalition(pile):
        merged = {}
        for wb in pile:
            merged[wb.voter_id] = merged.get(wb.voter_id, 0) + wb.weight
        return merged

    def votes(counts):
        return {c: n / UNIT for c, n in counts.items()}

    for wb in working:
        place(wb, continuing)
    while len(winners) < seats:
        counts = {c: sum(wb.weight for wb in piles[c]) for c in continuing}
        factors = {}
        if len(continuing) == seats - len(winners):
            by_votes = sorted(continuing, key=lambda c: (-counts[c], c))
            for c in by_votes:
                winners.append(c)
                coalitions[c] = coalition(piles[c])
                retained += counts[c]
            rounds.append((votes(counts), by_votes, None, {}, 0.0, retained / UNIT,
                           exhausted / UNIT))
            break
        reachers = sorted((c for c in continuing if counts[c] >= quota * UNIT),
                          key=lambda c: (-counts[c], party[c] != "D", c))
        reachers = reachers[:seats - len(winners)]
        eliminated = None
        if reachers:
            continuing.difference_update(reachers)
            for c in reachers:
                winners.append(c)
                coalitions[c] = coalition(piles[c])
                surplus = counts[c] - (quota - 1) * UNIT
                factors[c] = surplus / counts[c]
                retained += counts[c]
                for wb in piles.pop(c):
                    wb.weight = wb.weight * surplus // counts[c]
                    retained -= wb.weight
                    if wb.weight:
                        place(wb, continuing)
        else:
            low = min(counts.values())
            tied = sorted(c for c in continuing if counts[c] == low)
            pool = [c for c in tied if party[c] == "R"] or tied
            eliminated = pool[0] if len(pool) == 1 else rng.choice(pool)
            continuing.discard(eliminated)
            for wb in piles.pop(eliminated):
                place(wb, continuing)
        cont = sum(sum(wb.weight for wb in piles[c]) for c in continuing)
        rounds.append((votes(counts), list(reachers), eliminated, factors, cont / UNIT,
                       retained / UNIT, exhausted / UNIT))
    return winners, quota, rounds, coalitions


@st.composite
def repeated_rankings(draw):
    """(ballots, candidates, seats) drawn from a few rankings and weights, so groups repeat."""
    seats = draw(st.integers(1, 4))
    n_cands = draw(st.integers(seats, 2 * seats + 1))
    cands = [Candidate(id=i, party=draw(st.sampled_from("RD"))) for i in range(n_cands)]
    rankings = draw(st.lists(st.permutations(range(n_cands)).flatmap(
        lambda order: st.integers(0, n_cands).map(lambda cut: tuple(order[:cut]))),
        min_size=1, max_size=5))
    weights = draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]) | st.floats(1e-3, 1.0),
                            min_size=1, max_size=3))
    n = draw(st.integers(1, 60))
    ballots = [Ballot(voter_id=draw(st.integers(0, n)), ranking=draw(st.sampled_from(rankings)),
                      weight=draw(st.sampled_from(weights)))
               for _ in range(n)]
    return ballots, cands, seats


#: 23 half-weight ballots for four seats.  After candidate 2's surplus,
#: candidates 0 and 3 hold 2.5 votes each in exact arithmetic, so a count
#: whose sums round could order them either way, grouped or ballot by ballot.
HALF_WEIGHT_TIE = ([Ballot(i, {"A": (2, 0, 3, 4), "B": (3, 2, 1), "C": (1,)}[k], weight=0.5)
                    for i, k in enumerate("ABABCACCBAACBABCCCCAAAC")],
                   [Candidate(id=i, party="R") for i in range(5)], 4)


@settings(max_examples=300, deadline=None)
@given(repeated_rankings(), st.integers(0, 2 ** 32 - 1))
@example(HALF_WEIGHT_TIE, 0)
def test_grouped_count_matches_ungrouped_reference(election, seed):
    ballots, cands, seats = election
    result = run_stv(ballots, cands, seats, seed=seed)
    winners, quota, rounds, coalitions = ungrouped_stv(ballots, cands, seats, seed)
    assert result.quota == quota
    assert [(r.counts, r.elected, r.eliminated, r.transfer_factors, r.continuing_weight,
             r.retained_weight, r.exhausted_weight) for r in result.rounds] == rounds
    assert result.winners == winners
    assert {w: per_voter(c, units) for w, c in result.coalitions.items()} == coalitions


def test_a_truncated_transfer_decides_the_half_weight_tie():
    # Quota 3 of 11.5 votes.  Candidates 1 and 2 hold 4.5 each and pass on
    # 2.5 / 4.5 of each ballot: 50,000 units become 27,777, so candidate 0
    # receives 9 x 27,777 units and ends 7 units behind candidate 3.
    result = run_stv(*HALF_WEIGHT_TIE, seed=0)
    assert result.quota == 3
    assert result.rounds[1].counts == {0: 2.49993, 3: 2.5, 4: 0.0}
    assert result.winners == [1, 2, 3, 0]
    # Each winner retains Q - 1 = 2 votes plus its 7 truncated units;
    # candidate 1's ballots rank no one else, so its passed surplus exhausts.
    assert (result.rounds[0].retained_weight, result.rounds[0].exhausted_weight) == \
        (4.00014, 2.49993)
    check_conservation(result, 11.5)


def test_one_unit_apart_is_not_a_tie():
    # Quota 2 of 2.99999 votes.  R2 trails R1 by one unit, 10^-5 vote, so it
    # is eliminated alone, with no draw, and R1 goes on to win.
    ballots = [Ballot(0, (0,)), Ballot(1, (1, 0), weight=0.99999), Ballot(2, (2,))]
    for seed in range(5):
        result = run_stv(ballots, [R1, R2, D1], seats=1, seed=seed)
        assert result.rounds[0].counts == {0: 1.0, 1: 0.99999, 2: 1.0}
        assert (result.rounds[0].eliminated, result.tie_draws, result.winners) == (1, 0, [0])


def test_same_ranking_with_different_weights_is_not_merged():
    ballots = [Ballot(voter_id=0, ranking=(0, 2), weight=0.5),
               Ballot(voter_id=1, ranking=(0, 2), weight=1.0),
               Ballot(voter_id=2, ranking=(2, 0), weight=1.0)]
    assert [wb.voter_ids for wb in _group(ballots)] == [(0,), (1,), (2,)]
    result = run_stv(ballots, [R1, D1], seats=1, seed=0)
    # Total weight 2.5: quota 2, R1 holds 0.5 + 1.0, D1 is eliminated, and
    # R1 is seated holding every ballot at its own weight.
    assert result.quota == 2
    assert result.rounds[0].counts == {0: 1.5, 2: 1.0}
    assert per_voter(result.coalitions[0]) == {0: 0.5, 1: 1.0, 2: 1.0}


def test_group_checks_name_the_first_voter():
    # A group needs a first voter: one with none is rejected before any other check.
    for ranking in ((0, 0), (0,)):
        with pytest.raises(ValueError, match="has no voters"):
            BallotGroup(ranking, 1.0, ())
    with pytest.raises(ValueError, match="ballot 7 ranks a candidate twice"):
        BallotGroup((0, 2, 0), 1.0, (7, 3))
    for weight in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"ballot 7 weight .* not in \(0, 1\]"):
            BallotGroup((0, 2), weight, (7, 3))
    with pytest.raises(ValueError, match="ballot 7 weight 4e-06 rounds to 0 units"):
        run_stv([BallotGroup((2,), 1.0, (1,)), BallotGroup((0, 2), 4e-6, (7, 3))],
                [R1, R2, D1], seats=1)
    with pytest.raises(ValueError, match=r"ballot 7 ranks unknown candidates \[9\]"):
        run_stv([BallotGroup((2,), 1.0, (1,)), BallotGroup((0, 9), 1.0, (7, 3))],
                [R1, R2, D1], seats=1)
    # Per-voter ballots are regrouped first: the group is named by its first voter.
    with pytest.raises(ValueError, match=r"ballot 5 ranks unknown candidates \[9\]"):
        run_stv([Ballot(5, (0, 9)), Ballot(4, (0, 9))], [R1, R2, D1], seats=1)


def test_the_count_does_not_reread_groups_it_does_not_move(monkeypatch):
    # Candidate c is ranked alone by c + 1 voters: 8 groups, and each of the
    # 7 eliminations exhausts one.  Recounting every pile each round read the
    # groups' units 79 times; a kept tally reads them only as it moves them.
    reads = 0
    read_units = stv._WorkingBallot.count.fget

    def count(wb):
        nonlocal reads
        reads += 1
        return read_units(wb)

    monkeypatch.setattr(stv._WorkingBallot, "count", property(count))
    cands = [Candidate(id=c, party="RD"[c % 2]) for c in range(8)]
    ballots = [Ballot(i, (c,)) for i, c in enumerate(c for c in range(8) for _ in range(c + 1))]
    result = run_stv(ballots, cands, seats=1)
    assert result.winners == [7] and [r.eliminated for r in result.rounds[:7]] == list(range(7))
    assert reads <= 2 * 8 + 2 * 7


def test_a_ballot_is_a_group_of_one():
    ballot = Ballot(4, (2, 0), weight=0.5)
    assert (ballot.voter_id, ballot.voter_ids, ballot.ranking, ballot.weight) == (4, (4,), (2, 0), 0.5)
    groups = [BallotGroup((0, 2), 1.0, (0, 1)), BallotGroup((2, 0), 1.0, (2,))]
    ballots = [Ballot(0, (0, 2)), Ballot(1, (0, 2)), Ballot(2, (2, 0))]
    assert [wb.voter_ids for wb in _group(groups)] == [wb.voter_ids for wb in _group(ballots)]
    assert run_stv(groups, [R1, D1], seats=1) == run_stv(ballots, [R1, D1], seats=1)


@settings(max_examples=300, deadline=None)
@given(repeated_rankings(), st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_a_count_without_tie_draws_is_the_same_for_every_seed(election, seed_a, seed_b):
    ballots, cands, seats = election
    result = run_stv(ballots, cands, seats, seed=seed_a)
    event(f"tie_draws {min(result.tie_draws, 2)}")
    if result.tie_draws == 0:
        assert run_stv(ballots, cands, seats, seed=seed_b) == result


def test_tie_draws_counts_only_random_tie_breaks():
    r0, r1, r2, d3, d4 = (Candidate(id=0, party="R"), Candidate(id=1, party="R"),
                          Candidate(id=2, party="R"), Candidate(id=3, party="D"),
                          Candidate(id=4, party="D"))
    ballots = ([BallotGroup((3,), 1.0, tuple(range(6)))]
               + [BallotGroup((0,), 1.0, (6, 7, 8)), BallotGroup((1,), 1.0, (9, 10, 11)),
                  BallotGroup((2,), 1.0, (12,)), BallotGroup((4,), 1.0, (13,))])
    # Quota 5: D3 is seated in round 1.  Round 2 ties R2 with D4, and R goes
    # first, so R2 leaves without a draw; D4 then leaves alone.  Round 4 ties
    # R0 with R1: the one random draw, which decides the second seat.
    winners = set()
    for seed in range(20):
        result = run_stv(ballots, [r0, r1, r2, d3, d4], seats=2, seed=seed)
        assert [r.eliminated for r in result.rounds[1:3]] == [2, 4]
        assert result.tie_draws == 1
        winners.add(tuple(result.winners))
    assert winners == {(3, 0), (3, 1)}
