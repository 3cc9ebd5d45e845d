import random

import pytest

from mmdistrict.model import StateFormatError
from mmdistrict.rules import PAV, stv_seats, thiele_seats
from mmdistrict.stv import (
    Ballot,
    Candidate,
    droop_quota,
    load_ballots,
    partisan_split,
    run_stv,
    save_ballots,
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
    assert partisan_split(result, [R1, R2, D1]) == stv_seats(6 / 9, 2)
    check_conservation(result, 9.0)


def test_winner_coalitions_sum_to_vote_count():
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2)) for i in range(6)]
    ballots += [Ballot(voter_id=6 + i, ranking=(2, 0, 1)) for i in range(3)]
    result = run_stv(ballots, [R1, R2, D1], seats=2, seed=0)
    # R1 elected holding 6 votes; D1 seated by the stopping rule with 3 + 3
    assert sum(result.coalitions[0].values()) == pytest.approx(6.0)
    assert sum(result.coalitions[2].values()) == pytest.approx(6.0)
    assert set(result.coalitions[0]) == set(range(6))


def test_single_seat_elimination_and_transfer():
    cands = [Candidate(id=0, party="R"), Candidate(id=1, party="R"),
             Candidate(id=2, party="D")]
    ballots = [Ballot(voter_id=0, ranking=(0, 1, 2)),
               Ballot(voter_id=1, ranking=(1, 0, 2)),
               Ballot(voter_id=2, ranking=(2, 0, 1))]
    result = run_stv(ballots, cands, seats=1, seed=4)
    assert len(result.winners) == 1
    w = result.winners[0]
    assert sum(result.coalitions[w].values()) >= result.quota - 1
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
        expected = stv_seats(n_r / v, m)
        assert split == expected, (m, v, n_r)
        assert expected.seats_r == thiele_seats(n_r / v, m, PAV.lam).seats_r


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
    assert stv_seats(n_r / 174, m).seats_r == 1


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


def test_ballot_csv_round_trip(tmp_path):
    ballots = [Ballot(voter_id=0, ranking=(2, 0, 1), weight=1.0),
               Ballot(voter_id=1, ranking=(1,), weight=0.25)]
    path = tmp_path / "ballots.csv"
    save_ballots(ballots, path)
    loaded = load_ballots(path)
    assert [(b.voter_id, b.ranking, b.weight) for b in loaded] == \
        [(b.voter_id, b.ranking, b.weight) for b in ballots]


def test_partisan_split_counts():
    ballots = [Ballot(voter_id=i, ranking=(0, 1, 2)) for i in range(6)]
    ballots += [Ballot(voter_id=6 + i, ranking=(2, 0, 1)) for i in range(3)]
    result = run_stv(ballots, [R1, R2, D1], seats=2, seed=0)
    split = partisan_split(result, [R1, R2, D1])
    assert (split.seats_r, split.seats_d, split.total) == (1, 1, 2)


@pytest.mark.parametrize("row, reason", [
    ("3,1.0", "not enough values to unpack (expected 3, got 2)"),
    ("x,1.0,0;1", "invalid literal for int()"),
    ("3,heavy,0;1", "could not convert string to float"),
    ("3,1.0,0;one", "invalid literal for int()"),
], ids=["short_row", "non_numeric_id", "non_numeric_weight", "non_integer_ranking"])
def test_load_ballots_rejects_malformed_rows_naming_path_and_line(tmp_path, row, reason):
    path = tmp_path / "ballots.csv"
    path.write_text(f"# voter_id,weight,ranking\n0,1.0,2;0;1\n{row}\n")
    with pytest.raises(StateFormatError) as err:
        load_ballots(path)
    assert f"{path}: line 3: " in str(err.value) and reason in str(err.value)
