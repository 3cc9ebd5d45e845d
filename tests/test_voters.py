import dataclasses
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmdistrict.model import District, StateFormatError, generate_synthetic_state
from mmdistrict.stv import UNIT, Ballot, Candidate, _group, run_stv
from mmdistrict.voters import (
    LOCATION_JITTER_KM,
    RANKING_MODES,
    VoterFile,
    _quantiles,
    build_ballots,
    generate_candidates,
    generate_voter_file,
    load_voter_file,
)
from conftest import make_path_state, save_voter_file


def whole_state_district(state):
    return District(block_ids=frozenset(b.id for b in state.blocks), seats=state.total_seats)


class Voter(NamedTuple):
    """One row of a voter file, for the per-voter reference code below."""
    id: int
    block_id: int
    party: str
    partisan_score: float
    x: float
    y: float


def rows(voter_file):
    """The file's voters as ``Voter`` rows, in file order."""
    c = voter_file.columns
    return [Voter(*row) for row in zip(c.id.tolist(), voter_file.block_id.tolist(),
                                       c.party.tolist(), c.score.tolist(), c.x.tolist(),
                                       c.y.tolist())]


def voter_file(voters):
    """A voter file of ``Voter`` rows."""
    return VoterFile.of(*([v[i] for v in voters] for i in range(len(Voter._fields))))


def as_voters(voter_file, columns):
    """The ``Voter`` rows behind some columns of the file, in column order."""
    by_id = {v.id: v for v in rows(voter_file)}
    return [by_id[i] for i in columns.id.tolist()]


def per_voter(groups, voters):
    """Each voter's ballot, in the order of ``voters``, read off the ballot groups."""
    ballot_of = {i: Ballot(i, g.ranking, g.weight) for g in groups for i in g.voter_ids}
    return [ballot_of[v.id] for v in voters]


def test_block_calibration_within_one_voter():
    state = make_path_state([100, 100], [0.25, 0.70], seats=1)
    vf = generate_voter_file(state, voters_per_block=100, score_spread=0.5, seed=0)
    by_block = {}
    for v in rows(vf):
        by_block.setdefault(v.block_id, []).append(v)
    assert len(by_block[0]) == 100
    n_r = sum(1 for v in by_block[0] if v.party == "R")
    assert abs(n_r - 25) <= 1
    n_r1 = sum(1 for v in by_block[1] if v.party == "R")
    assert abs(n_r1 - 70) <= 1


def test_statewide_calibration(grid_state):
    vpb = 25
    vf = generate_voter_file(grid_state, voters_per_block=vpb, score_spread=0.5, seed=2)
    r_frac = sum(1 for v in rows(vf) if v.party == "R") / len(rows(vf))
    assert abs(r_frac - grid_state.statewide_vote_share()) <= 1 / vpb + 0.005


def test_voter_count_scales_with_population():
    state = make_path_state([50, 150], [0.5, 0.5], seats=1)
    vf = generate_voter_file(state, voters_per_block=10, score_spread=0.5, seed=0)
    counts = {0: 0, 1: 0}
    for v in rows(vf):
        counts[v.block_id] += 1
    assert counts[0] == 5 and counts[1] == 15


def test_scores_separate_by_party(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=50, score_spread=0.3, seed=1)
    r = [v.partisan_score for v in rows(vf) if v.party == "R"]
    d = [v.partisan_score for v in rows(vf) if v.party == "D"]
    assert np.mean(r) > 0.5
    assert np.mean(d) < -0.5


def test_locations_jittered_within_radius(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=30, score_spread=0.5, seed=4)
    for v in rows(vf):
        b = grid_state.block_map[v.block_id]
        assert math.hypot(v.x - b.x, v.y - b.y) <= LOCATION_JITTER_KM + 1e-12


def test_voter_file_deterministic(grid_state):
    a = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=8)
    b = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=8)
    assert rows(a) == rows(b)


def test_generation_argument_validation(grid_state):
    with pytest.raises(ValueError):
        generate_voter_file(grid_state, voters_per_block=0, score_spread=0.5, seed=0)
    with pytest.raises(ValueError):
        generate_voter_file(grid_state, voters_per_block=10, score_spread=0.0, seed=0)


@pytest.mark.parametrize("spread", [math.nan, math.inf, -math.inf])
def test_generation_rejects_non_finite_score_spread(grid_state, spread):
    with pytest.raises(ValueError, match=f"score_spread must be finite and positive, got {spread}"):
        generate_voter_file(grid_state, voters_per_block=10, score_spread=spread, seed=0)


def test_candidate_slates_cover_both_parties(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=20, score_spread=0.5, seed=3)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=5)
    assert len(cands) == 10
    assert sum(1 for c in cands if c.party == "R") == 5
    assert len({c.id for c in cands}) == 10


def test_candidate_scores_spread_across_quantiles(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=20, score_spread=0.5, seed=3)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=4)
    for party in ("R", "D"):
        scores = [c.score for c in cands if c.party == party]
        assert scores == sorted(scores)
        assert scores[-1] > scores[0]


#: Finite floats up to 1e308 in magnitude, often repeated, with both zeros.
SCORES = (st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 2.5, 1e308, -1e308])
          | st.floats(-1e308, 1e308))


@settings(max_examples=500, deadline=None)
@given(st.lists(SCORES, min_size=1, max_size=40),
       st.integers(1, 12).map(lambda k: [(j + 0.5) / k for j in range(k)])
       | st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1), min_size=1, max_size=6))
# Interpolation at gamma exactly 0.5, where numpy steps back from the upper value.
@example([0.0, 5e-324, 5e-324], [0.25, 0.75])
@example([-0.0], [0.5])
def test_quantiles_equal_numpys_linear_quantiles(values, qs):
    # b - a can overflow to inf, and inf * 0 is nan, on both sides alike.  The
    # sign of a zero result can differ: np.quantile partitions where the helper
    # sorts, and the two may order -0.0 and 0.0 differently; == cannot see it.
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _quantiles(np.array(values), qs), np.quantile(values, qs)
    assert np.array_equal(got, want, equal_nan=True)


def test_candidates_require_enough_per_party(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=0)
    d = whole_state_district(grid_state)
    with pytest.raises(ValueError):
        generate_candidates(vf.in_district(d), d.seats, per_party=2)


def test_ballots_are_party_line(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=6)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=5)
    party_of = {c.id: c.party for c in cands}
    voters = as_voters(vf, vf.in_district(d))
    for mode in ("partisan_score", "geographic"):
        ballots = per_voter(build_ballots(vf.in_district(d), cands, mode), voters)
        assert len(ballots) == len(voters)
        for voter, ballot in zip(voters, ballots):
            parties = [party_of[c] for c in ballot.ranking]
            assert parties[:5] == [voter.party] * 5
            assert len(ballot.ranking) == len(cands)


def test_ranking_modes_produce_different_orders(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=20, score_spread=0.5, seed=6)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=5)
    voters = as_voters(vf, vf.in_district(d))
    by_score = per_voter(build_ballots(vf.in_district(d), cands, "partisan_score"), voters)
    by_geo = per_voter(build_ballots(vf.in_district(d), cands, "geographic"), voters)
    assert any(a.ranking != b.ranking for a, b in zip(by_score, by_geo))


def test_build_ballots_validation(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=0)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=4)
    with pytest.raises(ValueError):
        build_ballots(vf.columns, cands, "alphabetical")
    with pytest.raises(ValueError):
        build_ballots(vf.columns, [c for c in cands if c.party == "R"], "partisan_score")


def test_voter_file_csv_round_trip(tmp_path, grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=5, score_spread=0.5, seed=9)
    path = tmp_path / "voters.csv"
    save_voter_file(vf, path)
    loaded = load_voter_file(path)
    assert rows(loaded) == rows(vf)


def test_load_voter_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,block\n1,2\n")
    with pytest.raises(ValueError):
        load_voter_file(path)


def test_in_district_filters_by_block(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=5, score_spread=0.5, seed=0)
    d = District(block_ids=frozenset({0, 1}), seats=1)
    assert all(v.block_id in {0, 1} for v in as_voters(vf, vf.in_district(d)))
    assert vf.in_district(d)


def sorted_rankings(voters, candidates, mode):
    """Reference ranking: one Python sort per voter on (other party, distance, id)."""
    if mode == "partisan_score":
        def dist(voter, cand):
            return abs(voter.partisan_score - cand.score)
    else:
        def dist(voter, cand):
            return math.hypot(voter.x - cand.location[0], voter.y - cand.location[1])
    return [tuple(c.id for c in sorted(candidates,
                                       key=lambda c: (c.party != v.party, dist(v, c), c.id)))
            for v in voters]


#: A few exact values, so that equal scores and locations tie in distance.
COORDS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-3, 3)


@st.composite
def slates(draw):
    """(voters, candidates) with shuffled candidate ids and 1..4 candidates a party."""
    parties = ["R"] * draw(st.integers(1, 4)) + ["D"] * draw(st.integers(1, 4))
    ids = draw(st.permutations(range(len(parties))))
    candidates = [Candidate(id=i, party=p, score=draw(COORDS),
                            location=(draw(COORDS), draw(COORDS)))
                  for i, p in zip(ids, draw(st.permutations(parties)))]
    voters = [Voter(id=i, block_id=0, party=draw(st.sampled_from("RD")),
                    partisan_score=draw(COORDS), x=draw(COORDS), y=draw(COORDS))
              for i in range(draw(st.integers(0, 30)))]
    return voters, candidates


@settings(max_examples=300, deadline=None)
@given(slates(), st.sampled_from(RANKING_MODES))
@example(([], [Candidate(id=0, party="R"), Candidate(id=1, party="D")]), "partisan_score")
@example(([], [Candidate(id=0, party="R"), Candidate(id=1, party="D")]), "geographic")
def test_rankings_match_a_per_voter_sort(slate, mode):
    voters, candidates = slate
    ballots = per_voter(build_ballots(voter_file(voters).columns, candidates, mode), voters)
    assert [b.voter_id for b in ballots] == [v.id for v in voters]
    assert [b.ranking for b in ballots] == sorted_rankings(voters, candidates, mode)
    assert all(type(c) is int for b in ballots for c in b.ranking)


def test_load_voter_file_rejects_a_repeated_voter_id(tmp_path):
    path = tmp_path / "voters.csv"
    path.write_text("voter_id,block_id,party,partisan_score,x,y\n"
                    "7,0,R,1.0,0.0,0.0\n"
                    "8,0,D,-1.0,0.0,0.0\n"
                    "7,1,D,-0.5,1.0,1.0\n")
    with pytest.raises(StateFormatError) as err:
        load_voter_file(path)
    assert f"{path}: line 4: voter id 7 repeats line 2" in str(err.value)
    voter = Voter(id=7, block_id=0, party="R", partisan_score=1.0, x=0.0, y=0.0)
    with pytest.raises(ValueError, match="voter id 7 repeats"):
        voter_file([voter, voter])


def test_voter_file_rejects_columns_of_unequal_length():
    vf = voter_file([Voter(7, 0, "R", 1.0, 0.0, 0.0), Voter(8, 0, "D", -1.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="voter columns differ in length"):
        VoterFile(vf.columns, vf.block_id[:1])
    with pytest.raises(ValueError, match="voter columns differ in length"):
        VoterFile(dataclasses.replace(vf.columns, x=vf.columns.x[:1]), vf.block_id)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [3, 4, 5], ids=["partisan_score", "x", "y"])
def test_load_voter_file_rejects_non_finite_values(tmp_path, column, value):
    row = ["8", "0", "D", "-1.0", "0.0", "0.0"]
    row[column] = value
    path = tmp_path / "voters.csv"
    path.write_text("voter_id,block_id,party,partisan_score,x,y\n"
                    "7,0,R,1.0,0.0,0.0\n" + ",".join(row) + "\n")
    name = ("partisan_score", "x", "y")[column - 3]
    with pytest.raises(StateFormatError) as err:
        load_voter_file(path)
    assert f"{path}: line 3: {name} {value} is not finite" in str(err.value)


def parent_in_district(voters, district):
    """The district's voters as a list scan of the file, in file order."""
    return [v for v in voters if v.block_id in district.block_ids]


def parent_candidates(voters, seats, per_party):
    """Candidate slates from per-voter objects, as built before the columns."""
    if voters:
        cx = float(np.mean([v.x for v in voters]))
        cy = float(np.mean([v.y for v in voters]))
    else:
        cx = cy = 0.0
    candidates = []
    for party in ("R", "D"):
        members = [v for v in voters if v.party == party]
        qs = [(j + 0.5) / per_party for j in range(per_party)]
        if members:
            by_dist = sorted(members, key=lambda v: (math.hypot(v.x - cx, v.y - cy), v.id))
            picks = [by_dist[min(len(by_dist) - 1, int(q * len(by_dist)))] for q in qs]
            slate = zip(np.quantile([v.partisan_score for v in members], qs).tolist(),
                        [(p.x, p.y) for p in picks])
        else:
            slate = [(1.0 if party == "R" else -1.0, (cx, cy))] * per_party
        for score, loc in slate:
            candidates.append(Candidate(id=len(candidates), party=party, score=score,
                                        location=loc))
    return candidates


def parent_ballots(voters, candidates, mode):
    """One ``Ballot`` per voter, ranked in one ``np.lexsort``, as before grouping."""
    if not voters:
        return []
    ids = np.array([c.id for c in candidates])
    other = (np.array([v.party for v in voters])[:, None]
             != np.array([c.party for c in candidates]))
    if mode == "partisan_score":
        dist = np.abs(np.array([v.partisan_score for v in voters])[:, None]
                      - np.array([c.score for c in candidates]))
    else:
        locations = [c.location for c in candidates]
        dist = np.array([[math.hypot(v.x - cx, v.y - cy) for cx, cy in locations]
                         for v in voters])
    order = np.lexsort((np.broadcast_to(ids, dist.shape), dist, other))
    return [Ballot(voter_id=v.id, ranking=tuple(ranking))
            for v, ranking in zip(voters, ids[order].tolist())]


@st.composite
def voter_files(draw):
    """(voters, candidates, district) with ids that are not 0..n-1 and the rows of
    four blocks interleaved, so the file is not in block order."""
    _, candidates = draw(slates())
    ids = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), unique=True, max_size=40))
    voters = [Voter(id=i, block_id=draw(st.integers(0, 3)), party=draw(st.sampled_from("RD")),
                    partisan_score=draw(COORDS), x=draw(COORDS), y=draw(COORDS))
              for i in ids]
    blocks = draw(st.sets(st.integers(0, 4), min_size=1))
    return voters, candidates, District(block_ids=frozenset(blocks), seats=1)


@settings(max_examples=300, deadline=None)
@given(voter_files(), st.sampled_from(RANKING_MODES), st.integers(1, 4))
def test_ballot_groups_match_the_grouped_per_voter_ballots(case, mode, per_party):
    voters, candidates, district = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "voters.csv"
        save_voter_file(voter_file(voters), path)
        columns = load_voter_file(path).in_district(district)
    expected_voters = parent_in_district(voters, district)
    assert columns.id.tolist() == [v.id for v in expected_voters]

    assert (generate_candidates(columns, 1, per_party)
            == parent_candidates(expected_voters, 1, per_party))
    groups = build_ballots(columns, candidates, mode)
    ballots = parent_ballots(expected_voters, candidates, mode)
    # The count holds each weight in whole units of 1/UNIT vote.
    assert ([(g.ranking, round(g.weight * UNIT), g.voter_ids) for g in groups]
            == [(wb.ranking, wb.weight, wb.voter_ids) for wb in _group(ballots)])
    if ballots:
        assert run_stv(groups, candidates, 1, seed=3) == run_stv(ballots, candidates, 1, seed=3)
