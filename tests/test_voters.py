import math

import numpy as np
import pytest

from mmdistrict.model import District, generate_synthetic_state
from mmdistrict.voters import (
    LOCATION_JITTER_KM,
    VoterFile,
    build_ballots,
    generate_candidates,
    generate_voter_file,
    load_voter_file,
    save_voter_file,
)
from conftest import make_path_state


def whole_state_district(state):
    return District(block_ids=frozenset(b.id for b in state.blocks), seats=state.total_seats)


def test_block_calibration_within_one_voter():
    state = make_path_state([100, 100], [0.25, 0.70], seats=1)
    vf = generate_voter_file(state, voters_per_block=100, score_spread=0.5, seed=0)
    by_block = {}
    for v in vf.voters:
        by_block.setdefault(v.block_id, []).append(v)
    assert len(by_block[0]) == 100
    n_r = sum(1 for v in by_block[0] if v.party == "R")
    assert abs(n_r - 25) <= 1
    n_r1 = sum(1 for v in by_block[1] if v.party == "R")
    assert abs(n_r1 - 70) <= 1


def test_statewide_calibration(grid_state):
    vpb = 25
    vf = generate_voter_file(grid_state, voters_per_block=vpb, score_spread=0.5, seed=2)
    r_frac = sum(1 for v in vf.voters if v.party == "R") / len(vf.voters)
    assert abs(r_frac - grid_state.statewide_vote_share()) <= 1 / vpb + 0.005


def test_voter_count_scales_with_population():
    state = make_path_state([50, 150], [0.5, 0.5], seats=1)
    vf = generate_voter_file(state, voters_per_block=10, score_spread=0.5, seed=0)
    counts = {0: 0, 1: 0}
    for v in vf.voters:
        counts[v.block_id] += 1
    assert counts[0] == 5 and counts[1] == 15


def test_scores_separate_by_party(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=50, score_spread=0.3, seed=1)
    r = [v.partisan_score for v in vf.voters if v.party == "R"]
    d = [v.partisan_score for v in vf.voters if v.party == "D"]
    assert np.mean(r) > 0.5
    assert np.mean(d) < -0.5


def test_locations_jittered_within_radius(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=30, score_spread=0.5, seed=4)
    for v in vf.voters:
        b = grid_state.block_map[v.block_id]
        assert math.hypot(v.x - b.x, v.y - b.y) <= LOCATION_JITTER_KM + 1e-12


def test_voter_file_deterministic(grid_state):
    a = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=8)
    b = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=8)
    assert a == b


def test_generation_argument_validation(grid_state):
    with pytest.raises(ValueError):
        generate_voter_file(grid_state, voters_per_block=0, score_spread=0.5, seed=0)
    with pytest.raises(ValueError):
        generate_voter_file(grid_state, voters_per_block=10, score_spread=0.0, seed=0)


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
    voters = vf.in_district(d)
    for mode in ("partisan_score", "geographic"):
        ballots = build_ballots(voters, cands, mode)
        assert len(ballots) == len(voters)
        for voter, ballot in zip(voters, ballots):
            parties = [party_of[c] for c in ballot.ranking]
            assert parties[:5] == [voter.party] * 5
            assert len(ballot.ranking) == len(cands)


def test_ranking_modes_produce_different_orders(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=20, score_spread=0.5, seed=6)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=5)
    voters = vf.in_district(d)
    by_score = build_ballots(voters, cands, "partisan_score")
    by_geo = build_ballots(voters, cands, "geographic")
    assert any(a.ranking != b.ranking for a, b in zip(by_score, by_geo))


def test_build_ballots_validation(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=10, score_spread=0.5, seed=0)
    d = whole_state_district(grid_state)
    cands = generate_candidates(vf.in_district(d), d.seats, per_party=4)
    with pytest.raises(ValueError):
        build_ballots(vf.voters, cands, "alphabetical")
    with pytest.raises(ValueError):
        build_ballots(vf.voters, [c for c in cands if c.party == "R"], "partisan_score")


def test_voter_file_csv_round_trip(tmp_path, grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=5, score_spread=0.5, seed=9)
    path = tmp_path / "voters.csv"
    save_voter_file(vf, path)
    loaded = load_voter_file(path)
    assert loaded == vf


def test_load_voter_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,block\n1,2\n")
    with pytest.raises(ValueError):
        load_voter_file(path)


def test_in_district_filters_by_block(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=5, score_spread=0.5, seed=0)
    d = District(block_ids=frozenset({0, 1}), seats=1)
    assert all(v.block_id in {0, 1} for v in vf.in_district(d))
    assert vf.in_district(d)
