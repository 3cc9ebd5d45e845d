import json

import numpy as np
import pytest

from mmdistrict.model import (
    BalanceTolerance,
    Block,
    District,
    Plan,
    StateFormatError,
    StateInstance,
    district_population,
    district_vote_share,
    generate_synthetic_state,
    is_connected,
    load_plan,
    load_state,
    save_plan,
    save_state,
    validate_plan,
)
from conftest import make_path_state


def test_block_rejects_negative_population():
    with pytest.raises(StateFormatError):
        Block(id=0, population=-1, votes_r=0, votes_d=0, x=0, y=0)


def test_block_rejects_negative_votes():
    with pytest.raises(StateFormatError):
        Block(id=0, population=1, votes_r=-2.0, votes_d=0, x=0, y=0)


def test_state_rejects_duplicate_block_ids():
    b = Block(id=0, population=1, votes_r=1, votes_d=1, x=0, y=0)
    with pytest.raises(StateFormatError, match="duplicate"):
        StateInstance([b, b], {0: set()}, 1)


def test_state_rejects_asymmetric_adjacency():
    blocks = [Block(id=i, population=1, votes_r=1, votes_d=1, x=i, y=0) for i in range(2)]
    with pytest.raises(StateFormatError, match="symmetric"):
        StateInstance(blocks, {0: {1}, 1: set()}, 1)


def test_state_rejects_disconnected_graph():
    blocks = [Block(id=i, population=1, votes_r=1, votes_d=1, x=i, y=0) for i in range(3)]
    with pytest.raises(StateFormatError, match="disconnected"):
        StateInstance(blocks, {0: {1}, 1: {0}, 2: set()}, 1)


def test_state_rejects_unknown_neighbor():
    blocks = [Block(id=0, population=1, votes_r=1, votes_d=1, x=0, y=0)]
    with pytest.raises(StateFormatError):
        StateInstance(blocks, {0: {7}}, 1)


def test_statewide_vote_share(path_state):
    shares = [0.8, 0.6, 0.3, 0.2]
    expected = sum(shares) / 4  # uniform populations and turnout
    assert path_state.statewide_vote_share() == pytest.approx(expected)


def test_is_connected_path_and_split():
    adj = {0: {1}, 1: {0, 2}, 2: {1}}
    assert is_connected({0, 1, 2}, adj)
    assert is_connected({0, 1}, adj)
    assert not is_connected({0, 2}, adj)
    assert not is_connected(set(), adj)


def test_district_vote_share_is_weighted_block_mean(path_state):
    d = District(block_ids=frozenset({0, 1}), seats=1)
    r = sum(path_state.block_map[i].votes_r for i in d.block_ids)
    t = r + sum(path_state.block_map[i].votes_d for i in d.block_ids)
    assert district_vote_share(path_state, d) == pytest.approx(r / t)


def test_zero_vote_district_scores_half():
    state = make_path_state([10, 10], [0.3, 0.9], seats=1, turnout=0.0)
    d = District(block_ids=frozenset({0, 1}), seats=1)
    assert district_vote_share(state, d) == 0.5


def test_district_population(path_state):
    d = District(block_ids=frozenset({1, 2, 3}), seats=1)
    assert district_population(path_state, d) == 300


def test_district_requires_blocks_and_seats():
    with pytest.raises(ValueError):
        District(block_ids=frozenset(), seats=1)
    with pytest.raises(ValueError):
        District(block_ids=frozenset({0}), seats=0)


def test_validate_plan_accepts_balanced_split(path_state):
    plan = Plan((District(frozenset({0, 1}), 1), District(frozenset({2, 3}), 1)))
    assert validate_plan(path_state, plan).ok


def test_validate_plan_flags_missing_and_duplicate_blocks(path_state):
    plan = Plan((District(frozenset({0, 1}), 1), District(frozenset({1, 2}), 1)))
    report = validate_plan(path_state, plan)
    assert any("multiple districts" in v for v in report.violations)
    assert any("missing" in v for v in report.violations)


def test_validate_plan_flags_discontiguous_district(path_state):
    plan = Plan((District(frozenset({0, 3}), 1), District(frozenset({1, 2}), 1)))
    report = validate_plan(path_state, plan)
    assert any("not contiguous" in v for v in report.violations)


def test_validate_plan_flags_wrong_seat_total(path_state):
    plan = Plan((District(frozenset({0, 1}), 2), District(frozenset({2, 3}), 1)))
    report = validate_plan(path_state, plan)
    assert any("seat total" in v for v in report.violations)


def test_validate_plan_flags_wrong_size_multiset():
    state = make_path_state([100] * 6, [0.5] * 6, seats=6)
    # K=3 requires sizes {2,2,2}; {1,2,3} has the right total but wrong multiset
    plan = Plan((District(frozenset({0}), 1), District(frozenset({1, 2}), 2),
                 District(frozenset({3, 4, 5}), 3)))
    report = validate_plan(state, plan)
    assert any("size allocation" in v for v in report.violations)


def test_validate_plan_flags_population_imbalance():
    state = make_path_state([100, 100, 100, 700], [0.5] * 4, seats=2)
    plan = Plan((District(frozenset({0, 1}), 1), District(frozenset({2, 3}), 1)))
    report = validate_plan(state, plan)
    assert any("population ratio" in v for v in report.violations)


def test_balance_tolerance_range():
    with pytest.raises(ValueError):
        BalanceTolerance(-0.1)
    with pytest.raises(ValueError):
        BalanceTolerance(1.0)


def test_state_file_round_trip(tmp_path, grid_state):
    path = tmp_path / "state.json"
    save_state(grid_state, path)
    loaded = load_state(path)
    assert loaded.total_seats == grid_state.total_seats
    assert loaded.adjacency == grid_state.adjacency
    for b in grid_state.blocks:
        lb = loaded.block_map[b.id]
        assert (lb.population, lb.votes_r, lb.votes_d, lb.x, lb.y) == \
            (b.population, b.votes_r, b.votes_d, b.x, b.y)


def test_load_state_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_state(path)


def test_load_state_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"blocks": []}))
    with pytest.raises(StateFormatError):
        load_state(path)


def test_plan_file_round_trip(tmp_path):
    plan = Plan((District(frozenset({0, 1}), 2), District(frozenset({2, 3}), 1)))
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert {(d.block_ids, d.seats) for d in loaded.districts} == \
        {(d.block_ids, d.seats) for d in plan.districts}


def test_load_plan_rejects_bad_json_naming_the_file(tmp_path):
    path = tmp_path / "bad_plan.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError, match=r"bad_plan\.json: invalid JSON"):
        load_plan(path)


def test_synthetic_state_hits_target_share():
    state = generate_synthetic_state(100, 4, 0.4, 0, seed=7)
    assert 0.39 <= state.statewide_vote_share() <= 0.41


def test_synthetic_state_is_valid_grid():
    state = generate_synthetic_state(12, 3, 0.5, 0, seed=1)  # 3 x 4 grid
    degrees = sorted(len(state.adjacency[b.id]) for b in state.blocks)
    assert degrees == sorted([2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4])


def test_synthetic_state_smoothing_raises_neighbor_correlation():
    def moran(state):
        shares = {b.id: b.votes_r / (b.votes_r + b.votes_d) for b in state.blocks}
        mean = np.mean(list(shares.values()))
        num = n_edges = 0.0
        for bid, nbrs in state.adjacency.items():
            for n in nbrs:
                num += (shares[bid] - mean) * (shares[n] - mean)
                n_edges += 1
        den = np.var(list(shares.values()))
        return num / (n_edges * den)

    flat = generate_synthetic_state(144, 6, 0.4, 0, seed=11)
    clustered = generate_synthetic_state(144, 6, 0.4, 10, seed=11)
    assert moran(clustered) > moran(flat)


def test_synthetic_state_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_state(generate_synthetic_state(64, 4, 0.45, 2, seed=9), a)
    save_state(generate_synthetic_state(64, 4, 0.45, 2, seed=9), b)
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_state_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_synthetic_state(0, 4, 0.4, 0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_state(16, 4, 1.5, 0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_state(16, 4, 0.4, -1, seed=0)
