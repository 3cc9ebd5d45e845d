import json
import math
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from mmdistrict.model import (
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
    _smooth,
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


def test_state_rejects_a_block_listed_as_its_own_neighbor():
    # A cut block that is its own neighbour looks removable to the tree builder.
    blocks = [Block(i, 10, 1.0, 1.0, float(i), 0.0) for i in range(3)]
    with pytest.raises(StateFormatError, match=r"^block 1 lists itself as a neighbor$"):
        StateInstance(blocks, {0: {1}, 1: {1, 0, 2}, 2: {1}}, 1)


def test_state_rejects_a_total_population_too_large_for_a_float():
    # Every block and region holds at most the total, so one check covers them all.
    big = int(sys.float_info.max)
    assert StateInstance([Block(0, big, 1.0, 1.0, 0.0, 0.0)], {}, 1).total_population == big
    blocks = [Block(0, big, 1.0, 1.0, 0.0, 0.0), Block(1, big, 1.0, 1.0, 1.0, 0.0)]
    with pytest.raises(StateFormatError, match="^total population is too large for a float$"):
        StateInstance(blocks, {0: {1}, 1: {0}}, 1)


def test_statewide_vote_share(path_state):
    shares = [0.8, 0.6, 0.3, 0.2]
    expected = sum(shares) / 4  # uniform populations and turnout
    assert path_state.statewide_vote_share() == pytest.approx(expected)


def test_statewide_vote_share_sums_in_ascending_id_order():
    # Listed in reverse id order, these blocks sum to a different float in
    # file order (0.43401565890010374) than in id order, as every region sums.
    votes_r = [0.1, 0.2, 0.3, 0.7, 0.001, 3.3]
    blocks = [Block(i, 100, votes_r[i], 1.0, float(i), 0.0) for i in reversed(range(6))]
    state = StateInstance(blocks, {i: {j for j in (i - 1, i + 1) if 0 <= j < 6} for i in range(6)}, 2)
    whole = district_vote_share(state, District(frozenset(range(6)), 2))
    assert state.statewide_vote_share() == whole == 0.4340156589001038


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=20))
@example([5, 3, 5, 1, 3])
@example(range(9, -1, -1))
@example({16, 8, 0})
def test_districts_hold_ascending_ids_without_repeats(ids):
    assert District(ids, 1).block_ids == tuple(sorted(set(ids)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32), st.randoms(use_true_random=False))
def test_states_list_shuffled_relabelled_blocks_in_id_order(n_blocks, seed, rng):
    base = generate_synthetic_state(n_blocks, 1, 0.4, 2, seed=seed)
    blocks = [Block(1000 + 7 * b.id, b.population, b.votes_r, b.votes_d, b.x, b.y)
              for b in base.blocks]
    adjacency = {1000 + 7 * b: {1000 + 7 * v for v in nbrs} for b, nbrs in base.adjacency.items()}
    ordered = StateInstance(blocks, adjacency, 1)
    rng.shuffle(blocks)
    state = StateInstance(blocks, adjacency, 1)
    ids = [b.id for b in state.blocks]
    assert ids == list(state.block_map) == sorted(ids)
    assert state.statewide_vote_share().hex() == ordered.statewide_vote_share().hex()


def _state_graph(state):
    """``StateInstance.graph`` spelled out as a reference: ids to positions, then neighbours."""
    index = {b: i for i, b in enumerate(state.block_map)}
    return (tuple(tuple(index[v] for v in state.adjacency[b]) for b in state.block_map),
            tuple(b.population for b in state.blocks))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32), st.randoms(use_true_random=False))
def test_a_state_builds_its_position_graph_on_first_use(n_blocks, seed, rng):
    # Only the tree builder reads the graph, so making or loading a state must not build it.
    base = generate_synthetic_state(n_blocks, 1, 0.4, 2, seed=seed)
    assert "graph" not in vars(base)
    blocks = [Block(1000 + 7 * b.id, b.population, b.votes_r, b.votes_d, b.x, b.y)
              for b in base.blocks]
    adjacency = {1000 + 7 * b: {1000 + 7 * v for v in nbrs} for b, nbrs in base.adjacency.items()}
    ordered = StateInstance(blocks, adjacency, 1)
    rng.shuffle(blocks)
    state = StateInstance(blocks, adjacency, 1)
    assert "graph" not in vars(state)
    assert state.graph == _state_graph(state) == ordered.graph
    assert state.graph is state.graph
    with tempfile.TemporaryDirectory() as d:
        save_state(state, f"{d}/state.json")
        loaded = load_state(f"{d}/state.json")
    assert "graph" not in vars(loaded)
    assert loaded.graph == _state_graph(loaded)


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


def test_validate_plan_reports_more_districts_than_seats_without_raising():
    # No size allocation has more districts than seats; the seat total is the violation.
    state = make_path_state([100] * 3, [0.5] * 3, seats=2)
    plan = Plan(tuple(District(frozenset({b}), 1) for b in range(3)))
    report = validate_plan(state, plan)
    assert any("seat total 3 != state total 2" in v for v in report.violations)


def test_validate_plan_flags_population_imbalance():
    state = make_path_state([100, 100, 100, 700], [0.5] * 4, seats=2)
    plan = Plan((District(frozenset({0, 1}), 1), District(frozenset({2, 3}), 1)))
    report = validate_plan(state, plan)
    assert any("population ratio" in v for v in report.violations)


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


@st.composite
def path_states(draw):
    """States whose blocks form a path in drawn order, with int and float values of any size."""
    ids = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=5, unique=True))
    coords = st.one_of(st.integers(-10 ** 9, 10 ** 9), st.just(-0.0),
                       st.floats(allow_nan=False, allow_infinity=False))
    votes = st.one_of(st.integers(0, 10 ** 20), st.floats(0, 1e308),
                      st.sampled_from([0.0, 5e-324, 1e308]))
    blocks = [Block(i, draw(st.integers(1, 10 ** 6)), draw(votes), draw(votes), draw(coords),
                    draw(coords)) for i in ids]
    adjacency = {i: set(ids[max(j - 1, 0):j]) | set(ids[j + 1:j + 2]) for j, i in enumerate(ids)}
    try:
        return StateInstance(blocks, adjacency, draw(st.integers(1, len(ids))))
    except StateFormatError:  # the summed votes overflowed
        reject()


@settings(max_examples=200, deadline=None)
@given(path_states())
@example(StateInstance([Block(3, 1, 5e-324, 1e308, -0.0, -2.5)], {}, 1))
@example(StateInstance([Block(0, 7, 3, 0, -1, 0), Block(1, 2, 0.5, 4, 1.5, -0.0)],
                       {0: {1}, 1: {0}}, 2))
def test_save_state_writes_the_indenting_json_encoders_bytes(tmp_path_factory, state):
    path = tmp_path_factory.mktemp("writer") / "state.json"
    save_state(state, path)
    data = {"total_seats": state.total_seats, "blocks": [
        {"id": b.id, "population": b.population, "votes_r": b.votes_r, "votes_d": b.votes_d,
         "x": b.x, "y": b.y, "neighbors": sorted(state.adjacency[b.id])}
        for b in sorted(state.blocks, key=lambda b: b.id)]}
    assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def smooth_by_block(z, neighbors, passes):
    """The smoothing as one np.mean per block per pass, which _smooth replaced."""
    for _ in range(passes):
        z = np.array([0.5 * z[i] + 0.5 * np.mean([z[n] for n in neighbors[i]])
                      for i in range(len(z))])
    return z


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.integers(0, 3), st.integers(0, 2 ** 32), st.integers(-6, 6))
def test_smoothing_matches_the_per_block_mean_loop_bit_for_bit(n_blocks, passes, seed, scale):
    neighbors = generate_synthetic_state(n_blocks, 1, 0.5, 0, seed=0).adjacency
    z = np.random.default_rng(seed).standard_normal(n_blocks) * 10.0 ** scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # np.mean of no neighbours is NaN
        expected = smooth_by_block(z, neighbors, passes)
    if n_blocks == 1:  # the lone block keeps its value where the loop gave NaN
        expected = np.where(np.isnan(expected), z, expected)
    assert _smooth(z, neighbors, passes).tobytes() == expected.tobytes()


def test_load_state_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_state(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["votes_r", "votes_d", "x", "y"])
def test_load_state_rejects_non_finite_block_values(tmp_path, path_state, field, value):
    path = tmp_path / "state.json"
    save_state(path_state, path)
    data = json.loads(path.read_text())
    data["blocks"][2][field] = value  # json writes NaN, Infinity and -Infinity
    path.write_text(json.dumps(data))
    with pytest.raises(StateFormatError) as err:
        load_state(path)
    assert str(path) in str(err.value)
    assert f"block 2: {field} {value} is not finite" in str(err.value)


def test_load_state_takes_whole_floats_as_ints(tmp_path, path_state):
    path = tmp_path / "state.json"
    save_state(path_state, path)
    data = json.loads(path.read_text())
    block = data["blocks"][2]
    block["id"], block["population"] = 2.0, float(block["population"])
    block["neighbors"] = [float(b) for b in block["neighbors"]]
    path.write_text(json.dumps(data))
    loaded = load_state(path)
    assert loaded.block_map[2] == path_state.block_map[2]
    assert loaded.adjacency == path_state.adjacency


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


def test_load_plan_holds_each_districts_ids_ascending_and_save_plan_writes_them_so(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"districts": [{"seats": 1, "blocks": [3, 1, 2, 1]},
                                              {"seats": 1, "blocks": [0]}]}))
    plan = load_plan(path)
    assert [d.block_ids for d in plan.districts] == [(1, 2, 3), (0,)]
    save_plan(plan, path)
    assert [d["blocks"] for d in json.loads(path.read_text())["districts"]] == [[1, 2, 3], [0]]


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


@pytest.mark.parametrize("n_blocks", [4, 16, 144])
def test_correlation_past_the_smoothing_fixpoint_writes_the_same_state(tmp_path, n_blocks):
    # The field stops changing after 55 to 3,668 passes on 4 to 144 blocks
    # (seeds 0 to 2), so 10^4 passes already reach the fixpoint, and 10^15 ends.
    written = []
    for corr in (10 ** 4, 1e15):
        path = tmp_path / f"corr_{corr}.json"
        save_state(generate_synthetic_state(n_blocks, 2, 0.4, corr, seed=0), path)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    # smoothing stops only at a true fixpoint: one more pass changes no bit
    neighbors = generate_synthetic_state(n_blocks, 1, 0.5, 0, seed=0).adjacency
    z = _smooth(np.random.default_rng(0).standard_normal(n_blocks), neighbors, 10 ** 15)
    assert _smooth(z, neighbors, 1).tobytes() == z.tobytes()


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


@pytest.mark.parametrize("corr", [math.nan, math.inf, -math.inf])
def test_synthetic_state_rejects_non_finite_correlation(corr):
    with pytest.raises(ValueError, match=f"spatial_correlation must be finite and >= 0, got {corr}"):
        generate_synthetic_state(16, 4, 0.4, corr, seed=0)
