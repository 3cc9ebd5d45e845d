import csv
import multiprocessing

import pytest

from mmdistrict.model import Block, StateInstance, generate_synthetic_state
from mmdistrict.tree import count_plans

#: For tests that force a root-sample pool, which needs the fork start method.
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="root-sample pools need the fork start method")


def enumerate_plans(tree, limit: int = 100000):
    """All encoded plans as leaf-node tuples; errors out past ``limit``."""
    if count_plans(tree.root) > limit:
        raise ValueError(f"tree encodes more than {limit} plans")

    def expand(node):
        if node.is_leaf:
            return [(node,)]
        result = []
        for sample in node.samples:
            combos = [()]
            for child in sample:
                combos = [c + sub for c in combos for sub in expand(child)]
            result.extend(combos)
        return result

    return expand(tree.root)


def save_voter_file(voter_file, path) -> None:
    """Write ``voter_file`` as the CSV that ``voters.load_voter_file`` reads."""
    c = voter_file.columns
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["voter_id", "block_id", "party", "partisan_score", "x", "y"])
        writer.writerows(zip(c.id.tolist(), voter_file.block_id.tolist(), c.party.tolist(),
                             *(map(repr, a.tolist()) for a in (c.score, c.x, c.y))))


def make_path_state(pops, shares, seats, turnout=0.8):
    """Path-graph state with given block populations and R shares."""
    blocks = []
    adjacency = {}
    n = len(pops)
    for i, (pop, share) in enumerate(zip(pops, shares)):
        votes = pop * turnout
        blocks.append(Block(id=i, population=pop, votes_r=share * votes,
                            votes_d=(1 - share) * votes, x=float(i), y=0.0))
        nbrs = set()
        if i > 0:
            nbrs.add(i - 1)
        if i < n - 1:
            nbrs.add(i + 1)
        adjacency[i] = nbrs
    return StateInstance(blocks, adjacency, seats)


@pytest.fixture
def path_state():
    return make_path_state([100, 100, 100, 100], [0.8, 0.6, 0.3, 0.2], seats=2)


@pytest.fixture(scope="session")
def grid_state():
    return generate_synthetic_state(16, 4, 0.4, 1, seed=3)
