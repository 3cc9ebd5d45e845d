"""Multi-member redistricting and social choice toolkit."""

from .model import (
    Block,
    District,
    Plan,
    StateInstance,
    district_vote_share,
    generate_synthetic_state,
    load_plan,
    load_state,
    save_plan,
    save_state,
    validate_plan,
)
from .rules import (
    PAV,
    RULES,
    STV,
    THIELE_SQUARED,
    WTA,
    SeatOutcome,
    SeatShareRule,
    UncertaintyModel,
    expected_seats,
    get_rule,
    seat_thresholds,
)
from .stv import (
    Ballot,
    BallotGroup,
    Candidate,
    ElectionResult,
    droop_quota,
    partisan_split,
    run_stv,
)
from .tree import SampleTree, build_tree, sample_counts, sample_plans
from .voters import VoterFile, Voters, build_ballots, generate_candidates, generate_voter_file

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
