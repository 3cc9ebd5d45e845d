"""Spans around the calls into each mmdistrict layer, wrapped from outside the package.

The layers are the package's modules: ``model``, ``rules``, ``tree``,
``analysis``, ``voters``, ``stv`` and ``cli``.  ``BINDINGS`` lists, per span
name, every module attribute through which a caller looks the function up at
call time.  A function imported into several modules (``run_stv`` is bound in
both ``analysis`` and ``cli``) is wrapped at each of those names, and only
once, so every call makes exactly one span whichever name it went through.

Some wrappers also summarise a call's result (a built tree, an election) into
``Tracer.notes``, and a tracer given a ``reference`` task times it before each
tree build into ``Tracer.references``.  That work is kept off the tracer's
clock, so it is left out of every span and of the wall time measured with
``Tracer.clock``.
"""
from __future__ import annotations

import importlib
import itertools
from collections import Counter, defaultdict
from time import perf_counter

#: span name -> (module, attribute) bindings that callers look up.
BINDINGS = {
    "model.generate_synthetic_state": [("mmdistrict.model", "generate_synthetic_state")],
    "model.save_state": [("mmdistrict.cli", "save_state")],
    "model.load_state": [("mmdistrict.cli", "load_state")],
    "model.validate_plan": [("mmdistrict.cli", "validate_plan")],
    "model.save_plan": [("mmdistrict.cli", "save_plan")],
    "model.district_vote_share": [("mmdistrict.analysis", "district_vote_share")],
    "rules.expected_seats": [("mmdistrict.analysis", "expected_seats")],
    "rules.deterministic_seats": [("mmdistrict.analysis", "deterministic_seats")],
    "tree.build_tree": [("mmdistrict.tree", "build_tree"),
                        ("mmdistrict.analysis", "build_tree")],
    "tree.select_centers": [("mmdistrict.tree", "select_centers")],
    "tree.voronoi": [("mmdistrict.tree", "_voronoi_cell_pops")],
    "tree.split_region": [("mmdistrict.tree", "split_region")],
    "tree.is_connected": [("mmdistrict.tree", "is_connected")],
    "tree.sample_plans": [("mmdistrict.tree", "sample_plans"),
                          ("mmdistrict.analysis", "sample_plans")],
    "analysis.sweep_k": [("mmdistrict.analysis", "sweep_k")],
    "analysis.score_leaves": [("mmdistrict.analysis", "score_leaves")],
    "analysis.optimize_partisan": [("mmdistrict.analysis", "optimize_partisan")],
    "analysis.optimize_fair": [("mmdistrict.analysis", "optimize_fair")],
    "analysis.ensemble_metrics": [("mmdistrict.analysis", "ensemble_metrics")],
    "analysis.plan_deterministic_seats": [("mmdistrict.analysis", "plan_deterministic_seats")],
    "analysis.intra_party_analysis": [("mmdistrict.analysis", "intra_party_analysis")],
    "voters.generate_voter_file": [("mmdistrict.voters", "generate_voter_file")],
    "voters.in_district": [("mmdistrict.voters", "VoterFile.in_district")],
    "voters.generate_candidates": [("mmdistrict.voters", "generate_candidates")],
    "voters.build_ballots": [("mmdistrict.voters", "build_ballots")],
    "stv.run_stv": [("mmdistrict.analysis", "run_stv"), ("mmdistrict.cli", "run_stv")],
}

#: The few wrappers every checked command carries: enough to count trees and
#: elections and see who won, at a cost of microseconds per command.
PROBE = ("tree.build_tree", "stv.run_stv", "analysis.intra_party_analysis")
TRACE = tuple(BINDINGS)
#: The span before whose calls a tracer times its reference task.
REFERENCE_SPAN = "tree.build_tree"


def _tree_summary(args, kwargs, tree):
    from mmdistrict.tree import count_plans, walk_nodes

    nodes = leaves = 0
    regions = set()
    for node in walk_nodes(tree):
        nodes += 1
        if node.is_leaf:
            leaves += 1
            # A sorted tuple, not the frozenset itself: hashing the frozenset
            # would cache its hash and speed up later program code.
            regions.add(tuple(sorted(node.region)))
    diag = tree.diagnostics
    return {"nodes": nodes, "leaves": leaves, "distinct_leaves": len(regions),
            "plans": count_plans(tree.root),
            "sample_attempts": sum(diag.get("sample_attempts_per_depth", {}).values()),
            "sample_failures": sum(diag.get("sample_failures_per_depth", {}).values()),
            "diagnostics": {key: (dict(val) if isinstance(val, dict) else val)
                            for key, val in diag.items()}}


def _election_summary(args, kwargs, result):
    ballots, candidates = args[0], args[1]
    party = {c.id: c.party for c in candidates}
    return {"ballots": len(ballots), "rounds": len(result.rounds),
            "winner_parties": sorted({party[w] for w in result.winners})}


#: span name -> summary of (args, kwargs, result) kept in Tracer.notes.
SUMMARIES = {
    "tree.build_tree": _tree_summary,
    "tree.split_region": lambda args, kwargs, result: result is None,
    "voters.build_ballots": lambda args, kwargs, result: (
        len(result), len({b.ranking for b in result})),
    "stv.run_stv": _election_summary,
    "analysis.intra_party_analysis": lambda args, kwargs, result: (
        len(args[1][0].districts) if args[1] else None),
}


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Wraps the named spans' bindings while active; one tracer per command.

    ``spans`` holds ``(span_id, name, start, end, parent_id)`` tuples in
    completion order, with times on ``clock()``; a root span has parent -1.
    """

    def __init__(self, names=TRACE, reference=None):
        self.names = tuple(names)
        self.reference = reference
        self.references = []  # seconds the reference task took, one per tree build
        self.spans = []
        self.notes = []  # (span name, summary) in completion order
        self.missing = []
        self.excluded = 0.0
        self._ids = itertools.count()
        self._stack = []
        self._restore = []

    def clock(self) -> float:
        """perf_counter minus the time spent summarising results."""
        return perf_counter() - self.excluded

    def _wrap(self, name, fn):
        spans, stack, notes, ids = self.spans, self._stack, self.notes, self._ids
        summarize = SUMMARIES.get(name)
        reference = self.reference if name == REFERENCE_SPAN else None

        def wrapper(*args, **kwargs):
            if reference is not None:
                n0 = perf_counter()
                self.references.append(reference())
                self.excluded += perf_counter() - n0
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter() - self.excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter() - self.excluded
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if summarize is not None:
                n0 = perf_counter()
                notes.append((name, summarize(args, kwargs, result)))
                self.excluded += perf_counter() - n0
            return result

        wrapper.perfbench_span = name
        return wrapper

    def __enter__(self):
        wrappers = {}  # id(function) -> its single wrapper
        try:
            for name in self.names:
                for module, attr in BINDINGS[name]:
                    try:
                        owner, leaf = _resolve(module, attr)
                        fn = getattr(owner, leaf)
                    except (ImportError, AttributeError):
                        self.missing.append(f"{module}.{attr}")
                        continue
                    if hasattr(fn, "perfbench_span"):
                        raise RuntimeError(f"{module}.{attr} is already wrapped")
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(name, fn)
                    setattr(owner, leaf, wrappers[id(fn)])
                    self._restore.append((owner, leaf, fn))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _uninstall(self):
        while self._restore:
            owner, leaf, fn = self._restore.pop()
            setattr(owner, leaf, fn)

    def notes_of(self, name):
        return [summary for span, summary in self.notes if span == name]

    def profile(self):
        """(self seconds by name, calls by name, seconds inside root spans)."""
        covered = defaultdict(float)
        for sid, name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s, calls, roots = defaultdict(float), Counter(), 0.0
        for sid, name, t0, t1, parent in self.spans:
            self_s[name] += t1 - t0 - covered[sid]
            calls[name] += 1
            if parent < 0:
                roots += t1 - t0
        return self_s, calls, roots
