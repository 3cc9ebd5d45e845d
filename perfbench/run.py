"""Benchmark the mmdistrict CLI end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-144 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The workloads are in workloads.py.  A run is a sequence of cases drawn from
``--seed``: each case synthesizes its own state with ``mmdistrict synth``
(timed as ``setup_s``) and runs the workload's command on it with its own
``--seed``, in-process through ``mmdistrict.cli.main``.  The load is a closed
loop from one process: one command at a time.  The number of cases follows
from ``--seconds`` and the workload alone (``Workload.cases``), never from how
fast the program is, so every commit is timed on the same inputs.  Every
command's outputs are checked, and every case runs ``PASSES`` times, which
also checks that its output bytes do not change.  Command times are reported
relative to a fixed pure-Python reference task (``reference_s``) timed before,
during and after each command, because this machine's speed drifts too much
for raw seconds to compare one run with the next.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each case runs untraced and traced; the traced run wraps the public functions
of every module (the layers, see tracer.py), and the per-layer metrics give
self time and counts per command.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  A fuller report (environment,
per-case figures, tree diagnostics) and, when tracing, the spans are
written under ``.perfbench_work/`` in the checkout.  The exit code is 1 when
any check failed.  ``--smoke`` runs every workload at tiny sizes in both modes
and checks the result against the schema in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import PROBE, TRACE, Tracer  # noqa: E402
from perfbench.workloads import SMOKE, WORKLOADS, StateFile, check_builds  # noqa: E402

#: Runs of every case in an untraced run.
PASSES = 2
#: Typical seconds of reference_s() on the 2-vCPU VM the benchmark was defined
#: on; setup_s is given in seconds at that speed.
REFERENCE_S = 0.030
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "leaves_per_ref": "1/ref"}
#: Spans timed while synthesizing the states, not while running the command.
SETUP_SPANS = ("model.generate_synthetic_state", "model.save_state")
COUNTED_SPANS = ("model.district_vote_share", "rules.expected_seats",
                 "rules.deterministic_seats", "tree.build_tree", "tree.split_region",
                 "tree.is_connected", "analysis.plan_deterministic_seats",
                 "voters.in_district")
PER_LAYER = {
    **{f"{name}_s": "s" for name in TRACE},
    **{f"{name}_calls": "count" for name in COUNTED_SPANS},
    "tree.split_region_fail_ratio": "ratio",
    "tree.nodes": "count", "tree.leaves": "count", "tree.leaf_unique_ratio": "ratio",
    "tree.plans_encoded": "count", "tree.sample_accept_ratio": "ratio",
    "tree.diag_node_count": "count", "tree.diag_leaf_count": "count",
    "voters.ballots": "count", "voters.distinct_ranking_ratio": "ratio",
    "stv.elections": "count", "stv.rounds": "count", "stv.ballots_per_s": "1/s",
    "stv.elections_per_s": "1/s",
    "cli.self_s": "s", "cli.traced_wall_s": "s", "trace_overhead_s": "s",
    "wall_s": "s", "reference_s": "s",
}


def import_program():
    """Import mmdistrict from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mmdistrict" / "cli.py").is_file():
        raise SystemExit(f"error: no mmdistrict sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mmdistrict.cli

    if Path(mmdistrict.cli.__file__).resolve().parent != (src / "mmdistrict").resolve():
        raise SystemExit(f"error: imported mmdistrict from {mmdistrict.cli.__file__}")
    return mmdistrict.cli


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform(),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted((ROOT / "src").rglob("*.py")))}


def reference_s():
    """Seconds one fixed pure-Python task takes: breadth-first searches over a
    grid graph with dicts, sets and sorting, the kind of work tree building
    does.  It does not use mmdistrict, so only the machine's speed moves it."""
    t0 = perf_counter()
    n = 48
    cells = [(i, j) for i in range(n) for j in range(n)]
    adj = {(i, j): [(i + a, j + b) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if 0 <= i + a < n and 0 <= j + b < n] for i, j in cells}
    for start in cells[::150]:
        dist = {start: 0.0}
        frontier = [start]
        while frontier:
            ahead = []
            for cell in frontier:
                for other in adj[cell]:
                    if other not in dist:
                        dist[other] = dist[cell] + 1.0
                        ahead.append(other)
            frontier = ahead
        region = frozenset(c for c in cells if dist[c] <= n / 2)
        sum(sorted(dist.values())[:len(region)])
    return perf_counter() - t0


def _ratio(num, den):
    return num / den if den else 0.0


@dataclass
class Command:
    """One command run: its wall time, its checks and what the wrappers saw."""
    case: int
    state: StateFile
    seed: int
    wall: float
    ref: float  # mean of reference_s() before, during (see Tracer) and after the command
    tracer: Tracer
    outputs: dict
    problems: list

    @property
    def ratio(self):
        """The command's wall time in units of the reference task's."""
        return self.wall / self.ref

    @property
    def leaves(self):
        return sum(t["distinct_leaves"] for t in self.trees)

    @property
    def trees(self):
        return self.tracer.notes_of("tree.build_tree")

    @property
    def elections(self):
        return self.tracer.notes_of("stv.run_stv")

    def operations(self, workload):
        """The command, its per-k tree builds and its per-district elections."""
        return 1 + workload.builds(self.state) + len(self.elections)


@dataclass
class Run:
    workload: object
    seed: int
    tmp: Path
    cli: object
    rng: random.Random = None
    synth_argv: list = field(default_factory=list)  # per case
    # per case, one (seconds, reference_s() just before) pair per synthesis
    setup_times: list = field(default_factory=list)
    state_bytes: dict = field(default_factory=dict)
    missing_bindings: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def __post_init__(self):
        self.rng = random.Random(f"{self.workload.name}:{self.seed}")

    def fail(self, what, problems, operations=1):
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems += [f"{what}: {p}" for p in problems]

    def new_case(self, setup_tracer=None):
        """A new case: its own state, synthesized from a drawn seed, and a command seed."""
        case = len(self.synth_argv)
        self.synth_argv.append(["synth", *self.workload.synth,
                                "--seed", str(self.rng.randrange(1, 2 ** 31)),
                                "--out", str(self.tmp / f"state{case}.json")])
        self.setup_times.append([])
        path = self.synthesize(case, setup_tracer)
        return case, StateFile.read(path), self.rng.randrange(1, 10 ** 6)

    def synthesize(self, case, setup_tracer=None):
        """Write the case's state with ``mmdistrict synth``, timed; its bytes must not change."""
        argv = self.synth_argv[case]
        ref = reference_s()
        with setup_tracer or contextlib.nullcontext():
            t0 = perf_counter()
            rc = self.cli.main(argv)
            self.setup_times[case].append((perf_counter() - t0, ref))
        path = Path(argv[-1])
        data = path.read_bytes() if rc == 0 else None
        changed = self.state_bytes.setdefault(case, data) != data
        self.fail(" ".join(argv), [f"exit {rc}"] * (rc != 0)
                  + ["output bytes changed on repetition"] * changed)
        return path

    def execute(self, case, state, seed, names):
        """Run one command under a tracer with the given spans, then check it."""
        out = self.tmp / "out"
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
        argv = self.workload.argv(state.path, out, seed)
        tracer = Tracer(names, reference_s)
        gc.collect()  # start every command from a collected heap
        problems = []
        before = reference_s()
        with tracer:
            t0 = tracer.clock()
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception:
                rc = traceback.format_exc()
            wall = tracer.clock() - t0
        ref = statistics.mean([before, *tracer.references, reference_s()])
        outputs = {}
        if rc != 0:
            problems.append(f"exit {rc}")
        else:
            try:
                outputs = {p.name: p.read_bytes() for p in self.workload.outputs(out)}
                problems += (check_builds(tracer, self.workload.builds(state))
                             + self.workload.check(out, state, tracer))
            except Exception:
                problems.append(traceback.format_exc())
        # A binding a refactor removed reads as zero time; the report names it.
        self.missing_bindings.update(tracer.missing)
        command = Command(case, state, seed, wall, ref, tracer, outputs, problems)
        self.fail(f"command {case} ({' '.join(argv)})", problems,
                  command.operations(self.workload))
        return command

    def compare(self, first, again):
        """A repeated command must write the same bytes."""
        if first.outputs != again.outputs and not (first.problems or again.problems):
            self.failed += again.operations(self.workload)
            self.problems.append(f"command {first.case}: output bytes differ on repetition")


def untraced_run(run, seconds):
    """End-to-end metrics from ``PASSES`` passes over the same cases.

    The first pass makes the run's cases; each later pass runs every case
    again, re-synthesizing its state first, and checks that no output
    changed.  On a shared machine the same work takes up to twice as long
    from one minute to the next, so command times are taken relative to the
    reference task timed before, during and after each command
    (``Command.ratio``).
    ``wall_ref`` is the median of those ratios over every command of the run
    and ``leaves_per_ref`` the median of each command's distinct leaves per
    unit of it: medians, because a few cases take several times as long as
    the rest.  ``setup_s`` is the median over every synthesis of its time
    relative to the reference task timed just before it, in seconds on a
    machine where that task takes ``REFERENCE_S``.
    """
    passes = [[]]
    for _ in range(run.workload.cases(seconds)):
        case, state, seed = run.new_case()
        passes[0].append(run.execute(case, state, seed, PROBE))
    for _ in range(PASSES - 1):
        passes.append([])
        for command in passes[0]:
            run.synthesize(command.case)
            passes[-1].append(run.execute(command.case, command.state, command.seed, PROBE))
            run.compare(command, passes[-1][-1])
    commands = [c for p in passes for c in p]
    wall = sum(c.wall for c in commands)
    leaves = sum(c.leaves for c in commands)
    metrics = {
        "wall_ref": statistics.median(c.ratio for c in commands),
        "setup_s": REFERENCE_S * statistics.median(
            t / ref for times in run.setup_times for t, ref in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "leaves_per_ref": statistics.median(c.leaves / c.ratio for c in commands),
    }
    extras = {
        "cases": len(passes[0]),
        "wall_s": wall / len(commands),
        "leaves_per_s": leaves / wall,
        "reference_s": statistics.median(c.ref for c in commands),
        "raw_setup_s": statistics.median(t for times in run.setup_times for t, _ in times),
        "pass_wall_s": [sum(c.wall for c in p) / len(p) for p in passes],
        "elections_per_s": sum(len(c.elections) for c in commands) / wall,
        "per_case": [{"synth": " ".join(run.synth_argv[a.case]), "seed": a.seed,
                      "wall_s": [p[i].wall for p in passes],
                      "reference_s": [p[i].ref for p in passes],
                      "setup_s": run.setup_times[a.case], "distinct_leaves": a.leaves,
                      "elections": len(a.elections)} for i, a in enumerate(passes[0])],
    }
    return metrics, END_TO_END, extras


def traced_run(run, seconds):
    """Per-layer metrics: each case untraced and traced.

    ``cli.self_s`` is the traced wall time minus the time inside root spans,
    so it and the layers' self times add up to the traced wall time by
    definition.
    """
    setup_tracer = Tracer(SETUP_SPANS)
    pairs = []
    for _ in range(run.workload.cases(seconds)):
        case, state, seed = run.new_case(setup_tracer)
        # Alternate which goes first, so neither side always meets warm caches.
        if case % 2:
            traced = run.execute(case, state, seed, TRACE)
            plain = run.execute(case, state, seed, PROBE)
        else:
            plain = run.execute(case, state, seed, PROBE)
            traced = run.execute(case, state, seed, TRACE)
        run.compare(plain, traced)
        pairs.append((plain, traced))
    n = len(pairs)
    traced = [t for _, t in pairs]
    self_s, calls, roots = {}, {}, 0.0
    for command in traced:
        s, c, r = command.tracer.profile()
        for name in s:
            self_s[name] = self_s.get(name, 0.0) + s[name]
            calls[name] = calls.get(name, 0) + c[name]
        roots += r
    wall = sum(t.wall for t in traced)
    trees = [tree for t in traced for tree in t.trees]
    elections = [e for t in traced for e in t.elections]
    ballots = [b for t in traced for b in t.tracer.notes_of("voters.build_ballots")]
    splits = [f for t in traced for f in t.tracer.notes_of("tree.split_region")]
    setup_self, _, _ = setup_tracer.profile()
    metrics = {f"{name}_s": self_s.get(name, 0.0) / n for name in TRACE}
    for name in SETUP_SPANS:
        metrics[f"{name}_s"] = setup_self.get(name, 0.0) / n
    metrics.update({f"{name}_calls": calls.get(name, 0) / n for name in COUNTED_SPANS})
    tree_sum = {key: sum(t[key] for t in trees) for key in
                ("nodes", "leaves", "distinct_leaves", "plans", "sample_attempts",
                 "sample_failures")}
    metrics.update({
        "tree.split_region_fail_ratio": _ratio(sum(splits), len(splits)),
        "tree.nodes": tree_sum["nodes"] / n,
        "tree.leaves": tree_sum["leaves"] / n,
        "tree.leaf_unique_ratio": _ratio(tree_sum["distinct_leaves"], tree_sum["leaves"]),
        "tree.plans_encoded": tree_sum["plans"] / n,
        "tree.sample_accept_ratio": 1 - _ratio(tree_sum["sample_failures"],
                                               tree_sum["sample_attempts"]),
        "tree.diag_node_count": sum(t["diagnostics"].get("node_count", 0) for t in trees) / n,
        "tree.diag_leaf_count": sum(t["diagnostics"].get("leaf_count", 0) for t in trees) / n,
        "voters.ballots": sum(b[0] for b in ballots) / n,
        "voters.distinct_ranking_ratio": _ratio(sum(b[1] for b in ballots),
                                                sum(b[0] for b in ballots)),
        "stv.elections": len(elections) / n,
        "stv.rounds": sum(e["rounds"] for e in elections) / n,
        "stv.ballots_per_s": _ratio(sum(e["ballots"] for e in elections),
                                    self_s.get("stv.run_stv", 0.0)),
        "stv.elections_per_s": _ratio(sum(len(p.elections) for p, _ in pairs),
                                      sum(p.wall for p, _ in pairs)),
        "cli.self_s": (wall - roots) / n,
        "cli.traced_wall_s": wall / n,
        "trace_overhead_s": (wall - sum(p.wall for p, _ in pairs)) / n,
        "wall_s": sum(p.wall for p, _ in pairs) / n,
        "reference_s": statistics.median(p.ref for p, _ in pairs),
    })
    extras = {"pairs": n, "tree_diagnostics": [t["diagnostics"] for t in trees]}
    return metrics, PER_LAYER, extras, traced


def run_benchmark(workload, seed, seconds, trace, workdir):
    """Run one workload; returns (result line, full report)."""
    cli = import_program()
    tmp = workdir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, tmp, cli)
    traced = []
    try:
        if trace:
            metrics, units, extras, traced = traced_run(run, seconds)
        else:
            metrics, units, extras = untraced_run(run, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "command": workload.argv(Path("STATE.json"), Path("OUT"), "SEED"),
              "environment": environment(), **result,
              "fail_ratio": _ratio(run.failed, run.attempted),
              "problems": run.problems[:50],
              "missing_bindings": sorted(run.missing_bindings), **extras}
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"{workload.name}-trace{trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    if traced:
        with open(workdir / f"{workload.name}.spans.jsonl", "w") as f:
            f.write(json.dumps({"fields": ["trace", "id", "name", "start", "end", "parent"]})
                    + "\n")
            for command in traced:
                for span in command.tracer.spans:
                    f.write(json.dumps([command.case, *span]) + "\n")
    return result, report


def print_report(result, report):
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"src_lines={env['src_lines']}")
    if report["trace"]:
        print(f"# {report['pairs']} untraced/traced command pairs; per-layer figures "
              f"are per command")
    else:
        means = ", ".join(f"{w:.4f} s" for w in report["pass_wall_s"])
        print(f"# {report['cases']} cases, each run in {PASSES} passes (mean wall {means}); "
              f"over all runs: wall_s {report['wall_s']:.4f} s, leaves_per_s "
              f"{report['leaves_per_s']:.4f} 1/s, elections_per_s "
              f"{report['elections_per_s']:.4f} 1/s, median reference_s "
              f"{report['reference_s']:.4f} s, median raw setup_s {report['raw_setup_s']:.4f} s")
    print(f"# attempted {result['attempted']} failed {result['failed']} "
          f"fail_ratio {report['fail_ratio']:.4f}")
    for problem in report["problems"][:10]:
        print(f"# problem: {problem.strip().splitlines()[-1]}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


def schema_problems(result, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit, and nothing else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = result["metrics"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
        if name in wanted and metric.get("unit") != wanted[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r} != {wanted[name]!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"attempted/failed {result['attempted']}/{result['failed']}")
    return problems


def smoke(workdir):
    """Every workload at tiny sizes, untraced and traced; returns the problems found."""
    problems = []
    for name, workload in SMOKE.items():
        for trace in (0, 1):
            result, report = run_benchmark(workload, 1, 0.0, trace, workdir)
            problems += [f"{name} trace {trace}: {p}"
                         for p in schema_problems(result, trace) + report["problems"]
                         + [f"binding not found: {b}" for b in report["missing_bindings"]]]
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the report schema")
    args = parser.parse_args(argv)
    if args.smoke:
        problems = smoke(WORK / "smoke")
        for problem in problems:
            print(f"smoke: {problem}")
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, report = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                   args.trace, WORK)
    print_report(result, report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
