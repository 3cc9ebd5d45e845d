"""Tests of the benchmark itself: report schema, output checks that can fail, tracer wrapping."""
import csv
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.tracer import BINDINGS, PROBE, TRACE, Tracer
from perfbench.workloads import SMOKE, check_builds


def test_smoke_reports_every_metric_with_its_unit(tmp_path):
    assert bench.smoke(tmp_path) == []


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-144",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def command(request, tmp_path):
    """A checked smoke-size command of the named workload, with its run."""
    workload = SMOKE[request.param]
    run = bench.Run(workload, 1, tmp_path, bench.import_program())
    case, state, seed = run.new_case()
    cmd = run.execute(case, state, seed, PROBE)
    assert cmd.problems == [] and run.failed == 0
    return workload, run, cmd, tmp_path / "out"


def _rewrite_csv(path, keep):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([rows[0]] + [r for r in rows[1:] if keep(r)])
    return rows


@pytest.mark.parametrize("command", ["sweep-144"], indirect=True)
def test_sweep_check_fails_on_missing_k_and_failed_rows(command):
    workload, run, cmd, out = command
    rows = _rewrite_csv(out, lambda r: r[0] != "2")
    assert any("k=2" in p for p in workload.check(out, cmd.state, cmd.tracer))
    with open(out, "w", newline="") as f:
        csv.writer(f).writerows(rows + [["3", "stv", "failed", "", "", "no map"]])
    assert any("failed" in p for p in workload.check(out, cmd.state, cmd.tracer))
    rows[1][3] = repr(float(rows[1][3]) + 1)
    with open(out, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert workload.check(out, cmd.state, cmd.tracer)


@pytest.mark.parametrize("command", ["optimize-1600"], indirect=True)
def test_optimize_check_fails_on_an_invalid_plan(command):
    workload, run, cmd, out = command
    plan = json.loads((out / "plan.json").read_text())
    plan["districts"][0]["blocks"] = plan["districts"][0]["blocks"][1:]
    (out / "plan.json").write_text(json.dumps(plan))
    assert any(p.startswith("plan:") for p in workload.check(out, cmd.state, cmd.tracer))


@pytest.mark.parametrize("command", ["diversity-64"], indirect=True)
def test_diversity_check_fails_on_a_missing_party(command):
    workload, run, cmd, out = command
    _rewrite_csv(out, lambda r: (r[0], r[1]) != ("1", "D"))
    assert any("k=1" in p for p in workload.check(out, cmd.state, cmd.tracer))


@pytest.mark.parametrize("command", ["sweep-144"], indirect=True)
def test_changed_output_bytes_count_as_failed(command):
    workload, run, cmd, out = command
    again = run.execute(cmd.case, cmd.state, cmd.seed, PROBE)
    run.compare(cmd, again)
    assert run.failed == 0
    again.outputs = {name: data + b"\n" for name, data in again.outputs.items()}
    run.compare(cmd, again)
    assert run.failed == cmd.operations(workload)


@pytest.mark.parametrize("command", ["sweep-144"], indirect=True)
def test_each_build_is_one_span_whichever_binding_it_went_through(command):
    workload, run, cmd, out = command
    import mmdistrict.analysis
    import mmdistrict.tree

    original = mmdistrict.tree.build_tree
    traced = run.execute(cmd.case, cmd.state, cmd.seed, TRACE)
    assert traced.problems == []
    assert mmdistrict.analysis.build_tree is original is mmdistrict.tree.build_tree
    builds = workload.builds(cmd.state)
    assert sum(1 for s in traced.tracer.spans if s[1] == "tree.build_tree") == builds
    self_s, calls, roots = traced.tracer.profile()
    assert sum(self_s.values()) == pytest.approx(roots)
    assert check_builds(traced.tracer, builds + 1)


def test_a_wrapped_binding_is_not_wrapped_again():
    with Tracer(PROBE):
        with pytest.raises(RuntimeError, match="already wrapped"):
            Tracer(PROBE).__enter__()
    module, attr = BINDINGS["tree.build_tree"][0]
    assert not hasattr(getattr(sys.modules[module], attr), "perfbench_span")
