"""Tests of the benchmark itself: spans, gate, seeding and the contract.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import spans
from workloads import WORKLOADS

SEED = 7
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

SNF_PATH = {"cli", "library", "datasets.load", "covers.rs", "covers.rows",
            "presentations.relator_matrix", "abelian.cokernel", "snf"}
EXPECTED_SPANS = {
    "filled-covers": SNF_PATH,
    "transfer-modules": SNF_PATH,
    "branched-grid": {"cli", "library", "datasets.load", "laurent.substitute",
                      "polygcd.roots", "polygcd.gcd"},
    "paper-verify": set(spans.SPAN_NAMES),
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def expected():
    return gate.load_expected()


@pytest.fixture(scope="module")
def traced_runs(cli, expected):
    """Per workload: one untraced pass, then two traced passes of the same ops."""
    out = {}
    for name, workload in WORKLOADS.items():
        ops = next(workload.passes(SEED))
        untraced = run.run_pass(cli, ops, expected)
        tracers, passes = [], []
        for _ in range(2):
            tracer = spans.Tracer()
            with tracer:
                passes.append(run.run_pass(cli, ops, expected, tracer))
            tracers.append(tracer)
        out[name] = untraced, passes, tracers
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_named_spans_fire_on_their_workload(traced_runs, name):
    _, _, tracers = traced_runs[name]
    fired = {span[0] for span in tracers[0].spans}
    assert EXPECTED_SPANS[name] <= fired
    assert fired <= EXPECTED_SPANS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digests_equal_untraced(traced_runs, name):
    untraced, passes, _ = traced_runs[name]
    assert untraced.problems == []
    for p in passes:
        assert p.problems == []
        assert p.digests == untraced.digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counters_repeat(traced_runs, name):
    _, _, (first, second) = traced_runs[name]
    assert first.calls() == second.calls()
    assert first.counters == second.counters
    metrics = spans.layer_metrics([first, second])
    again = spans.layer_metrics([second, first])
    for key, (value, unit) in metrics.items():
        if unit != "s":
            assert isinstance(value, (int, float))
            assert again[key][0] == value


def test_wrappers_removed_after_traced_run(traced_runs):
    import foxhom.abelian
    import foxhom.presentations
    import foxhom.snf

    assert spans.wrapped_bindings() == []
    assert foxhom.abelian.smith_normal_form is foxhom.snf.smith_normal_form
    assert not hasattr(foxhom.presentations.Presentation.relator_matrix, "perfbench_span")


def test_tracer_wraps_every_lookup_site(cli):
    import foxhom.abelian
    import foxhom.presentations
    import foxhom.snf

    with spans.Tracer():
        assert hasattr(foxhom.abelian.smith_normal_form, "perfbench_span")
        assert hasattr(foxhom.snf.smith_normal_form, "perfbench_span")
        assert hasattr(cli.fill, "perfbench_span")
        assert hasattr(foxhom.presentations.Presentation.relator_matrix, "perfbench_span")
    assert spans.wrapped_bindings() == []


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("covers.rows", inner) + sum(range(20000))

    tracer.call("abelian.cokernel", outer)
    busy, self_time = tracer.layer_times()
    assert busy["abelian.cokernel"] == pytest.approx(
        self_time["abelian.cokernel"] + busy["covers.rows"])
    assert self_time["covers.rows"] == busy["covers.rows"]


def test_same_name_spans_count_once():
    tracer = spans.Tracer()

    def recurse(k):
        return tracer.call("polygcd.gcd", recurse, k - 1) if k else 0

    tracer.call("polygcd.gcd", recurse, 5)
    assert tracer.calls()["polygcd.gcd"] == 1


def test_layer_metrics_match_benchmark_json(traced_runs):
    declared = json.loads(BENCHMARK_JSON.read_text())
    _, _, tracers = traced_runs["paper-verify"]
    produced = {name: unit for name, (_, unit) in spans.layer_metrics(tracers).items()}
    produced["trace.overhead_s"] = "s"
    assert produced == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_benchmark_json(cli, expected):
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    metrics, samples, done, extra = run.end_to_end(
        cli, WORKLOADS["branched-grid"], SEED, 0.1, expected)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(value > 0 for value, _ in metrics.values())
    assert len(done) == run.MIN_PASSES
    assert samples["ref_s"] == (sum(len(p.outcomes) for p in done) + 1) * run.REF_PER_BLOCK
    assert extra["raw_seconds"]["wall_s"] > 0


def _report(cli, argv):
    outcome = run.run_op(cli, argv)
    assert outcome.exit_code == 0
    return json.loads(outcome.stdout)


def test_gate_ignores_paths_but_not_answers(cli, expected):
    argv = WORKLOADS["filled-covers"].strata[0][0]
    report = _report(cli, argv)
    assert gate.check(argv, 0, json.dumps(report), expected)[1] is None

    moved = json.loads(json.dumps(report))
    for entry in moved["inputs"].values():
        entry["path"] = "/elsewhere/" + Path(entry["path"]).name
    assert gate.check(argv, 0, json.dumps(moved), expected)[1] is None

    wrong = json.loads(json.dumps(report))
    wrong["results"][0]["torsion"].append(2)
    assert "digest" in gate.check(argv, 0, json.dumps(wrong), expected)[1]

    infinite = json.loads(json.dumps(report))
    infinite["results"][0]["rank"] = 1
    assert "filled rank" in gate.check(argv, 0, json.dumps(infinite), expected)[1]

    assert gate.check(argv, 2, "", expected)[1] == "exit code 2"


def test_gate_checks_paper_invariants():
    assert gate.invariant_problems("sakuma", {"results": [{"n": 5, "order_ratio": 3}]})
    assert not gate.invariant_problems("sakuma", {"results": [{"n": 5, "order_ratio": 4}]})
    betti = lambda n, k, b: {"results": [{"n": n, "k": k, "betti": b}]}
    assert gate.invariant_problems("branched", betti(7, 3, 2))
    assert not gate.invariant_problems("branched", betti(7, 6, 2))
    assert not gate.invariant_problems("branched", betti(9, 2, 2))
    failed = {"results": [{"item": "rhs", "pass": False, "detail": "x"}]}
    assert gate.invariant_problems("verify-paper", failed)


def test_every_drawable_op_has_a_recorded_digest(expected):
    for workload in WORKLOADS.values():
        for argv in workload.candidates():
            assert gate.op_key(argv) in expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_passes_are_seeded_and_balanced(name):
    workload = WORKLOADS[name]

    def draw(seed, count):
        passes = workload.passes(seed)
        return [next(passes) for _ in range(count)]

    assert draw(3, 4) == draw(3, 4)
    rounds = draw(3, 6)
    for ops in rounds:
        assert len(ops) == len(workload.strata)
    for stratum in workload.strata:
        uses = [sum(op == member for ops in rounds for op in ops) for member in stratum]
        assert max(uses) - min(uses) <= 1


def test_seed_changes_the_ops():
    workload = WORKLOADS["filled-covers"]
    firsts = {tuple(next(workload.passes(seed))) for seed in range(8)}
    assert len(firsts) > 1


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branched-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
