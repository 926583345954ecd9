"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import lvf.fields  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def runner_for(workload, tracer=None):
    return run.Runner(workload, run.Checker(workloads.digest), tracer)


def test_seeded_inputs_repeat_and_vary():
    a = workloads.ConstraintSolve(5, REFERENCE).inputs
    assert a == workloads.ConstraintSolve(5, REFERENCE).inputs
    assert a != workloads.ConstraintSolve(6, REFERENCE).inputs


def test_catalog_verify_pass_is_correct():
    r = runner_for(workloads.CatalogVerify(3, REFERENCE))
    r.run_pass()
    assert (r.attempted, r.failures) == (16, [])


def test_tampered_reference_counts_as_failure_not_raised():
    ref = copy.deepcopy(REFERENCE)
    ref["catalog-verify"]["sl2.1"]["expected_rank"] = 2
    ref["catalog-verify"]["b2.1"]["digest"] = "0" * 16
    ref["catalog-verify"]["a2.1"]["result"] = "FAIL"
    r = runner_for(workloads.CatalogVerify(3, ref))
    r.run_pass()
    r.run_pass()
    assert r.attempted == 32
    failed = [name for name, _ in r.failures]
    assert failed == ["sl2.1", "a2.1", "b2.1"] * 2


def test_tampered_verdict_counts_as_failure():
    ref = copy.deepcopy(REFERENCE)
    ref["g2-obstruction"]["b2-control"]["verdict"] = "not validated"
    job = next(j for j in workloads.G2Obstruction(0, ref).jobs if j.name == "b2-control")
    problems = run.Checker(workloads.digest)(job, job.run(None))
    assert problems == ["control validated, expected not validated"]


def test_tampered_solve_reference_counts_as_failure():
    w = workloads.ConstraintSolve(1, copy.deepcopy(REFERENCE))
    jobs = {j.name: j for j in w.jobs}
    key = workloads.param_key("heisenberg.1", {})
    good = jobs["heisenberg.1/equals"]
    assert good.check(good.run(None)) == []
    ref = copy.deepcopy(REFERENCE)
    ref["constraint-solve"][key]["rank"] = 2
    bad = {j.name: j for j in workloads.ConstraintSolve(1, ref).jobs}["heisenberg.1/centralizer"]
    assert bad.check(bad.run(None)) == ["centralizer rank 3, expected 2"]


def test_perturbed_system_is_proven_inconsistent():
    w = workloads.ConstraintSolve(1, REFERENCE)
    job = {j.name: j for j in w.jobs}["heisenberg.2/equals"]
    result = job.run(None)
    assert result.particular is None
    assert job.check(result) == []


def test_raising_job_is_a_failure_and_the_pass_goes_on():
    w = workloads.CatalogVerify(3, REFERENCE)

    def boom(_ctx):
        raise RuntimeError("boom")

    w.jobs[0] = workloads.Job("boom", boom, lambda out: [], lambda out: [])
    r = runner_for(w)
    r.run_pass()
    assert r.attempted == 16
    assert [name for name, _ in r.failures] == ["boom"]
    assert "RuntimeError: boom" in r.failures[0][1][0]


def test_in_span_is_exact():
    x, y = lvf.parse_field("Dx"), lvf.parse_field("x*Dy")
    assert workloads.in_span(x * 3 - y, [x, y])
    assert not workloads.in_span(lvf.parse_field("Dz"), [x, y])
    assert workloads.in_span(lvf.fields.VectorField.zero(3), [])


def test_traced_pass_restores_lvf_and_holds_predictions():
    original = vars(lvf.fields.VectorField)["bracket"]
    tracer = tracing.Tracer()
    assert tracer.absent == []
    r = runner_for(workloads.CatalogVerify(3, REFERENCE), tracer)
    r.run_pass(traced=True)
    assert vars(lvf.fields.VectorField)["bracket"] is original
    values = tracer.pass_metrics(0)
    assert values["fields.bracket.calls"] > 0 and values["verify.relations"] > 0
    values["catalog.load_s"] = values["trace.overhead_s"] = 0.0
    assert run.check_predictions("catalog-verify", values, tracer) == []
    values["linalg.rref.calls"] = 1
    assert run.check_predictions("catalog-verify", values, tracer) != []


def test_missing_wrap_point_is_absent_not_zero(monkeypatch):
    points = tracing.SPAN_POINTS + (("linalg.elim", "lvf._kernels", "no_such_kernel"),)
    monkeypatch.setattr(tracing, "SPAN_POINTS", points)
    tracer = tracing.Tracer()
    assert tracer.absent == ["lvf._kernels.no_such_kernel"]
    assert tracer.is_absent("linalg.rref.calls")
    assert tracer.is_absent("solve.build_s")  # a self time needs every child
    assert not tracer.is_absent("parsing.calls")
    values = {"linalg.rref.calls": 0, "linalg.affine.calls": 0}
    assert run.check_predictions("g2-obstruction", values, tracer) == []


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.SOURCES)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "pass_s", "job_p50_s", "job_tail_s", "peak_rss_mb"
    }
    assert set(run.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    for p in (50, 93, 99):
        n = run.min_samples(p)
        samples = list(range(n))
        assert n - 1 - run.nearest_rank(samples, p) >= 10
        assert (n - 2) - run.nearest_rank(samples[:-1], p) < 10


def record(workload, seed, backend, value):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"trace": 0, "workload": workload, "env": {"seed": seed, "kernel_backend": backend},
            "metrics": metrics}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    a = write(tmp_path / "a.jsonl", [record("catalog-verify", s, "py", 1.0) for s in range(3)])
    b = write(tmp_path / "b.jsonl", [record("catalog-verify", s, "c", 1.0) for s in range(3)])
    assert compare.main([str(a), str(b)]) == 2
    assert "different kernel backends" in capsys.readouterr().err


def test_compare_verdicts():
    lower = True
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in base]
    _, _, won, label = compare.verdict(base, faster, list(zip(base, faster)), 0.1, lower)
    assert (won, label) == (1.0, "better")
    slower = [v * 1.2 for v in base]
    assert compare.verdict(base, slower, list(zip(base, slower)), 0.1, lower)[3] == "worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, noisy, list(zip(base, noisy)), 0.1, lower)[3] == "unresolved"
