"""Self-tests of the benchmark: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_tail_is_the_eleventh_largest_sample():
    values = [float(v) for v in range(50, 0, -1)]
    assert stats.tail(values) == (40.0, 80.0, 10)
    value, percentile, beyond = stats.tail(list(range(11)))
    assert (value, beyond) == (0, 10)
    assert percentile == pytest.approx(100.0 / 11.0)
    # no percentile has ten samples beyond it: the median is reported
    assert stats.tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 50.0, 2)


def test_nearest_rank_percentile_has_ten_samples_beyond():
    for n in (11, 37, 64, 250):
        values = [float(v) for v in range(n)]
        value, percentile, _ = stats.tail(values)
        assert sum(v > value for v in values) == 10
        assert stats.nearest_rank(values, percentile) == value


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
        ["other_job", 20.0, 21.0, None, 1],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 3.0, 7.0, 0, 0],
        ["late", 9.0, 12.0, 0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _squeezed_search_output(states) -> str:
    rows = [[0.0, False, 0.0, "no_ppsd",
             ";".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in s.amplitudes)]
            for s in states]
    return json.dumps({"rows": rows})


def test_search_oracle_requires_both_squeezed_eigenvectors():
    r, theta = 0.3, 1.1
    job = {"kind": "ppsd-search", "expect": {
        "model": "squeezed_vacuum_decay", "params": {"r": r, "theta": theta},
        "dim": None, "oracle": "squeezed_pair", "require_all": True}}
    plus = oracles.squeezed_ppsd_state(r, theta)
    minus = oracles.squeezed_ppsd_state(r, theta + 2.0 * math.pi)
    failures, recall, hits = oracles.check(job, _squeezed_search_output([plus, minus]))
    assert failures == [] and recall == (2, 2) and hits == 2
    failures, recall, _ = oracles.check(job, _squeezed_search_output([plus]))
    assert recall == (1, 2)
    assert failures == ["found 1 of 2 zero-residual states"]


def test_search_oracle_rejects_a_hit_with_positive_residual():
    job = {"kind": "ppsd-search", "expect": {
        "model": "thermal_qubit", "params": {"N": 0.0}, "dim": None,
        "oracle": "thermal_ground", "require_all": True}}
    excited = oracles.StateVector.basis(2, 0)
    failures, recall, _ = oracles.check(job, _squeezed_search_output([excited]))
    assert recall == (0, 1)
    assert any("residual" in f for f in failures)


def _simulate_output(trace_error: float) -> str:
    lines = ["# tool=ppsd-lab", "t,purity,trace_error,min_eigenvalue"]
    for k in range(3):
        err = trace_error if k == 1 else 0.0
        lines.append(f"{0.5 * k!r},1.0,{err!r},0.0")
    return "\n".join(lines) + "\n"


def test_simulate_oracle_rejects_a_trace_error_of_1e_6():
    expect = {"steps": 2, "pure": True}
    assert oracles.check_simulate(expect, _simulate_output(1e-12)) == []
    failures = oracles.check_simulate(expect, _simulate_output(1e-6))
    assert failures == ["trace error 1.000e-06 > 1e-08"]


def test_job_generation_is_a_function_of_the_seed():
    for workload in jobs.WORKLOADS:
        first = jobs.make_cycle(workload, 7, 2)
        assert first == jobs.make_cycle(workload, 7, 2)
        assert first != jobs.make_cycle(workload, 8, 2)
        assert first != jobs.make_cycle(workload, 7, 3)
        # a seed changes parameters and order, never the mix of job types
        mix = sorted(tuple(j["argv"][:3]) for j in first)
        assert mix == sorted(tuple(j["argv"][:3]) for j in jobs.make_cycle(workload, 8, 2))


def test_cycle_count_depends_on_the_arguments_only():
    # a run of the benchmark's 22 s times two cycles of every workload, so
    # every commit is measured on the same jobs at the same tail percentile
    for workload in jobs.WORKLOADS:
        assert jobs.cycles(workload, 22) == 2
        assert jobs.cycles(workload, 0.1) == 1
        assert jobs.cycles(workload, 1000) > 2


def test_search_recall_is_reported_and_never_defaulted_away():
    import run

    result = {"jobs": [{"latency_s": 1.0}] * 12, "busy_s": 12.0, "peak_rss_mb": 80.0}
    metrics, _ = run.end_to_end(result, [0.5], {"search_recall": 0.0})
    assert metrics["search_recall"]["value"] == 0.0
    metrics, _ = run.end_to_end(result, [0.5], {"search_recall": None})
    assert metrics["search_recall"]["value"] == 1.0


def _run_record(workload, seed, value, failed=0, samples=44):
    return {"environment": {"workload": workload, "seed": seed, "trace": 0},
            "outcome": {"failed": failed},
            "details": {"samples": samples, "tail_percentile": 100.0 * (samples - 10) / samples},
            "metrics": {"jobs_per_s": {"value": value, "unit": "1/s"}}}


def _write_runs(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_compare_leaves_out_failed_runs_and_refuses_their_win(tmp_path):
    import compare

    parent = compare.Runs(_write_runs(tmp_path / "p", [
        _run_record("w", s, 1.0 + 0.001 * s) for s in range(10)]))
    change = compare.Runs(_write_runs(tmp_path / "c", [
        _run_record("w", s, 2.0 + 0.001 * s) for s in range(10)]
        + [_run_record("w", 10, 9.0, failed=3)]))
    assert len(change.values["w"]["jobs_per_s"]) == 10
    assert (change.failed_jobs["w"], change.failed_runs["w"]) == (3, 1)
    p, c = parent.values["w"]["jobs_per_s"], change.values["w"]["jobs_per_s"]
    assert compare.verdict(p, c, True, 0.25) == "better"
    assert compare.verdict(p, c, True, 0.25, more_failures=True) != "better"


def test_compare_refuses_a_seed_recorded_twice(tmp_path):
    import compare

    path = _write_runs(tmp_path / "p", [_run_record("w", 1, 1.0), _run_record("w", 1, 2.0)])
    with pytest.raises(SystemExit):
        compare.Runs(path)


def test_compare_refuses_runs_of_different_sample_counts(tmp_path, capsys):
    import compare

    parent = _write_runs(tmp_path / "p", [_run_record("dense_dynamics", 1, 1.0)])
    change = _write_runs(tmp_path / "c", [_run_record("dense_dynamics", 1, 1.0, samples=66)])
    compare.main([parent, change])
    assert "dense_dynamics  not comparable" in capsys.readouterr().out


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    import ppsd_lab.cli as cli
    import ppsd_lab.lindblad as lindblad
    import ppsd_lab.ppsd as ppsd

    originals = (cli.main, cli.propagate, ppsd.propagate, lindblad.expm,
                 lindblad.DensityMatrix.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.propagate is ppsd.propagate is lindblad.propagate
        assert cli.propagate is not originals[1]
        tracer.job = 0
        code = cli.main(["ppsd-check", "--model", "thermal_qubit", "--state", "plus",
                         "--output", str(tmp_path / "out")])
        tracer.job = None
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, cli.propagate, ppsd.propagate, lindblad.expm,
            lindblad.DensityMatrix.__post_init__) == originals
    assert tracer.missing == []
    totals = tracer.layer_totals()
    assert totals["cli.main.calls"] == 1
    assert totals["lindblad.propagate.calls"] == 1
    assert totals["lindblad.propagate.path.dense_expm"] == 1
    assert totals["lindblad.expm.calls"] >= 1
    assert totals["ppsd.solve_ivp.nfev"] > 0
    assert totals["hilbert.DensityMatrix.calls"] > 0
    metrics = tracer.metrics(cycles=1)
    assert set(metrics) >= {"cli.main.self_s", "ppsd.search.hits_per_restart"}
    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[3] is None
    assert all(span[3] is not None for span in tracer.spans[1:])


def test_benchmark_json_names_what_the_runner_reports():
    import run
    from tracer import METRIC_NAMES, ZERO_BY_DESIGN

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    reported = [n for n in METRIC_NAMES if n not in ZERO_BY_DESIGN] + ["trace.overhead_ratio"]
    result = {"jobs": [{"latency_s": 1.0}] * 12, "busy_s": 12.0, "peak_rss_mb": 80.0,
              "trace": {"metrics": dict.fromkeys(reported, 1.0)}}
    summary = {"search_recall": None}
    end_to_end, _ = run.end_to_end(result, [0.5], summary)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in end_to_end.items()}
    layers = run.per_layer(result)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in layers.items()}
