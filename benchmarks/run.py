"""Closed-loop benchmark of the ppsd-lab command line.

    python3 benchmarks/run.py --workload dense_dynamics --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  It times set-up in fresh interpreters,
then starts one workload process (worker.py) that drives
``ppsd_lab.cli.main`` through a seeded job mix, checks every output
against physics oracles and reports the metrics.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The full record of the run, with its
environment, every job's argv and the known-failure probes, is appended to
``--results`` (JSON lines); the spans of a traced run go to a file beside
it.

Standard library only: numpy is imported by the workload process alone,
after its BLAS thread count is fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
#: Every run ends well inside the three minutes a run may take.
DEADLINE_S = 170.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    """The workload's environment: PPSD_LAB_THREADS unset (that is, 1), one
    BLAS thread and this checkout's source.

    One BLAS thread keeps a job's time free of thread hand-offs, which on a
    small shared machine spread the mid-sized expm jobs by twice as much.
    """
    env = dict(os.environ)
    env.pop("PPSD_LAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def git_commit() -> str:
    """HEAD of the checkout; "unknown" where it is not a git repository
    (git itself would report a repository that encloses the checkout)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(args: list[str], env: dict, timeout: float) -> int:
    """Run worker.py to completion; its own output goes to our stderr."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    return proc.returncode


def measure_setup(env: dict, scratch: str, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code = run_worker(["--setup-probe", "--scratch", scratch], env,
                          deadline - time.monotonic())
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return times


def end_to_end(result: dict, setup_times: list[float], summary: dict) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run.

    ``search_recall`` is 1 on a mix without a search of finite oracle set:
    no oracle state can be missed there.
    """
    latencies = [j["latency_s"] for j in result["jobs"]]
    tail_value, tail_pct, beyond = stats.tail(latencies)
    recall = summary["search_recall"]
    metrics = {
        "jobs_per_s": {"value": len(latencies) / result["busy_s"], "unit": "1/s"},
        "latency_p50_s": {"value": stats.median(latencies), "unit": "s"},
        "latency_tail_s": {"value": tail_value, "unit": "s"},
        "setup_s": {"value": stats.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "search_recall": {"value": 1.0 if recall is None else recall, "unit": "ratio"},
    }
    details = {"samples": len(latencies), "tail_percentile": tail_pct,
               "tail_samples_beyond": beyond, "setup_samples_s": setup_times}
    return metrics, details


def per_layer(result: dict) -> dict:
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in result["trace"]["metrics"].items()
    }


def layer_unit(name: str) -> str:
    if name.endswith((".overhead_ratio", ".hits_per_restart")):
        return "ratio"
    if name.endswith(".self_s"):
        return "s/cycle"
    if name.endswith(".bytes_computed"):
        return "B/cycle"
    return "count/cycle"


def outcome(result: dict) -> dict:
    """Failure and recall figures of every job the run attempted."""
    jobs = result["jobs"]
    failed = [j for j in jobs if j["failures"]]
    found = sum(j["recall"][0] for j in jobs if j["recall"])
    total = sum(j["recall"][1] for j in jobs if j["recall"])
    return {
        "attempted": len(jobs),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(jobs),
        "search_recall": found / total if total else None,
        "search_recall_counts": [found, total],
        "failures": [{"argv": j["argv"], "failures": j["failures"]} for j in failed],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(HERE / "results" / "runs.jsonl"),
                        help="JSON-lines file the full run record is appended to")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ppsd_lab" / "cli.py").is_file():
        print(f"error: no ppsd_lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = Path(args.results).resolve()
    results.parent.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=results.parent)
    env = child_env()
    try:
        setup_times = [] if args.trace else measure_setup(env, scratch, deadline)
        result_file = os.path.join(scratch, "result.json")
        code = run_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", result_file, "--scratch", scratch],
            env, deadline - time.monotonic())
        if code != 0:
            print(f"error: workload process exited with {code}", file=sys.stderr)
            return 1
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = outcome(result)
    if args.trace:
        metrics, details = per_layer(result), {}
        spans = result["trace"].pop("spans")
        trace_file = results.with_name(f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "job"],
                       "spans": spans}, fh)
        details["trace_file"] = trace_file.name
    else:
        metrics, details = end_to_end(result, setup_times, summary)

    env_record = dict(result["environment"])
    env_record.update(
        commit=git_commit(),
        python_implementation=platform.python_implementation(),
        nproc=cpu_count(),
        ppsd_lab_threads_outside=os.environ.get("PPSD_LAB_THREADS"),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    correct = summary["failed"] == 0
    record = {
        "correct": correct,
        "environment": env_record,
        "metrics": metrics,
        "details": details,
        "outcome": summary,
        "cycles": result["cycles"],
        "known_failures": result.get("known_failures"),
        "trace": result.get("trace"),
        "jobs": result["jobs"],
    }
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    line = {k: summary[k] for k in ("attempted", "failed", "failed_ratio", "search_recall",
                                    "failures")}
    line["known_failures"] = [f"exit {k['exit_code']}: {k['message']}"
                              for k in result.get("known_failures", ())]
    print(json.dumps(line))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
