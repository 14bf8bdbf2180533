"""One workload process: a closed loop of CLI jobs with one client.

Started by run.py in a fresh interpreter whose environment fixes the BLAS
thread count and leaves PPSD_LAB_THREADS unset.  Each job calls
``ppsd_lab.cli.main(argv)`` in-process, writing to ``--output`` in a
scratch directory; the next job starts when the previous one returns.
The run times ``jobs.cycles(workload, seconds)`` whole cycles of the job
mix, a count that does not depend on the program's speed.  Outputs are
judged by the oracles after the clock stops.

With ``--trace 1`` every cycle runs twice, first untraced and then with
the span recorder installed; the ratio of the two throughputs is the
tracing overhead.

``--setup-probe`` only imports the CLI and runs the warm-up command: the
set-up a CLI user pays on every call, timed from outside by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import jobs as jobmix  # noqa: E402
import ppsd_lab  # noqa: E402
import ppsd_lab.cli as cli  # noqa: E402

if not Path(ppsd_lab.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"ppsd_lab imported from {ppsd_lab.__file__}, not from {SRC}")


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process: (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not a dead benchmark
            code = 1
            err.write(traceback.format_exc())
    return code, err.getvalue()


class Loop:
    """The closed loop, its scratch directory and its records."""

    def __init__(self, scratch: str, tracer=None):
        import oracles  # numpy and the library oracles: not set-up cost

        self.check = oracles.check
        self.scratch = scratch
        self.tracer = tracer
        self.records: list[dict] = []

    def run_job(self, job: dict, cycle: int, traced: bool) -> dict:
        out = os.path.join(self.scratch, "out")
        argv = job["argv"] + ["--output", out]
        job_id = len(self.records)
        if traced:
            self.tracer.job = job_id
        start, start_cpu = time.perf_counter(), time.process_time()
        code, err = call_cli(argv)
        latency = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        if traced:
            self.tracer.job = None
        record = {"cycle": cycle, "argv": job["argv"], "kind": job["kind"],
                  "traced": traced, "exit_code": code, "latency_s": latency,
                  "cpu_s": cpu}
        failures, recall, hits = [], None, None
        if code != 0:
            failures.append(f"exit code {code}: {err.strip()[-300:]}")
        else:
            try:
                with open(out, encoding="utf-8") as fh:
                    failures, recall, hits = self.check(job, fh.read())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"unreadable output: {exc!r}")
        if os.path.exists(out):
            os.unlink(out)
        record.update(failures=failures, recall=recall, hits=hits)
        self.records.append(record)
        return record


def closed_loop(workload: str, seed: int, seconds: float, trace: bool,
                scratch: str) -> dict:
    tracer = None
    if trace:
        from tracer import ZERO_BY_DESIGN, Tracer
        tracer = Tracer()
    loop = Loop(scratch, tracer)
    busy = {False: 0.0, True: 0.0}
    cycles = jobmix.cycles(workload, seconds)
    for cycle in range(cycles):
        cycle_jobs = jobmix.make_cycle(workload, seed, cycle)
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install()
            try:
                for job in cycle_jobs:
                    busy[traced] += loop.run_job(job, cycle, traced)["latency_s"]
            finally:
                if traced:
                    tracer.uninstall()
    result = {"cycles": cycles, "busy_s": busy[False], "jobs": loop.records}
    if trace:
        metrics = tracer.metrics(cycles)
        # untraced jobs_per_s over traced jobs_per_s, on the same jobs
        metrics["trace.overhead_ratio"] = busy[True] / busy[False]
        result["trace"] = {
            "metrics": {k: v for k, v in metrics.items() if k not in ZERO_BY_DESIGN},
            "zero_by_design": {k: metrics[k] for k in ZERO_BY_DESIGN},
            "missing": tracer.missing,
            "spans": tracer.spans,
        }
    return result


def known_failure_probes(scratch: str) -> list[dict]:
    """Run each recorded known failure once, untimed; report what it did."""
    out = []
    for known in jobmix.KNOWN_FAILURES:
        code, err = call_cli(known["argv"] + ["--output", os.path.join(scratch, "known")])
        out.append({**known, "exit_code": code, "message": err.strip()[-300:]})
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ppsd_lab_threads": os.environ.get("PPSD_LAB_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobmix.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="write the JSON result here")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--scratch", required=True,
                        help="directory for job outputs")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(dir=args.scratch)
    try:
        code, err = call_cli(jobmix.WARMUP_ARGV + ["--output", os.path.join(scratch, "w")])
        if code != 0:
            print(f"warm-up failed with exit code {code}: {err}", file=sys.stderr)
            return 1
        if args.setup_probe:
            return 0
        result = closed_loop(args.workload, args.seed, args.seconds,
                             bool(args.trace), scratch)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "dense_dynamics":
            result["known_failures"] = known_failure_probes(scratch)
        result["environment"] = environment()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
