"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 benchmarks/compare.py parent.jsonl change.jsonl

Each file holds run records as run.py appends them.  Only untraced runs
without a failed job are compared; the others are counted per workload.
A workload is compared only where every run on both sides timed the same
number of jobs and so the same tail percentile.  For every workload and
end-to-end metric in BENCHMARK.json the row shows both sides' median and
quartiles and a verdict against the metric's bound:

  better         the change wins at least nine tenths of the runs paired by
                 seed (at least ten pairs) and the medians differ by more
                 than the parent's inter-quartile distance; never where the
                 change failed more jobs than the parent
  worse          the change's median is worse than the parent's by more
                 than the bound
  unresolved     either side's spread (inter-quartile distance over median)
                 is wider than the bound, and not every run of the change
                 reads better than every run of the parent
  within bound   everything else
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


class Runs:
    """The run records of one file, by workload."""

    def __init__(self, path: str):
        #: workload -> metric -> seed -> value, from correct untraced runs
        self.values: dict = defaultdict(lambda: defaultdict(dict))
        #: workload -> {(samples, tail percentile)} of those runs
        self.shapes: dict = defaultdict(set)
        #: workload -> failed jobs and runs left out for them
        self.failed_jobs: dict = defaultdict(int)
        self.failed_runs: dict = defaultdict(int)
        seen = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    self._add(json.loads(line), seen, path)

    def _add(self, record: dict, seen: set, path: str) -> None:
        env = record["environment"]
        if env["trace"]:
            return
        workload, seed = env["workload"], env["seed"]
        if (workload, seed) in seen:
            raise SystemExit(f"{path}: {workload} seed {seed} is recorded twice")
        seen.add((workload, seed))
        failed = record["outcome"]["failed"]
        if failed:
            self.failed_jobs[workload] += failed
            self.failed_runs[workload] += 1
            return
        details = record["details"]
        self.shapes[workload].add((details["samples"], details["tail_percentile"]))
        for name, metric in record["metrics"].items():
            self.values[workload][name][seed] = metric["value"]


def verdict(parent: dict[int, float], change: dict[int, float], higher_is_better: bool,
            bound: float, more_failures: bool = False) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = stats.quartiles(p_values)
    c_med = stats.quartiles(c_values)[1]
    gain = sign * (c_med - p_med)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds) and gain > p_q3 - p_q1
            and not more_failures):
        return "better"
    all_better = (min(c_values) > max(p_values)) if higher_is_better \
        else (max(c_values) < min(p_values))
    if max(stats.spread(p_values), stats.spread(c_values)) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run records of the parent commit")
    parser.add_argument("change", help="run records of the change")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = Runs(args.parent), Runs(args.change)

    header = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "runs", "verdict")
    print("  ".join(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        failed = (parent.failed_jobs[workload], change.failed_jobs[workload])
        if any(failed):
            print(f"{workload}  failed jobs {failed[0]}/{failed[1]}, runs left out "
                  f"{parent.failed_runs[workload]}/{change.failed_runs[workload]}")
        shapes = (parent.shapes[workload], change.shapes[workload])
        if len(shapes[0] | shapes[1]) > 1:
            print(f"{workload}  not comparable: (samples, tail percentile) "
                  f"{sorted(shapes[0])} / {sorted(shapes[1])}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = parent.values[workload].get(name), change.values[workload].get(name)
            if not p or not c:
                print(f"{workload}  {name}  (no runs on one side)")
                continue
            cells = []
            for side in (p, c):
                q1, med, q3 = stats.quartiles(list(side.values()))
                cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g}")
            v = verdict(p, c, metric["better"] == "higher", metric["bound"],
                        more_failures=failed[1] > failed[0])
            print(f"{workload}  {name} [{metric['unit']}]  {cells[0]}  {cells[1]}  "
                  f"{len(p)}/{len(c)}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
