"""Collect saved benchmark records into one ``bench/BENCH_<name>.json``.

    python3 bench/baseline.py baseline

Reads the records ``bench/run.py`` saved under ``bench/out/`` for runs of
``run_seconds`` (from BENCHMARK.json) and writes, per workload, the median
and quartiles of every metric over the timed runs and over the traced runs,
with the seeds, the job counts and the host each set ran on.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
        if out["median"]:
            out["iqr_frac"] = (q3 - q1) / out["median"]
    return out


def collect(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for record in records:
        meta = record["metadata"]
        groups[(meta["workload"], meta["trace"])].append(record)
    out = defaultdict(dict)
    for (workload, trace), group in sorted(groups.items()):
        group.sort(key=lambda r: r["metadata"]["seed"])
        metrics, samples = defaultdict(list), defaultdict(list)
        units = {}
        for record in group:
            rows = dict(record["metrics"])
            rows.update({k: v for k, v in record["extra"].items()
                         if isinstance(v, dict) and "unit" in v})
            for name, m in rows.items():
                metrics[name].append(m["value"])
                units[name] = m["unit"]
                if "samples" in m:
                    samples[name].append(m["samples"])
        meta = group[0]["metadata"]
        out[workload]["why"] = meta["why"]
        out[workload]["traced" if trace else "timed"] = {
            "seeds": [r["metadata"]["seed"] for r in group],
            "attempted": sum(r["attempted"] for r in group),
            "failed": sum(r["failed"] for r in group),
            "host": {key: meta[key] for key in ("nproc", "python", "numpy", "scipy", "platform")},
            "metrics": {name: {"unit": units[name], **summarize(values),
                               **({"samples_per_run": samples[name]} if name in samples else {})}
                        for name, values in metrics.items()},
        }
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].replace("-", "").replace("_", "").isalnum():
        print(__doc__, file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    records = [json.loads(p.read_text()) for p in sorted((BENCH / "out").glob("*-trace[01].json"))]
    records = [r for r in records if r["metadata"]["seconds"] == seconds]
    if not records:
        print(f"no records for run_seconds={seconds} under bench/out/", file=sys.stderr)
        return 1
    commits = {r["metadata"]["commit"] for r in records}
    if len(commits) != 1:
        print(f"records come from several commits: {sorted(commits)}", file=sys.stderr)
        return 1
    path = BENCH / f"BENCH_{argv[0]}.json"
    payload = {"commit": commits.pop(), "run_seconds": seconds, "workloads": collect(records)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} from {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
