"""Repeat the benchmark over several seeds and summarise each metric.

    python3 benchmarks/baseline.py --out benchmarks/BENCH_baseline.json

Runs ``run.py`` for every workload in BENCHMARK.json with seeds 1 to 10,
one process at a time, with tracing off, and then once per workload with
tracing on.  For each
end-to-end metric it reports the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) against the bound
in BENCHMARK.json.  ``--out`` stores the summary, every run's figures and
the metadata of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
EXTRA = ("median_work_per_s", "all_request_ms.p50", "request_ms.p99", "rss_growth_mb", "failed_ratio")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = HERE / "out" / f"run-{workload}-{seed}-{trace}.json"
    out.parent.mkdir(exist_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    record = json.loads(out.read_text())
    if not record["result"]["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the checks\n{done.stdout}")
    return record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary: dict = {"runs": len(SEEDS), "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"end_to_end": {}, "extra": {}}
        for metric in spec["end_to_end"]:
            stats = summarise([r["end_to_end"][metric["name"]] for r in records])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = stats
            steady = metric["name"] == "setup_s" or stats["spread"] < metric["bound"] / 3
            print(
                f"{workload:14} {metric['name']:16} median {stats['median']:12.6g} "
                f"spread {stats['spread']:7.4f} bound {metric['bound']:.2f} "
                f"{'ok' if steady else 'UNSTEADY'}",
                flush=True,
            )
        for name in EXTRA:
            if all(name in r["end_to_end"] for r in records):
                entry["extra"][name] = summarise([r["end_to_end"][name] for r in records])
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = traced["per_layer"]
        entry["origin"] = traced["origin"]
        entry["split"] = traced["split"]
        entry["imports"] = traced["meta"]["imports"]
        summary["workloads"][workload] = entry
        summary.setdefault("meta", {k: v for k, v in records[0]["meta"].items() if k != "seed"})
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
