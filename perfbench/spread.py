"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command of ``BENCHMARK.json`` once per seed on one
workload, untraced, one run at a time, and prints for each end-to-end
metric its median and the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  Run from the repository root::

    python3 perfbench/spread.py --workload bgp-flap-k8 --seeds 1-10

The last line of standard output is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values = {}
    for seed in range(first, last + 1):
        started = time.monotonic()
        result = subprocess.run(
            spec["command"]
            + [
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        elapsed = time.monotonic() - started
        if result.returncode != 0:
            print(result.stdout + result.stderr)
            print(f"seed {seed}: exit {result.returncode}", file=sys.stderr)
            return 1
        metrics = json.loads(result.stdout.strip().splitlines()[-1])["metrics"]
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
        shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items())
        print(f"seed {seed} ({elapsed:.0f} s): {shown}", flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        summary[metric["name"]] = {
            "median": median,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
        }
        print(
            f"{metric['name']:16s} median {median:10.4f} {metric['unit']:4s} "
            f"spread {(q3 - q1) / median:6.1%} (bound {metric['bound']:.0%})"
        )
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
