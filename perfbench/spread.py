#!/usr/bin/env python3
"""Run the benchmark over several seeds and check each metric's spread against its bound.

For every end-to-end metric this prints the median over the runs with
seeds 0 to N-1 and the distance between the first and third quartile as
a share of the median; a spread above the metric's bound fails the check.

    python3 perfbench/spread.py --workload corpus118 --seeds 10
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    spec = run.spec()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values), flush=True)

    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = run.quartile_spread(values[name])
        within = spread <= bound
        ok = ok and within
        print(f"{name:24s} median {statistics.median(values[name]):12.6g}  "
              f"spread {spread:7.4f}  bound {bound:5.3f}  "
              f"{'ok' if within else 'OVER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
