#!/usr/bin/env python3
"""End-to-end benchmark: MIR text in; types, SARIF, taint flows and icall targets out.

Builds the runner (perfbench/CMakeLists.txt, on top of ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process with MANTA_JOBS=4, and prints a report
followed, as the last stdout line, by one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones. See perfbench/README.md.

    python3 perfbench/run.py --workload corpus118 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus118", "xl100k", "serve_edit")
MANTA_JOBS = "4"
RUNNER_TIMEOUT_S = 170


def percentile(values, p):
    """The p-th percentile, interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _check([
            "cmake", "-S", str(HERE), "-B", str(out),
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator,
        ])
    _check(["cmake", "--build", str(out), "--target", "perfbench_runner",
            "-j", str(os.cpu_count() or 1)])
    return out / "perfbench_runner"


def _check(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {result.returncode}")


def run_workload(runner, workload, seed, seconds, trace, smoke=False, tamper=None):
    """Run one workload in its own process; returns the runner's raw record."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANTA_")}
    env["MANTA_JOBS"] = MANTA_JOBS
    out_dir = build_dir() / "out"
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out_dir), "--rev", source_revision()]
    if smoke:
        cmd.append("--smoke")
    if tamper:
        cmd += ["--tamper", tamper]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUNNER_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if not lines:
        raise RuntimeError(f"{workload}: runner exited with {proc.returncode} "
                           "and no record")
    raw = json.loads(lines[-1][len("PERFBENCH "):])
    raw["exit_code"] = proc.returncode
    return raw


def item_best(per_item):
    """Each item's time at its parts' fastest passes.

    per_item[i][k] holds item i's samples of part k, one per pass.
    """
    return [sum(min(samples) for samples in parts) for parts in per_item]


def end_to_end(raw):
    """End-to-end metrics from the untraced passes: name -> (value, unit, samples).

    An item (a binary, an edit cycle or a cold request) is timed by its
    parts (library calls or requests), and each part counts at its
    fastest pass. Other tenants of the host only ever add time, and they
    slow it by up to a half for seconds to minutes at a time, so the
    fastest pass is the steady estimate of what the code costs. Latency
    percentiles are taken over items. Set-up time is the median of its
    repetitions across the run.
    """
    q = raw["quality"]
    verdicts = item_best(raw["verdict_ms"])
    cold = item_best(raw["cold_ms"])
    n_verdicts = sum(len(parts[0]) for parts in raw["verdict_ms"])
    n_cold = sum(len(parts[0]) for parts in raw["cold_ms"])
    return {
        "setup_s": (raw["pool_start_s"] + statistics.median(raw["setup_s"]),
                    "s", len(raw["setup_s"])),
        # Instructions per millisecond are thousands per second.
        "throughput_kinst_s": (sum(raw["item_insts"])
                               / sum(item_best(raw["work_ms"])),
                               "kinst/s", n_verdicts),
        "verdict_p50_ms": (statistics.median(verdicts), "ms", n_verdicts),
        "verdict_p90_ms": (percentile(verdicts, 90), "ms", n_verdicts),
        "cold_analyze_ms": (statistics.median(cold), "ms", n_cold),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB", 1),
        "type_precision": (q["precision"], "ratio", q["total"]),
        "type_recall": (q["recall"], "ratio", q["total"]),
    }


def per_layer(raw, names_units):
    """Per-layer metrics: the median over traced passes of each pass total."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    timed = [p["wall_s"] for p in traced if not p.get("probe")]
    derived = {
        "trace.unaccounted_pct":
            100.0 * sum(p["layers"]["trace.unaccounted_ms"] for p in traced)
            / (1000.0 * sum(p["wall_s"] for p in traced)),
        "trace.overhead_pct": 100.0 * (min(timed) / min(untraced) - 1.0),
    }
    metrics = {}
    for name, unit in names_units:
        if name in derived:
            metrics[name] = (derived[name], unit, len(traced))
            continue
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if not values:
            raise RuntimeError(f"traced passes recorded no {name}")
        metrics[name] = (statistics.median(values), unit, len(values))
    return metrics


def measure(runner, workload, seed, seconds, trace, smoke=False):
    """Run one workload and compute its metrics; returns (raw, metrics)."""
    raw = run_workload(runner, workload, seed, seconds, trace, smoke)
    s = spec()
    if trace:
        names = [(m["name"], m["unit"]) for m in s["per_layer"]]
        metrics = per_layer(raw, names)
    else:
        metrics = end_to_end(raw)
        wanted = [m["name"] for m in s["end_to_end"]]
        metrics = {name: metrics[name] for name in wanted}
    return raw, metrics


def report(workload, raw, metrics):
    fp = raw["fingerprint"]
    print(f"== {workload}: seed {fp['seed']}, cpu {fp['cpu']}, nproc {fp['nproc']}, "
          f"MANTA_JOBS {fp['manta_jobs_env']} (pool {fp['pool_jobs']}), "
          f"{fp['build_type']}, {fp['compiler']}, rev {fp['rev']}")
    passes = raw["passes"]
    print(f"   passes: {sum(not p['traced'] for p in passes)} untraced, "
          f"{sum(p['traced'] for p in passes)} traced")
    for name, (value, unit, n) in metrics.items():
        print(f"   {name:32s} {value:14.6g} {unit:8s} (n={n})")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"   {'error_rate':32s} {failed / max(attempted, 1):14.6g} {'ratio':8s} "
          f"({failed} of {attempted} operations failed)")
    for error in raw["errors"]:
        print(f"   FAIL {error}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload on tiny inputs, traced, in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        runner = build()
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    if args.smoke:
        workloads, trace, seconds = WORKLOADS, True, 1
    else:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        trace = bool(args.trace)
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]

    correct, attempted, failed, combined = True, 0, 0, {}
    for workload in workloads:
        try:
            raw, metrics = measure(runner, workload, args.seed, seconds, trace,
                                   smoke=args.smoke)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        report(workload, raw, metrics)
        correct = correct and raw["exit_code"] == 0 and raw["failed"] == 0
        attempted += raw["attempted"]
        failed += raw["failed"]
        if len(workloads) == 1:
            combined = metrics
        else:
            combined.update({f"{workload}.{k}": v for k, v in metrics.items()})
    print(result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
