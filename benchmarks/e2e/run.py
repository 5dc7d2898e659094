"""End-to-end benchmark of the paper's section 3 workflow.

Four workloads (see README.md) register IRDL dialects at run time, load
IR as text or IRBC, verify, rewrite, analyze and emit; BENCHMARK.json
lists the three batch ones.  Run from the repository root:

    python3 benchmarks/e2e/run.py --seed 0
        every workload, each in its own subprocess; prints every
        end-to-end metric with its unit and writes results.json
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/baseline.json
        as many runs as the baseline holds, then one verdict per
        workload and metric
    python3 benchmarks/e2e/run.py --repeat 5 --out FILE
        five runs per workload; medians, spreads and raw values
    python3 benchmarks/e2e/run.py --workload rewrite_mix --seed 3 --trace 0
        one workload; the last stdout line is one JSON object with
        ``correct``, ``attempted``, ``failed`` and the ``metrics`` that
        BENCHMARK.json lists: end-to-end with ``--trace 0``, per-layer
        with ``--trace 1``

The library is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")
RESULTS_PATH = os.path.join(HERE, "results.json")

#: Prefix of the stdout line that carries a workload's full record.
RECORD = "RECORD "

#: Seconds a workload subprocess may take before it counts as hung.
CHILD_TIMEOUT = 175


def workload_classes() -> dict:
    from daemon import DaemonMix
    from workloads import BATCH

    return {**BATCH, DaemonMix.name: DaemonMix}


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool,
            trace_out: str | None) -> int:
    """Run one workload in this process; print its record and result."""
    record = workload_classes()[name](seed).run(seconds, trace, trace_out)
    for reason in record["failures"]:
        print(f"{name}: {reason}", file=sys.stderr)
    print(RECORD + json.dumps(record, sort_keys=True))
    measured = record["counters"] if trace else record["metrics"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": measured[metric["name"]],
                             "unit": metric["unit"]}
            for metric in listed
        },
    }))
    return 0


def run_child(name: str, seed: int, seconds: float,
              trace_out: str | None) -> dict:
    """Run one workload in a subprocess with tracing; return its record."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    if trace_out:
        stem, ext = os.path.splitext(trace_out)
        command += ["--trace-out", f"{stem}.{name}{ext or '.json'}"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=REPO)
    sys.stderr.write(done.stderr)
    for line in done.stdout.splitlines():
        if line.startswith(RECORD):
            return json.loads(line[len(RECORD):])
    raise RuntimeError(f"{name} exited {done.returncode} without a record")


#: Fewest runs whose spread is taken as known; below it, ``None``.
MIN_SPREAD_RUNS = 3


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median, ``None`` (unknown)
    from fewer than :data:`MIN_SPREAD_RUNS` runs."""
    if len(values) < MIN_SPREAD_RUNS:
        return None
    if not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(records: list[dict], names: list[str]) -> dict:
    """One workload's entry in results.json from one or more runs."""
    first = records[0]
    entry = {
        "samples": first["samples"],
        "ops": first["ops"],
        "layers": first["layers"],
        "counters": first["counters"],
        "runs": {},
        "spread": {},
    }
    for name in names:
        values = [r["metrics"][name] for r in records]
        entry[name] = statistics.median(values)
        entry["runs"][name] = values
        entry["spread"][name] = spread(values)
    # Failures are not noise: every failed operation of every run counts.
    entry["error_rate"] = (sum(r["failed"] for r in records)
                           / sum(r["attempted"] for r in records))
    entry["runs"]["error_rate"] = [r["error_rate"] for r in records]
    entry["spread"]["error_rate"] = 0.0
    return entry


def host() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=REPO, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit}


def print_table(results: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "share"
    for workload, entry in results["workloads"].items():
        counters = entry["counters"]
        print(f"{workload}  ({entry['samples']} timed iterations, "
              f"{entry['ops']} input ops, tracing overhead "
              f"{counters['tracing.overhead']:.2f}x, layer coverage "
              f"{counters['tracing.coverage']:.0%})")
        for name, unit in units.items():
            print(f"  {name:<14} {entry[name]:>14.6g} {unit}")


def run_all(spec: dict, args: argparse.Namespace) -> int:
    names = [m["name"] for m in spec["end_to_end"]]
    baseline = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            baseline = json.load(handle)
    if args.repeat is None:
        # As many runs as the baseline, so both sides' spreads are known.
        args.repeat = baseline["repeat"] if baseline else 1
    runs: dict[str, list[dict]] = {}
    for _ in range(args.repeat):
        for workload in workload_classes():
            print(f"running {workload} (seed {args.seed})", file=sys.stderr)
            runs.setdefault(workload, []).append(
                run_child(workload, args.seed, args.seconds, args.trace_out)
            )
    results = {
        "host": host(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "workloads": {w: summarize(r, names) for w, r in runs.items()},
    }
    print_table(results, spec)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    status = 0
    if any(e["error_rate"] for e in results["workloads"].values()):
        print("error: some outputs were wrong (see above)", file=sys.stderr)
        status = 1
    if baseline:
        from compare import compare

        if compare(results, baseline, spec):
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed every input is generated from")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics "
                        "from one extra traced iteration")
    parser.add_argument("--trace-out",
                        help="write the traced iteration's Chrome trace")
    parser.add_argument("--repeat", type=int,
                        help="runs per workload; results hold medians "
                        "(default: the baseline's with --compare, else 1)")
    parser.add_argument("--out", default=RESULTS_PATH,
                        help="results file (default: %(default)s)")
    parser.add_argument("--compare", metavar="FILE",
                        help="compare against a baseline results file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        if args.workload not in workload_classes():
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(spec, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.trace_out)
    return run_all(spec, args)


if __name__ == "__main__":
    sys.exit(main())
