"""Verdicts of one results file against a baseline, per workload and metric.

A metric's change is measured in its "worse" direction as a share of
the baseline median and judged against the bound BENCHMARK.json gives
it.  Where either side's run-to-run spread is wider than the bound the
verdict is ``unresolved`` -- unless every run of one side reads better
than every run of the other.  A side with too few runs to know its
spread (``None``) can only read ``same`` or ``unresolved``.
``error_rate`` is not noisy and has a bound of 0: any increase is worse.
"""

from __future__ import annotations

import sys


def verdict(base: float, current: float, bound: float, lower_is_better: bool,
            noise: float | None, base_runs: list[float],
            current_runs: list[float]) -> tuple[float, str]:
    """``(change, verdict)``; ``change`` > 0 means worse.

    Better or worse needs a change beyond the bound; when the spread is
    wider than the bound, also every run of one side beyond every run of
    the other.  A noisy metric failing that is unresolved, and so is
    any change beyond the bound when ``noise`` is unknown.
    """
    sign = 1.0 if lower_is_better else -1.0
    if base:
        change = sign * (current - base) / base
    else:
        change = sign * (current - base)
    if change > bound:
        word, ahead, behind = "worse", base_runs, current_runs
    elif change < -bound:
        word, ahead, behind = "better", current_runs, base_runs
    else:
        word, ahead, behind = "same", [], []
    if noise is None:
        if word != "same":
            word = "unresolved"
    elif noise > bound and not (
            ahead and all(sign * (b - a) > 0 for a in ahead for b in behind)):
        word = "unresolved"
    return change, word


def compare(results: dict, baseline: dict, spec: dict) -> bool:
    """Print one row per workload and metric; True when any is worse."""
    cores, base_cores = results["host"]["cores"], baseline["host"]["cores"]
    if cores != base_cores:
        print(f"warning: this host has {cores} cores, the baseline's had "
              f"{base_cores}; timings are not comparable", file=sys.stderr)
    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in spec["end_to_end"]]
    metrics.append(("error_rate", 0.0, True))
    print(f"{'workload':<16} {'metric':<12} {'baseline':>12} "
          f"{'current':>12} {'change':>8} {'bound':>6}  verdict")
    any_worse = False
    for workload, entry in results["workloads"].items():
        base_entry = baseline["workloads"].get(workload)
        if base_entry is None:
            print(f"{workload:<16} (not in the baseline)")
            continue
        for name, bound, lower in metrics:
            spreads = (entry["spread"][name], base_entry["spread"][name])
            noise = None if None in spreads else max(spreads)
            change, word = verdict(
                base_entry[name], entry[name], bound, lower, noise,
                base_entry["runs"][name], entry["runs"][name],
            )
            any_worse |= word == "worse"
            print(f"{workload:<16} {name:<12} {base_entry[name]:>12.5g} "
                  f"{entry[name]:>12.5g} {change:>+8.1%} {bound:>6.0%}  "
                  f"{word}")
    return any_worse
