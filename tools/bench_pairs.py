"""Alternating benchmark pairs of two source checkouts.

Make a fresh copy of each side (``git archive <rev> | tar -x -C <dir>``),
then run from anywhere:

    python3 tools/bench_pairs.py <base> <change> --workload wave3d-large --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` (with ``--seed``, default 0,
and ``--seconds``, default 30) once from ``<base>`` and then once from
``<change>``, each in a fresh process with its checkout as the working
directory, and reads the JSON object on the last line of its output.  The
script prints the ``solve_s`` of both sides of every pair,
then how many pairs the change won, both medians and the quartile spread of
the base's runs, and the medians of both sides for every other metric that
may move (``setup_s``, ``peak_rss_mb``).  Every metric named ``matvecs`` or
``matvecs.<slot>`` and ``err_ratio_max`` must read the same in every run of
both sides; a metric that differs is flagged.  The exit status is 1 if a
run fails or a metric is flagged, 0 otherwise.  The script is not part of
the test suite.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Metrics that must not differ between the runs of a pair.
EXACT = ("matvecs", "err_ratio_max")


def command(checkout: Path, workload: str, seed: int, seconds: float) -> list:
    """The command of one run; it runs with ``checkout`` as working directory."""
    return [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one run, name -> value; raises RuntimeError if it fails."""
    proc = subprocess.run(command(checkout, workload, seed, seconds), cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: exit status {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} "
                           "cells failed a check")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _exact(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if name.split(".")[0] in EXACT}


def _quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    base_dir, change_dir = args.base.resolve(), args.change.resolve()

    times, flagged, reference, runs = [], [], None, []
    for k in range(1, args.pairs + 1):
        try:
            sides = [run(d, args.workload, args.seed, args.seconds)
                     for d in (base_dir, change_dir)]
        except RuntimeError as exc:
            print(f"pair {k}: {exc}", file=sys.stderr)
            return 1
        for name, metrics in zip(("base", "change"), sides):
            reference = reference or _exact(metrics)
            for metric, value in _exact(metrics).items():
                if value != reference.get(metric):
                    flagged.append(f"pair {k} {name}: {metric} {value!r}, "
                                   f"first run {reference.get(metric)!r}")
        runs.append(sides)
        base_s, change_s = sides[0]["solve_s"], sides[1]["solve_s"]
        times.append((base_s, change_s))
        print(f"pair {k}: base {base_s:.3f} s, change {change_s:.3f} s "
              f"({change_s / base_s - 1.0:+.1%})", flush=True)

    base_med = statistics.median(b for b, _ in times)
    change_med = statistics.median(c for _, c in times)
    wins = sum(c < b for b, c in times)
    print(f"{args.workload}: change won {wins} of {len(times)} pairs; median solve_s "
          f"base {base_med:.3f} s, change {change_med:.3f} s "
          f"({change_med / base_med - 1.0:+.1%}); base quartile spread "
          f"{_quartile_spread([b for b, _ in times]):.3f} s")
    for metric in runs[0][0]:
        if metric != "solve_s" and metric not in reference:
            base, change = (statistics.median(pair[side][metric] for pair in runs)
                            for side in (0, 1))
            print(f"  {metric}: median base {base:.6g}, change {change:.6g} "
                  f"({change / base - 1.0:+.1%})")
    for line in flagged:
        print(f"DIFFERS {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
