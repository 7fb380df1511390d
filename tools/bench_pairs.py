"""Alternating benchmark pairs of two source checkouts.

Make a fresh copy of each side (``git archive <rev> | tar -x -C <dir>``),
then run from anywhere:

    python3 tools/bench_pairs.py <base> <change> --workload wave3d-large --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` (with ``--seed``, default 0,
and ``--seconds``, default 30) once from each checkout, the base first in
odd pairs and the change first in even ones, each in a fresh process with
its checkout as the working directory, and reads the JSON object on the
last line of its output.  The script prints the ``solve_s`` of both sides
of every pair, then how many pairs the change won, both medians and the
quartile spread of the base's runs, and the medians of both sides for every
other metric that may move (``setup_s``, ``peak_rss_mb``).  Every metric
named ``matvecs`` or ``matvecs.<slot>`` and ``err_ratio_max`` must read the
same in every run of both sides; a metric that differs is flagged.

Two verdicts follow.  The gain verdict for ``solve_s``: the change wins at
least 9 of every 10 pairs (a tie counts for neither side) and its median is
lower than the base's by more than the base's quartile spread.  Then one
line per ``end_to_end`` metric of the base checkout's ``BENCHMARK.json``
(only read): "ok" if every run of the change is better than every run of
the base, else "unresolved" if the quartile spread of either side,
relative to the base's median, is wider than the metric's bound, else
"worse beyond bound" if the change's median is worse than the base's by
more than the bound, else "ok".  The exit status is 1 if a run fails or a
metric is flagged, 0 otherwise; the verdicts do not set it.  The script is
not part of the test suite.
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


def gain_verdict(times) -> str:
    """The ``solve_s`` gain verdict of (base, change) pairs."""
    wins = sum(c < b for b, c in times)
    base = [b for b, _ in times]
    gap = statistics.median(base) - statistics.median(c for _, c in times)
    spread = _quartile_spread(base)
    gain = 10 * wins >= 9 * len(times) and gap > spread
    return (f"solve_s gain: {'yes' if gain else 'no'} (won {wins} of {len(times)}, "
            f"need 9 of 10; median gap {gap:.3f} s, base quartile spread {spread:.3f} s)")


def bound_verdict(base, change, bound: float, lower_is_better: bool) -> str:
    """"ok", "worse beyond bound" or "unresolved" for one metric's runs."""
    if not lower_is_better:
        base, change = [-x for x in base], [-x for x in change]
    base_med = statistics.median(base)
    scale = abs(base_med) or 1.0
    if max(change) < min(base):  # every run of the change is better
        return "ok"
    if max(_quartile_spread(base), _quartile_spread(change)) / scale > bound:
        return "unresolved"
    worse = statistics.median(change) - base_med
    return "worse beyond bound" if worse / scale > bound else "ok"


def bound_verdicts(base_dir: Path, runs) -> list:
    """One line per ``end_to_end`` metric of ``base_dir/BENCHMARK.json``;
    ``runs`` holds the (base, change) metrics of every pair."""
    path = base_dir / "BENCHMARK.json"
    if not path.exists():
        return [f"no bounds: {path} does not exist"]
    spec = json.loads(path.read_text())
    lines = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if any(name not in side for pair in runs for side in pair):
            lines.append(f"{name}: not in every run")
            continue
        base, change = ([pair[side][name] for pair in runs] for side in (0, 1))
        verdict = bound_verdict(base, change, metric["bound"], metric["better"] == "lower")
        lines.append(f"{name}: {verdict} (bound {metric['bound']:g})")
    return lines


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
        sides = [None, None]  # base, change; the base runs first in odd pairs
        try:
            for i in ((0, 1) if k % 2 else (1, 0)):
                sides[i] = run((base_dir, change_dir)[i], args.workload, args.seed,
                               args.seconds)
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
    print(gain_verdict(times))
    for line in bound_verdicts(base_dir, runs):
        print(f"  {line}")
    for line in flagged:
        print(f"DIFFERS {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
