"""The whole benchmark in one command: every workload, every metric.

Usage::

    python3 perfbench/suite.py                      # 3 seeds per workload
    python3 perfbench/suite.py --seeds 1,2,3,4,5 --seconds 10
    python3 perfbench/suite.py --heldout-seed 7919  # confirm a claim
    python3 perfbench/suite.py --trace              # plus the traced runs

For each workload the suite runs ``run.py``'s rounds once per seed,
each for ``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says
otherwise, and
prints all nine end-to-end metrics with their units: the median over
seeds, the quartile spread as a share of that median, and the sample
counts and bases behind each percentile and ratio.

Determinism: the first seed is run a second time, and the two runs must
report the same digest of simulated outputs (sorted latencies, simulated
cost and served bodies).  Together with the per-round check inside each
run this pins "same seed, same simulated output" for the composed stack.

Held-out seed: ``--heldout-seed`` names a seed that is used only to
confirm a claim made on the tuning seeds; its results are reported on
their own and never folded into the medians.

The host fingerprint (CPU model, core count, Python and NumPy versions,
NumPy on/off) is printed with the results and stored in
``.perfbench/suite.json``.  The suite exits 1 if any run is incorrect
or any determinism check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END  # noqa: E402
from perfbench.run import (SPANS_DIR, TARGET_LAYER,  # noqa: E402
                           WORKLOAD_NAMES, RoundError, report_lines,
                           run_workload)


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 if undefined)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def summarise(results: List[Dict[str, Any]]) -> List[str]:
    """One row per end-to-end metric: median, spread, unit, basis."""
    lines = []
    first = results[0]["end_to_end"]["notes"]
    for name, unit in END_TO_END:
        values = [r["end_to_end"]["values"][name] for r in results]
        shown = f"spread {spread(values):7.4f}  " if len(values) > 1 else ""
        lines.append(f"  {name:22s} {statistics.median(values):14.6g} "
                     f"{unit:6s} {shown}"
                     f"(seed {results[0]['seed']}: {first.get(name, '')})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1,2,3")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--heldout-seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload traced")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown or not seeds:
        parser.error(f"unknown workloads {unknown}" if unknown
                     else "need at least one seed")
    if args.heldout_seed in seeds:
        parser.error("the held-out seed must not be a tuning seed")

    problems: List[str] = []
    report: Dict[str, Any] = {"seeds": seeds, "seconds": args.seconds,
                              "heldout_seed": args.heldout_seed,
                              "workloads": {}}
    try:
        for workload in workloads:
            runs = [run_workload(workload, seed, args.seconds, False)
                    for seed in seeds]
            repeat = run_workload(workload, seeds[0], args.seconds, False)
            entry: Dict[str, Any] = {"runs": runs, "repeat": repeat}
            report["host"] = runs[0]["host"]
            print(f"== {workload}: {len(seeds)} seeds, "
                  f"{sum(r['rounds'] for r in runs)} rounds")
            for line in summarise(runs):
                print(line)
            same = repeat["digest"] is not None and \
                repeat["digest"] == runs[0]["digest"]
            print(f"  determinism: seed {seeds[0]} run twice, digests "
                  f"{'match' if same else 'DIFFER'}")
            if not same:
                problems.append(f"{workload}: seed {seeds[0]} gave "
                                f"different digests in two runs")
            for run in runs + [repeat]:
                problems.extend(f"{workload} seed {run['seed']}: {f}"
                                for f in run["failures"])
            if args.heldout_seed is not None:
                held = run_workload(workload, args.heldout_seed,
                                    args.seconds, False)
                entry["heldout"] = held
                print(f"  held-out seed {args.heldout_seed} (confirmation "
                      f"only, not in the medians):")
                for line in summarise([held]):
                    print(line)
                problems.extend(f"{workload} held-out: {f}"
                                for f in held["failures"])
            if args.trace:
                traced = run_workload(workload, seeds[0], args.seconds, True)
                entry["traced"] = traced
                print(f"  traced run, seed {seeds[0]}:")
                for line in report_lines(traced, True)[3 + len(END_TO_END):]:
                    print(f"  {line}")
                problems.extend(f"{workload} traced: {f}"
                                for f in traced["failures"])
                target = TARGET_LAYER.get(workload)
                shares = {name[:-len(".share")]: value for name, value
                          in traced["per_layer"].items()
                          if name.endswith(".share")}
                if target is not None and \
                        max(shares, key=shares.get) != target:
                    problems.append(f"{workload}: {target} is not the "
                                    f"largest layer of the traced run")
            report["workloads"][workload] = entry
    except RoundError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    host = report["host"]
    print(f"host: {host['cpu']}; nproc {host['nproc']}; python "
          f"{host['python']}; numpy {host['numpy_version']} "
          f"({'on' if host['numpy_on'] else 'off'})")
    os.makedirs(SPANS_DIR, exist_ok=True)
    with open(os.path.join(SPANS_DIR, "suite.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    for problem in problems:
        print(f"FAIL {problem}")
    print("OK" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
