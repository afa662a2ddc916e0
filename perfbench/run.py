"""Run one workload of the repository benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload flash_crowd --seed 1 \\
        --seconds 20 --trace 0

The run repeats rounds of the workload, each in a fresh process started
from ``perfbench/round.py``, until ``--seconds`` have passed (at least
three rounds).  Every round replays the same seed, so every round must
produce the same digest of simulated outputs; a mismatch, or a failed
correctness check in any round, marks the run incorrect.  Each round
gets its own ``PYTHONHASHSEED``, so output that depends on the
iteration order of str-keyed sets or dicts shows as a mismatch.

With ``--trace 0`` the rounds are untraced and the run reports the
end-to-end metrics: host timings as medians over rounds, simulated
metrics from the seed.  With ``--trace 1`` the rounds cycle through an
untraced round, a round under the layer tracer and a round under
``tracemalloc``, and the run reports the per-layer metrics, the layer
coverage and the tracing overhead; the traced round's spans are written
to ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
report lines come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.metrics import (END_TO_END, GATED, PER_LAYER,  # noqa: E402
                               end_to_end, median)

WORKLOAD_NAMES = ("flash_crowd", "flash_crowd_unique", "read_storm",
                  "session_churn")
#: The layer each workload was chosen to load: its self time must be the
#: largest share in the traced run.  ``read_storm`` spreads its host time
#: over several layers and has no single target.
TARGET_LAYER = {"flash_crowd": "hydrology", "flash_crowd_unique": "hydrology",
                "session_churn": "broker"}
MIN_ROUNDS = 3
#: a round that runs longer than this is killed and fails the run
ROUND_TIMEOUT_S = 150.0
#: no round starts that could end after this many seconds of the run
RUN_BUDGET_S = 165.0
SPANS_DIR = os.path.join(ROOT, ".perfbench")
#: correctness failures printed in full; the rest are counted
MAX_FAILURE_LINES = 20


class RoundError(RuntimeError):
    """A round process failed or printed no result."""


def host_fingerprint(numpy_state: Dict[str, Any]) -> Dict[str, Any]:
    """What produced a result set: CPU, core count, Python, NumPy."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), **numpy_state}


def spawn_round(workload: str, seed: int, mode: str, index: int,
                spans_path: str = "") -> Dict[str, Any]:
    """Run round ``index`` in its own process and return its result."""
    command = [sys.executable, os.path.join(HERE, "round.py"),
               workload, str(seed), mode]
    if spans_path:
        command.append(spans_path)
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S,
                              env=dict(os.environ,
                                       PYTHONHASHSEED=str(index + 1)))
    except subprocess.TimeoutExpired as err:
        raise RoundError(f"{mode} round timed out after "
                         f"{ROUND_TIMEOUT_S:.0f}s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{mode} round exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Run rounds for ``seconds`` and aggregate them into a result set."""
    modes = ("plain", "layers", "memory") if trace else ("plain",)
    spans_path = ""
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR,
                                  f"spans-{workload}-seed{seed}.json")
    rounds: List[Dict[str, Any]] = []
    started = time.monotonic()
    slowest = 0.0
    while True:
        mode = modes[len(rounds) % len(modes)]
        round_started = time.monotonic()
        rounds.append(spawn_round(workload, seed, mode, len(rounds),
                                  spans_path if mode == "layers" else ""))
        slowest = max(slowest, time.monotonic() - round_started)
        elapsed = time.monotonic() - started
        if len(rounds) >= max(MIN_ROUNDS, len(modes)) and elapsed >= seconds:
            break
        if elapsed + slowest > RUN_BUDGET_S:
            break

    # a round whose check failed counts all of its operations as failed
    failures = [f"{r['mode']} round {i}: {failure}"
                for i, r in enumerate(rounds) for failure in r["failures"]]
    attempted = sum(r["outcome"]["attempted"] for r in rounds)
    failed = sum(r["outcome"]["attempted"] if r["failures"]
                 else r["outcome"]["failed"] for r in rounds)
    digests = sorted({r["outcome"]["digest"] for r in rounds})
    if len(digests) > 1:
        failures.append(f"rounds of seed {seed} disagree: "
                        f"{len(digests)} different output digests")
        failed = attempted
    plain = [r for r in rounds if r["mode"] == "plain"]
    result = {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "correct": not failures, "failures": failures,
        "attempted": attempted, "failed": failed,
        "digest": digests[0] if len(digests) == 1 else None,
        "host": host_fingerprint(rounds[0]["numpy"]),
        "end_to_end": end_to_end(plain),
    }
    if trace:
        layered = [r for r in rounds if r["mode"] == "layers"]
        memory = [r for r in rounds if r["mode"] == "memory"]
        per_layer = {}
        for name, _ in PER_LAYER:
            if name.startswith("mem."):
                per_layer[name] = median([r["memory"][name] for r in memory])
            elif name != "trace.overhead_ratio":
                per_layer[name] = median([r["layers"][name]
                                          for r in layered])

        def cpu_per_request(group):
            return median([r["cpu_s"] / max(1, r["outcome"]["completed"])
                           for r in group])

        per_layer["trace.overhead_ratio"] = \
            cpu_per_request(layered) / cpu_per_request(plain)
        result["per_layer"] = per_layer
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    return result


def report_lines(result: Dict[str, Any], trace: bool) -> List[str]:
    """The human-readable report printed before the JSON line."""
    host = result["host"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"rounds {result['rounds']}",
        f"host: {host['cpu']}; nproc {host['nproc']}; "
        f"python {host['python']}; numpy {host['numpy_version']} "
        f"({'on' if host['numpy_on'] else 'off'})",
        f"digest {result['digest']}",
    ]
    e2e = result["end_to_end"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:22s} {e2e['values'][name]:14.6g} {unit:6s} "
                     f"{e2e['notes'].get(name, '')}")
    if trace:
        per_layer = result["per_layer"]
        shares = sorted(((name[:-len(".share")], value)
                         for name, value in per_layer.items()
                         if name.endswith(".share")),
                        key=lambda item: -item[1])
        lines.append("layer coverage (share of timed host wall time):")
        for layer, value in shares:
            lines.append(f"  {layer:14s} {value:8.3f}")
        lines.append(f"  {'unattributed':14s} "
                     f"{per_layer['sim.unattributed_share']:8.3f}")
        target = TARGET_LAYER.get(result["workload"])
        if target is not None:
            lines.append(f"largest layer: {shares[0][0]} (chosen to load "
                         f"{target})")
        lines.append(f"tracing overhead: traced cpu_us_per_request is "
                     f"{per_layer['trace.overhead_ratio']:.3f}x the "
                     f"untraced median; spans in {result['spans_path']}")
        for name, unit in PER_LAYER:
            if not name.endswith(".share"):
                lines.append(f"  {name:40s} {per_layer[name]:14.6g} {unit}")
    shown = result["failures"][:MAX_FAILURE_LINES]
    lines.extend(f"FAIL {failure}" for failure in shown)
    if len(result["failures"]) > len(shown):
        lines.append(f"FAIL ... and {len(result['failures']) - len(shown)} "
                     f"more")
    return lines


def final_line(result: Dict[str, Any], trace: bool) -> str:
    """The JSON object the benchmark contract asks for."""
    if trace:
        units = dict(PER_LAYER)
        values = result["per_layer"]
    else:
        units = {name: unit for name, unit in END_TO_END if name in GATED}
        values = result["end_to_end"]["values"]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except RoundError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in report_lines(result, bool(args.trace)):
        print(line)
    print(final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
