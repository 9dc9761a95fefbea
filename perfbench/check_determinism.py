"""Two traced runs of one seed must count exactly the same work.

    python3 perfbench/check_determinism.py --seed 7 --seconds 4

For every workload this runs ``run.py --trace 1`` twice with the given
seed and compares every count metric (calls, events scanned, records
compared, world builds, knowledge atoms, bytes sent).  It also requires
every correctness gate to pass in both runs, and ``BENCHMARK.json`` to
list exactly the per-layer metrics that ``layers.py`` defines.  Exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = {"count", "B"}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH))
    from layers import LAYER_METRICS

    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if [(m["name"], m["unit"], m["better"]) for m in declared] != LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer differs from layers.LAYER_METRICS")
    for workload in ("scale", "audit", "corpus"):
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for n, run in enumerate((first, second), start=1):
            if not run["correct"]:
                problems.append(f"{workload}: run {n} failed {run['failed']} of {run['attempted']} checks")
        compared = 0
        for name, metric in first["metrics"].items():
            if metric["unit"] not in COUNT_UNITS:
                continue
            compared += 1
            other = second["metrics"][name]["value"]
            if metric["value"] != other:
                problems.append(f"{workload}: {name} {metric['value']} then {other}")
        print(f"{workload}: {compared} counts compared, gates {first['failed']}+{second['failed']} failed")
    for problem in problems:
        print(f"check_determinism: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
