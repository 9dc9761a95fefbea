"""pathtrace benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
spends the first half of the time untraced and the second half with spans
around every layer, and reports the per-layer metrics (see README.md).
Every pass's outputs are checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of the
last traced pass and the full result, environment included, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
from layers import LAYER_METRICS
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 8  # fresh interpreters timed for setup_s, besides this one
MIN_TRACED_PASSES = 2  # so that counts can be compared between passes

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def _require_checkout() -> None:
    """Refuse to run anywhere but the root of a pathtrace checkout."""
    needed = [ROOT / "src" / "pathtrace" / "__init__.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a pathtrace checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _setup(workload: str, seed: int):
    """Import the library and build the workload's inputs; timed as setup."""
    import workloads

    prepare, run_pass = workloads.WORKLOADS[workload]
    return prepare(seed), run_pass


def _setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    """Set-up time of a new interpreter, in reference seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _timed_setup(workload: str, seed: int):
    """The workload's state and pass, and the set-up time in reference seconds."""
    before = reference.reading()
    start = perf_counter()
    state, run_pass = _setup(workload, seed)
    seconds = perf_counter() - start
    return state, run_pass, seconds * reference.speed(before, reference.reading())


def _git_sha() -> str:
    # the ceiling keeps git from reporting some enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, state) -> dict:
    import workloads

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.workload == "scale":
        env["scale_tags"] = state.tags
        env["scale_hops"] = workloads.SCALE_HOPS
    if args.workload == "audit":
        env["audit_events"] = {size: t.events for size, t in state.long.items()}
        env["audit_sweep_sample"] = len(state.short_texts)
    return env


def run_passes(state, run_pass, seconds: float, tally, tracer=None, min_passes: int = 1):
    """Passes until ``seconds`` of wall time are used (at least ``min_passes``)."""
    results, snapshots = [], []
    start = perf_counter()
    while len(results) < min_passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        res = run_pass(state, tracer)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        tally.merge(res)
        results.append(res)
    return results, snapshots


def _median_part(results, part: str) -> float:
    """Median over the passes of one part's time, in reference seconds."""
    return statistics.median(r.parts[part] * r.speeds[part] for r in results)


def pass_seconds(results) -> float:
    """One pass, as the sum of each part's median over the passes, so that
    a burst of load elsewhere on the machine during one pass moves it little."""
    return sum(_median_part(results, part) for part in results[0].parts)


def layer_metrics(workload: str, state, untraced, traced, snapshots) -> dict:
    """Per-layer metrics: counts from the first traced pass, self times as
    medians over traced passes, rates from the untraced passes."""
    import workloads

    first = snapshots[0]
    calls, counts = first["calls"], first["counts"]

    def span_seconds(key: str, name: str) -> float:
        """Median over traced passes of a span total, in reference seconds."""
        return statistics.median(s[key].get(name, 0.0) * r.speed for s, r in zip(snapshots, traced))

    def self_ms(name: str) -> float:
        return span_seconds("self_s", name) * 1e3

    def total_s(name: str) -> float:
        return span_seconds("total_s", name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, unit, _ in LAYER_METRICS:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_ms"):
            values[name] = self_ms(name[: -len(".self_ms")])
    values["trace.physical_path.events_scanned"] = counts.get("trace.physical_path.events_scanned", 0)
    values["trace.useful_ratio"] = ratio(
        counts.get("trace.physical_path.steps", 0), counts.get("trace.physical_path.events_scanned", 0)
    )
    values["network.transmit.bytes"] = counts.get("network.transmit.bytes", 0)
    values["network.knowledge.atoms"] = counts.get("network.knowledge.atoms", 0)
    for label in ("rfchain", "rfchain-patched"):
        compared = counts.get(f"protocols.{label}.records_compared", 0)
        values[f"protocols.{label}.records_compared"] = compared
        values[f"protocols.{label}.record_hit_ratio"] = ratio(
            counts.get(f"protocols.{label}.steps_verified", 0), compared
        )
    values["privacy.world_builds"] = calls.get("privacy.build_run", 0)
    values["privacy.trial_us"] = ratio(self_ms("privacy.run_game") * 1e3, counts.get("privacy.trials", 0))
    executed = sum(total_s(f"scenario.execute.{kind}") for kind in ("run", "attack", "privacy"))
    values["scenario.pool_ratio"] = ratio(total_s("scenario.run_corpus"), executed)
    values["bench.trace_overhead"] = ratio(pass_seconds(traced), pass_seconds(untraced))
    for label, _, _ in workloads.SCALE_RUNS:
        values[f"scale.tags_per_s.{label}"] = (
            ratio(state.tags, _median_part(untraced, label)) if workload == "scale" else 0.0
        )
    for size in workloads.AUDIT_SIZES:
        values[f"trace.claim_us.{size}"] = (
            ratio(_median_part(untraced, f"long.{size}") * 1e6, len(state.long[size].expected))
            if workload == "audit"
            else 0.0
        )
    if workload == "audit":
        claims = sum(len(t.expected) for t in state.long.values())
        long_s = statistics.median(
            sum(r.parts[f"long.{size}"] for size in workloads.AUDIT_SIZES) for r in untraced
        )
        values["audit.claims_per_s"] = ratio(claims, long_s)
        values["audit.sweep_cases_per_s"] = ratio(len(state.short_texts), _median_part(untraced, "short"))
    else:
        values["audit.claims_per_s"] = values["audit.sweep_cases_per_s"] = 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scale", "audit", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_checkout()

    state, run_pass, setup_seconds = _timed_setup(args.workload, args.seed)
    setup_times = [setup_seconds]
    if args.setup_only:
        print(setup_times[0])
        return 0
    setup_times += [_setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]

    import workloads

    tally = workloads.PassResult()  # every check of the run
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    untraced, _ = run_passes(state, run_pass, budget, tally)

    env = environment(args, state)
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_seconds(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
        spans = []
    else:
        tracer = Tracer()
        tracer.install()
        traced, snapshots = run_passes(
            state, run_pass, args.seconds / 2, tally, tracer, min_passes=MIN_TRACED_PASSES
        )
        # a deterministic program does the same work on every pass
        for n, snap in enumerate(snapshots[1:], start=2):
            same = all(snap[key] == snapshots[0][key] for key in ("calls", "counts"))
            tally.check(same, f"traced pass {n} counts differ from pass 1")
        metrics = layer_metrics(args.workload, state, untraced, traced, snapshots)
        spans = snapshots[-1]["spans"]

    if args.workload == "scale":
        workloads.check_scale_canary(tally)
    env["passes"] = len(untraced)
    env["pass_wall_s"] = {part: [r.parts[part] for r in untraced] for part in untraced[0].parts}
    env["pass_speed"] = {part: [r.speeds[part] for r in untraced] for part in untraced[0].parts}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**result, "env": env, "problems": tally.problems}, indent=1) + "\n"
    )
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for sid, parent, name, t0, t1, tid in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1, "thread": tid}) + "\n")

    for problem in tally.problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
