"""Benchmark of emeasure: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

One client drives the workload in a closed loop: it starts a repetition only
after the previous one has ended. Each repetition runs the workload's fixed
job in a fresh interpreter (perfbench/job.py), so the module caches start
empty, as on every CLI call; only density starts worker processes (at most
2). Repetitions go on until --seconds have passed (at least MIN_REPS).
The first one also checks the outputs, after its timed spans; the later ones
must give outputs with the same digest.

Every time is scaled to a reference machine speed: each repetition also
times a fixed calibration unit of standard-library arithmetic
(job.calibration_unit), and a time t is reported as
t * REFERENCE_UNIT_S / (the median calibration unit of that repetition).
In the end-to-end runs the unit is timed every 0.25 s during the job, from
a timer signal, and its time is taken out of the job's; in the traced runs,
60 times before the job and 60 after. The set-up time is scaled by 20 units
timed right after it. Shared machines change speed by tens
of percent within seconds; the scaling cancels most of that, and no change
to emeasure can move the calibration unit.

With --trace 0 the metrics are the end-to-end ones: setup_s and peak_rss_mb
are medians over the repetitions; wall_s is the mean job time at the
reference speed, pooled as the total job time over the total calibration
time, and ops_per_s the completed operations per such second. With
--trace 1 every workload's job runs once more with calls into the program's
modules timed, plus the deep-scan layer probes and an untraced decide run
for the per-query latencies, and the metrics are the per-layer ones; the
tracing overhead compares two traced and two untraced runs of the chosen
workload.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The run exits 2 without a result if the checkout holds no
src/emeasure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
JOB = HERE / "job.py"

WORKLOADS = ("decide", "deep-scan", "density", "verify-paper")
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "enclosure.partial_sum_fill_s": "s",
    "enclosure.decide_s": "s",
    "enclosure.decide_calls": "count",
    "enclosure.render_s": "s",
    "enclosure.floor_s": "s",
    "kempner.factorize_s": "s",
    "kempner.factorize_calls": "count",
    "kempner.S_s": "s",
    "measures.bound_s": "s",
    "measures.check_s": "s",
    "measures.compare_bounds_s": "s",
    "measures.sharpness_s": "s",
    "decide.op_p50_ms": "ms",
    "decide.op_p99_ms": "ms",
    "decide.op_samples": "count",
    "cfrac.convergents_s": "s",
    "cfrac.validated": "count",
    "cfrac.is_convergent_s": "s",
    "cantor.partial_sum_s": "s",
    "cantor.classify_s": "s",
    "cli.emit_s": "s",
    "density.sieve_s": "s",
    "density.sieve_rss_mb": "MB",
    "density.scan_s": "s",
    "density.wall_w2_s": "s",
    "density.scaling_eff": "ratio",
    "verify.intervals_s": "s",
    "verify.sandwich_s": "s",
    "verify.kempner_oracle_s": "s",
    "verify.measure_sweep_s": "s",
    "verify.sharpness_s": "s",
    "verify.convergents_s": "s",
    "verify.q19_s": "s",
    "verify.conjecture2_s": "s",
    "verify.cantor_s": "s",
    "verify.density_s": "s",
    "verify.factorial_boundary_s": "s",
    "trace.overhead_pct": "%",
    "bench.calibration_ms": "ms",
}
MIN_REPS = 3
# Seconds per calibration unit of the reference machine speed.
REFERENCE_UNIT_S = 0.005
# Children are killed past this point, so that a run always ends within 180 s.
DEADLINE_S = 170


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON line,
    or {"error": ...} if it failed to produce one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(JOB), workload, "--seed", str(seed), *flags, "--t0"]
    started = time.monotonic()
    with subprocess.Popen(
        [*argv, repr(started)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"{workload} {' '.join(flags)} killed at the deadline"}
    if proc.returncode != 0 or not out.strip():
        return {"error": f"{workload} exited {proc.returncode}: {err.strip()[-800:]}"}
    rep = json.loads(out.strip().splitlines()[-1])
    rep["elapsed"] = time.monotonic() - started
    return rep


def verdict(reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over a list of repetitions.
    Failed operations are those that raised or exited non-zero plus those
    that the checks found wrong; a repetition with the outputs of a checked
    one has the same wrong answers."""
    problems = [r["error"] for r in reps if "error" in r]
    problems += [e for r in reps for e in r.get("errors", [])]
    attempted = sum(r.get("ops", 1) for r in reps)
    failed = sum(r.get("failed", 1) for r in reps)
    wrong = {r["digest"]: r["wrong"] for r in reps if "wrong" in r}
    failed += sum(wrong.get(r.get("digest"), 0) for r in reps)
    return not problems and not failed, attempted, failed, problems


def scaled(rep: dict, seconds: float, key: str = "calibration_s") -> float:
    """seconds, measured in rep, at the reference machine speed, by the
    calibration unit under key."""
    return seconds * REFERENCE_UNIT_S / rep[key]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    reps = []
    while True:
        rep = spawn(workload, seed, deadline, "--sample", *(() if reps else ("--check",)))
        reps.append(rep)
        if "error" in rep:
            break
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now - start + rep["elapsed"] > seconds:
            break
        if now + rep["elapsed"] > deadline:
            break
    correct, attempted, failed, problems = verdict(reps)
    good = [r for r in reps if "error" not in r]
    if len({r["digest"] for r in good}) > 1:
        correct = False
        problems.append("repetitions gave different outputs")
    metrics = {}
    if good:
        # The mean scaled job time, pooled: it weights each repetition by
        # its length, as the machine's speed is sampled in proportion to it.
        wall_s = REFERENCE_UNIT_S * sum(r["wall_s"] for r in good) / sum(
            r["calibration_s"] for r in good
        )
        metrics = {
            "setup_s": statistics.median(
                scaled(r, r["setup_s"], "setup_calibration_s") for r in good
            ),
            "wall_s": wall_s,
            "ops_per_s": statistics.mean(r["ops"] - r["failed"] for r in good) / wall_s,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in good),
        }
        calibration_ms = statistics.median(1000 * r["calibration_s"] for r in good)
        raw_wall_s = statistics.median(r["wall_s"] for r in good)
    note = (
        f"{len(reps)} repetitions in fresh interpreters; calibration unit"
        f" {calibration_ms:.3f} ms, unscaled wall {raw_wall_s:.4g} s"
        if good
        else f"{len(reps)} repetitions"
    )
    return correct, attempted, failed, problems, metrics, END_TO_END, note


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    traced = {w: spawn(w, seed, deadline, "--trace", "--check") for w in WORKLOADS}
    probe = spawn("deep-scan", seed, deadline, "--probe")
    # Per-query latency comes from an untraced decide job.
    latency = spawn("decide", seed, deadline)
    # Untraced, traced, traced, untraced: the order cancels a steady drift
    # of the machine's speed out of the overhead.
    pair = [spawn(workload, seed, deadline, *flags) for flags in ((), ("--trace",), ("--trace",), ())]
    reps = [*traced.values(), probe, latency, *pair]
    correct, attempted, failed, problems = verdict(reps)
    if len({rep.get("digest") for rep in (traced[workload], *pair)}) > 1:
        correct = False
        problems.append("traced and untraced runs gave different outputs")
    if probe.get("digest") != traced["deep-scan"].get("digest"):
        correct = False
        problems.append("deep-scan outputs differ when re-run with warm caches")
    if latency.get("digest") != traced["decide"].get("digest"):
        correct = False
        problems.append("decide outputs differ between traced and untraced runs")
    metrics = {}
    for rep in (*traced.values(), probe, latency):
        layers = {**rep.get("layers", {}), **rep.get("latency", {})}
        for name, value in layers.items():
            unit = PER_LAYER.get(name)
            metrics[name] = scaled(rep, value) if unit in ("s", "ms") else value
    good = [rep for rep in reps if "calibration_s" in rep]
    if good:
        metrics["bench.calibration_ms"] = statistics.median(1000 * r["calibration_s"] for r in good)
    if all("wall_s" in rep for rep in pair):
        untraced = scaled(pair[0], pair[0]["wall_s"]) + scaled(pair[3], pair[3]["wall_s"])
        metrics["trace.overhead_pct"] = 100 * (
            (scaled(pair[1], pair[1]["wall_s"]) + scaled(pair[2], pair[2]["wall_s"])) / untraced - 1
        )
    note = (
        "one traced run of every workload, the deep-scan probes, an untraced decide run,"
        " two untraced and two traced runs"
    )
    return correct, attempted, failed, problems, metrics, PER_LAYER, note


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if trace else end_to_end
    correct, attempted, failed, problems, values, units, note = measure(
        workload, seed, seconds, deadline
    )
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    print(f"{workload} (seed {seed}): {note}; {attempted} operations, {failed} failed")
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:32} {values[name]:>14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of emeasure.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "emeasure" / "__init__.py").is_file():
        print(f"error: no emeasure package under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {w: run(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
