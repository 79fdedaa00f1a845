"""Run the benchmark once per seed and report, for each metric, the median,
the quartiles and the spread (third minus first quartile, as a share of the
median), with the quartiles as statistics.quantiles(values, n=4) gives them.

    python3 perfbench/spread.py --workloads decide,density --seeds 1-10
    python3 perfbench/spread.py --workloads all --seeds 1-10 --out FILE --label first
    python3 perfbench/spread.py --workloads all --seeds 1 --trace --out FILE --label traced

Run it from the root of the repository. With --out the summary is merged
into FILE (a JSON object) under --label. An end-to-end spread at or above a
third of the metric's bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--label", default="runs")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(args.trace))],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        metrics = {name: {"unit": units[name], **summary(v)} for name, v in values.items()}
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)},"
              f" failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name, m in metrics.items():
            flag = ""
            if name in bounds and m["spread"] >= bounds[name] / 3:
                flag, steady = "  <-- spread >= bound/3", False
            print(f"  {name:32} median {m['median']:>12.6g} {m['unit']:6}"
                  f" q1 {m['q1']:>11.6g} q3 {m['q3']:>11.6g} spread {m['spread']:7.2%}{flag}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[args.label] = report
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
