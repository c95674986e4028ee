"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/trajectory.py --seeds 1-10
    python3 perfbench/trajectory.py --seeds 1-10 --label "commit abc1234" --append

For each workload of ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed and ``run.py --trace 1`` once with the first seed, all with the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric it prints
the median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (q3 - q1) / median next to the metric's bound. ``--append``
adds the summary, with the environment of the runs, as one entry to
``perfbench/trajectory.json``: the bench trajectory that later performance
changes are compared against. Compare only entries measured on the same
machine with the same seeds.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return {**json.loads(lines[-1]), "env": env}


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description="run every workload over several seeds and summarise")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--label", default="")
    parser.add_argument("--append", action="store_true", help="add the summary to trajectory.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "seeds": args.seeds,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        results = [run(workload, seed, bench["run_seconds"], 0) for seed in args.seeds]
        traced = run(workload, args.seeds[0], bench["run_seconds"], 1)
        summary = {
            name: {**summarise([r["metrics"][name]["value"] for r in results], bound),
                   "unit": results[0]["metrics"][name]["unit"]}
            for name, bound in bounds.items()
        }
        entry["env"] = {k: v for k, v in results[0]["env"].items() if k not in ("workload", "seed", "groups")}
        entry["workloads"][workload] = {
            "groups": results[0]["env"]["groups"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results + [traced]),
            "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{workload}: {len(results)} runs, failed {entry['workloads'][workload]['failed']}"
              f" of {entry['workloads'][workload]['attempted']} groups attempted")
        for name, s in summary.items():
            steady = "steady" if s["spread"] < s["bound"] / 3 else "NOT below bound/3"
            print(f"  {name:<12} median {s['median']:.4f} {s['unit']}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.4f} (bound {s['bound']}, {steady})")
            print("    values " + " ".join(f"{v:.4f}" for v in s["values"]))
    if args.append:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
