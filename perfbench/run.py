"""Benchmark of ``formationlab verify`` on three seeded corpus workloads.

    python3 perfbench/run.py --workload standard --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is taken from ``src/`` there.
The seed picks the point labels of every group (see ``gen.py``).

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:

- ``wall_s``: wall time of ``formationlab verify --corpus DIR --jobs 1
  --report PATH`` over the workload. The workload's files are split into
  ``PARTS`` directories (file i into part i mod ``PARTS``), and one pass runs
  one verify process per part, one after another; the pass's ``wall_s`` is
  the sum of their wall times, start to exit. The run makes passes while the
  next one fits in ``--seconds`` (at least one) and reports the median.
- ``setup_s``: in each of ``SETUPS_PER_GAP`` fresh processes before every
  verify process and after the last one, ``import formationlab.cli`` plus
  ``corpus.load_group`` on every workload file; the median of all of them.
  The speed of a shared machine drifts over tens of seconds, so set-up
  processes run in one batch sample one moment of it; spread over the
  pass, they sample the same stretch of time as ``wall_s``.
- ``peak_rss_mb``: the largest peak resident memory of a pass's verify
  processes; the median over passes.

Every report is checked against the workload's reference (``check.py``).
``attempted`` counts groups over all verify processes and ``failed`` the
groups that failed; ``failed_frac`` = failed / attempted is printed with the
other metrics.

With ``--trace 1`` the run starts one verify process on the whole workload
and then one traced pass (``trace.py``) and reports the per-layer metrics.
The traced spans are kept in ``perfbench/work/trace-<workload>-seed<seed>.json``.

Before the last line the run prints every metric with its unit and the
environment (Python and numpy versions, kernel backend, nproc, seed, group
count). The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
TRAJECTORY = HERE / "trajectory.json"

PARTS = 4
SETUPS_PER_GAP = 5
# A run must end within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 170.0

VERIFY_MAIN = "import sys; from formationlab.cli import entry; sys.argv[0] = 'formationlab'; entry()"
SETUP_MAIN = """
import sys, time
t0 = time.perf_counter()
import formationlab.cli
from formationlab.corpus import load_group
from pathlib import Path
for path in sorted(Path(sys.argv[1]).glob("*.group")):
    load_group(path)
setup_s = time.perf_counter() - t0
import json, os, platform, numpy
from formationlab import _kernels
print(json.dumps({
    "setup_s": setup_s,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "backend": "numba" if _kernels.JIT_ENABLED else "numpy",
    "nproc": len(os.sched_getaffinity(0)),
}))
"""

# Per-layer metrics that sum one span over all groups.
SPAN_METRICS = {
    "corpus.load_s": "corpus.load",
    "groups.build_s": "groups.build",
    "lattice.enumerate_s": "lattice.enumerate",
    "lattice.bookkeeping_s": "lattice.bookkeeping",
    "predicates.supersoluble_s": "predicates.supersoluble",
    "predicates.sylow_tower_s": "predicates.sylow_tower",
    "checkers.cond_x_s": "checkers.cond_x",
    "checkers.cond_b_subgroups_s": "checkers.cond_b_subgroups",
    "checkers.cond_b_law_s": "checkers.cond_b_law",
    "checkers.cond_lf_s": "checkers.cond_lf",
}
SLOWEST = 10


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int]:
    """Run one child process with ``src/`` on its path, killed at the
    deadline. Returns its wall seconds, peak RSS in MB and exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, run_dir: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = run_dir
        self.corpus = run_dir / "corpus"
        paths = gen.write_workload(workload, seed, self.corpus)
        self.groups = len(paths)
        self.reference = check.load_reference(workload)
        names = [g["name"] for g in gen.load_specs(workload)]
        if sorted(names) != sorted(self.reference):
            raise SystemExit(f"reference/{workload}.tsv does not list the groups of workloads/{workload}.json")
        # The parts of a pass: copies of the workload's files, with the
        # reference verdicts of their groups.
        self.parts = []
        for k in range(min(PARTS, len(paths))):
            part = run_dir / f"part{k}"
            part.mkdir()
            for path in paths[k::PARTS]:
                shutil.copyfile(path, part / path.name)
            self.parts.append((part, {name: self.reference[name] for name in names[k::PARTS]}))

    def child(self, argv: list[str], name: str) -> tuple[float, float, int]:
        return run_child([sys.executable, *argv], self.dir / f"{name}.log", self.deadline)

    def setup_once(self) -> dict:
        """One set-up process: its ``setup_s`` and the environment it saw."""
        _, _, code = self.child(["-c", SETUP_MAIN, str(self.corpus)], "setup")
        if code != 0:
            raise SystemExit(f"set-up process exited with {code}:\n" + self._tail("setup"))
        env = json.loads((self.dir / "setup.log").read_text().splitlines()[-1])
        return {**env, "workload": self.workload, "seed": self.seed, "groups": self.groups}

    def verify(self, corpus: Path, reference: dict) -> tuple[float, float, list[str]]:
        """One verify process on one corpus directory; returns wall seconds,
        peak RSS and the failed groups of ``reference``."""
        report = self.dir / "report.tsv"
        report.unlink(missing_ok=True)
        argv = ["-c", VERIFY_MAIN, "verify", "--corpus", str(corpus), "--jobs", "1", "--report", str(report)]
        wall, rss, code = self.child(argv, "verify")
        text = report.read_text(encoding="utf-8") if report.exists() else None
        failed = check.failed_groups(reference, text, code)
        if failed:
            print(f"verify exit {code}; failed groups: {', '.join(failed[:10])}", file=sys.stderr)
            print(self._tail("verify"), file=sys.stderr)
        return wall, rss, failed

    def _tail(self, name: str) -> str:
        return "\n".join((self.dir / f"{name}.log").read_text(errors="replace").splitlines()[-20:])

    def setups(self) -> list[dict]:
        return [self.setup_once() for _ in range(SETUPS_PER_GAP)]

    def end_to_end(self) -> tuple[dict, int, int, dict]:
        walls, rss, passes, setups, failed, attempted = [], [], [], [], 0, 0
        start = time.monotonic()
        while not passes or (
            time.monotonic() - start + statistics.median(passes) <= self.seconds
            and time.monotonic() + statistics.median(passes) < self.deadline
        ):
            pass_start, wall, peak = time.monotonic(), 0.0, 0.0
            for corpus, reference in self.parts:
                setups += self.setups()
                part_wall, part_rss, bad = self.verify(corpus, reference)
                wall += part_wall
                peak = max(peak, part_rss)
                failed += len(bad)
            passes.append(time.monotonic() - pass_start)
            walls.append(wall)
            rss.append(peak)
            attempted += self.groups
        setups += self.setups()
        setup_times = [env.pop("setup_s") for env in setups]
        env = setups[-1]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        notes = {
            "wall_s": f"median of {len(walls)} pass(es) of {len(self.parts)} verify processes: "
            + ", ".join(f"{w:.3f}" for w in walls),
            "setup_s": f"median of {len(setup_times)} fresh processes: " + ", ".join(f"{t:.3f}" for t in setup_times),
            "peak_rss_mb": f"median of {len(rss)} pass(es): " + ", ".join(f"{r:.1f}" for r in rss),
        }
        print(f"workload {self.workload}, seed {self.seed}: {self.groups} groups, {len(walls)} pass(es)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:10.4f} {unit:<5} {notes[name]}")
        print(f"  {'failed_frac':<12} {failed / attempted:10.4f} ratio {failed} failed of {attempted} groups attempted")
        return metrics, attempted, failed, env

    def traced(self) -> tuple[dict, int, int, dict]:
        env = self.setup_once()
        del env["setup_s"]
        wall, _, verify_failed = self.verify(self.corpus, self.reference)
        out = WORK / f"trace-{self.workload}-seed{self.seed}.json"
        out.unlink(missing_ok=True)
        total, _, code = self.child([str(HERE / "trace.py"), "--corpus", str(self.corpus), "--out", str(out)], "trace")
        if code != 0:
            print(f"traced pass exited with {code}:\n" + self._tail("trace"), file=sys.stderr)
        trace = json.loads(out.read_text()) if code == 0 else {"groups": [], "power_table_bytes": 0}
        groups = trace["groups"]
        traced = {g["name"]: g["predicates"] for g in groups}
        errors = {name: check.predicate_errors(self.reference, name, traced.get(name)) for name in self.reference}
        bad = set(verify_failed) | {name for name, n in errors.items() if n}
        metrics = layer_metrics(groups, trace["power_table_bytes"])
        metrics["trace.total_s"] = (total, "s")
        metrics["trace.overhead_s"] = (total - wall, "s")
        metrics["trace.verdict_errors"] = (sum(errors.values()), "count")
        print_trace(self.workload, self.seed, groups, metrics, wall)
        return metrics, self.groups, len(bad), env


def span_sum(groups: list[dict], span: str, key: str | None = None) -> float:
    return sum(s[key] if key else s["end"] - s["start"] for g in groups for s in g["spans"] if s["name"] == span)


def layer_metrics(groups: list[dict], power_table_bytes: int) -> dict:
    metrics = {name: (span_sum(groups, span), "s") for name, span in SPAN_METRICS.items()}
    subgroups = sum(g["subgroups"] for g in groups)
    closures = span_sum(groups, "lattice.enumerate", "close_mask_calls")
    all_spans = [s for g in groups for s in g["spans"]]
    metrics.update(
        {
            "groups.elements": (sum(g["order"] for g in groups), "count"),
            "groups.table_mb": (max((4 * g["order"] ** 2 for g in groups), default=0) / 1e6, "MB"),
            "lattice.subgroups": (subgroups, "count"),
            "lattice.closures": (closures, "count"),
            "lattice.closure_yield": (subgroups / closures if closures else 0.0, "ratio"),
            "kernels.close_mask_s": (sum(s["close_mask_s"] for s in all_spans), "s"),
            "kernels.close_mask_calls": (sum(s["close_mask_calls"] for s in all_spans), "count"),
            "kernels.brandl_sweep_s": (sum(s["brandl_sweep_s"] for s in all_spans), "s"),
            "kernels.pairs_swept": (sum(s["pairs_swept"] for s in all_spans), "count"),
            "kernels.power_table_mb": (power_table_bytes / 1e6, "MB"),
        }
    )
    return metrics


def overhead_note(workload: str, overhead: float) -> str:
    """Whether ``trace.overhead_s``, the difference of two single runs, is
    larger than the run-to-run noise of one run: the quartile range of
    ``wall_s`` in the last trajectory entry for the workload."""
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    recorded = [e for e in history if workload in e["workloads"]]
    if not recorded:
        return "unresolved: no recorded wall_s spread to compare it with"
    wall_s = recorded[-1]["workloads"][workload]["end_to_end"]["wall_s"]
    iqr = wall_s["q3"] - wall_s["q1"]
    where = f"the {iqr:.3f} s wall_s quartile range of '{recorded[-1]['label']}'"
    if abs(overhead) < iqr:
        return f"unresolved: within {where}"
    return f"outside {where}"


def print_trace(workload: str, seed: int, groups: list[dict], metrics: dict, wall: float) -> None:
    base = sum(g["total_s"] for g in groups)
    print(f"workload {workload}, seed {seed}: {len(groups)} groups traced; "
          f"shares are of the {base:.3f} s traced per-group time (sum over groups)")
    for name, (value, unit) in metrics.items():
        share = f"  {value / base:.3f} of {base:.3f} s" if unit == "s" and name in SPAN_METRICS and base else ""
        print(f"  {name:<28} {value:14.4f} {unit:<5}{share}")
    m = metrics
    print(f"  lattice.closure_yield = {m['lattice.subgroups'][0]} subgroups / {m['lattice.closures'][0]} closures")
    overhead = m["trace.overhead_s"][0]
    print(f"  trace.overhead_s = {m['trace.total_s'][0]:.3f} s traced pass - {wall:.3f} s verify process; "
          + overhead_note(workload, overhead))
    slowest = sorted(groups, key=lambda g: g["total_s"], reverse=True)[:SLOWEST]
    print(f"slowest {len(slowest)} of {len(groups)} groups:")
    for g in slowest:
        print(f"  {g['name']} (order {g['order']}): {g['total_s']:.3f} s, {g['total_s'] / base:.3f} of {base:.3f} s")
        for s in g["spans"]:
            d = s["end"] - s["start"]
            kernels = s["close_mask_s"] + s["brandl_sweep_s"]
            print(f"      {s['name']:<28} {d:9.4f} s  {d / g['total_s']:.3f} of {g['total_s']:.3f} s"
                  f"  (kernels {kernels:.4f} s, {s['close_mask_calls']} close_mask calls)")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark formationlab verify on one workload")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that a running child is killed and
    # waited for on the way out (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "formationlab" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'formationlab'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, args.seconds, run_dir)
        metrics, attempted, failed, env = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("env", json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
