"""Traced pass over one workload corpus: times the public function of each
layer for every group and counts kernel calls.

    PYTHONPATH=src python3 perfbench/trace.py --corpus DIR --out TRACE.json

For every ``*.group`` file in DIR, in name order, the pass runs
``corpus.load_group``, ``corpus.build_group``, ``lattice.all_subgroups``, the
lattice bookkeeping (a fresh ``Lattice`` from the enumerated members, then
``normal_flags()`` and ``chief_series()``), and the six predicates. Each call
is one span. Kernel calls are counted and timed by wrapping the module
attributes ``_kernels.close_mask`` and ``_kernels.brandl_sweep``; every caller
looks them up through the module at call time, so the wrappers see all calls.
Spans are kept in memory and written to TRACE.json at the end.

The spans time the layer functions, not the path ``checkers.classify`` takes
in ``verify``. classify keeps the ``Lattice`` that ``all_subgroups`` returns,
so ``lattice.bookkeeping`` (the rebuilt ``Lattice``, its normal flags and a
chief series) is work the traced pass does and ``verify`` does not; it still
counts in the per-group time that shares are taken of. The predicate spans
call ``is_supersoluble``, ``has_sylow_tower_sst`` and the public
``condition_*`` functions, where classify calls their witness-producing
variants. A change inside classify alone, such as reusing work between
predicates, shows in ``wall_s`` but not in these spans.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from formationlab import _kernels
from formationlab.checkers import condition_b_law, condition_b_subgroups, condition_lf_f, condition_x
from formationlab.corpus import build_group, load_group
from formationlab.lattice import Lattice, all_subgroups, chief_series
from formationlab.predicates import has_sylow_tower_sst, is_supersoluble


class Kernels:
    """Call counts and busy time of the wrapped kernels, plus what their
    arguments and results say about the work done."""

    def __init__(self):
        self.close_mask_s = 0.0
        self.close_mask_calls = 0
        self.brandl_sweep_s = 0.0
        self.pairs_swept = 0
        self.power_table_bytes = 0

    def install(self) -> None:
        close_mask, brandl_sweep = _kernels.close_mask, _kernels.brandl_sweep

        def traced_close_mask(mul, base, extra):
            t0 = time.perf_counter()
            out = close_mask(mul, base, extra)
            self.close_mask_s += time.perf_counter() - t0
            self.close_mask_calls += 1
            return out

        def traced_brandl_sweep(mul, inv, pow_neg, e):
            t0 = time.perf_counter()
            out = brandl_sweep(mul, inv, pow_neg, e)
            self.brandl_sweep_s += time.perf_counter() - t0
            n = mul.shape[0]
            status, x, y = out
            self.pairs_swept += n * n if status == 1 else x * n + y + 1
            self.power_table_bytes = max(self.power_table_bytes, 4 * n * e)
            return out

        _kernels.close_mask = traced_close_mask
        _kernels.brandl_sweep = traced_brandl_sweep

    def snapshot(self) -> dict:
        return {
            "close_mask_s": self.close_mask_s,
            "close_mask_calls": self.close_mask_calls,
            "brandl_sweep_s": self.brandl_sweep_s,
            "pairs_swept": self.pairs_swept,
        }


def trace_group(path: Path, kernels: Kernels) -> dict:
    """Run every layer on one group file; returns its spans, counts and
    predicate values. Each span carries the kernel work done inside it."""
    spans: list[dict] = []
    origin = time.perf_counter()

    def span(name: str, func):
        before = kernels.snapshot()
        t0 = time.perf_counter()
        out = func()
        t1 = time.perf_counter()
        after = kernels.snapshot()
        spans.append(
            {
                "name": name,
                "start": t0 - origin,
                "end": t1 - origin,
                "parent": "group",
                **{k: after[k] - before[k] for k in after},
            }
        )
        return out

    spec = span("corpus.load", lambda: load_group(path))
    g = span("groups.build", lambda: build_group(spec))
    enumerated = span("lattice.enumerate", lambda: all_subgroups(g))

    def bookkeeping():
        lat = Lattice(g, g.full_subgroup(), enumerated.subgroups)
        lat.normal_flags()
        chief_series(lat)
        return lat

    lat = span("lattice.bookkeeping", bookkeeping)
    predicates = {
        "supersoluble": span("predicates.supersoluble", lambda: is_supersoluble(g, lat)),
        "sylow_tower": span("predicates.sylow_tower", lambda: has_sylow_tower_sst(g)),
        "cond_x": span("checkers.cond_x", lambda: condition_x(g, lat)),
        "cond_b_subgroups": span("checkers.cond_b_subgroups", lambda: condition_b_subgroups(g, lat)),
        "cond_b_law": span("checkers.cond_b_law", lambda: condition_b_law(g)),
        "cond_lf": span("checkers.cond_lf", lambda: condition_lf_f(g, lat)),
    }
    return {
        "file": path.name,
        "name": spec.name,
        "order": g.order,
        "total_s": time.perf_counter() - origin,
        "subgroups": len(enumerated.subgroups),
        "predicates": predicates,
        "spans": spans,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="traced pass over a corpus directory")
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    kernels = Kernels()
    kernels.install()
    groups = [trace_group(path, kernels) for path in sorted(args.corpus.glob("*.group"))]
    result = {"groups": groups, "power_table_bytes": kernels.power_table_bytes}
    args.out.write_text(json.dumps(result) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
