"""Write the group files of one benchmark workload.

    python3 perfbench/gen.py --workload law --seed 7 --out DIR

Each workload is a frozen list of groups in ``perfbench/workloads/<name>.json``
(name, degree and generators in cycle notation). The seed relabels the points
of every group by a seeded random permutation; seed 0 writes the groups
unchanged. Verdicts do not depend on point labels, so one reference per
workload checks every seed.

The generators keep their order. Their order fixes the order in which the
program enumerates elements, and with it how much work the numpy word sweep
does before it finds a non-terminating pair: shuffling them changed the
sweep time of A4xC23 from 5.4 s to 1.7 s. Runs with different seeds would
then differ by more than any regression bound the benchmark can keep.

Files are named ``000.group``, ``001.group``, ... so ``verify --corpus DIR``
reports the groups in workload order.

The frozen lists were written from the package's own corpus builders by
``PYTHONPATH=src python3 perfbench/gen.py --freeze``. They are data, so a
change to the corpus builders does not change the benchmark's inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_DIR = HERE / "workloads"
WORKLOADS = ("standard", "law", "large")

_CYCLE = re.compile(r"\(([^()]*)\)")


def load_specs(workload: str) -> list[dict]:
    with open(WORKLOAD_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["groups"]


def relabel(cycles: str, images: list[int]) -> str:
    """Conjugate a permutation in cycle notation: point p becomes images[p - 1]."""
    parts = []
    for body in _CYCLE.findall(cycles):
        points = body.split()
        parts.append("(" + " ".join(str(images[int(p) - 1]) for p in points) + ")")
    return "".join(parts) or "()"


def seeded_groups(workload: str, seed: int) -> list[dict]:
    specs = load_specs(workload)
    if seed == 0:
        return specs
    rng = random.Random(seed)
    out = []
    for spec in specs:
        images = list(range(1, spec["degree"] + 1))
        rng.shuffle(images)
        gens = [relabel(g, images) for g in spec["gens"]]
        out.append({"name": spec["name"], "degree": spec["degree"], "gens": gens})
    return out


def write_workload(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write one ``.group`` file per group and return the paths in order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, spec in enumerate(seeded_groups(workload, seed)):
        lines = [f"degree {spec['degree']}", f"name {spec['name']}"]
        lines += [f"gen {g}" for g in spec["gens"]]
        path = out_dir / f"{i:03d}.group"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


# Groups left out of `standard`: the three largest dihedral groups and Q300,
# whose lattices alone take about 60 s of the corpus's 98 s. With them a run
# would take longer than the benchmark's time budget allows.
STANDARD_DROPPED = ("Dih100", "Dih128", "Dih150", "Q300")


def freeze() -> None:
    """Rewrite the frozen workload lists from the package's corpus builders."""
    from formationlab import corpus as c

    a4, s4 = c.alternating(4), c.symmetric(4)
    workloads = {
        "standard": [s for s in c.standard_corpus() if s.name not in STANDARD_DROPPED],
        "law": [c.direct_product(a4, c.cyclic(p)) for p in (7, 11, 13, 17, 19, 23)]
        + [c.direct_product(s4, c.cyclic(p)) for p in (5, 7, 11)]
        + [c.direct_product(c.order75_witness(), c.cyclic(2))],
        "large": [
            c.cyclic(1000),
            c.cyclic(1999),
            c.direct_product(c.symmetric(3), c.cyclic(331)),
            c.direct_product(c.dihedral(5), c.cyclic(197)),
            c.direct_product(c.quaternion_generalized(2), c.cyclic(241)),
        ],
    }
    WORKLOAD_DIR.mkdir(exist_ok=True)
    for name, specs in workloads.items():
        groups = [{"name": s.name, "degree": s.degree, "gens": list(s.generator_texts)} for s in specs]
        text = json.dumps({"groups": groups}, indent=1) + "\n"
        (WORKLOAD_DIR / f"{name}.json").write_text(text, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--freeze", action="store_true", help="rewrite workloads/*.json from src/")
    args = parser.parse_args()
    if args.freeze:
        freeze()
    elif args.workload and args.out:
        write_workload(args.workload, args.seed, args.out)
    else:
        parser.error("give --workload and --out, or --freeze")


if __name__ == "__main__":
    main()
