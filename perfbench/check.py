"""Check a ``verify`` report against a workload's reference verdicts.

A group fails when its row is missing, its status is not ``ok``, any of name,
degree, order or the six predicate columns differs from the reference, or the
set of predicates that carry a witness differs. Witness text is not compared,
so a change in how witnesses are worded or which generators they print does
not count. If ``verify`` crashed (exit code other than 0 or 1), every group
counts as failed.

The references in ``perfbench/reference/<workload>.tsv`` were made from the
reports of ``verify`` on each workload at seed 0.

    python3 perfbench/check.py                         # self-test of the checker
    python3 perfbench/check.py --make-reference W R    # reference for W from report R
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

PREDICATES = ("supersoluble", "cond_x", "cond_b_subgroups", "cond_b_law", "cond_lf", "sylow_tower")
REPORT_COLUMNS = ("name", "degree", "order", *PREDICATES, "status", "witnesses")
REFERENCE_COLUMNS = ("name", "degree", "order", *PREDICATES, "status", "witness_keys")
# The report packs witnesses as "key: text; key: text"; keys are predicate
# names or "resource".
_WITNESS_KEY = re.compile(r"(?:^|; )(" + "|".join((*PREDICATES, "resource")) + "): ")

# One verdict: (degree, order, six predicate cells, status, witness keys).
Verdict = tuple


def witness_keys(cell: str) -> str:
    return ",".join(sorted(set(_WITNESS_KEY.findall(cell)))) or "-"


def _rows(text: str, header: tuple[str, ...]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split("\t")) != header:
        raise ValueError("unexpected header")
    return [line.split("\t") for line in lines[1:] if line]


def report_verdicts(text: str) -> dict[str, Verdict]:
    """Verdicts by group name from a ``verify`` TSV report; rows with the
    wrong number of cells are left out, so they count as missing."""
    out = {}
    for cells in _rows(text, REPORT_COLUMNS):
        if len(cells) == len(REPORT_COLUMNS):
            out[cells[0]] = (*cells[1:-1], witness_keys(cells[-1]))
    return out


def load_reference(workload: str) -> dict[str, Verdict]:
    text = (REFERENCE_DIR / f"{workload}.tsv").read_text(encoding="utf-8")
    return {cells[0]: tuple(cells[1:]) for cells in _rows(text, REFERENCE_COLUMNS)}


def failed_groups(reference: dict[str, Verdict], report: str | None, exit_code: int) -> list[str]:
    """Names of the reference groups that fail in this run of ``verify``."""
    if exit_code not in (0, 1) or report is None:
        return list(reference)
    try:
        got = report_verdicts(report)
    except ValueError:
        return list(reference)
    status_at = REFERENCE_COLUMNS.index("status") - 1
    return [
        name
        for name, want in reference.items()
        if got.get(name) != want or got[name][status_at] != "ok"
    ]


def predicate_errors(reference: dict[str, Verdict], name: str, values: dict[str, bool] | None) -> int:
    """Predicates of one group whose traced value differs from the reference
    (all six when the group was not traced)."""
    want = reference[name]
    if values is None:
        return len(PREDICATES)
    return sum(
        ("true" if values.get(key) else "false") != want[2 + i] for i, key in enumerate(PREDICATES)
    )


def make_reference(workload: str, report_path: Path) -> None:
    verdicts = report_verdicts(report_path.read_text(encoding="utf-8"))
    lines = ["\t".join(REFERENCE_COLUMNS)]
    lines += ["\t".join((name, *v)) for name, v in verdicts.items()]
    (REFERENCE_DIR / f"{workload}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_from_reference(reference: dict[str, Verdict]) -> list[list[str]]:
    rows = []
    for name, v in reference.items():
        keys = [] if v[-1] == "-" else v[-1].split(",")
        witnesses = "; ".join(f"{k}: some witness; with a semicolon" for k in keys) or "-"
        rows.append([name, *v[:-1], witnesses])
    return rows


def _join(rows: list[list[str]]) -> str:
    return "\n".join("\t".join(r) for r in [list(REPORT_COLUMNS), *rows]) + "\n"


def self_test(workload: str) -> list[str]:
    """Each mutation of a correct report must fail exactly the groups it
    touches; returns the descriptions of the cases that did not."""
    reference = load_reference(workload)
    rows = _report_from_reference(reference)
    first = rows[0][0]
    flip = PREDICATES.index("cond_b_law") + 3

    def flipped():
        r = [list(x) for x in rows]
        r[0][flip] = "false" if r[0][flip] == "true" else "true"
        return _join(r), 0, [first]

    def dropped():
        return _join(rows[1:]), 0, [first]

    def witness_added():
        r = [list(x) for x in rows]
        r[0][-1] = (r[0][-1] + "; " if r[0][-1] != "-" else "") + "resource: bound"
        return _join(r), 0, [first]

    def witness_removed():
        r = [list(x) for x in rows]
        i = next((i for i, row in enumerate(r) if row[-1] != "-"), None)
        if i is None:
            return None  # no group of this workload has a witness
        r[i][-1] = r[i][-1].partition("; ")[2] or "-"
        return _join(r), 0, [r[i][0]]

    def mismatch_status():
        r = [list(x) for x in rows]
        r[-1][REPORT_COLUMNS.index("status")] = "mismatch"
        return _join(r), 1, [r[-1][0]]

    def crashed():
        return _join(rows), 3, list(reference)

    def killed():
        return None, -9, list(reference)

    problems = []
    if failed_groups(reference, _join(rows), 0):
        problems.append("an unchanged report fails")
    for case in (flipped, dropped, witness_added, witness_removed, mismatch_status, crashed, killed):
        if (mutation := case()) is None:
            continue
        report, code, want = mutation
        got = failed_groups(reference, report, code)
        if got != want:
            problems.append(f"{case.__name__}: failed {len(got)} groups, expected {len(want)}")
    values = {k: want == "true" for k, want in zip(PREDICATES, reference[first][2:8])}
    if predicate_errors(reference, first, values) != 0:
        problems.append("traced values equal to the reference count as errors")
    values["cond_x"] = not values["cond_x"]
    if predicate_errors(reference, first, values) != 1:
        problems.append("a flipped traced value is not one error")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test the report checker, or write a reference")
    parser.add_argument("--make-reference", nargs=2, metavar=("WORKLOAD", "REPORT"))
    args = parser.parse_args()
    if args.make_reference:
        make_reference(args.make_reference[0], Path(args.make_reference[1]))
        return 0
    ok = True
    for path in sorted(REFERENCE_DIR.glob("*.tsv")):
        problems = self_test(path.stem)
        ok &= not problems
        print(f"{'PASS' if not problems else 'FAIL'} checker self-test on {path.stem}", *problems, sep="\n  ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
