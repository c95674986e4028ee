"""Batch command-line interface.

Subcommands: ``check`` (classify one group file), ``brandl`` (print one word
trace), ``verify`` (sweep a corpus and write a TSV/JSON report), ``witness``
(search for separating groups between classes), ``lattice`` (subgroup census).

Exit codes: 0 success, 1 predicate-equivalence mismatch (or an impossible
class separation), 2 input error, 3 resource bound exceeded.

The TSV report carries no timing columns, so identical inputs give
byte-identical reports regardless of --jobs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .checkers import PREDICATE_KEYS, ClassReport, classify, word_trace
from .corpus import GroupSpec, build_group, load_group, standard_corpus
from .errors import InputError, ResourceLimitError, naming_group
from .groups import DEFAULT_ORDER_BOUND, exponent
from .lattice import all_subgroups, frattini, minimal_normal_subgroups, normal_subgroups
from .perms import format_cycles, parse_cycles

TSV_COLUMNS = ("name", "degree", "order", *PREDICATE_KEYS, "status", "witnesses")

# Groups between two progress lines of a corpus run on stderr.
PROGRESS_EVERY = 100

CLASS_KEYS = {"U": "supersoluble", "X": "cond_x", "D": "sylow_tower"}
# Pairs ruled out by the inclusion chain U <= X <= D; finding one is a bug
# or a counterexample, either way worth a hard failure.
IMPOSSIBLE_SEPARATIONS = {("U", "X"), ("X", "D"), ("U", "D")}


def _fmt_bool(value) -> str:
    if value is None:
        return "-"
    return "true" if value else "false"


def _fmt_witnesses(report: ClassReport) -> str:
    if not report.witnesses:
        return "-"
    parts = [f"{k}: {v}" for k, v in sorted(report.witnesses.items())]
    return "; ".join(parts).replace("\t", " ")


def _tsv_rows(reports: list[ClassReport]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for r in reports:
        row = [
            r.name,
            str(r.degree),
            str(r.order),
            *(_fmt_bool(r.predicates.get(k)) for k in PREDICATE_KEYS),
            r.status,
            _fmt_witnesses(r),
        ]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _skip_report(spec: GroupSpec, message: str) -> ClassReport:
    report = ClassReport(
        spec.name,
        spec.degree,
        0,
        {k: None for k in PREDICATE_KEYS},
        witnesses={"resource": message},
        status="resource-skip",
    )
    return report


def _classify_spec(payload) -> ClassReport:
    spec, max_order = payload
    started = time.perf_counter()
    try:
        with naming_group(spec.name):
            table = build_group(spec, max_order)
    except ResourceLimitError as exc:
        table, report = None, _skip_report(spec, str(exc))
    build = time.perf_counter() - started
    if table is not None:
        try:
            report = classify(table, spec.name)
        except ResourceLimitError as exc:
            report = _skip_report(spec, str(exc))
    report.times["build"] = build
    return report


def _classified(payloads: list, jobs: int):
    """The reports of the payloads, in their order, from one worker per payload at most."""
    jobs = min(jobs, len(payloads))
    if jobs <= 1:
        yield from map(_classify_spec, payloads)
        return
    import multiprocessing  # here, so that single-job runs skip its import time

    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        yield from pool.imap(_classify_spec, payloads)


def _run_corpus(specs: list[GroupSpec], max_order: int, jobs: int) -> list[ClassReport]:
    started, reports = time.perf_counter(), []
    for done, report in enumerate(_classified([(spec, max_order) for spec in specs], jobs), start=1):
        reports.append(report)
        if done % PROGRESS_EVERY == 0:
            elapsed = time.perf_counter() - started
            print(f"progress: {done}/{len(specs)} groups, {elapsed:.1f} s", file=sys.stderr)
    return reports


def _corpus_from_args(args) -> list[GroupSpec]:
    if args.corpus == "standard":
        sn_levels = (4, 5) if args.sn is None else (args.sn,)
        return standard_corpus(sn_levels=sn_levels)
    directory = Path(args.corpus)
    if not directory.is_dir():
        raise InputError(f"corpus directory not found: {directory}")
    if args.sn is not None:
        raise InputError("--sn applies only to the standard corpus")
    files = sorted(directory.glob("*.group"))
    if not files:
        raise InputError(f"no *.group files in {directory}")
    specs = [load_group(f) for f in files]
    first: dict[str, Path] = {}
    for f, spec in zip(files, specs):
        if first.setdefault(spec.name, f) != f:  # report rows are told apart by name alone
            raise InputError(
                f"two files in {directory} name the group {spec.name}: {first[spec.name].name} and {f.name}"
            )
    return specs


def cmd_check(args) -> int:
    spec = load_group(args.file)
    with naming_group(spec.name):
        table = build_group(spec, args.max_order)
    report = classify(table, spec.name)
    if args.json:
        import json  # here, so that runs without --json skip its import

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"group {report.name}  degree {report.degree}  order {report.order}")
        for key in PREDICATE_KEYS:
            line = f"  {key:<18} {_fmt_bool(report.predicates[key])}"
            if key in report.witnesses:
                line += f"   [{report.witnesses[key]}]"
            print(line)
        print(f"  status: {report.status}")
    return 0 if report.status == "ok" else 1


def cmd_brandl(args) -> int:
    spec = load_group(args.file)
    with naming_group(spec.name):
        table = build_group(spec, args.max_order)
    x = parse_cycles(args.x, table.degree)
    y = parse_cycles(args.y, table.degree)
    pair = []
    for p, label in ((x, "--x"), (y, "--y")):
        try:
            pair.append(table.index_of(p))
        except InputError:
            raise InputError(f"{label} {format_cycles(p)} is not an element of {spec.name}") from None
    values, first = word_trace(table, *pair)
    for k, value in enumerate(values, start=1):
        print(f"u_{k} = {format_cycles(table.perm(value))}")
    k = len(values)
    if values[-1] == 0:
        print(f"terminates at k = {k}")
    else:
        start = first[values[-1], k % exponent(table)]
        print(f"cycle detected (length {k - start}, state first reached at k = {start})")
    return 0


def cmd_verify(args) -> int:
    if args.report and (Path(args.report).is_dir() or not Path(args.report).parent.is_dir()):  # before classifying
        raise InputError(f"cannot write report {args.report}: not a file in an existing directory")
    specs = _corpus_from_args(args)
    started = time.perf_counter()
    reports = _run_corpus(specs, args.max_order, args.jobs)
    elapsed = time.perf_counter() - started
    if args.json:
        import json

        payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    else:
        payload = _tsv_rows(reports)
    if args.report:
        Path(args.report).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    mismatches = [r for r in reports if r.status == "mismatch"]
    skipped = [r for r in reports if r.status == "resource-skip"]
    print(
        f"verify: {len(reports)} groups, {len(mismatches)} mismatches, "
        f"{len(skipped)} resource-skipped, {elapsed:.1f}s",
        file=sys.stderr,
    )
    for r in mismatches:
        print(f"MISMATCH: {r.name}: {r.predicates}", file=sys.stderr)
    return 1 if mismatches else 0


def cmd_witness(args) -> int:
    want = CLASS_KEYS[getattr(args, "in")]
    avoid = CLASS_KEYS[args.notin]
    specs = _corpus_from_args(args)
    reports = _run_corpus(specs, args.max_order, args.jobs)
    # a resource-skip row has order 0 and no verdicts: it is neither a candidate nor the bound
    candidates = [r for r in reports if r.predicates[want] and not r.predicates[avoid]]
    candidates.sort(key=lambda r: r.order)
    pair = (getattr(args, "in"), args.notin)
    if not candidates:
        bound = max(r.order for r in reports)  # 0 when every group was resource-skipped
        reach = f"up to order {bound}" if bound else f"(no group classified within --max-order {args.max_order})"
        print(f"no witness in {pair[0]} but not {pair[1]} found {reach}")
        return 0
    found = candidates[0]
    print(f"witness: {found.name} (degree {found.degree}, order {found.order})")
    print(f"  {want} = true, {avoid} = false")
    for key, value in sorted(found.witnesses.items()):
        print(f"  {key}: {value}")
    if pair in IMPOSSIBLE_SEPARATIONS:
        print(
            f"THEOREM VIOLATION: {found.name} separates {pair[0]} from {pair[1]}, "
            f"which the inclusion chain forbids",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lattice(args) -> int:
    spec = load_group(args.file)
    with naming_group(spec.name):
        table = build_group(spec, args.max_order)
        lat = all_subgroups(table)
    print(f"group {spec.name}  degree {table.degree}  order {table.order}")
    print(f"subgroups: {len(lat)}  conjugacy classes: {len(np.unique(lat.class_ids()))}")
    for order, count in zip(*np.unique(lat.orders, return_counts=True)):
        print(f"  order {order:>5}: {count}")
    print(f"normal subgroups: {len(normal_subgroups(lat))}")
    print(f"frattini order: {lat.orders[frattini(lat)]}")
    minimals = lat.orders[minimal_normal_subgroups(lat)].tolist()
    print(f"minimal normal subgroups: {', '.join(map(str, minimals)) or 'none'}")
    return 0


def positive_int(text: str) -> int:
    """A count given in ASCII digits, at least 1 (int() also reads "٣" as 3)."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formationlab",
        description="classify small permutation groups and verify predicate equivalences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_order(p):
        p.add_argument("--max-order", type=positive_int, default=DEFAULT_ORDER_BOUND, metavar="M",
                       help="group-order bound: a larger group is a resource-skip row in verify "
                            f"and witness, and exit 3 elsewhere (default {DEFAULT_ORDER_BOUND})")

    p_check = sub.add_parser("check", help="classify one group file")
    p_check.add_argument("file")
    add_max_order(p_check)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_brandl = sub.add_parser("brandl", help="print the word trace for one pair")
    p_brandl.add_argument("file")
    p_brandl.add_argument("--x", required=True, metavar="CYCLES")
    p_brandl.add_argument("--y", required=True, metavar="CYCLES")
    add_max_order(p_brandl)
    p_brandl.set_defaults(func=cmd_brandl)

    def add_corpus_flags(p):
        p.add_argument("--corpus", default="standard", help="'standard' or a directory of *.group files")
        p.add_argument("--sn", type=positive_int, choices=range(1, 7), default=None,
                       help="replace the S4/S5 subgroup census with the census of S_N")
        add_max_order(p)
        p.add_argument("--jobs", type=positive_int, default=1)

    p_verify = sub.add_parser("verify", help="classify a whole corpus and report")
    add_corpus_flags(p_verify)
    p_verify.add_argument("--report", default=None, metavar="PATH")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_witness = sub.add_parser("witness", help="search for a group in one class but not another")
    p_witness.add_argument("--in", required=True, choices=sorted(CLASS_KEYS))
    p_witness.add_argument("--notin", required=True, choices=sorted(CLASS_KEYS))
    add_corpus_flags(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    p_lattice = sub.add_parser("lattice", help="subgroup census of one group file")
    p_lattice.add_argument("file")
    add_max_order(p_lattice)
    p_lattice.set_defaults(func=cmd_lattice)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # the parser is not kept through the run
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
