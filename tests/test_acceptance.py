"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The standard corpus is
swept once through the real CLI in a session fixture; criteria that need
group tables or lattices rebuild them per group (nothing is presumed from
the sweep that the criterion itself does not check).  The sweep's report is
also compared byte for byte with ``tests/golden/standard.tsv``; regenerate
that file with ``formationlab verify --jobs 1 --report tests/golden/standard.tsv``
only for a change meant to alter verdicts or witnesses.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from formationlab.checkers import _condition_x_impl, condition_b_law, condition_x, word_trace
from formationlab.cli import main
from formationlab.corpus import build_group, standard_corpus, symmetric
from formationlab.lattice import all_subgroups, frattini
from formationlab.perms import format_cycles, parse_cycles
from formationlab.predicates import is_nilpotent, is_supersoluble

from conftest import changed_rows
from oracles import (
    all_subgroups_oracle,
    condition_b_law_opposite,
    is_supersoluble_chief,
    lower_central_series,
    mask_int,
    p_subnormal_oracle,
    quotient_by,
    restrict,
)

GOLDEN = Path(__file__).parent / "golden" / "standard.tsv"
BENCH_CHECK = Path(__file__).parent.parent / "perfbench" / "check.py"


def _verdict(num: int, text: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def corpus_specs():
    return standard_corpus()


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """One real cmd_verify run over the standard corpus."""
    report = tmp_path_factory.mktemp("acceptance") / "report.tsv"
    exit_code = main(["verify", "--jobs", "1", "--report", str(report)])
    raw = report.read_bytes()
    lines = raw.decode().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    return exit_code, rows, raw


def _truth(row: dict, key: str) -> bool | None:
    return {"true": True, "false": False, "-": None}[row[key]]


def test_criterion_1_theorem_equivalence_sweep(sweep):
    exit_code, rows, _ = sweep
    mismatches = [r["name"] for r in rows if r["status"] == "mismatch"]
    ok = exit_code == 0 and not mismatches and len(rows) > 300
    _verdict(
        1,
        f"four predicates agree on all {len(rows)} corpus groups, exit {exit_code}"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
        ok,
    )


def test_criterion_2_inclusion_chain(sweep):
    _, rows, _ = sweep
    violations = []
    for r in rows:
        if r["status"] == "resource-skip":
            continue
        u, x, d = _truth(r, "supersoluble"), _truth(r, "cond_x"), _truth(r, "sylow_tower")
        if u and not x:
            violations.append(f"{r['name']}: U without X")
        if x and not d:
            violations.append(f"{r['name']}: X without D")
    _verdict(2, f"supersoluble => chain condition => Sylow tower ({violations or 'no violations'})", not violations)


def test_criterion_3_separation_witnesses(sweep):
    _, rows, _ = sweep
    a4 = next(r for r in rows if r["name"] == "A4")
    g75 = next(r for r in rows if r["name"] == "C5^2:L3")
    a4_ok = (
        not _truth(a4, "supersoluble")
        and not any(_truth(a4, k) for k in ("cond_x", "cond_b_subgroups", "cond_b_law", "cond_lf"))
    )
    g75_ok = _truth(g75, "sylow_tower") and not _truth(g75, "cond_x")
    x_not_u = [
        (r["name"], int(r["order"]))
        for r in rows
        if r["status"] != "resource-skip" and _truth(r, "cond_x") and not _truth(r, "supersoluble")
    ]
    print(f"  exploratory: groups satisfying the chain condition but not supersoluble: {x_not_u or 'none found'}")
    _verdict(
        3,
        f"A4 uniformly false ({a4_ok}); order-75 group separates the tower class ({g75_ok})",
        a4_ok and g75_ok,
    )


def test_criterion_4_closure_laws(corpus_specs):
    violations = []
    for spec in corpus_specs:
        g = build_group(spec)
        lat = all_subgroups(g)
        base = condition_x(g, lat)

        frattini_quotient = quotient_by(g, lat.matrix[frattini(lat)]).group
        saturated = condition_x(frattini_quotient, all_subgroups(frattini_quotient))
        if saturated != base:
            violations.append(f"{spec.name}: saturation {base} vs {saturated}")

        if base:
            for h in lat.subgroups:
                if not _condition_x_impl(restrict(lat, h))[0]:
                    violations.append(f"{spec.name}: subgroup of order {h.sum()} escapes")
                    break
            for n in np.flatnonzero(lat.normal_flags()):
                if lat.orders[n] in (1, g.order):
                    continue
                q = quotient_by(g, lat.matrix[n]).group
                if not condition_x(q, all_subgroups(q)):
                    violations.append(f"{spec.name}: quotient by order-{lat.orders[n]} escapes")
                    break
    _verdict(
        4,
        f"saturation, hereditariness, quotient closure on {len(corpus_specs)} groups "
        f"({violations[:3] or 'no violations'})",
        not violations,
    )


def test_criterion_5_oracle_equivalences(corpus_specs):
    checked = 0
    failures = []
    for spec in corpus_specs:
        g = build_group(spec)
        if g.order > 48:
            continue
        checked += 1
        lat = all_subgroups(g)
        if {mask_int(s) for s in lat.subgroups} != all_subgroups_oracle(g):
            failures.append(f"{spec.name}: enumeration")
            continue
        if is_supersoluble(g, lat) != is_supersoluble_chief(lat):
            failures.append(f"{spec.name}: supersolubility algorithms")
        if is_nilpotent(g.elem_orders) != (lower_central_series(g)[-1].sum() == 1):
            failures.append(f"{spec.name}: nilpotency algorithms")
        memo: dict = {}
        for h, flag in zip(lat.subgroups, lat.p_subnormal):
            if flag != p_subnormal_oracle(lat, h, memo):
                failures.append(f"{spec.name}: subnormality of order-{h.sum()}")
                break
    _verdict(
        5,
        f"exact oracle agreement on {checked} groups of order <= 48 "
        f"({failures[:3] or 'no failures'})",
        checked > 200 and not failures,
    )


def test_criterion_6_worked_hand_trace():
    s3 = build_group(symmetric(3))
    x, y = (s3.index_of(parse_cycles(text, 3)) for text in ("(1 2)", "(1 2 3)"))
    values, _ = word_trace(s3, x, y)
    got = [format_cycles(s3.perm(v)) for v in values]
    ok = got == ["(1 3 2)", "(1 2 3)", "(1 2 3)", "()"]
    _verdict(6, f"word trace in S3 is {got} with k = {len(values)}", ok)


def test_criterion_7_convention_robustness(corpus_specs):
    disagreements = []
    for spec in corpus_specs:
        g = build_group(spec)
        if condition_b_law(g) != condition_b_law_opposite(g):
            disagreements.append(spec.name)
    _verdict(
        7,
        f"word law invariant under the opposite composition convention on "
        f"{len(corpus_specs)} groups ({disagreements or 'exact agreement'})",
        not disagreements,
    )


def test_criterion_8_report_determinism(sweep, tmp_path):
    code1, _, raw1 = sweep  # the --jobs 1 run
    r2 = tmp_path / "jobs2.tsv"
    code2 = main(["verify", "--jobs", "2", "--report", str(r2)])
    identical = raw1 == r2.read_bytes()
    _verdict(
        8,
        f"verify reports byte-identical across --jobs values (exits {code1}/{code2})",
        identical and code1 == code2 == 0,
    )


def test_golden_standard_report(sweep):
    """The standard-corpus report equals the checked-in one byte for byte,
    so a rewrite cannot quietly change a verdict or a witness."""
    _, _, raw = sweep
    golden = GOLDEN.read_bytes()
    assert raw == golden, f"report differs from {GOLDEN.name}; changed rows: {changed_rows(golden, raw)[:5]}"


def test_golden_agrees_with_benchmark_reference():
    """Every group of the benchmark's ``standard`` reference has the same
    degree, order, verdicts, status and witness keys in the golden report,
    so a regeneration meant to change witness text cannot hide a verdict
    change."""
    spec = importlib.util.spec_from_file_location("perfbench_check", BENCH_CHECK)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    reference = check.load_reference("standard")
    golden = check.report_verdicts(GOLDEN.read_text(encoding="utf-8"))
    assert len(reference) == 360
    assert {name: golden.get(name) for name in reference} == reference
