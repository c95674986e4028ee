from __future__ import annotations

import json
from pathlib import Path

import pytest

from formationlab.cli import main
from formationlab.corpus import (
    alternating,
    cyclic,
    dihedral,
    order294_candidate,
    order75_witness,
    symmetric,
)
from formationlab.groups import DEFAULT_ORDER_BOUND

from conftest import changed_rows, write_group


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.group"
    write_group(symmetric(3), path)
    return str(path)


@pytest.fixture()
def a4_file(tmp_path):
    path = tmp_path / "a4.group"
    write_group(alternating(4), path)
    return str(path)


@pytest.fixture()
def small_corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for spec in (cyclic(6), symmetric(3), alternating(4), dihedral(4), symmetric(4)):
        write_group(spec, directory / f"{spec.name}.group")
    return str(directory)


class TestCheck:
    def test_s3_all_true(self, s3_file, capsys):
        assert main(["check", s3_file]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert out.count("true") == 6

    def test_a4_consistent_falses(self, a4_file, capsys):
        assert main(["check", a4_file]) == 0
        out = capsys.readouterr().out
        assert out.count("false") == 6
        assert "status: ok" in out

    def test_json_output(self, s3_file, capsys):
        assert main(["check", "--json", s3_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "S3" and data["order"] == 6
        assert set(data["predicates"]) == {
            "supersoluble", "cond_x", "cond_b_subgroups", "cond_b_law", "cond_lf", "sylow_tower",
        }

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.group"
        path.write_text("degree 5\ngen (1 9)\n")
        assert main(["check", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["check", "/nonexistent/file.group"]) == 2

    def test_resource_bound_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s5.group"
        write_group(symmetric(5), path)
        assert main(["check", "--max-order", "50", str(path)]) == 3
        assert capsys.readouterr().err == "resource limit: group S5: group order exceeds the order bound (bound: 50)\n"

    def test_broken_closure_names_the_group(self, s3_file, monkeypatch):
        import formationlab.groups as groups
        from formationlab.errors import InvariantError

        def broken(*args):
            raise InvariantError("closure broke")

        monkeypatch.setattr(groups, "_close_rows", broken)
        with pytest.raises(InvariantError, match="^group S3: closure broke$"):
            main(["check", s3_file])


class TestBrandl:
    def test_s3_trace(self, s3_file, capsys):
        assert main(["brandl", s3_file, "--x", "(1 2)", "--y", "(1 2 3)"]) == 0
        assert capsys.readouterr().out == (
            "u_1 = (1 3 2)\n"
            "u_2 = (1 2 3)\n"
            "u_3 = (1 2 3)\n"
            "u_4 = ()\n"
            "terminates at k = 4\n"
        )

    def test_equal_arguments(self, s3_file, capsys):
        assert main(["brandl", s3_file, "--x", "(1 2 3)", "--y", "(1 2 3)"]) == 0
        assert "terminates at k = 1" in capsys.readouterr().out

    def test_a4_cycle(self, a4_file, capsys):
        assert main(["brandl", a4_file, "--x", "(1 2 3)", "--y", "(1 2 4)"]) == 0
        assert capsys.readouterr().out == "".join(
            f"u_{k} = {'(1 2)(3 4)' if k % 2 else '(1 3)(2 4)'}\n" for k in range(1, 8)
        ) + "cycle detected (length 6, state first reached at k = 1)\n"

    def test_non_member_rejected(self, a4_file):
        assert main(["brandl", a4_file, "--x", "(1 2)", "--y", "(1 2 3)"]) == 2

    def test_resource_bound_exit_3(self, s3_file, capsys):
        assert main(["brandl", s3_file, "--max-order", "5", "--x", "(1 2)", "--y", "(1 2 3)"]) == 3
        assert capsys.readouterr().err == "resource limit: group S3: group order exceeds the order bound (bound: 5)\n"


class TestVerify:
    def test_small_corpus_clean(self, small_corpus_dir, tmp_path, capsys):
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("name\tdegree\torder\tsupersoluble")
        assert len(lines) == 6
        assert "0 mismatches" in capsys.readouterr().err

    def test_stdout_when_no_report_path(self, small_corpus_dir, capsys):
        assert main(["verify", "--corpus", small_corpus_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name\t")

    def test_max_order_filters(self, small_corpus_dir, tmp_path):
        # groups over the bound are not built in full but kept as skip rows
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--max-order", "6", "--report", str(report)]) == 0
        rows = [r.split("\t") for r in report.read_text().splitlines()[1:]]
        assert [(r[0], r[2], r[-2]) for r in rows] == [
            ("A4", "0", "resource-skip"),
            ("C6", "6", "ok"),
            ("Dih4", "0", "resource-skip"),
            ("S3", "6", "ok"),
            ("S4", "0", "resource-skip"),
        ]

    @pytest.mark.parametrize("flag", ["--jobs", "--max-order", "--sn"])
    @pytest.mark.parametrize("value", ["0", "\u0663"])
    def test_bad_count_exit_2(self, small_corpus_dir, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--corpus", small_corpus_dir, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a whole number of at least 1, got {value!r}" in capsys.readouterr().err

    def test_json_report(self, small_corpus_dir, tmp_path):
        report = tmp_path / "out.json"
        assert main(["verify", "--corpus", small_corpus_dir, "--json", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert len(data) == 5 and all("predicates" in row for row in data)

    def test_json_times_include_build(self, small_corpus_dir, tmp_path):
        # resource-skipped rows (A4 and S4 over the bound) carry it too
        report = tmp_path / "out.json"
        assert main(["verify", "--corpus", small_corpus_dir, "--max-order", "10", "--json", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert sum(row["status"] == "resource-skip" for row in data) == 2
        assert all(row["times"]["build"] >= 0 for row in data)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_lines(self, small_corpus_dir, tmp_path, monkeypatch, capsys, jobs):
        import formationlab.cli as cli

        monkeypatch.setattr(cli, "PROGRESS_EVERY", 2)
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--jobs", jobs, "--report", str(report)]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("progress: ")]
        assert [line.split(",")[0] for line in lines] == ["progress: 2/5 groups", "progress: 4/5 groups"]
        assert all(line.endswith(" s") for line in lines)

    def test_build_failure_names_the_group(self, monkeypatch):
        import formationlab.groups as groups
        from formationlab.cli import _classify_spec
        from formationlab.errors import InvariantError

        def broken(*args):
            raise InvariantError("closure broke")

        monkeypatch.setattr(groups, "_close_rows", broken)
        with pytest.raises(InvariantError, match="^group S3: closure broke$"):
            _classify_spec((symmetric(3), DEFAULT_ORDER_BOUND))

    # every row hashing to 0, the first generator's lookup hits the identity;
    # hashed by the low byte of point 2's image, (1 2 3)'s coset repeats
    # the identity's hash
    @pytest.mark.parametrize(
        "row_hash, message",
        [(lambda key: 0, "two image rows share a hash"), (lambda key: key[2], "a coset repeats a row's hash")],
        ids=["zero", "point2"],
    )
    def test_hash_collision_names_the_group(self, monkeypatch, tmp_path, row_hash, message):
        import formationlab.groups as groups
        from formationlab.corpus import build_group
        from formationlab.errors import InvariantError

        monkeypatch.setattr(groups, "hash", row_hash, raising=False)
        with pytest.raises(InvariantError, match=f"^{message}$"):
            build_group(symmetric(3))
        write_group(symmetric(3), tmp_path / "S3.group")
        with pytest.raises(InvariantError, match=f"^group S3: {message}$"):
            main(["verify", "--corpus", str(tmp_path), "--jobs", "1"])

    def test_tables_are_freed_without_the_cycle_collector(self):
        # nothing a classification builds refers back to its table in a
        # cycle, so each table is freed when its report is returned
        import gc

        from formationlab.cli import _classify_spec
        from formationlab.groups import GroupTable

        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        kept = len(gc.garbage)
        try:
            for spec in (symmetric(4), cyclic(1000)):
                _classify_spec((spec, DEFAULT_ORDER_BOUND))
            gc.collect()
            tables = [obj for obj in gc.garbage[kept:] if isinstance(obj, GroupTable)]
        finally:
            del gc.garbage[kept:]
            gc.set_debug(flags)
            if enabled:
                gc.enable()
        assert tables == []

    def test_jobs_do_not_change_bytes(self, small_corpus_dir, tmp_path):
        r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--jobs", "1", "--report", str(r1)]) == 0
        assert main(["verify", "--corpus", small_corpus_dir, "--jobs", "3", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.slow
    def test_s6_census_sweep(self, tmp_path):
        # the 1455 subgroups of S6 plus the named families; the census holds
        # the perfect groups A5 and A6, where [H, H] = H.  Regenerate
        # tests/golden/s6.tsv with `formationlab verify --sn 6 --jobs 1
        # --report tests/golden/s6.tsv` only for a change meant to alter
        # verdicts or witnesses.
        report = tmp_path / "s6.tsv"
        assert main(["verify", "--sn", "6", "--jobs", "1", "--report", str(report)]) == 0
        header, *lines = report.read_text().splitlines()
        rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
        assert len(rows) == 1633
        for r in rows:
            u, x, d = (r[key] == "true" for key in ("supersoluble", "cond_x", "sylow_tower"))
            assert r["status"] == "ok" and x >= u and d >= x, r["name"]
        golden = Path(__file__).parent / "golden" / "s6.tsv"
        raw, want = report.read_bytes(), golden.read_bytes()
        assert raw == want, f"report differs from {golden.name}; changed rows: {changed_rows(want, raw)[:5]}"

    def test_corrupted_predicate_exits_1(self, small_corpus_dir, tmp_path, monkeypatch, capsys):
        import formationlab.checkers as checkers

        # test hook: force one theorem predicate wrong on S4 only
        original = checkers._condition_x_impl

        def corrupted(g, lat):
            ok, witness = original(g, lat)
            if g.order == 24:
                return (not ok), "corrupted"
            return ok, witness

        monkeypatch.setattr(checkers, "_condition_x_impl", corrupted)
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err and "S4" in err
        assert "mismatch" in report.read_text()

    def test_resource_skip_rows_survive(self, small_corpus_dir, tmp_path):
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--max-order", "10", "--report", str(report)]) == 0
        rows = report.read_text().splitlines()[1:]
        skips = [r for r in rows if "resource-skip" in r]
        assert len(skips) == 2  # A4 (12) and S4 (24) exceed the bound
        assert skips[0].endswith("\tresource: group A4: group order exceeds the order bound (bound: 10)")
        assert len(rows) == 5

    def test_bad_corpus_dir_exit_2(self):
        assert main(["verify", "--corpus", "/nonexistent"]) == 2

    @pytest.mark.parametrize("where", ["missing/r.tsv", "corpus"])
    def test_report_into_missing_directory_exit_2(self, small_corpus_dir, tmp_path, monkeypatch, capsys, where):
        # the report path, in a missing directory or a directory itself, is
        # checked before any group is classified
        import formationlab.cli as cli

        def refuse(specs, max_order, jobs):
            raise AssertionError("the corpus was classified")

        monkeypatch.setattr(cli, "_run_corpus", refuse)
        report = tmp_path / where
        assert main(["verify", "--corpus", small_corpus_dir, "--report", str(report)]) == 2
        message = f"input error: cannot write report {report}: not a file in an existing directory\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "missing").exists()

    def test_abelian_corpus_all_true(self, tmp_path):
        directory = tmp_path / "abelian"
        directory.mkdir()
        from formationlab.corpus import direct_product

        for spec in (cyclic(2), cyclic(9), cyclic(12), direct_product(cyclic(2), cyclic(2)),
                     direct_product(cyclic(4), cyclic(6))):
            write_group(spec, directory / f"{spec.name}.group")
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", str(directory), "--report", str(report)]) == 0
        for line in report.read_text().splitlines()[1:]:
            assert line.count("true") == 6 and "false" not in line

    def test_every_false_predicate_has_a_witness(self, small_corpus_dir, tmp_path):
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        header = lines[0].split("\t")
        keys = ("supersoluble", "cond_x", "cond_b_subgroups", "cond_b_law", "cond_lf", "sylow_tower")
        saw_false = False
        for line in lines[1:]:
            row = dict(zip(header, line.split("\t")))
            for key in keys:
                if row[key] == "false":
                    saw_false = True
                    assert f"{key}:" in row["witnesses"]
        assert saw_false  # A4 and S4 rows exercise this


class TestWitness:
    def test_d_but_not_x_finds_order_75(self, tmp_path, capsys):
        directory = tmp_path / "corpus"
        directory.mkdir()
        for spec in (symmetric(3), cyclic(10), order75_witness()):
            write_group(spec, directory / f"{spec.name.replace(':', '_')}.group")
        assert main(["witness", "--in", "D", "--notin", "X", "--corpus", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "order 75" in out

    def test_over_bound_group_is_no_witness(self, tmp_path, capsys):
        for spec in (symmetric(3), cyclic(10), order75_witness()):
            write_group(spec, tmp_path / f"{spec.name.replace(':', '_')}.group")
        assert main(["witness", "--in", "D", "--notin", "X", "--corpus", str(tmp_path), "--max-order", "74"]) == 0
        assert capsys.readouterr().out == "no witness in D but not X found up to order 10\n"

    def test_every_group_over_bound_is_no_witness(self, tmp_path, capsys):
        # every group is a resource-skip row, so no order was reached
        write_group(symmetric(3), tmp_path / "s3.group")
        assert main(["witness", "--in", "U", "--notin", "X", "--corpus", str(tmp_path), "--max-order", "2"]) == 0
        assert capsys.readouterr().out == (
            "no witness in U but not X found (no group classified within --max-order 2)\n"
        )

    def test_x_but_not_u_finds_order_294(self, tmp_path, capsys):
        # the one corpus group in X but not U: every cyclic primary
        # subgroup is prime-step subnormal in a non-supersoluble group
        write_group(order294_candidate(), tmp_path / "c7sq_s3.group")
        assert main(["witness", "--in", "X", "--notin", "U", "--corpus", str(tmp_path)]) == 0
        assert "witness: C7^2:S3 (degree 49, order 294)" in capsys.readouterr().out.splitlines()

    def test_not_found_is_not_failure(self, small_corpus_dir, capsys):
        assert main(["witness", "--in", "X", "--notin", "U", "--corpus", small_corpus_dir]) == 0
        assert "no witness" in capsys.readouterr().out

    def test_impossible_separation_flags_loudly(self, small_corpus_dir, monkeypatch, capsys):
        import formationlab.checkers as checkers

        original = checkers._condition_x_impl

        def corrupted(g, lat):
            ok, witness = original(g, lat)
            if g.order == 6:
                return False, "corrupted"
            return ok, witness

        monkeypatch.setattr(checkers, "_condition_x_impl", corrupted)
        code = main(["witness", "--in", "U", "--notin", "X", "--corpus", small_corpus_dir])
        assert code == 1
        assert "THEOREM VIOLATION" in capsys.readouterr().err


class TestLattice:
    def test_a4_census(self, a4_file, capsys):
        assert main(["lattice", a4_file]) == 0
        out = capsys.readouterr().out
        assert "subgroups: 10" in out
        assert "frattini order: 1" in out
        assert "minimal normal subgroups: 4" in out

    def test_c8_chain(self, tmp_path, capsys):
        path = tmp_path / "c8.group"
        write_group(cyclic(8), path)
        assert main(["lattice", str(path)]) == 0
        assert "subgroups: 4" in capsys.readouterr().out

    def test_s4_conjugacy_classes(self, tmp_path, capsys):
        path = tmp_path / "s4.group"
        write_group(symmetric(4), path)
        assert main(["lattice", str(path)]) == 0
        assert capsys.readouterr().out == (
            "group S4  degree 4  order 24\n"
            "subgroups: 30  conjugacy classes: 11\n"
            "  order     1: 1\n"
            "  order     2: 9\n"
            "  order     3: 4\n"
            "  order     4: 7\n"
            "  order     6: 4\n"
            "  order     8: 3\n"
            "  order    12: 1\n"
            "  order    24: 1\n"
            "normal subgroups: 4\n"
            "frattini order: 1\n"
            "minimal normal subgroups: 4\n"
        )

    def test_resource_bound_exit_3(self, a4_file, capsys):
        assert main(["lattice", a4_file, "--max-order", "11"]) == 3
        assert capsys.readouterr().err == "resource limit: group A4: group order exceeds the order bound (bound: 11)\n"

    def test_subgroup_bound_names_the_group(self, a4_file, monkeypatch, capsys):
        import formationlab.lattice as lattice

        monkeypatch.setattr(lattice, "DEFAULT_SUBGROUP_BOUND", 5)
        assert main(["lattice", a4_file]) == 3
        assert capsys.readouterr().err == (
            "resource limit: group A4: subgroup count exceeds the enumeration bound (bound: 5)\n"
        )
