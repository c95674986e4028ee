from __future__ import annotations

import json

import pytest

from formationlab.cli import main
from formationlab.corpus import (
    alternating,
    cyclic,
    dihedral,
    order75_witness,
    save_group,
    symmetric,
)


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.group"
    save_group(symmetric(3), path)
    return str(path)


@pytest.fixture()
def a4_file(tmp_path):
    path = tmp_path / "a4.group"
    save_group(alternating(4), path)
    return str(path)


@pytest.fixture()
def small_corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for spec in (cyclic(6), symmetric(3), alternating(4), dihedral(4), symmetric(4)):
        save_group(spec, directory / f"{spec.name}.group")
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

    def test_resource_bound_exit_3(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "s5.group"
        save_group(symmetric(5), path)
        monkeypatch.setenv("FORMATIONLAB_MAX_ORDER", "50")
        assert main(["check", str(path)]) == 3
        assert "50" in capsys.readouterr().err


class TestBrandl:
    def test_s3_trace(self, s3_file, capsys):
        assert main(["brandl", s3_file, "--x", "(1 2)", "--y", "(1 2 3)"]) == 0
        out = capsys.readouterr().out
        assert "u_1 = (1 3 2)" in out
        assert "u_4 = ()" in out
        assert "terminates at k = 4" in out

    def test_equal_arguments(self, s3_file, capsys):
        assert main(["brandl", s3_file, "--x", "(1 2 3)", "--y", "(1 2 3)"]) == 0
        assert "terminates at k = 1" in capsys.readouterr().out

    def test_a4_cycle(self, a4_file, capsys):
        assert main(["brandl", a4_file, "--x", "(1 2 3)", "--y", "(1 2 4)"]) == 0
        assert "cycle detected" in capsys.readouterr().out

    def test_non_member_rejected(self, a4_file):
        assert main(["brandl", a4_file, "--x", "(1 2)", "--y", "(1 2 3)"]) == 2


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
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--max-order", "6", "--report", str(report)]) == 0
        rows = report.read_text().splitlines()[1:]
        assert all(int(r.split("\t")[2]) <= 6 for r in rows)

    def test_json_report(self, small_corpus_dir, tmp_path):
        report = tmp_path / "out.json"
        assert main(["verify", "--corpus", small_corpus_dir, "--json", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert len(data) == 5 and all("predicates" in row for row in data)

    def test_jobs_do_not_change_bytes(self, small_corpus_dir, tmp_path):
        r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--jobs", "1", "--report", str(r1)]) == 0
        assert main(["verify", "--corpus", small_corpus_dir, "--jobs", "3", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.slow
    def test_s6_census_sweep(self, tmp_path):
        # the 1455 subgroups of S6 plus the named families
        report = tmp_path / "s6.tsv"
        assert main(["verify", "--sn", "6", "--jobs", "1", "--report", str(report)]) == 0
        header, *lines = report.read_text().splitlines()
        rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
        assert len(rows) == 1633
        for r in rows:
            u, x, d = (r[key] == "true" for key in ("supersoluble", "cond_x", "sylow_tower"))
            assert r["status"] == "ok" and x >= u and d >= x, r["name"]

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

    def test_resource_skip_rows_survive(self, small_corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("FORMATIONLAB_MAX_ORDER", "10")
        report = tmp_path / "out.tsv"
        assert main(["verify", "--corpus", small_corpus_dir, "--report", str(report)]) == 0
        rows = report.read_text().splitlines()[1:]
        skips = [r for r in rows if "resource-skip" in r]
        assert len(skips) == 2  # A4 (12) and S4 (24) exceed the bound
        assert len(rows) == 5

    def test_bad_corpus_dir_exit_2(self):
        assert main(["verify", "--corpus", "/nonexistent"]) == 2

    def test_abelian_corpus_all_true(self, tmp_path):
        directory = tmp_path / "abelian"
        directory.mkdir()
        from formationlab.corpus import direct_product

        for spec in (cyclic(2), cyclic(9), cyclic(12), direct_product(cyclic(2), cyclic(2)),
                     direct_product(cyclic(4), cyclic(6))):
            save_group(spec, directory / f"{spec.name}.group")
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
            save_group(spec, directory / f"{spec.name.replace(':', '_')}.group")
        assert main(["witness", "--in", "D", "--notin", "X", "--corpus", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "order 75" in out

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
        save_group(cyclic(8), path)
        assert main(["lattice", str(path)]) == 0
        assert "subgroups: 4" in capsys.readouterr().out
