from __future__ import annotations

import re

import numpy as np
import pytest

from formationlab.corpus import (
    GroupSpec,
    affine_semidirect,
    alternating,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    load_group,
    order294_candidate,
    order75_witness,
    quaternion_generalized,
    standard_corpus,
    subgroups_of_symmetric,
    symmetric,
)
from formationlab.errors import InputError

from conftest import write_group
from oracles import linear_group_order_oracle


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 30])
    def test_cyclic_order(self, n):
        assert build_group(cyclic(n)).order == n

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_dihedral_order(self, n):
        assert build_group(dihedral(n)).order == 2 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric_order(self, n):
        import math

        assert build_group(symmetric(n)).order == math.factorial(n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_alternating_order(self, n):
        import math

        assert build_group(alternating(n)).order == math.factorial(n) // 2

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_quaternion_order(self, m):
        assert build_group(quaternion_generalized(m)).order == 4 * m

    def test_quaternion_q8_is_the_quaternion_group(self):
        from formationlab.groups import exponent
        from formationlab.predicates import is_nilpotent

        q8 = build_group(quaternion_generalized(2))
        assert q8.order == 8 and (q8.mul != q8.mul.T).any() and is_nilpotent(q8.elem_orders)
        assert exponent(q8) == 4
        assert sorted(int(o) for o in q8.elem_orders) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_direct_product_order(self):
        spec = direct_product(symmetric(3), cyclic(2))
        assert build_group(spec).order == 12

    def test_affine_75(self):
        g = build_group(order75_witness())
        assert g.order == 75 and g.degree == 25

    def test_affine_rejects_singular(self):
        with pytest.raises(InputError):
            affine_semidirect(5, ((1, 2), (2, 4)))

    def test_affine_rejects_composite_modulus(self):
        with pytest.raises(InputError):
            affine_semidirect(6, ((0, 1), (1, 0)))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_affine_linear_order_matches_matrix_oracle(self, p):
        # one or two seeded random invertible matrices per set; at p = 7 the
        # sets reach all of GL2(7), beyond the default order bound
        rng = np.random.default_rng(p)
        checked = 0
        while checked < 40:
            mats = [tuple(map(tuple, rng.integers(0, p, (2, 2)).tolist())) for _ in range(rng.integers(1, 3))]
            if any((a * d - b * c) % p == 0 for (a, b), (c, d) in mats):
                continue
            name = affine_semidirect(p, *mats).name
            assert name == f"C{p}^2:L{linear_group_order_oracle(mats, p)}", mats
            checked += 1

    def test_294_candidate(self):
        g = build_group(order294_candidate())
        assert g.order == 294 and g.degree == 49

    @pytest.mark.parametrize("func,bad", [(dihedral, 2), (alternating, 2), (quaternion_generalized, 1), (cyclic, 0)])
    def test_parameter_ranges(self, func, bad):
        with pytest.raises(InputError):
            func(bad)


class TestSymmetricCensus:
    def test_counts(self):
        assert len(subgroups_of_symmetric(1)) == 1
        assert len(subgroups_of_symmetric(3)) == 6
        assert len(subgroups_of_symmetric(4)) == 30

    def test_extremes_present(self):
        import math

        specs = subgroups_of_symmetric(4)
        orders = sorted(build_group(s).order for s in specs)
        assert orders[0] == 1 and orders[-1] == math.factorial(4)
        assert orders.count(24) == 1 and orders.count(1) == 1

    def test_rejects_seven(self):
        with pytest.raises(InputError):
            subgroups_of_symmetric(7)

    def test_conjugate_subgroups_classify_identically(self):
        # conjugate copies inside S4 must agree on every predicate
        from formationlab.checkers import classify
        from formationlab.lattice import all_subgroups

        s4 = build_group(symmetric(4))
        lat = all_subgroups(s4)
        by_order_shape: dict = {}
        picked = []
        for i, order in enumerate(lat.orders.tolist()):
            if order in (2, 3, 4, 6, 8):
                by_order_shape.setdefault(order, []).append(i)
        for order, subs in by_order_shape.items():
            if len(subs) >= 2:
                picked.append((subs[0], subs[1]))
        assert picked
        for i, j in picked:
            a, b = lat.subgroups[i], lat.subgroups[j]
            ga = build_group(GroupSpec("a", 4, tuple(s4.perm(x) for x in lat.generators(i))))
            gb = build_group(GroupSpec("b", 4, tuple(s4.perm(x) for x in lat.generators(j))))
            if not conjugate_in(s4, a, b):
                continue
            ra, rb = classify(ga, "a"), classify(gb, "b")
            assert ra.predicates == rb.predicates


def conjugate_in(g, a, b) -> bool:
    """Whether the subgroups with masks a and b are conjugate in g."""
    if a.sum() != b.sum():
        return False
    for c in range(g.order):
        image = np.zeros(g.order, np.bool_)
        image[g.mul[g.mul[g.inv[c], np.flatnonzero(a)], c]] = True
        if (image == b).all():
            return True
    return False


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        spec = direct_product(symmetric(3), cyclic(4))
        path = tmp_path / "g.group"
        write_group(spec, path)
        loaded = load_group(path)
        assert loaded.name == spec.name
        assert loaded.degree == spec.degree
        assert loaded.generator_texts == spec.generator_texts

    def test_each_generator_line_is_parsed_once(self, tmp_path, monkeypatch):
        # the spec keeps the parsed images; building the group parses nothing
        import formationlab.corpus as corpus
        import formationlab.perms as perms

        calls = []
        parse = perms.parse_cycles

        def counted(text, degree):
            calls.append(text)
            return parse(text, degree)

        for module in (corpus, perms):
            monkeypatch.setattr(module, "parse_cycles", counted)
        path = tmp_path / "s4.group"
        path.write_text("degree 4\ngen (1 2)\ngen (4 3 2 1)\ngen (1 2)\n")
        table = build_group(load_group(path))
        assert calls == ["(1 2)", "(4 3 2 1)", "(1 2)"]
        assert table.order == 24

    def test_simple_file(self, tmp_path):
        path = tmp_path / "s3.group"
        path.write_text("# comment\ndegree 3\nname S3\ngen (1 2)\ngen (1 2 3)\n")
        spec = load_group(path)
        assert spec.degree == 3 and spec.name == "S3" and len(spec.generator_texts) == 2
        assert build_group(spec).order == 6

    def test_point_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.group"
        path.write_text("degree 5\ngen (1 2)\ngen (1 7)\n")
        with pytest.raises(InputError) as err:
            load_group(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("degree", ["\u0663", "1_0", "+3"])
    def test_degree_is_ascii_digits(self, tmp_path, degree):
        path = tmp_path / "bad.group"
        path.write_text(f"degree {degree}\ngen (1 2)\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"line 1: bad degree {degree!r}")):
            load_group(path)

    def test_degree_must_come_first(self, tmp_path):
        path = tmp_path / "bad.group"
        path.write_text("name X\ndegree 3\n")
        with pytest.raises(InputError) as err:
            load_group(path)
        assert "line 1" in str(err.value)

    def test_tab_in_name_names_line(self, tmp_path):
        # a tab would split the name across two columns of the TSV report
        path = tmp_path / "bad.group"
        path.write_text("degree 3\nname S3\tx\ngen (1 2)\n")
        with pytest.raises(InputError) as err:
            load_group(path)
        assert "line 2" in str(err.value)

    def test_tab_in_file_name_without_name_line(self, tmp_path):
        path = tmp_path / "S2\tx.group"
        path.write_text("degree 3\ngen (1 2)\n")
        with pytest.raises(InputError, match="file name"):
            load_group(path)
        path.write_text("degree 3\nname S2\ngen (1 2)\n")
        assert load_group(path).name == "S2"

    def test_unknown_keyword(self, tmp_path):
        path = tmp_path / "bad.group"
        path.write_text("degree 3\nfoo bar\n")
        with pytest.raises(InputError) as err:
            load_group(path)
        assert "line 2" in str(err.value)

    def test_repeated_degree_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.group"
        path.write_text("degree 3\ngen (1 2)\ndegree 4\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: line 3: repeated 'degree' line")):
            load_group(path)

    def test_repeated_name_line_names_file_and_line(self, tmp_path):
        # the second name would otherwise replace the first without a word
        path = tmp_path / "bad.group"
        path.write_text("degree 3\nname S3\n\nname C3\ngen (1 2 3)\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: line 4: repeated 'name' line")):
            load_group(path)

    def test_errors_name_the_file(self, tmp_path):
        # a corpus directory holds many files, so each error says which one
        path = tmp_path / "bad.group"
        path.write_text("degree 3\ngen (1 2)\ngen (1 4)\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: line 3: point 4 out of range 1..3")):
            load_group(path)
        path.write_text("# nothing\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: file contains no 'degree' line")):
            load_group(path)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "s3.group"
        path.write_text("degree 3\nname S3\ngen (1 2)\ngen (1 2 3)\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        spec = load_group(path)
        assert (spec.name, spec.degree, spec.generator_texts) == ("S3", 3, ("(1 2)", "(1 2 3)"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.group"
        path.write_text("# nothing\n")
        with pytest.raises(InputError):
            load_group(path)


class TestStandardCorpus:
    def test_deterministic(self):
        a = standard_corpus()
        b = standard_corpus()
        assert a == b

    def test_contains_expected_members(self):
        names = [s.name for s in standard_corpus()]
        for expected in ("C1", "C300", "Dih150", "S5", "A5", "Q300", "S3xS3", "C5^2:L3", "C7^2:S3"):
            assert expected in names
        assert sum(1 for n in names if n.startswith("S5-sub")) == 156
        assert sum(1 for n in names if n.startswith("S4-sub")) == 30

    def test_all_specs_parse(self):
        for spec in standard_corpus():
            for text in spec.generator_texts:
                from formationlab.perms import parse_cycles

                parse_cycles(text, spec.degree)
