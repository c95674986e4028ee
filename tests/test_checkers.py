from __future__ import annotations

import pytest

from formationlab.checkers import (
    BrandlState,
    brandl_next,
    brandl_terminates,
    classify,
    condition_b_law,
    condition_b_subgroups,
    condition_lf_f,
    condition_x,
    is_p_subnormal,
    p_subnormal_chain,
)
from formationlab.corpus import build_group, cyclic, dihedral, order75_witness
from formationlab.errors import InputError
from formationlab.groups import subgroup_generated
from formationlab.lattice import all_subgroups
from formationlab.perms import format_cycles, identity, parse_cycles

from conftest import group_of
from oracles import p_subnormal_oracle


def sub_of(g, *texts):
    return subgroup_generated(g, [g.element_index[parse_cycles(t, g.degree)] for t in texts])


class TestWordIteration:
    def test_next_fixes_identity(self):
        y = parse_cycles("(1 2 3)", 3)
        state = BrandlState(identity(3), 5, y)
        assert brandl_next(state).value == identity(3)

    def test_next_on_commuting_value_is_negative_power(self):
        y = parse_cycles("(1 2 3)", 3)
        v = parse_cycles("(1 3 2)", 3)  # commutes with y
        nxt = brandl_next(BrandlState(v, 2, y))
        assert nxt.value == parse_cycles("(1 3 2)", 3) ** -2
        assert nxt.step == 3

    def test_hand_trace_in_s3(self):
        x, y = parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)
        trace = brandl_terminates(x, y, 6, group_order=6)
        assert trace.terminated and trace.k_final == 4
        assert [format_cycles(p) for p in trace.steps] == ["(1 3 2)", "(1 2 3)", "(1 2 3)", "()"]

    def test_equal_pair_terminates_immediately(self):
        x = parse_cycles("(1 2 3 4)", 4)
        trace = brandl_terminates(x, x, 4)
        assert trace.terminated and trace.k_final == 1

    def test_a4_pair_cycles(self):
        trace = brandl_terminates(parse_cycles("(1 2 3)", 4), parse_cycles("(1 2 4)", 4), 6, group_order=12)
        assert trace.cycle_detected and not trace.terminated
        assert trace.cycle_length and trace.cycle_length % 6 == 0
        assert not any(p.is_identity() for p in trace.steps)

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            brandl_terminates(identity(3), identity(4), 2)


class TestPSubnormal:
    def test_whole_group(self, a4):
        lat = all_subgroups(a4)
        assert is_p_subnormal(lat, a4.full_subgroup())
        chain, steps = p_subnormal_chain(lat, a4.full_subgroup())
        assert steps == [] and len(chain) == 1

    def test_order_two_in_a4_via_klein(self, a4):
        lat = all_subgroups(a4)
        h = sub_of(a4, "(1 2)(3 4)")
        assert is_p_subnormal(lat, h)
        chain, steps = p_subnormal_chain(lat, h)
        assert steps == [2, 3]
        assert [s.order for s in chain] == [2, 4, 12]

    def test_c3_in_a4_fails(self, a4):
        lat = all_subgroups(a4)
        assert not is_p_subnormal(lat, sub_of(a4, "(1 2 3)"))
        assert p_subnormal_chain(lat, sub_of(a4, "(1 2 3)")) is None

    @pytest.mark.parametrize("maker", [
        lambda: group_of(3, "(1 2)", "(1 2 3)"),
        lambda: group_of(4, "(1 2 3)", "(2 3 4)"),
        lambda: group_of(4, "(1 2)", "(1 2 3 4)"),
        lambda: build_group(dihedral(6)),
        lambda: build_group(order75_witness()),
        lambda: group_of(5, "(1 2)", "(1 2 3 4 5)"),  # order 120
    ])
    def test_bfs_matches_recursive_oracle(self, maker):
        g = maker()
        lat = all_subgroups(g)
        memo = {}
        for h in lat.subgroups:
            assert is_p_subnormal(lat, h) == p_subnormal_oracle(lat, h, memo)


class TestConditions:
    def test_condition_x(self, s3, a4):
        assert condition_x(s3, all_subgroups(s3))
        assert not condition_x(a4, all_subgroups(a4))

    def test_condition_x_on_supersoluble_groups(self):
        from formationlab.predicates import is_supersoluble

        for maker in (lambda: build_group(dihedral(5)), lambda: build_group(cyclic(12)),
                      lambda: group_of(3, "(1 2)", "(1 2 3)")):
            g = maker()
            lat = all_subgroups(g)
            assert is_supersoluble(g, lat)
            assert condition_x(g, lat)

    def test_condition_b_subgroups(self, s3, a4, s4):
        assert condition_b_subgroups(s3, all_subgroups(s3))
        assert not condition_b_subgroups(a4, all_subgroups(a4))
        assert not condition_b_subgroups(s4, all_subgroups(s4))

    def test_condition_b_law(self, s3, a4, klein, c6):
        assert condition_b_law(s3)
        assert condition_b_law(klein)
        assert condition_b_law(c6)
        assert not condition_b_law(a4)

    def test_condition_lf(self, s3, a4):
        assert condition_lf_f(s3, all_subgroups(s3))
        assert not condition_lf_f(a4, all_subgroups(a4))
        c5 = group_of(5, "(1 2 3 4 5)")
        assert condition_lf_f(c5, all_subgroups(c5))

    def test_trivial_group_satisfies_everything(self):
        report = classify(group_of(1), "trivial")
        assert all(report.predicates.values())

    def test_opposite_convention_agrees(self, s3, a4, s4, q8, klein):
        for g in (s3, a4, s4, q8, klein):
            assert condition_b_law(g) == condition_b_law(g, opposite_convention=True)


class TestFormationClosure:
    def test_two_minimal_normals_with_trivial_intersection(self):
        # if G/N1 and G/N2 both satisfy the chain condition and N1 meets N2
        # trivially, G embeds in the product of the quotients and must too
        from formationlab.corpus import direct_product, symmetric, cyclic
        from formationlab.groups import quotient_by
        from formationlab.lattice import minimal_normal_subgroups

        makers = [
            lambda: group_of(6, "(1 2 3 4 5 6)"),
            lambda: group_of(4, "(1 2)(3 4)", "(1 3)(2 4)"),
            lambda: build_group(direct_product(symmetric(3), symmetric(3))),
            lambda: build_group(direct_product(symmetric(3), cyclic(5))),
        ]
        exercised = 0
        for maker in makers:
            g = maker()
            lat = all_subgroups(g)
            minimals = minimal_normal_subgroups(lat)
            for i, n1 in enumerate(minimals):
                for n2 in minimals[i + 1 :]:
                    if n1.mask & n2.mask != 1:
                        continue
                    q1 = quotient_by(g, n1).group
                    q2 = quotient_by(g, n2).group
                    if condition_x(q1, all_subgroups(q1)) and condition_x(q2, all_subgroups(q2)):
                        exercised += 1
                        assert condition_x(g, all_subgroups(g))
        assert exercised >= 3


class TestClassify:
    def test_s3_all_true(self, s3):
        report = classify(s3, "S3")
        assert all(report.predicates.values())
        assert report.status == "ok"
        assert report.witnesses == {}

    def test_a4_all_false_with_witnesses(self, a4):
        report = classify(a4, "A4")
        assert not any(report.predicates.values())
        assert report.status == "ok"  # consistently false is consistent
        for key in ("supersoluble", "sylow_tower", "cond_x", "cond_b_subgroups", "cond_b_law", "cond_lf"):
            assert key in report.witnesses

    def test_order75_separates_d_from_x(self):
        g = build_group(order75_witness())
        report = classify(g, "C5^2:L3")
        assert report.predicates["sylow_tower"] is True
        assert report.predicates["cond_x"] is False
        assert report.status == "ok"

    def test_report_has_timings(self, s3):
        report = classify(s3, "S3")
        assert set(report.times) >= {"lattice", "cond_x", "cond_b_law"}

    def test_resource_error_names_group(self):
        import formationlab.checkers as checkers
        from formationlab.errors import ResourceLimitError

        big = group_of(5, "(1 2)", "(1 2 3 4 5)")
        with pytest.raises(ResourceLimitError) as err:
            checkers.classify(big, "S5", subgroup_bound=5)
        assert "S5" in str(err.value)

    def test_invariant_error_names_group(self, s3, monkeypatch):
        import formationlab.checkers as checkers
        from formationlab.errors import InvariantError

        def broken(lat):
            raise InvariantError("chief series is inconsistent")

        monkeypatch.setattr(checkers, "chief_series", broken)
        with pytest.raises(InvariantError, match="group S3: chief series is inconsistent"):
            classify(s3, "S3")
