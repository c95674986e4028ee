from __future__ import annotations

import pytest

from formationlab.corpus import build_group, cyclic, dihedral, direct_product, symmetric
from formationlab.errors import InputError
from formationlab.lattice import all_subgroups
from formationlab.predicates import (
    _huppert,
    has_sylow_tower_sst,
    is_cyclic,
    is_nilpotent,
    is_primary,
    is_supersoluble,
)

from conftest import group_of, sub_of
from oracles import in_f_p, is_soluble, is_supersoluble_chief, lower_central_series, quotient_by, restrict


class TestBasicPredicates:
    def test_primary_prime_powers(self):
        c8 = group_of(8, "(1 2 3 4 5 6 7 8)")
        assert is_primary(c8.order)
        assert not is_primary(group_of(6, "(1 2 3 4 5 6)").order)
        assert not is_primary(group_of(1).order)

    def test_cyclic(self, klein, c6):
        assert not is_cyclic(klein.elem_orders)
        assert is_cyclic(c6.elem_orders)
        assert is_cyclic(group_of(1).elem_orders)

    def test_cyclic_implies_exponent_equals_order(self, klein, c6, s3, s4, q8):
        # only one direction holds: S3 has exponent 6 = |S3| without being cyclic
        from formationlab.groups import exponent

        for g in (klein, c6, s3, s4, q8, group_of(1)):
            if is_cyclic(g.elem_orders):
                assert exponent(g) == g.order
        assert exponent(s3) == s3.order and not is_cyclic(s3.elem_orders)

    def test_soluble(self, s4, a5, s5):
        assert is_soluble(s4)
        assert not is_soluble(a5)
        assert not is_soluble(s5)

    def test_nilpotent(self, q8, s3, klein):
        assert is_nilpotent(q8.elem_orders)
        assert not is_nilpotent(s3.elem_orders)
        assert is_nilpotent(klein.elem_orders)

    def test_nilpotent_dual_algorithms_agree(self, s3, s4, a4, a5, q8, klein, c6):
        # every subgroup too: cond_b_subgroups tests subgroups of the group
        for g in (s3, s4, a4, a5, q8, klein, c6):
            for h in all_subgroups(g).subgroups:
                assert is_nilpotent(g.elem_orders[h]) == (lower_central_series(g, h)[-1].sum() == 1), h

    def test_implication_chain(self, s3, s4, a4, a5, q8, klein, c6):
        for g in (s3, s4, a4, a5, q8, klein, c6):
            lat = all_subgroups(g)
            cyc, ab, nil = is_cyclic(g.elem_orders), (g.mul == g.mul.T).all(), is_nilpotent(g.elem_orders)
            ss, tower, sol = is_supersoluble(g, lat), has_sylow_tower_sst(g), is_soluble(g)
            assert not cyc or ab
            assert not ab or nil
            assert not nil or ss
            assert not ss or tower
            assert not tower or sol


class TestSupersoluble:
    def test_s3(self, s3):
        assert is_supersoluble(s3, all_subgroups(s3))

    def test_a4_fails(self, a4):
        assert not is_supersoluble(a4, all_subgroups(a4))

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 30])
    def test_cyclic_always(self, n):
        g = build_group(cyclic(n))
        assert is_supersoluble(g, all_subgroups(g))

    def test_dual_algorithms_agree(self, s3, s4, a4, a5, q8, klein):
        # every member judged on the whole group's lattice, against the
        # chief-factor test on its own lattice
        groups = [s3, s4, a4, a5, q8, klein]
        groups += [build_group(dihedral(n)) for n in (3, 4, 6, 10)]
        groups += [build_group(direct_product(symmetric(3), cyclic(3)))]
        for g in groups:
            lat = all_subgroups(g)
            for i, h in enumerate(lat.subgroups):
                assert _huppert(lat, i) == is_supersoluble_chief(restrict(lat, h))

    @pytest.mark.slow
    def test_dual_algorithms_agree_on_s6_subgroups(self):
        g = build_group(symmetric(6))
        lat = all_subgroups(g)
        assert len(lat) == 1455
        verdicts = set()
        for i, h in enumerate(lat.subgroups):
            ok = _huppert(lat, i)
            assert ok == is_supersoluble_chief(restrict(lat, h))
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_inherited_by_subgroups_and_quotients(self, s3):
        from formationlab.lattice import normal_subgroups

        g = build_group(dihedral(6))
        lat = all_subgroups(g)
        assert is_supersoluble(g, lat)
        for h in lat.subgroups:
            sub_lat = restrict(lat, h)
            assert _huppert(sub_lat, len(sub_lat) - 1)
        for n in normal_subgroups(lat):
            q = quotient_by(g, lat.matrix[n]).group
            assert is_supersoluble(q, all_subgroups(q))

    def test_wrong_lattice_rejected(self, s3, s4):
        with pytest.raises(InputError):
            is_supersoluble(s3, all_subgroups(s4))
        twin = group_of(3, "(1 2)", "(1 2 3)")  # equal to s3, another table
        with pytest.raises(InputError):
            is_supersoluble(s3, all_subgroups(twin))
        a4_lat = restrict(all_subgroups(s4), sub_of(s4, "(1 2 3)", "(2 3 4)"))
        with pytest.raises(InputError):
            is_supersoluble(s4, a4_lat)  # the lattice of a subgroup of S4, not of S4

    def test_supergroup_lattice_accepted(self, s4):
        # a member judged on the lattice of a group that contains it
        lat = all_subgroups(s4)

        def member(*cycle_texts):
            return int(lat.find(sub_of(s4, *cycle_texts)[None])[0])

        assert _huppert(lat, member("(1 2)", "(1 2 3)"))
        assert _huppert(lat, member("(1 2 3 4)", "(1 3)"))
        assert not _huppert(lat, member("(1 2 3)", "(2 3 4)"))


class TestSylowTower:
    def test_s3(self, s3):
        assert has_sylow_tower_sst(s3)

    def test_s4_fails(self, s4):
        assert not has_sylow_tower_sst(s4)

    def test_nilpotent_groups_pass(self, q8, klein, c6):
        for g in (q8, klein, c6):
            assert has_sylow_tower_sst(g)


class TestFpClass:
    def test_s3_at_7(self, s3):
        assert in_f_p(s3, 7)  # soluble, exponent 6 divides 6

    def test_s3_at_5(self, s3):
        assert not in_f_p(s3, 5)  # 6 does not divide 4

    def test_trivial_group_everywhere(self):
        triv = group_of(1)
        for p in (2, 3, 5, 7):
            assert in_f_p(triv, p)

    def test_requires_prime(self, s3):
        with pytest.raises(InputError):
            in_f_p(s3, 6)

    def test_monotone_under_divisibility(self, s3, klein, c6, q8):
        # if exponent divides p-1 and (p-1) | (q-1), it divides q-1 too
        primes = (2, 3, 5, 7, 13)
        for g in (s3, klein, c6, q8):
            for p in primes:
                for q in primes:
                    if (q - 1) % (p - 1) == 0 and in_f_p(g, p):
                        assert in_f_p(g, q)

    def test_insoluble_never(self, a5):
        for p in (2, 3, 5, 61):
            assert not in_f_p(a5, p)
