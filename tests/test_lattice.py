from __future__ import annotations

import pytest

from formationlab.corpus import build_group, dihedral, quaternion_generalized, standard_corpus
from formationlab.groups import subgroup_generated
from formationlab.lattice import (
    all_subgroups,
    chief_series,
    frattini,
    is_normal,
    maximal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
    o_pi,
    o_pprime_p,
    p_reachable,
    sylow_subgroup,
)
from formationlab.errors import InputError, ResourceLimitError
from formationlab.perms import parse_cycles
from formationlab.primes import prime_divisors

from conftest import group_of
from oracles import all_subgroups_oracle, cyclic_extension_oracle


def sub_of(g, *texts):
    return subgroup_generated(g, [g.element_index[parse_cycles(t, g.degree)] for t in texts])


class TestEnumeration:
    def test_trivial_group(self):
        lat = all_subgroups(group_of(1))
        assert len(lat.subgroups) == 1

    def test_a4_has_ten(self, a4):
        lat = all_subgroups(a4)
        assert len(lat.subgroups) == 10
        assert sorted(s.order for s in lat.subgroups) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]

    def test_s3_has_six(self, s3):
        assert len(all_subgroups(s3).subgroups) == 6

    @pytest.mark.parametrize("maker", [lambda: group_of(3, "(1 2)", "(1 2 3)"),
                                       lambda: group_of(4, "(1 2 3)", "(2 3 4)"),
                                       lambda: group_of(4, "(1 2)", "(1 2 3 4)"),
                                       lambda: build_group(dihedral(6)),
                                       lambda: build_group(quaternion_generalized(3))])
    def test_matches_exhaustive_oracle(self, maker):
        g = maker()
        lat = all_subgroups(g)
        assert {s.mask for s in lat.subgroups} == all_subgroups_oracle(g)

    def test_matches_cyclic_extension_oracle(self):
        # every subgroup extended, not one per conjugacy class: same masks and
        # edges, and each member's generators regenerate its mask
        checked = 0
        for spec in standard_corpus():
            g = build_group(spec)
            if g.order > 60:
                continue
            checked += 1
            lat = all_subgroups(g)
            ref = cyclic_extension_oracle(g)
            assert [s.mask for s in lat.subgroups] == [s.mask for s in ref.subgroups], spec.name
            assert lat.up_edges == ref.up_edges, spec.name
            for s in lat.subgroups:
                assert subgroup_generated(g, s.generator_indices).mask == s.mask, spec.name
        assert checked > 300

    def test_subgroup_count_bound(self, s4):
        with pytest.raises(ResourceLimitError):
            all_subgroups(s4, subgroup_bound=10)

    def test_sorted_deterministically(self, s5):
        lat = all_subgroups(s5)
        keys = [(s.order, s.mask) for s in lat.subgroups]
        assert keys == sorted(keys)
        assert len(lat.subgroups) == 156

    def test_prime_order_counts_frobenius(self, s4, a4, q8):
        # number of subgroups of prime order p is congruent to 1 mod p
        for g in (s4, a4, q8):
            lat = all_subgroups(g)
            for p in prime_divisors(g.order):
                count = sum(1 for s in lat.subgroups if s.order == p)
                assert count % p == 1


class TestNormalAndMaximal:
    def test_minimal_normals_a4(self, a4):
        lat = all_subgroups(a4)
        minimals = minimal_normal_subgroups(lat)
        assert [s.order for s in minimals] == [4]

    def test_minimal_normals_simple_cyclic(self):
        c5 = group_of(5, "(1 2 3 4 5)")
        lat = all_subgroups(c5)
        assert [s.order for s in minimal_normal_subgroups(lat)] == [5]

    def test_maximal_subgroups_s3(self, s3):
        lat = all_subgroups(s3)
        assert sorted(s.order for s in maximal_subgroups(lat)) == [2, 2, 2, 3]

    def test_normal_subgroups_s4(self, s4):
        lat = all_subgroups(s4)
        assert sorted(s.order for s in normal_subgroups(lat)) == [1, 4, 12, 24]

    def test_is_normal_examples(self, s3):
        lat = all_subgroups(s3)
        assert is_normal(lat, sub_of(s3, "(1 2 3)"))
        assert not is_normal(lat, sub_of(s3, "(1 2)"))


class TestFrattini:
    def test_s4_trivial(self, s4):
        assert frattini(all_subgroups(s4)).order == 1

    def test_c4_has_order_two(self):
        c4 = group_of(4, "(1 2 3 4)")
        assert frattini(all_subgroups(c4)).order == 2

    def test_prime_cyclic_trivial(self):
        c7 = group_of(7, "(1 2 3 4 5 6 7)")
        assert frattini(all_subgroups(c7)).order == 1

    def test_q8_center(self, q8):
        assert frattini(all_subgroups(q8)).order == 2

    def test_frattini_is_normal(self, a4, s4):
        for g in (a4, s4):
            lat = all_subgroups(g)
            assert is_normal(lat, frattini(lat))


class TestSylowAndCores:
    def test_sylow_s3(self, s3):
        lat = all_subgroups(s3)
        assert sylow_subgroup(lat, 3).order == 3
        assert sylow_subgroup(lat, 2).order == 2

    def test_sylow_s4(self, s4):
        assert sylow_subgroup(all_subgroups(s4), 2).order == 8

    def test_sylow_missing_prime(self, c6):
        assert sylow_subgroup(all_subgroups(c6), 5).order == 1

    def test_sylow_rejects_composite(self, c6):
        with pytest.raises(InputError):
            sylow_subgroup(all_subgroups(c6), 4)

    def test_o_pi_a4(self, a4):
        lat = all_subgroups(a4)
        assert o_pi(lat, {2}).order == 4
        assert o_pi(lat, {3}).order == 1
        assert o_pi(lat, {2, 3}).order == 12

    def test_o_pi_contains_all_normal_pi_subgroups(self, s4):
        lat = all_subgroups(s4)
        core = o_pi(lat, {2})
        assert core.order == 4  # the Klein subgroup inside S4
        for s in normal_subgroups(lat):
            if set(prime_divisors(s.order)) <= {2}:
                assert core.contains(s)

    def test_o_pprime_p_a4(self, a4):
        lat = all_subgroups(a4)
        assert o_pprime_p(lat, 3).order == 12

    def test_o_pprime_p_two_step_oracle(self, s4, a4, s3):
        # independent route: quotient by O_{p'}, take the p-core there, pull back
        from formationlab.groups import quotient_by

        for g in (s4, a4, s3):
            lat = all_subgroups(g)
            for p in prime_divisors(g.order):
                direct = o_pprime_p(lat, p)
                others = frozenset(q for q in prime_divisors(g.order) if q != p)
                core = o_pi(lat, others)
                q = quotient_by(g, core)
                qlat = all_subgroups(q.group)
                qcore = o_pi(qlat, {p})
                pulled = 0
                for x in range(g.order):
                    if qcore.mask >> int(q.projection[x]) & 1:
                        pulled |= 1 << x
                assert pulled == direct.mask


class TestChiefSeries:
    def test_prime_cyclic(self):
        c5 = group_of(5, "(1 2 3 4 5)")
        factors = chief_series(all_subgroups(c5))
        assert [f.order for f in factors] == [5]

    def test_a4(self, a4):
        assert [f.order for f in chief_series(all_subgroups(a4))] == [4, 3]

    def test_s3(self, s3):
        assert [f.order for f in chief_series(all_subgroups(s3))] == [3, 2]

    def test_factors_chain_and_primes(self, s4):
        factors = chief_series(all_subgroups(s4))
        assert factors[0].lower.is_trivial()
        assert factors[-1].upper.is_whole()
        for a, b in zip(factors, factors[1:]):
            assert a.upper == b.lower
        for f in factors:
            assert f.primes == prime_divisors(f.order)

    def test_soluble_groups_have_prime_power_chief_factors(self, s4, q8, c6):
        from formationlab.predicates import is_soluble

        for maker in (lambda: build_group(dihedral(12)), lambda: build_group(quaternion_generalized(6))):
            g = maker()
            assert is_soluble(g)
            for f in chief_series(all_subgroups(g)):
                assert len(f.primes) == 1
        for g in (s4, q8, c6):
            assert is_soluble(g)
            for f in chief_series(all_subgroups(g)):
                assert len(f.primes) == 1

    def test_insoluble_chief_factor_not_prime_power(self, a5):
        factors = chief_series(all_subgroups(a5))
        assert [f.order for f in factors] == [60]
        assert len(factors[0].primes) == 3


class TestReachability:
    def test_whole_group_reaches_itself(self, a4):
        lat = all_subgroups(a4)
        assert p_reachable(lat, a4.full_subgroup())

    def test_c3_in_a4_stuck(self, a4):
        lat = all_subgroups(a4)
        assert not p_reachable(lat, sub_of(a4, "(1 2 3)"))

    def test_klein_in_a4_reaches(self, a4):
        lat = all_subgroups(a4)
        assert p_reachable(lat, sub_of(a4, "(1 2)(3 4)", "(1 3)(2 4)"))

    def test_edges_have_prime_index_and_subset(self, s4):
        lat = all_subgroups(s4)
        from formationlab.primes import is_prime

        for i, ups in enumerate(lat.up_edges):
            for j in ups:
                small, big = lat.subgroups[i], lat.subgroups[j]
                assert big.contains(small)
                assert is_prime(big.order // small.order)

    def test_restrict_gives_complete_sublattice(self, s4):
        lat = all_subgroups(s4)
        a4_sub = sub_of(s4, "(1 2 3)", "(2 3 4)")
        sub_lat = lat.restrict(a4_sub)
        assert len(sub_lat.subgroups) == 10
        assert sub_lat.top == a4_sub
