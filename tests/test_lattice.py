from __future__ import annotations

import pytest

from formationlab.corpus import (
    alternating,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    order75_witness,
    order294_candidate,
    quaternion_generalized,
    standard_corpus,
    symmetric,
)
import numpy as np

from formationlab.checkers import (
    _condition_b_subgroups_impl,
    _condition_x_impl,
    _soluble_residual,
    classify,
    condition_lf_f,
)
from formationlab.groups import Subgroup
from formationlab.lattice import (
    Lattice,
    all_subgroups,
    chief_series,
    derived_index,
    frattini,
    minimal_normal_subgroups,
    normal_subgroups,
)
from formationlab.errors import InputError, InvariantError, ResourceLimitError, naming_group
from formationlab.perms import parse_cycles
from formationlab.predicates import is_supersoluble
from formationlab.primes import p_part, prime_divisors

from conftest import group_of, sub_of, subgroup_generated
from oracles import (
    _greedy_generators,
    all_subgroups_oracle,
    commutator_subgroup,
    cyclic_extension_oracle,
    derived_series,
    is_soluble,
    lattice_bookkeeping_oracle,
    mask_int,
    restrict,
    sequential_extension_oracle,
    subgroup_classes_oracle,
)


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
        assert {mask_int(s.mask) for s in lat.subgroups} == all_subgroups_oracle(g)

    def test_matches_cyclic_extension_oracle(self):
        # every subgroup extended, not one per conjugacy class: same masks,
        # and each member's generators read off the lattice regenerate its mask
        checked = 0
        for spec in standard_corpus():
            g = build_group(spec)
            if g.order > 60:
                continue
            checked += 1
            lat = all_subgroups(g)
            ref = cyclic_extension_oracle(g)
            assert [mask_int(s.mask) for s in lat.subgroups] == [mask_int(s.mask) for s in ref.subgroups], spec.name
            for i, s in enumerate(lat.subgroups):
                assert mask_int(subgroup_generated(g, lat.generators(i)).mask) == mask_int(s.mask), spec.name
        assert checked > 300

    def test_matches_sequential_oracle(self, s5):
        # closing a wave of seeds per kernel call finds the same members and
        # class ids as closing one seed at a time, and each
        # member's generators regenerate its mask
        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60]
        assert len(groups) == 306
        groups += [s5, build_group(order75_witness()), build_group(order294_candidate())]
        for g in groups:
            lat = all_subgroups(g)
            ref, _ = sequential_extension_oracle(g)
            assert [mask_int(s.mask) for s in lat.subgroups] == [mask_int(s.mask) for s in ref.subgroups], g
            for i, s in enumerate(lat.subgroups):
                assert subgroup_generated(g, lat.generators(i)) == s, g
            assert np.array_equal(lat.class_ids(), ref.class_ids()), g

    def test_subgroup_count_bound(self, s4, monkeypatch):
        import formationlab.lattice as lattice

        monkeypatch.setattr(lattice, "DEFAULT_SUBGROUP_BOUND", 10)
        with pytest.raises(ResourceLimitError):
            all_subgroups(s4)

    def test_sorted_deterministically(self, s5):
        # orders 294, 150 and 1999 are no multiple of 8, and their masks
        # span several bytes, so a key that packs them wrongly misorders them
        groups = [s5, build_group(order294_candidate()), build_group(dihedral(75)), build_group(cyclic(1999))]
        for g, count in zip(groups, [156, 172, 130, 2]):
            lat = all_subgroups(g)
            keys = [(s.order, mask_int(s.mask)) for s in lat.subgroups]
            assert keys == sorted(keys), g
            assert len(lat.subgroups) == count, g

    def test_c1999_lattice_memory(self):
        # one byte key per member: the sort of C1999's two members traces
        # 0.04 MB (0.70 MB when it lexsorted over every packed-mask byte)
        import tracemalloc

        g = build_group(cyclic(1999))
        members = all_subgroups(g).subgroups
        tracemalloc.start()
        try:
            lat = Lattice(g, g.full_subgroup(), members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lat) == 2
        assert peak < 0.1e6, f"Lattice peaked at {peak / 1e6:.2f} MB"

    def test_members_are_views_of_the_matrix(self, s5):
        # each mask is held once: member i's mask is row i of the matrix,
        # whatever order the members were given in
        lat = all_subgroups(s5)
        rebuilt = Lattice(s5, s5.full_subgroup(), lat.subgroups[::-1])
        for built in (lat, rebuilt):
            assert all(np.shares_memory(s.mask, built.matrix[i]) for i, s in enumerate(built.subgroups))
            assert not any(s.mask.flags.writeable for s in built.subgroups)

    def test_s6_lattice_memory_held(self):
        # what the S6 lattice keeps: about 3.8 MB, of which the matrix is
        # 1.05 MB and the containment 2.12 MB (7.3 MB when every member kept
        # its own mask and the enumerator's batches stayed alive beside it)
        import tracemalloc

        g = build_group(symmetric(6))
        tracemalloc.start()
        try:
            lat = all_subgroups(g)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(lat) == 1455
        assert held <= 4.5e6, f"the S6 lattice holds {held / 1e6:.2f} MB"

    def test_classify_looks_up_no_member(self, s4, a5, monkeypatch):
        # the checkers pass members by index, never search the matrix for one
        groups = [s4, a5, build_group(order294_candidate())]
        expected = [classify(g, "g").to_dict() for g in groups]

        def refuse(self, s):
            raise AssertionError("Lattice.index_of was called")

        monkeypatch.setattr(Lattice, "index_of", refuse)
        for g, want in zip(groups, expected):
            got = classify(g, "g").to_dict()
            assert {**got, "times": None} == {**want, "times": None}, g

    def test_prime_order_counts_frobenius(self, s4, a4, q8):
        # number of subgroups of prime order p is congruent to 1 mod p
        for g in (s4, a4, q8):
            lat = all_subgroups(g)
            for p in prime_divisors(g.order):
                count = sum(1 for s in lat.subgroups if s.order == p)
                assert count % p == 1


class TestGenerators:
    def test_joins_give_the_greedy_generators(self, s4, s5):
        # read off the lattice by joins, with no closure, each member's
        # generators are those the closing oracle keeps, and generate it
        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60]
        assert len(groups) == 306
        groups += [s4, s5, build_group(symmetric(6)), build_group(order75_witness()), build_group(order294_candidate())]
        for g in groups:
            lat = all_subgroups(g)
            for i, s in enumerate(lat.subgroups):
                gens = lat.generators(i)
                assert gens == _greedy_generators(g.mul, s.mask)[1], (g, i)
                assert subgroup_generated(g, gens) == s, (g, i)


class TestConjugacyClasses:
    def test_class_ids_match_lazy_and_oracle(self, s5):
        # the enumerator's ids, ids recomputed for the same members, and
        # conjugation by every element all give the same partition
        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60] + [s5]
        assert len(groups) > 300
        for g in groups:
            lat = all_subgroups(g)
            ids = lat.class_ids()
            rebuilt = Lattice(g, g.full_subgroup(), lat.subgroups)
            assert np.array_equal(rebuilt.class_ids(), ids), g
            assert ids.tolist() == subgroup_classes_oracle(lat), g
            assert not (g.order % np.bincount(ids)[ids]).any(), g

    def test_sylow_subgroups_form_one_class(self, s4, s5):
        for g in (s4, s5):
            lat = all_subgroups(g)
            ids = lat.class_ids()
            for p in prime_divisors(g.order):
                sylows = {ids[i] for i, s in enumerate(lat.subgroups) if s.order == p_part(g.order, p)}
                assert len(sylows) == 1

    def test_restricted_lattice_classes(self, s4):
        # in A4 the three Klein-group involutions are one class, while in
        # S4 the transpositions are a second class of order-2 subgroups
        lat = all_subgroups(s4)
        a4_lat = restrict(lat, sub_of(s4, "(1 2 3)", "(2 3 4)"))
        assert len(set(a4_lat.class_ids())) == 5


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
        assert sorted(lat.orders[list(lat.maximal_indices())].tolist()) == [2, 2, 2, 3]

    def test_normal_subgroups_s4(self, s4):
        lat = all_subgroups(s4)
        assert sorted(s.order for s in normal_subgroups(lat)) == [1, 4, 12, 24]

    def test_is_normal_examples(self, s3):
        lat = all_subgroups(s3)
        assert lat.normal_flags()[lat.index_of(sub_of(s3, "(1 2 3)"))]
        assert not lat.normal_flags()[lat.index_of(sub_of(s3, "(1 2)"))]


class TestBookkeeping:
    def test_matches_pairwise_oracle(self, s4, s5):
        # the reads of the containment matrix against pairwise subset tests,
        # on whole-group lattices and on the lattices of A4 in S4 and A5 in S5
        groups = [build_group(spec) for spec in standard_corpus()]
        lattices = [all_subgroups(g) for g in groups if g.order <= 60]
        assert len(lattices) == 306
        for g in (s4, s5):
            lat = all_subgroups(g)
            alternating = next(s for s in lat.subgroups if s.order * 2 == g.order)
            lattices += [lat, restrict(lat, alternating)]
        for lat in lattices:
            ref = lattice_bookkeeping_oracle(lat)
            name = lat.parent, lat.top
            assert lat.p_subnormal.tolist() == ref["p_subnormal"], name
            assert lat.maximal_indices() == ref["maximal"], name
            assert lat.normal_flags().tolist() == ref["normal"], name
            assert [lat.index_of(s) for s in minimal_normal_subgroups(lat)] == ref["minimal_normal"], name
            chief = [(lat.index_of(f.lower), lat.index_of(f.upper)) for f in chief_series(lat)]
            assert chief == ref["chief"], name
            assert [is_supersoluble(h, lat) for h in lat.subgroups] == ref["supersoluble"], name


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
            assert lat.normal_flags()[lat.index_of(frattini(lat))]


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
        assert [f.order for f in factors] == [4, 3, 2]
        assert factors[0].lower.order == 1
        assert factors[-1].upper.order == s4.order
        for a, b in zip(factors, factors[1:]):
            assert a.upper == b.lower
        for f in factors:
            assert f.primes == prime_divisors(f.order)

    def test_soluble_groups_have_prime_power_chief_factors(self, s4, q8, c6):
        for maker in (lambda: build_group(dihedral(12)), lambda: build_group(quaternion_generalized(6))):
            g = maker()
            assert is_soluble(g)
            for f in chief_series(all_subgroups(g)):
                assert len(f.primes) == 1
        for g in (s4, q8, c6):
            assert is_soluble(g)
            for f in chief_series(all_subgroups(g)):
                assert len(f.primes) == 1

    @pytest.mark.parametrize("name", ["s3", "s4"])
    def test_member_order_does_not_change_the_series(self, name, request):
        # Lattice sorts the members it is given, so a lattice listing its
        # members largest first gives the same factors, and cond_lf, which
        # reads them, the same verdict
        g = request.getfixturevalue(name)
        lat = all_subgroups(g)
        reversed_lat = Lattice(g, g.full_subgroup(), reversed(lat.subgroups))
        orders = [f.order for f in chief_series(lat)]
        assert orders == {"s3": [3, 2], "s4": [4, 3, 2]}[name]
        assert [f.order for f in chief_series(reversed_lat)] == orders
        assert condition_lf_f(g, reversed_lat) == condition_lf_f(g, lat)

    def test_insoluble_chief_factor_not_prime_power(self, a5):
        factors = chief_series(all_subgroups(a5))
        assert [f.order for f in factors] == [60]
        assert len(factors[0].primes) == 3


class TestDerivedSubgroups:
    def test_derived_index_is_the_normal_closure(self, s4, s5):
        # [H, H] looked up among the members against the normal closure of
        # the commutators of H's generator pairs, for every member H
        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60]
        groups += [s4, s5, build_group(direct_product(alternating(5), cyclic(2)))]
        for g in groups:
            lat = all_subgroups(g)
            for i, h in enumerate(lat.subgroups):
                got = lat.subgroups[derived_index(lat, i)]
                assert got == commutator_subgroup(g, h, h), (g, i)

    def test_soluble_residual_is_the_last_derived_term(self):
        outcomes = set()
        for spec in standard_corpus():
            g = build_group(spec)
            lat = all_subgroups(g)
            residual = lat.subgroups[_soluble_residual(lat)]
            assert residual == derived_series(g)[-1], spec.name
            outcomes.add(residual.order == 1)
        assert outcomes == {True, False}


def _lattice_facts(g, lat: Lattice) -> tuple:
    """What the lattice and the checkers that read it report, for comparing
    two lattices of g."""
    return (
        lat.matrix.tobytes(),
        lat.class_ids().tolist(),
        [lat.generators(i) for i in range(len(lat))],
        lat.p_subnormal.tolist(),
        lat.normal_flags().tolist(),
        chief_series(lat),
        _condition_x_impl(g, lat),
        _condition_b_subgroups_impl(g, lat),
        condition_lf_f(g, lat),
    )


class TestMemberOrder:
    def test_members_given_in_any_order_give_the_same_lattice(self, s4, s5, a5):
        # Lattice orders its members and labels their classes itself, so a
        # lattice built from the members reversed or shuffled equals the
        # enumerated one, and so do the verdicts and witnesses read off it
        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60] + [s4, s5, a5]
        rng = np.random.default_rng(1)
        for g in groups:
            lat = all_subgroups(g)
            expected = _lattice_facts(g, lat)
            members = lat.subgroups
            for given in (members[::-1], [members[k] for k in rng.permutation(len(members))]):
                assert _lattice_facts(g, Lattice(g, g.full_subgroup(), given)) == expected, g


class TestConstruction:
    """What building a Lattice checks: a member that is no subgroup is
    rejected by the Lagrange check on every contained pair, and an empty or
    repeated member list is rejected too; and the lattice of a member."""

    def test_planted_non_subgroup_mask_is_rejected(self):
        # {e, r} with r of order 3 is not closed; it lies in <r>, and 2 does
        # not divide 3
        c6 = group_of(6, "(1 2 3 4 5 6)")
        r = c6.index_of(parse_cycles("(1 3 5)(2 4 6)", 6))
        planted = np.zeros(c6.order, np.bool_)
        planted[[0, r]] = True
        members = [*all_subgroups(c6).subgroups, Subgroup(c6, planted)]
        with pytest.raises(InvariantError, match="member of order 2 lies in a member of order 3"):
            Lattice(c6, c6.full_subgroup(), members)

    def test_lagrange_violation_without_prime_pair_is_rejected(self):
        # {0, 4, 8, 9} holds the order-3 subgroup {0, 4, 8} but is not closed;
        # no pair at prime index brackets it, so only Lagrange catches it
        c12 = build_group(cyclic(12))
        planted = np.zeros(c12.order, np.bool_)
        planted[[0, 4, 8, 9]] = True
        assert subgroup_generated(c12, [4]).indices().tolist() == [0, 4, 8]
        members = [*all_subgroups(c12).subgroups, Subgroup(c12, planted)]
        with pytest.raises(InvariantError, match="member of order 3 lies in a member of order 4"):
            Lattice(c12, c12.full_subgroup(), members)

    def test_empty_and_duplicate_members_are_rejected(self):
        # the sort key of an empty member list is a (0, w) byte array; a
        # repeated member is caught after the sort, by its mask bytes
        c6 = build_group(cyclic(6))
        with pytest.raises(InvariantError, match="must contain the trivial subgroup and the top"):
            Lattice(c6, c6.full_subgroup(), [])
        with pytest.raises(InvariantError, match="duplicate subgroup masks"):
            Lattice(c6, c6.full_subgroup(), [*all_subgroups(c6).subgroups, c6.full_subgroup()])

    def test_index_of_rejects_a_subgroup_of_another_group(self, s4):
        # C24's top has the mask of S4's top but belongs to another group
        c24 = build_group(cyclic(24))
        with pytest.raises(InputError, match="does not belong to this lattice"):
            all_subgroups(s4).index_of(c24.full_subgroup())

    def test_missing_conjugate_is_an_invariant_error(self, s3):
        # S3's lattice with one of its three C2s: conjugation by (1 2 3)
        # carries that C2 to a member the lattice lacks
        members = [s for s in all_subgroups(s3).subgroups if s.order != 2] + [sub_of(s3, "(1 2)")]
        lat = Lattice(s3, s3.full_subgroup(), members)
        with pytest.raises(InvariantError, match="^group S3: a conjugate of a member is missing from the lattice$"):
            with naming_group("S3"):
                lat.class_ids()

    def test_missing_join_is_an_invariant_error(self):
        # C2^3's lattice without <x>, x its least element but the identity:
        # the members holding x are the three Klein groups through x and the
        # top, and the first of them does not lie in the other two
        g = group_of(6, "(1 2)", "(3 4)", "(5 6)")
        members = [s for s in all_subgroups(g).subgroups if not (s.order == 2 and s.mask[1])]
        lat = Lattice(g, g.full_subgroup(), members)
        assert len(lat) == 15
        with pytest.raises(InvariantError, match="^a join is missing from the lattice$"):
            lat.generators(len(lat) - 1)

    def test_restrict_gives_complete_sublattice(self, s4):
        lat = all_subgroups(s4)
        a4_sub = sub_of(s4, "(1 2 3)", "(2 3 4)")
        sub_lat = restrict(lat, a4_sub)
        assert len(sub_lat.subgroups) == 10
        assert sub_lat.top == a4_sub
