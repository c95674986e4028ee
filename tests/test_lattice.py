from __future__ import annotations

import os

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
from formationlab.lattice import (
    Lattice,
    all_subgroups,
    chief_series,
    derived_index,
    frattini,
    minimal_normal_subgroups,
    normal_subgroups,
)
from formationlab.errors import InvariantError, ResourceLimitError, naming_group
from formationlab.perms import parse_cycles
from formationlab.predicates import _huppert
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
        assert sorted(lat.orders.tolist()) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]

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
        assert {mask_int(s) for s in lat.subgroups} == all_subgroups_oracle(g)

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
            assert np.array_equal(lat.matrix, ref.matrix), spec.name
            for i, s in enumerate(lat.subgroups):
                assert np.array_equal(subgroup_generated(g, lat.generators(i)), s), spec.name
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
            assert np.array_equal(lat.matrix, ref.matrix), g
            for i, s in enumerate(lat.subgroups):
                assert np.array_equal(subgroup_generated(g, lat.generators(i)), s), g
            assert np.array_equal(lat.class_ids(), ref.class_ids()), g

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM, which Linux keeps")
    def test_c2_6_enumeration_memory(self):
        # resident memory, read in a fresh process as in the C1999 build
        # test: each seed and member is held once, as its mask bytes (67.2
        # MB when seeds and members were held as arrays beside their keys,
        # with every closed seed kept in a set)
        import subprocess
        import sys
        from pathlib import Path

        import formationlab

        code = (
            "import functools\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
            "from formationlab.corpus import build_group, cyclic, direct_product\n"
            "from formationlab.lattice import all_subgroups\n"
            "g = build_group(functools.reduce(direct_product, [cyclic(2)] * 6))\n"
            "before = peak()\n"
            "lat = all_subgroups(g)\n"
            "print(peak() - before, len(lat))\n"
        )
        src = str(Path(formationlab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout.split()
        rise = int(out[0]) * 1024  # VmHWM is in KiB
        assert rise <= 50e6, f"peak RSS rose {rise / 1e6:.1f} MB"
        assert out[1] == "2825"

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
            keys = [(int(s.sum()), mask_int(s)) for s in lat.subgroups]
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
        # whatever order the members were given in, and the given masks
        # are not kept
        lat = all_subgroups(s5)
        given = lat.subgroups[::-1]
        rebuilt = Lattice(s5, s5.full_subgroup(), given)
        for built in (lat, rebuilt):
            assert built.subgroups is built.matrix and not built.matrix.flags.writeable
            assert np.shares_memory(built.top, built.matrix[-1])
        assert not np.shares_memory(rebuilt.matrix, given)

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

        def refuse(self, masks):
            raise AssertionError("Lattice.find was called")

        monkeypatch.setattr(Lattice, "find", refuse)
        for g, want in zip(groups, expected):
            got = classify(g, "g").to_dict()
            assert {**got, "times": None} == {**want, "times": None}, g

    def test_prime_order_counts_frobenius(self, s4, a4, q8):
        # number of subgroups of prime order p is congruent to 1 mod p
        for g in (s4, a4, q8):
            lat = all_subgroups(g)
            for p in prime_divisors(g.order):
                count = int((lat.orders == p).sum())
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
                assert gens == _greedy_generators(g.mul, s)[1], (g, i)
                assert np.array_equal(subgroup_generated(g, gens), s), (g, i)


class TestFind:
    def test_every_member_is_found_at_its_index(self, s4, s5):
        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60] + [s4, s5, build_group(symmetric(6))]
        for g in groups:
            lat = all_subgroups(g)
            assert np.array_equal(lat.find(lat.matrix), np.arange(len(lat))), g

    def test_agrees_with_a_row_scan(self, s4, a5, q8):
        # random masks, members, and members with one element moved, which
        # keep the member's order and so share its key's first 8 bytes
        rng = np.random.default_rng(30)
        for g in (s4, a5, q8):
            lat = all_subgroups(g)
            n = g.order
            masks = rng.random((300, n)) < rng.random((300, 1))
            moved = lat.matrix[rng.integers(len(lat), size=300)]
            for row in moved:
                if 1 < row.sum() < n:
                    row[rng.choice(np.flatnonzero(row[1:])) + 1] = False
                    row[rng.choice(np.flatnonzero(~row))] = True
            masks = np.vstack([masks, lat.matrix[rng.integers(len(lat), size=300)], moved])
            masks[:, 0] = True
            scan = [next((i for i, row in enumerate(lat.matrix) if np.array_equal(row, m)), -1) for m in masks]
            assert lat.find(masks).tolist() == scan, g
            assert min(scan) == -1 and max(scan) == len(lat) - 1, g


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
                sylows = set(ids[lat.orders == p_part(g.order, p)].tolist())
                assert len(sylows) == 1

    def test_restricted_lattice_classes(self, s4):
        # in A4 the three Klein-group involutions are one class, while in
        # S4 the transpositions are a second class of order-2 subgroups
        lat = all_subgroups(s4)
        a4_lat = restrict(lat, sub_of(s4, "(1 2 3)", "(2 3 4)"))
        _assert_greedy_generators(a4_lat)
        assert len(set(a4_lat.class_ids())) == 5


class TestNormalAndMaximal:
    def test_minimal_normals_a4(self, a4):
        lat = all_subgroups(a4)
        minimals = minimal_normal_subgroups(lat)
        assert lat.orders[minimals].tolist() == [4]

    def test_minimal_normals_simple_cyclic(self):
        c5 = group_of(5, "(1 2 3 4 5)")
        lat = all_subgroups(c5)
        assert lat.orders[minimal_normal_subgroups(lat)].tolist() == [5]

    def test_maximal_subgroups_s3(self, s3):
        lat = all_subgroups(s3)
        assert sorted(lat.orders[list(lat.maximal_indices())].tolist()) == [2, 2, 2, 3]

    def test_normal_subgroups_s4(self, s4):
        lat = all_subgroups(s4)
        assert sorted(lat.orders[normal_subgroups(lat)].tolist()) == [1, 4, 12, 24]

    def test_is_normal_examples(self, s3):
        lat = all_subgroups(s3)
        assert lat.normal_flags()[lat.find(sub_of(s3, "(1 2 3)")[None])[0]]
        assert not lat.normal_flags()[lat.find(sub_of(s3, "(1 2)")[None])[0]]


class TestBookkeeping:
    def test_matches_pairwise_oracle(self, s4, s5):
        # the reads of the containment matrix against pairwise subset tests,
        # on whole-group lattices and on the lattices of A4 in S4 and A5 in S5
        groups = [build_group(spec) for spec in standard_corpus()]
        lattices = [all_subgroups(g) for g in groups if g.order <= 60]
        assert len(lattices) == 306
        for g in (s4, s5):
            lat = all_subgroups(g)
            alternating = lat.matrix[lat.orders * 2 == g.order][0]
            lattices += [lat, restrict(lat, alternating)]
        for lat in lattices[-4:]:
            _assert_greedy_generators(lat)
        for lat in lattices:
            ref = lattice_bookkeeping_oracle(lat)
            name = lat.parent, lat.top.sum()
            assert lat.p_subnormal.tolist() == ref["p_subnormal"], name
            assert lat.maximal_indices() == ref["maximal"], name
            assert lat.normal_flags().tolist() == ref["normal"], name
            assert minimal_normal_subgroups(lat).tolist() == ref["minimal_normal"], name
            assert [(f.lower, f.upper) for f in chief_series(lat)] == ref["chief"], name
            assert [_huppert(lat, i) for i in range(len(lat))] == ref["supersoluble"], name


class TestFrattini:
    def test_s4_trivial(self, s4):
        lat = all_subgroups(s4)
        assert lat.orders[frattini(lat)] == 1

    def test_c4_has_order_two(self):
        c4 = group_of(4, "(1 2 3 4)")
        lat = all_subgroups(c4)
        assert lat.orders[frattini(lat)] == 2

    def test_prime_cyclic_trivial(self):
        c7 = group_of(7, "(1 2 3 4 5 6 7)")
        lat = all_subgroups(c7)
        assert lat.orders[frattini(lat)] == 1

    def test_q8_center(self, q8):
        lat = all_subgroups(q8)
        assert lat.orders[frattini(lat)] == 2

    def test_missing_intersection_is_an_invariant_error(self):
        # C2 x C4 = <(1 2), (3 4 5 6)> without <(3 5)(4 6)>, the intersection
        # of its three maximal subgroups, which all stay in the lattice
        g = group_of(6, "(1 2)", "(3 4 5 6)")
        phi = sub_of(g, "(3 5)(4 6)")
        whole = all_subgroups(g)
        assert np.array_equal(whole.matrix[frattini(whole)], phi)
        lat = Lattice(g, g.full_subgroup(), [s for s in whole.subgroups if not np.array_equal(s, phi)])
        assert len(lat.maximal_indices()) == 3
        with pytest.raises(InvariantError, match="^Frattini intersection is missing from the lattice$"):
            frattini(lat)

    def test_frattini_is_normal(self, a4, s4):
        for g in (a4, s4):
            lat = all_subgroups(g)
            assert lat.normal_flags()[frattini(lat)]


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
        lat = all_subgroups(s4)
        factors = chief_series(lat)
        assert [f.order for f in factors] == [4, 3, 2]
        assert factors[0].lower == 0
        assert factors[-1].upper == len(lat) - 1
        for f in factors:
            assert lat.orders[f.upper] == lat.orders[f.lower] * f.order
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
        reversed_lat = Lattice(g, g.full_subgroup(), lat.subgroups[::-1])
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
                got = lat.matrix[derived_index(lat, i)]
                assert np.array_equal(got, commutator_subgroup(g, h, h)), (g, i)

    def test_soluble_residual_is_the_last_derived_term(self):
        outcomes = set()
        for spec in standard_corpus():
            g = build_group(spec)
            lat = all_subgroups(g)
            residual = lat.matrix[_soluble_residual(lat)]
            assert np.array_equal(residual, derived_series(g)[-1]), spec.name
            outcomes.add(residual.sum() == 1)
        assert outcomes == {True, False}


def _assert_greedy_generators(lat: Lattice) -> None:
    """Each member's generators, read off a hand-built lattice by joins,
    are those the closing oracle keeps: the lattice holds every join, as
    ``Lattice`` requires of a member list."""
    for i, s in enumerate(lat.subgroups):
        assert lat.generators(i) == _greedy_generators(lat.parent.mul, s)[1], (lat.parent, i)


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
        _condition_x_impl(lat),
        _condition_b_subgroups_impl(lat),
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
    repeated member list is rejected too; and the lattice of a member.  A
    hand-built lattice must hold every join; where it does, each member's
    generators are the greedy ones."""

    def test_planted_non_subgroup_mask_is_rejected(self):
        # {e, r} with r of order 3 is not closed; it lies in <r>, and 2 does
        # not divide 3
        c6 = group_of(6, "(1 2 3 4 5 6)")
        r = c6.index_of(parse_cycles("(1 3 5)(2 4 6)", 6))
        planted = np.zeros(c6.order, np.bool_)
        planted[[0, r]] = True
        members = [*all_subgroups(c6).subgroups, planted]
        with pytest.raises(InvariantError, match="member of order 2 lies in a member of order 3"):
            Lattice(c6, c6.full_subgroup(), members)

    def test_lagrange_violation_without_prime_pair_is_rejected(self):
        # {0, 4, 8, 9} holds the order-3 subgroup {0, 4, 8} but is not closed;
        # no pair at prime index brackets it, so only Lagrange catches it
        c12 = build_group(cyclic(12))
        planted = np.zeros(c12.order, np.bool_)
        planted[[0, 4, 8, 9]] = True
        assert np.flatnonzero(subgroup_generated(c12, [4])).tolist() == [0, 4, 8]
        members = [*all_subgroups(c12).subgroups, planted]
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

    def test_missing_conjugate_is_an_invariant_error(self, s3):
        # S3's lattice with one of its three C2s: conjugation by (1 2 3)
        # carries that C2 to a member the lattice lacks
        members = [s for s in all_subgroups(s3).subgroups if s.sum() != 2] + [sub_of(s3, "(1 2)")]
        lat = Lattice(s3, s3.full_subgroup(), members)
        _assert_greedy_generators(lat)
        with pytest.raises(InvariantError, match="^group S3: a conjugate of a member is missing from the lattice$"):
            with naming_group("S3"):
                lat.class_ids()

    def test_missing_join_is_an_invariant_error(self):
        # C2^3's lattice without <x>, x its least element but the identity:
        # the members holding x are the three Klein groups through x and the
        # top, and the first of them does not lie in the other two
        g = group_of(6, "(1 2)", "(3 4)", "(5 6)")
        members = [s for s in all_subgroups(g).subgroups if not (s.sum() == 2 and s[1])]
        lat = Lattice(g, g.full_subgroup(), members)
        assert len(lat) == 15
        with pytest.raises(InvariantError, match="^a join is missing from the lattice$"):
            lat.generators(len(lat) - 1)

    def test_restrict_gives_complete_sublattice(self, s4):
        lat = all_subgroups(s4)
        a4_sub = sub_of(s4, "(1 2 3)", "(2 3 4)")
        sub_lat = restrict(lat, a4_sub)
        assert len(sub_lat.subgroups) == 10
        assert np.array_equal(sub_lat.top, a4_sub)
        _assert_greedy_generators(sub_lat)

    def test_restricted_lattices_give_the_greedy_generators(self, s4, a5, q8):
        # the lattice of every member, each member of it checked
        for g in (s4, a5, q8, build_group(dihedral(6))):
            lat = all_subgroups(g)
            for h in lat.subgroups:
                _assert_greedy_generators(restrict(lat, h))
