from __future__ import annotations

import os

import numpy as np
import pytest

from formationlab.errors import InputError, InvariantError, ResourceLimitError
from formationlab.groups import (
    GroupTable,
    Subgroup,
    _centralizer_mod_mask,
    close_generators,
    exponent,
)
from formationlab.lattice import all_subgroups, derived_index
from formationlab.perms import parse_cycles

from conftest import group_of, sub_of, subgroup_generated, trivial_subgroup
from oracles import (
    _greedy_generators,
    cayley_oracle,
    commutator_subgroup,
    commutator_values_oracle,
    cyclic_subgroups_oracle,
    derived_series,
    identity,
    inverse,
    lower_central_series,
    mask_int,
    order_of,
    quotient_by,
    quotient_oracle,
    subgroup_from_mask,
)


class TestCloseGenerators:
    def test_s3(self, s3):
        assert s3.order == 6

    def test_empty_generators(self):
        g = close_generators(4, [])
        assert g.order == 1 and g.gen_indices == () and g.mul.tolist() == [[0]]
        assert g.index_of(g.perm(0)) == 0

    def test_s5(self, s5):
        assert s5.order == 120

    def test_identity_is_index_zero(self, s4):
        assert s4.perm(0) == identity(4)

    def test_table_is_closed_and_latin(self, s4):
        n = s4.order
        assert sorted(set(s4.mul.ravel().tolist())) == list(range(n))
        for i in range(n):
            assert len(set(s4.mul[i].tolist())) == n
            assert len(set(s4.mul[:, i].tolist())) == n

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            close_generators(4, [parse_cycles("(1 2 3)", 3)])

    @pytest.mark.parametrize(
        "gen, message",
        [
            ((2, 3, 1), "generator degree 3 != group degree 4"),
            ((2, 2, 3, 4), "not a permutation of 1..4"),  # repeated image
            ((2, 3, 4, 5), "not a permutation of 1..4"),  # image above the range
            ((0, 1, 2, 3), "not a permutation of 1..4"),  # image below the range
        ],
    )
    def test_rejects_generator_that_is_no_permutation(self, gen, message):
        with pytest.raises(InputError, match=message):
            close_generators(4, [(2, 1, 3, 4), gen])

    def test_bad_degree(self):
        with pytest.raises(InputError):
            close_generators(0, [])

    def test_order_bound(self):
        # |S5| = 120: the row buffer may reach the bound but never pass it
        gens = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
        assert close_generators(5, gens, order_bound=120).order == 120
        with pytest.raises(ResourceLimitError) as err:
            close_generators(5, gens, order_bound=119)
        assert "119" in str(err.value)

    @pytest.mark.parametrize("lost, message", [("product", "no element"), ("generator", "not reached")])
    def test_lost_lookup_raises(self, monkeypatch, lost, message):
        # a product missing from a generator's Cayley row must not be written
        # as row -1; a generator looked up as the identity leaves rows unbuilt
        import formationlab.groups as groups

        lookup = groups._lookup

        def lossy(keys, order, block):
            found = lookup(keys, order, block)
            if (len(block) == len(keys)) == (lost == "product"):  # a Cayley row, or the generators
                found[-1] = -1 if lost == "product" else 0
            return found

        monkeypatch.setattr(groups, "_lookup", lossy)
        with pytest.raises(InvariantError, match=message):
            group_of(3, "(1 2)", "(1 2 3)")

    def test_determinism_bit_identical(self):
        a = group_of(4, "(1 2)", "(1 2 3 4)")
        b = group_of(4, "(1 2)", "(1 2 3 4)")
        assert [a.perm(i) for i in range(a.order)] == [b.perm(i) for i in range(b.order)]
        assert np.array_equal(a.mul, b.mul)

    def test_lagrange_on_element_orders(self, s4):
        assert all(s4.order % int(o) == 0 for o in s4.elem_orders)


def assert_matches_cayley_oracle(g):
    mul, inv, orders = cayley_oracle(g)
    assert np.array_equal(g.mul, mul)
    assert np.array_equal(g.inv, inv)
    assert np.array_equal(g.elem_orders, orders)


class TestCayleyTable:
    @pytest.mark.parametrize(
        "degree, gens",
        [
            (3, ["(1 2)", "(1 2 3)"]),  # S3
            (4, ["(1 2)", "(1 2 3 4)"]),  # S4
            (5, ["(1 2 3)", "(1 2 3 4 5)"]),  # A5
            (4, []),  # trivial group
            (4, ["()", "(1 2 3)"]),  # identity generator
            (4, ["(1 2 3 4)", "(1 3)", "(1 2 3 4)"]),  # repeated generator
            (7, ["(1 2 3)", "(2 3)"]),  # degree larger than the support
        ],
    )
    def test_matches_oracle(self, degree, gens):
        assert_matches_cayley_oracle(group_of(degree, *gens))

    def test_q8_and_order75_witness_match_oracle(self, q8):
        from formationlab.corpus import build_group, order75_witness

        assert_matches_cayley_oracle(q8)
        assert_matches_cayley_oracle(build_group(order75_witness()))

    def test_random_generators_match_oracle(self):
        from hypothesis import given, settings, strategies as st

        gens_at_degree = st.integers(1, 6).flatmap(
            lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(1, d + 1)), max_size=3))
        )

        @settings(max_examples=30, deadline=None)
        @given(gens_at_degree)
        def check(case):
            degree, gens = case
            assert_matches_cayley_oracle(close_generators(degree, gens))

        check()


class TestElementRows:
    def test_index_of_inverts_perm(self, s4, q8):
        from formationlab.corpus import build_group, cyclic, order75_witness

        for g in (s4, q8, build_group(order75_witness()), build_group(cyclic(1999))):
            assert g.images.dtype == g.keys.dtype == np.int16
            assert [g.index_of(g.perm(i)) for i in range(g.order)] == list(range(g.order))

    @pytest.mark.parametrize(
        "degree, gens",
        [(4, []), (1, []), (4, ["()"]), (4, ["()", "(1 2 3)"]), (4, ["(1 2 3 4)", "(1 3)", "(1 2 3 4)"])],
    )
    def test_trivial_identity_and_repeated_generators(self, degree, gens):
        g = group_of(degree, *gens)
        rows = np.array([g.perm(i) for i in range(g.order)]) - 1
        assert g.perm(0) == identity(degree)
        assert len({tuple(r) for r in rows.tolist()}) == g.order
        assert g.indices_of(rows).tolist() == list(range(g.order))
        assert [g.perm(i) for i in g.gen_indices] == [parse_cycles(t, degree) for t in gens]
        if g.order == 1 and degree > 1:
            assert g.indices_of(np.array([[1, 0, *range(2, degree)]])).tolist() == [-1]

    def test_census_members_reject_every_other_element(self, s4):
        # a base point test alone would accept an element that agrees with
        # a member on the base; the whole row must be checked
        from formationlab.corpus import build_group, subgroups_of_symmetric

        every = [s4.perm(i) for i in range(s4.order)]
        rows = np.array(every) - 1
        for spec in subgroups_of_symmetric(4):
            h = build_group(spec)
            members = {h.perm(i) for i in range(h.order)}
            found = h.indices_of(rows)
            for p, index in zip(every, found.tolist()):
                assert (index >= 0) == (p in members), (spec.name, p)
                if p in members:
                    assert h.perm(index) == p
                else:
                    with pytest.raises(InputError, match="not a group element"):
                        h.index_of(p)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM, which Linux keeps")
    def test_c1999_build_memory(self):
        # resident memory, read in a fresh process: the build's peak rises by
        # the 8 MB table (int16), not by a second copy of the 8 MB of rows
        # beside it (13.4 MB when the rows were bytes keys first).  VmHWM is
        # the process's own peak; ru_maxrss would start at the peak of the
        # process that started it, which Linux carries across exec.
        import subprocess
        import sys
        from pathlib import Path

        import formationlab

        code = (
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
            "from formationlab.corpus import build_group, cyclic\n"
            "spec = cyclic(1999)\n"
            "before = peak()\n"
            "g = build_group(spec)\n"
            "print(peak() - before, g.mul.dtype, g.inv.dtype)\n"
        )
        src = str(Path(formationlab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout.split()
        rise = int(out[0]) * 1024  # VmHWM is in KiB
        assert rise <= 11e6, f"peak RSS rose {rise / 1e6:.1f} MB"
        assert out[1:] == ["int16", "int16"]

    def test_c1999_closure_grows_rows_in_place(self):
        # the row buffer grows by a realloc, so the old and the new buffer
        # are never both alive: the traced peak stays near the final rows
        # (12.2 MB for 8.0 MB of rows when each doubling copied into a new
        # buffer).  tracemalloc counts numpy's buffers and the row index, so
        # the bound is deterministic, unlike the VmHWM test above.
        import tracemalloc

        from formationlab.groups import _close_rows

        gen = np.roll(np.arange(1999, dtype=np.int16), -1)[None, :]
        tracemalloc.start()
        try:
            rows = _close_rows(1999, gen, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (1999, 1999)
        assert peak <= 1.05 * rows.nbytes, f"closure peaked at {peak / 1e6:.2f} MB"

    def test_closure_builds_under_a_profiler(self):
        # a profile hook holds a reference to rows.resize's bound method, so
        # a resize that checked the buffer's refcount would raise; C300's
        # 180 KB of rows outgrow the 64 KB first buffer
        import cProfile
        import sys

        from formationlab.corpus import build_group, cyclic

        want = build_group(cyclic(300)).mul
        previous = sys.getprofile()
        sys.setprofile(lambda frame, event, arg: None)
        try:
            hooked = build_group(cyclic(300)).mul
        finally:
            sys.setprofile(previous)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            profiled = build_group(cyclic(300)).mul
        finally:
            profiler.disable()
        assert np.array_equal(hooked, want) and np.array_equal(profiled, want)

    def test_lookup_marks_only_non_members(self, a4):
        members = np.array([a4.perm(i) for i in (5, 0, 11)]) - 1
        transposition = np.array([[1, 0, 2, 3]])
        block = np.concatenate([members[:2], transposition, members[2:]])
        assert a4.indices_of(block).tolist() == [5, 0, -1, 11]

    def test_index_of_rejects_wrong_degree(self, s3):
        with pytest.raises(InputError, match="degree 4"):
            s3.index_of(parse_cycles("(1 2)", 4))

    @pytest.mark.parametrize("images", [(1,), (2, 1)])
    def test_index_of_rejects_tuple_of_wrong_degree(self, s3, images):
        with pytest.raises(InputError, match=f"has degree {len(images)}, not the group's 3"):
            s3.index_of(images)

    def test_index_of_rejects_non_member(self, a4):
        with pytest.raises(InputError):
            a4.index_of(parse_cycles("(1 2)", 4))

    def test_orders_and_inverses_match_permutations(self):
        # |C210 x S3| = 1260 has 36 divisors; 1999 is prime
        from formationlab.corpus import build_group, cyclic, direct_product, symmetric

        for g in (build_group(direct_product(cyclic(210), symmetric(3))), build_group(cyclic(1999))):
            for i in range(g.order):
                p = g.perm(i)
                assert g.elem_orders[i] == order_of(p)
                assert g.perm(g.inv[i]) == inverse(p)


class TestCyclicWalk:
    def test_element_never_reaching_identity_raises(self):
        # C3 with 1 * 1 = 1: element 1's powers stay at 1, so the walk
        # must stop at |G| steps instead of looping
        c3 = group_of(3, "(1 2 3)")
        mul = c3.mul.copy()
        mul[1, 1] = 1
        with pytest.raises(InvariantError, match="never reach the identity"):
            GroupTable((c3.orbit, c3.images, c3.transversal, c3.base, c3.keys, c3.key_order), mul, c3.gen_indices)

    def test_cyclic_subgroups_match_permutation_oracle(self, s4, s5):
        from formationlab.corpus import build_group, cyclic, standard_corpus

        groups = [build_group(spec) for spec in standard_corpus()]
        groups = [g for g in groups if g.order <= 60] + [s4, s5, build_group(cyclic(1999))]
        for g in groups:
            cyclic_of, least = cyclic_subgroups_oracle(g)
            subs = [frozenset(np.flatnonzero(arr).tolist()) for arr, _ in g.cyclics]
            assert dict(zip(subs, [gen for _, gen in g.cyclics])) == least
            assert len(subs) == len(least)
            assert g.cyclic_id[0] == -1
            assert [subs[c] for c in g.cyclic_id[1:]] == [cyclic_of[x] for x in range(1, g.order)]


class TestSubgroupGenerated:
    def test_trivial_seed(self, s4):
        assert subgroup_generated(s4, [0]).order == 1

    def test_cyclic_in_s3(self, s3):
        assert sub_of(s3, "(1 2 3)").order == 3

    def test_klein_in_a4(self, a4):
        sub = sub_of(a4, "(1 2)(3 4)", "(1 3)(2 4)")
        assert sub.order == 4

    def test_generators_regenerate(self, a4):
        sub = sub_of(a4, "(1 2)(3 4)", "(1 3)(2 4)")
        again = subgroup_generated(a4, _greedy_generators(a4.mul, sub.mask)[1])
        assert again == sub

    def test_from_mask_rejects_non_closed(self, s3):
        bad = np.zeros(s3.order, np.bool_)
        bad[[0, s3.index_of(parse_cycles("(1 2 3)", 3))]] = True
        with pytest.raises(InputError):
            subgroup_from_mask(s3, bad)

    def test_closure_matches_pure_python_oracle(self, s4):
        from oracles import py_close
        from hypothesis import given, strategies as st

        mul_rows = [[int(v) for v in row] for row in s4.mul]

        @given(st.sets(st.integers(0, 23), min_size=1, max_size=3))
        def check(seed):
            sub = subgroup_generated(s4, seed)
            expected = py_close(mul_rows, sum(1 << i for i in seed))
            assert mask_int(sub.mask) == expected

        check()


class TestQuotient:
    def test_s3_by_c3(self, s3):
        q = quotient_by(s3, sub_of(s3, "(1 2 3)"))
        assert q.group.order == 2

    def test_a4_by_klein_matches_coset_oracle(self, a4):
        klein = sub_of(a4, "(1 2)(3 4)", "(1 3)(2 4)")
        q = quotient_by(a4, klein)
        count, cosets = quotient_oracle(a4, mask_int(klein.mask))
        assert q.group.order == count == 3
        # the projection respects the oracle's coset partition
        for coset in cosets:
            assert len({int(q.projection[x]) for x in coset}) == 1

    def test_quotient_by_trivial_preserves_order(self, s4):
        q = quotient_by(s4, trivial_subgroup(s4))
        assert q.group.order == s4.order

    def test_projection_is_homomorphism_everywhere(self, a4):
        klein = sub_of(a4, "(1 2)(3 4)", "(1 3)(2 4)")
        q = quotient_by(a4, klein)
        for i in range(a4.order):
            for j in range(a4.order):
                assert q.projection[a4.mul[i, j]] == q.group.mul[q.projection[i], q.projection[j]]

    def test_rejects_non_normal(self, s3):
        with pytest.raises(InputError):
            quotient_by(s3, sub_of(s3, "(1 2)"))

    def test_index_times_order(self, s4):
        a4_sub = sub_of(s4, "(1 2 3)", "(2 3 4)")
        q = quotient_by(s4, a4_sub)
        assert q.group.order * a4_sub.order == s4.order


def _lattice_derived(g: GroupTable) -> Subgroup:
    """G' read off G's lattice, as the package reads it."""
    lat = all_subgroups(g)
    return lat.subgroups[derived_index(lat, len(lat) - 1)]


class TestCommutatorSubgroup:
    def test_abelian_derived_trivial(self, c6):
        full = c6.full_subgroup()
        assert commutator_subgroup(c6, full, full).order == 1
        assert _lattice_derived(c6).order == 1

    def test_s3_derived(self, s3):
        full = s3.full_subgroup()
        got = commutator_subgroup(s3, full, full)
        assert got.order == 3
        assert mask_int(got.mask) == commutator_values_oracle(s3, mask_int(full.mask), mask_int(full.mask))
        assert got == _lattice_derived(s3)

    def test_a4_derived_is_klein(self, a4):
        full = a4.full_subgroup()
        got = commutator_subgroup(a4, full, full)
        assert got.order == 4
        assert mask_int(got.mask) == commutator_values_oracle(a4, mask_int(full.mask), mask_int(full.mask))
        assert got == _lattice_derived(a4)

    @pytest.mark.parametrize("name", ["s4", "a5", "q8"])
    def test_lattice_pairs_match_oracle(self, name, request):
        # (H, H) and (H, G), and every pair (H, K) whose join is larger than
        # both, where [H, K] needs conjugates by the generators of H and K
        g = request.getfixturevalue(name)
        subs = all_subgroups(g).subgroups
        pairs = [(h, h) for h in subs] + [(h, g.full_subgroup()) for h in subs]
        for i, h in enumerate(subs):
            for k in subs[i + 1:]:
                join = subgroup_generated(g, np.flatnonzero(h.mask | k.mask))
                if join.order > max(h.order, k.order):
                    pairs.append((h, k))
        for a, b in pairs:
            assert mask_int(commutator_subgroup(g, a, b).mask) == commutator_values_oracle(
                g, mask_int(a.mask), mask_int(b.mask)
            )

    def test_random_generators_match_oracle(self):
        from hypothesis import given, settings, strategies as st

        gens_at_degree = st.integers(1, 6).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(st.permutations(range(1, d + 1)), max_size=2),
                st.lists(st.permutations(range(1, d + 1)), max_size=2),
            )
        )

        @settings(max_examples=20, deadline=None)
        @given(gens_at_degree)
        def check(case):
            degree, a_gens, b_gens = case
            g = close_generators(degree, a_gens + b_gens)
            a, b = (
                subgroup_generated(g, [g.index_of(p) for p in gens])
                for gens in (a_gens, b_gens)
            )
            assert mask_int(commutator_subgroup(g, a, b).mask) == commutator_values_oracle(
                g, mask_int(a.mask), mask_int(b.mask)
            )

        check()

    def test_derived_series_s4(self, s4):
        assert [s.order for s in derived_series(s4)] == [24, 12, 4, 1]

    def test_derived_series_c6(self, c6):
        assert [s.order for s in derived_series(c6)] == [6, 1]

    def test_lower_central_series_s3(self, s3):
        assert [s.order for s in lower_central_series(s3)] == [6, 3, 3]

    def test_series_terms_normal_in_group(self, s4):
        from formationlab.groups import is_normal_mask

        for term in derived_series(s4):
            assert is_normal_mask(s4, term.mask, s4.gen_indices)


class TestExponentCentralizer:
    def test_exponent_s3(self, s3):
        assert exponent(s3) == 6

    def test_exponent_klein(self, klein):
        assert exponent(klein) == 2

    def test_exponent_q8(self, q8):
        assert exponent(q8) == 4

    def test_exponent_divides_order(self, s4, a5, q8):
        for g in (s4, a5, q8):
            assert g.order % exponent(g) == 0

    def test_centralizer_of_trivial(self, s4):
        assert _centralizer_mod_mask(s4, trivial_subgroup(s4), trivial_subgroup(s4), ()).all()

    def test_centralizer_of_klein_in_a4(self, a4):
        klein = sub_of(a4, "(1 2)(3 4)", "(1 3)(2 4)")
        got = _centralizer_mod_mask(a4, klein, trivial_subgroup(a4), _greedy_generators(a4.mul, klein.mask)[1])
        assert (got == klein.mask).all()

    def test_centralizer_mod_trivial_is_plain_centralizer(self, s3):
        c3 = sub_of(s3, "(1 2 3)")
        got = _centralizer_mod_mask(s3, c3, trivial_subgroup(s3), _greedy_generators(s3.mul, c3.mask)[1])
        assert (got == c3.mask).all()

    def test_centralizer_mod_precondition(self, s3):
        c2 = sub_of(s3, "(1 2)")
        c3 = sub_of(s3, "(1 2 3)")
        with pytest.raises(InputError):
            _centralizer_mod_mask(s3, c2, c3, _greedy_generators(s3.mul, c2.mask)[1])  # K not inside H
        with pytest.raises(InputError):
            _centralizer_mod_mask(s3, s3.full_subgroup(), c2, s3.gen_indices)  # K not normal

    def test_centralizer_brute_force(self, s4):
        c4 = sub_of(s4, "(1 2 3 4)")
        got = _centralizer_mod_mask(s4, c4, trivial_subgroup(s4), _greedy_generators(s4.mul, c4.mask)[1])
        members = c4.indices()
        expected = 0
        for x in range(s4.order):
            if all(s4.mul[x, m] == s4.mul[m, x] for m in members):
                expected |= 1 << x
        assert mask_int(got) == expected


class TestSubgroupMaskInvariants:
    def test_lagrange_enforced(self, s3):
        from formationlab.errors import InvariantError

        with pytest.raises(InvariantError):
            Subgroup(s3, np.arange(s3.order) < 4)  # order 4 does not divide 6

    def test_mask_array_round_trip(self, s4):
        sub = sub_of(s4, "(1 2 3)", "(2 3 4)")
        assert subgroup_from_mask(s4, sub.mask) == sub
        assert (np.flatnonzero(sub.mask) == sub.indices()).all()
        assert not sub.mask.flags.writeable
