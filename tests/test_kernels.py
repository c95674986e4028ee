"""The closure kernel against the pure-Python oracle, commutators and
powers against permutation arithmetic, element classes and the sweep's
start states against brute force, and the pair sweep against the
permutation-level word iteration."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from formationlab import _kernels, lattice
from formationlab.corpus import (
    affine_semidirect,
    alternating,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    order75_witness,
    quaternion_generalized,
    standard_corpus,
    symmetric,
)
from formationlab.groups import exponent

from conftest import group_of
from oracles import (
    commutator,
    compose,
    condition_b_law_opposite,
    element_classes_oracle,
    inverse,
    mask_int,
    power,
    py_close,
    sequential_extension_oracle,
    start_states_oracle,
    word_terminates_oracle,
)


def groups():
    return [
        group_of(3, "(1 2)", "(1 2 3)"),
        group_of(4, "(1 2)", "(1 2 3 4)"),
        build_group(dihedral(6)),
        build_group(quaternion_generalized(3)),
        build_group(order75_witness()),
    ]


class TestClosure:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_generators_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for g in groups():
            mul_rows = g.mul.tolist()
            gens = [int(v) for v in rng.integers(0, g.order, size=rng.integers(1, 4))]
            identity = np.zeros(g.order, np.bool_)
            identity[0] = True
            got = _kernels.close_mask(g.mul, identity, gens)
            want = py_close(mul_rows, sum(1 << i for i in set(gens)))
            assert mask_int(got) == want
            # from a closed base generated by a prefix of the generators
            base = _kernels.close_mask(g.mul, identity, gens[:1])
            assert mask_int(_kernels.close_mask(g.mul, base, gens)) == want

    # the bound 1 closes one row per step of the batch
    @pytest.mark.parametrize(
        "seed, bound",
        [pytest.param(seed, None, id=str(seed)) for seed in range(4)]
        + [pytest.param(seed, 1, id=f"{seed}-one-row-per-step") for seed in range(4)],
    )
    def test_batch_matches_rows(self, seed, bound, monkeypatch):
        # rows of one batched call equal separate 1-D closures, from closed
        # bases H and from non-closed bases H | <c>, with generator rows of
        # different lengths padded with the identity
        if bound is not None:
            monkeypatch.setattr(_kernels, "CLOSE_BATCH_PRODUCTS", bound)
        rng = np.random.default_rng(seed)
        for g in groups():
            identity = np.zeros(g.order, np.bool_)
            identity[0] = True
            bases, gen_rows, want = [], [], []
            for _ in range(6):
                h_gens = [int(v) for v in rng.integers(0, g.order, size=rng.integers(0, 3))]
                c = int(rng.integers(0, g.order))
                h = _kernels.close_mask(g.mul, identity, h_gens)
                closed = _kernels.close_mask(g.mul, h, h_gens + [c])
                assert mask_int(closed) == py_close(g.mul.tolist(), sum(1 << i for i in {*h_gens, c}))
                for base in (h, h | _kernels.close_mask(g.mul, identity, [c])):
                    bases.append(base)
                    gen_rows.append(h_gens + [c])
                    want.append(closed)
            width = max(len(row) for row in gen_rows)
            padded = np.array([row + [0] * (width - len(row)) for row in gen_rows])
            got = _kernels.close_mask(g.mul, np.array(bases), padded)
            assert got.shape == (len(bases), g.order)
            assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("name", ["s4", "s5"])
    def test_enumeration_closes_each_wave_at_once(self, name, request, monkeypatch):
        # all_subgroups makes at most one close_mask call per wave of class
        # representatives; closing one seed per call would make many more
        g = request.getfixturevalue(name)
        _, waves = sequential_extension_oracle(g)
        calls = []
        close_mask = _kernels.close_mask

        def counted(mul, base, gens):
            calls.append(np.atleast_2d(base).shape[0])
            return close_mask(mul, base, gens)

        monkeypatch.setattr(_kernels, "close_mask", counted)
        lattice.all_subgroups(g)
        assert 0 < len(calls) <= waves
        assert sum(calls) > waves  # more seeds than calls

    @pytest.mark.parametrize("name", ["s4", "s5", "a5", "C2^5", "C5^2:Q8"])
    def test_enumeration_closes_no_seed_twice(self, name, request, monkeypatch):
        # all_subgroups keeps no memo of the seeds of past waves: a seed
        # H | <c> met in two waves would be a subgroup known before, or
        # would come from two cyclic representatives of one wave
        built = {
            "C2^5": lambda: build_group(functools.reduce(direct_product, [cyclic(2)] * 5)),
            "C5^2:Q8": lambda: build_group(affine_semidirect(5, ((0, 4), (1, 0)), ((2, 0), (0, 3)))),
        }
        g = built[name]() if name in built else request.getfixturevalue(name)
        seeds = []
        close_mask = _kernels.close_mask

        def recorded(mul, base, gens):
            seeds.extend(row.tobytes() for row in np.atleast_2d(base))
            return close_mask(mul, base, gens)

        monkeypatch.setattr(_kernels, "close_mask", recorded)
        lat = lattice.all_subgroups(g)
        assert len(seeds) == len(set(seeds))
        assert name != "C2^5" or len(lat) == 374


class TestWords:
    """The words of the Cayley table against permutation arithmetic on the
    image tuples."""

    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_commutator_of_every_pair(self, name, request):
        g = request.getfixturevalue(name)
        perms = [g.perm(i) for i in range(g.order)]
        index = {p: i for i, p in enumerate(perms)}
        every = np.arange(g.order)
        got = _kernels.commutators(g.mul, g.inv, every[:, None], every[None, :])
        assert got.shape == (g.order, g.order)
        want = [[index[commutator(p, q)] for q in perms] for p in perms]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_conjugate_of_every_pair(self, name, request):
        # row s, column x: x^s = s^-1 x s; row s is also conjugation by s's map
        g = request.getfixturevalue(name)
        perms = [g.perm(i) for i in range(g.order)]
        index = {p: i for i, p in enumerate(perms)}
        every = np.arange(g.order)
        got = _kernels.conjugates(g.mul, g.inv, every[None, :], every[:, None])
        want = [[index[compose(compose(inverse(s), x), s)] for x in perms] for s in perms]
        assert np.array_equal(got, want)
        assert np.array_equal(_kernels.conjugation_maps(g.mul, g.inv, every), want)
        assert _kernels.conjugation_maps(g.mul, g.inv, ()) == []

    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_power_up_to_twice_the_exponent(self, name, request):
        g = request.getfixturevalue(name)
        perms = [g.perm(i) for i in range(g.order)]
        index = {p: i for i, p in enumerate(perms)}
        e = exponent(g)
        for k in range(2 * e + 1):
            got = _kernels.powers(g.mul, np.arange(g.order), k)
            assert got.tolist() == [index[power(p, k)] for p in perms], k


def sweep_groups():
    """S4 is a group where the first pair found to cycle in one chunk is not
    the least one; A4xC7 is the smallest group of the law workload; the
    order-75 witness lies in D but not X; S3xC3 has start states shared by
    many pairs."""
    return [
        group_of(3, "(1 2)", "(1 2 3)"),
        group_of(4, "(1 2 3)", "(2 3 4)"),
        group_of(4, "(1 2)", "(1 2 3 4)"),
        build_group(quaternion_generalized(2)),
        build_group(direct_product(alternating(4), cyclic(7))),
        build_group(order75_witness()),
        build_group(direct_product(symmetric(3), cyclic(3))),
    ]


def class_groups():
    """The sweep groups, S5, A6 and every standard-corpus group of order at
    most 60."""
    small = [build_group(spec) for spec in standard_corpus()]
    return (
        sweep_groups()
        + [build_group(symmetric(5)), build_group(alternating(6))]
        + [g for g in small if g.order <= 60]
    )


def large_groups():
    """The groups of the ``large`` benchmark workload, before its seeded
    point relabelling (which leaves the tables unchanged)."""
    return [
        build_group(cyclic(1000)),
        build_group(cyclic(1999)),
        build_group(direct_product(symmetric(3), cyclic(331))),
        build_group(direct_product(dihedral(5), cyclic(197))),
        build_group(direct_product(quaternion_generalized(2), cyclic(241))),
    ]


class TestClasses:
    def test_orbit_labels(self):
        # no maps leave every point alone; a 3-cycle and a transposition on
        # disjoint points give two orbits, labelled by their least points;
        # a 5-cycle carrying each point to the one below takes several rounds
        assert np.array_equal(_kernels.orbit_labels(np.empty((0, 5), np.intp)), np.arange(5))
        maps = np.array([[1, 2, 0, 3, 4], [0, 1, 2, 4, 3]])
        assert np.array_equal(_kernels.orbit_labels(maps), [0, 0, 0, 3, 3])
        assert np.array_equal(_kernels.orbit_labels(np.array([[4, 0, 1, 2, 3]])), np.zeros(5))

    def test_labels_match_oracle(self):
        groups = class_groups()
        assert len(groups) > 300
        for g in groups:
            labels = _kernels.class_labels(g.mul, g.inv, g.gen_indices)
            assert np.array_equal(labels, element_classes_oracle(g)), g

    def test_start_states_match_pass_one_oracle(self):
        for g in class_groups() + large_groups():
            states = np.sort(_kernels.start_states(g.mul, g.inv, g.gen_indices))
            assert np.array_equal(states, start_states_oracle(g.mul, g.inv)), g


class TestSweep:
    def test_negative_power_table_is_inverse_powers(self):
        # exponents 1, 2, an odd prime and non-prime non-powers of 2: the
        # doubling loop's first step, a single doubling and a partial last
        # one; rows are every element, then a proper subset in reverse order
        cases = [
            (group_of(1), 1),
            (build_group(cyclic(2)), 2),
            (build_group(cyclic(7)), 7),
            (group_of(4, "(1 2)", "(1 2 3 4)"), 12),
            (build_group(cyclic(12)), 12),
            (build_group(order75_witness()), 15),
        ]
        for g, e in cases:
            assert exponent(g) == e
            every = np.arange(g.order)
            for rows in (every, every[::-1][: max(1, g.order // 2)]):
                table = _kernels.negative_power_table(g.mul, g.inv, rows, e)
                assert table.shape == (rows.size, e)
                for i, v in enumerate(rows):
                    acc = 0  # identity index
                    for j in range(e):
                        assert table[i, j] == acc
                        acc = int(g.mul[acc, g.inv[v]])

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_sweep_matches_permutation_level_iteration(self, chunk, monkeypatch):
        # dual route: the returned pair must be the least pair in index order
        # whose permutation-level trace cycles.
        if chunk is not None:
            monkeypatch.setattr(_kernels, "SWEEP_CHUNK", chunk)
        for g in sweep_groups():
            n = g.order
            e = exponent(g)

            def terminates(i):
                return word_terminates_oracle(g.perm(i // n), g.perm(i % n), e)[1] is None

            status, bx, by = _kernels.brandl_sweep(g.mul, g.inv, g.gen_indices, e)
            least = n * n if status == 1 else bx * n + by
            assert status in (0, 1)
            assert all(terminates(i) for i in range(least))
            if status == 0:
                assert not terminates(least)

    def test_int16_table_matches_int64_on_a6(self):
        # |A6|^2 = 129,600 > 2^15 and G' = A6, so start states and the least
        # failing pair pass int16 range: an uncast v * n would wrap
        g = build_group(alternating(6))
        assert g.mul.dtype == g.inv.dtype == np.int16
        wide = g.mul.astype(np.int64), g.inv.astype(np.int64)
        states = _kernels.start_states(g.mul, g.inv, g.gen_indices)
        assert states.max() >= 1 << 15
        assert np.array_equal(states, _kernels.start_states(*wide, g.gen_indices))
        e = exponent(g)
        result = _kernels.brandl_sweep(g.mul, g.inv, g.gen_indices, e)
        assert result == _kernels.brandl_sweep(*wide, g.gen_indices, e) == (0, 1, 4)

    def test_opposite_convention_agrees(self):
        from formationlab.checkers import condition_b_law

        for g in sweep_groups():
            assert condition_b_law_opposite(g) == condition_b_law(g)
