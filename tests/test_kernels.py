"""The closure kernel against the pure-Python oracle, and the pair sweep
against the permutation-level word iteration."""

from __future__ import annotations

import numpy as np
import pytest

from formationlab import _kernels
from formationlab.corpus import (
    alternating,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    order75_witness,
    quaternion_generalized,
)
from formationlab.groups import array_to_mask, exponent

from conftest import group_of
from oracles import py_close


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
            assert array_to_mask(got) == want
            # from a closed base generated by a prefix of the generators
            base = _kernels.close_mask(g.mul, identity, gens[:1])
            assert array_to_mask(_kernels.close_mask(g.mul, base, gens)) == want


class TestSweep:
    def test_negative_power_table_is_inverse_powers(self):
        g = group_of(4, "(1 2)", "(1 2 3 4)")
        e = exponent(g)
        table = _kernels.negative_power_table(g.mul, g.inv, e)
        for v in range(g.order):
            acc = 0  # identity index
            for j in range(e):
                assert table[v, j] == acc
                acc = int(g.mul[acc, g.inv[v]])

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_sweep_matches_permutation_level_iteration(self, chunk):
        # dual route: the returned pair must be the least pair in index order
        # whose permutation-level trace cycles.  S4 is a group where the
        # first pair found to cycle in one chunk is not the least one;
        # A4xC7 is the smallest group of the law workload.
        from formationlab.checkers import brandl_terminates

        kwargs = {} if chunk is None else {"chunk": chunk}
        for g in (group_of(3, "(1 2)", "(1 2 3)"), group_of(4, "(1 2 3)", "(2 3 4)"),
                  group_of(4, "(1 2)", "(1 2 3 4)"), build_group(quaternion_generalized(2)),
                  build_group(direct_product(alternating(4), cyclic(7)))):
            n = g.order
            e = exponent(g)
            pow_neg = _kernels.negative_power_table(g.mul, g.inv, e)

            def terminates(i):
                return brandl_terminates(g.elements[i // n], g.elements[i % n], e, group_order=n).terminated

            status, bx, by = _kernels.brandl_sweep(g.mul, g.inv, pow_neg, e, **kwargs)
            least = n * n if status == 1 else bx * n + by
            assert status in (0, 1)
            assert all(terminates(i) for i in range(least))
            if status == 0:
                assert not terminates(least)
