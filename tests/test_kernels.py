"""The closure kernel against the pure-Python oracle, and the numba pair
sweep against its numpy twin (skipped without numba)."""

from __future__ import annotations

import numpy as np
import pytest

from formationlab import _kernels
from formationlab.corpus import build_group, dihedral, order75_witness, quaternion_generalized
from formationlab.groups import array_to_mask, exponent

from conftest import group_of
from oracles import py_close

HAVE_JIT = hasattr(_kernels, "_brandl_sweep_jit")

needs_jit = pytest.mark.skipif(not HAVE_JIT, reason="numba unavailable")


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


@needs_jit
class TestSweepAgreement:
    def test_same_verdict_and_witness(self):
        for g in groups():
            e = exponent(g)
            pow_neg = _kernels.negative_power_table(g.mul, g.inv, e)
            got_jit = _kernels._brandl_sweep_jit(g.mul, g.inv, pow_neg, e)
            got_np = _kernels.brandl_sweep_np(g.mul, g.inv, pow_neg, e)
            assert tuple(int(v) for v in got_jit) == tuple(int(v) for v in got_np)

    def test_negative_power_table_is_inverse_powers(self):
        g = group_of(4, "(1 2)", "(1 2 3 4)")
        e = exponent(g)
        table = _kernels.negative_power_table(g.mul, g.inv, e)
        for v in range(g.order):
            acc = 0  # identity index
            for j in range(e):
                assert table[v, j] == acc
                acc = int(g.mul[acc, g.inv[v]])

    def test_sweep_matches_permutation_level_iteration(self):
        # dual route: the table kernel must agree pair-by-pair with the
        # permutation-level trace on every pair of a few small groups
        from formationlab.checkers import brandl_terminates

        for g in (group_of(3, "(1 2)", "(1 2 3)"), group_of(4, "(1 2 3)", "(2 3 4)"),
                  build_group(quaternion_generalized(2))):
            e = exponent(g)
            pow_neg = _kernels.negative_power_table(g.mul, g.inv, e)
            failing = {
                (x, y)
                for x in range(g.order)
                for y in range(g.order)
                if not brandl_terminates(g.elements[x], g.elements[y], e, group_order=g.order).terminated
            }
            status, bx, by = _kernels._brandl_sweep_jit(g.mul, g.inv, pow_neg, e)
            assert (status == 1) == (not failing)
            if failing:
                assert (bx, by) == min(failing)


@needs_jit
class TestBackendSelection:
    def test_flag_controls_backend(self):
        import subprocess
        import sys

        # only the pair sweep has a numba build; closure is numpy either way
        code = (
            "import formationlab._kernels as k; "
            "print(k.JIT_ENABLED, k.brandl_sweep is k.brandl_sweep_np, "
            "k.close_mask.__module__, k.close_mask.__name__)"
        )
        on = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env_with(FORMATIONLAB_NO_JIT="1"),
        )
        assert on.stdout.split() == ["False", "True", "formationlab._kernels", "close_mask"]
        off = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env_with(FORMATIONLAB_NO_JIT=""),
        )
        assert off.stdout.split() == ["True", "False", "formationlab._kernels", "close_mask"]


def _env_with(**extra):
    import os

    env = dict(os.environ)
    env.update(extra)
    return env
