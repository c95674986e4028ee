"""Cycle notation, which the package parses and prints, and the
permutation arithmetic of ``tests/oracles.py``, on which the word law's
reference iteration composes."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from formationlab.errors import InputError
from formationlab.perms import format_cycles, parse_cycles

from oracles import commutator, compose, identity, inverse, order_of, power


def perm(text: str, degree: int) -> tuple[int, ...]:
    return parse_cycles(text, degree)


perms_st = st.integers(1, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


class TestCompose:
    def test_involution_pair(self):
        t = perm("(1 2)", 2)
        assert compose(t, t) == identity(2)

    def test_identity_law(self):
        c = perm("(1 2 3)", 3)
        assert compose(c, identity(3)) == c
        assert compose(identity(3), c) == c

    def test_left_to_right_order(self):
        # apply (1 2 3) first, then (1 2): 1->2->1, 2->3->3, 3->1->2
        got = compose(perm("(1 2 3)", 3), perm("(1 2)", 3))
        assert format_cycles(got) == "(2 3)"

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            compose(identity(3), identity(4))


class TestInversePower:
    def test_identity_inverse(self):
        assert inverse(identity(5)) == identity(5)

    def test_involution(self):
        assert inverse(perm("(1 2)", 3)) == perm("(1 2)", 3)

    def test_three_cycle(self):
        assert inverse(perm("(1 2 3)", 3)) == perm("(1 3 2)", 3)

    def test_power_zero(self):
        assert power(perm("(1 2 3)", 3), 0) == identity(3)

    def test_negative_power_reduces_mod_order(self):
        assert power(perm("(1 2 3)", 3), -2) == perm("(1 2 3)", 3)

    def test_large_power(self):
        assert power(perm("(1 2)", 2), 5) == perm("(1 2)", 2)


class TestCommutatorOrder:
    def test_self_commutator(self):
        g = perm("(1 2 3 4)", 4)
        assert commutator(g, g) == identity(4)

    def test_commuting_pair(self):
        a, b = perm("(1 2)", 4), perm("(3 4)", 4)
        assert commutator(a, b) == identity(4)

    def test_hand_tracked_value(self):
        got = commutator(perm("(1 2)", 3), perm("(1 2 3)", 3))
        assert format_cycles(got) == "(1 3 2)"

    @pytest.mark.parametrize(
        "text,degree,expected",
        [("()", 3, 1), ("(1 2)(3 4 5)", 5, 6), ("(1 2 3)", 3, 3)],
    )
    def test_orders(self, text, degree, expected):
        assert order_of(perm(text, degree)) == expected


class TestCycleNotation:
    def test_identity_forms(self):
        assert parse_cycles("()", 3) == identity(3)
        assert format_cycles(identity(3)) == "()"

    def test_two_cycles(self):
        assert parse_cycles("(1 2 3)(4 5)", 5) == (2, 3, 1, 5, 4)

    def test_canonical_form(self):
        assert format_cycles(parse_cycles("(2 1)", 2)) == "(1 2)"

    def test_fixed_point_cycle_is_noise(self):
        assert parse_cycles("(2)(1 3)", 3) == parse_cycles("(1 3)", 3)

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "(1 2", "1 2)", "(0 1)", "(1 7)", "(1 1)", "(1 2)(2 3)", "(1 x)"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InputError):
            parse_cycles(bad, 5)

    def test_error_carries_position(self):
        with pytest.raises(InputError) as err:
            parse_cycles("(1 9)", 5)
        assert "position" in str(err.value)

    @pytest.mark.parametrize(
        "bad, message, position",
        [
            ("(1 x)", "unexpected character 'x' in cycle notation", 3),
            ("((1 2)", "nested '(' in cycle notation", 1),
            ("(1 2))", "')' without matching '('", 5),
            ("(1 2) 3", "point outside any cycle", 6),
            ("(1 12)", "point 12 out of range 1..5", 3),
            ("(1 2)(3 2)", "point 2 repeated", 8),
            ("(1 2)(3", "unclosed '(' in cycle notation", 5),
            ("(1 \u00b2)", "unexpected character '\u00b2' in cycle notation", 3),  # superscript two
            ("(1 \u0663)", "unexpected character '\u0663' in cycle notation", 3),  # Arabic-Indic three
        ],
    )
    def test_each_error_names_its_position(self, bad, message, position):
        with pytest.raises(InputError) as err:
            parse_cycles(bad, 5)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"

    def test_round_trip_all_of_s5(self):
        for p in itertools.permutations(range(1, 6)):
            assert parse_cycles(format_cycles(p), 5) == p


class TestGroupLaws:
    def test_associativity_all_of_s4(self):
        elements = list(itertools.permutations(range(1, 5)))
        for a, b, c in itertools.product(elements, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(perms_st)
    def test_inverse_law(self, p):
        assert compose(p, inverse(p)) == identity(len(p))

    @given(perms_st, st.integers(-20, 20))
    def test_power_matches_repeated_product(self, p, e):
        expected = identity(len(p))
        base = p if e >= 0 else inverse(p)
        for _ in range(abs(e)):
            expected = compose(expected, base)
        assert power(p, e) == expected

    @given(perms_st)
    def test_round_trip(self, p):
        assert parse_cycles(format_cycles(p), len(p)) == p

    @given(st.permutations(range(1, 7)).map(tuple), st.permutations(range(1, 7)).map(tuple))
    def test_commutator_trivial_iff_commuting(self, a, b):
        assert (commutator(a, b) == identity(6)) == (compose(a, b) == compose(b, a))
