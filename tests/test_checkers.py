from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from formationlab.checkers import (
    PREDICATE_KEYS,
    THEOREM_KEYS,
    _condition_lf_impl,
    classify,
    condition_b_law,
    condition_b_subgroups,
    condition_lf_f,
    condition_x,
    word_trace,
)
from formationlab.corpus import (
    ROTATION_MATRIX,
    SWAP_MATRIX,
    GroupSpec,
    affine_semidirect,
    alternating,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    order294_candidate,
    order75_witness,
    standard_corpus,
    symmetric,
)
from formationlab._kernels import powers
from formationlab.groups import GroupTable, exponent
from formationlab.lattice import (
    Lattice,
    all_subgroups,
    chief_series,
    frattini,
    minimal_normal_subgroups,
)
from formationlab.perms import format_cycles, parse_cycles
from formationlab.predicates import _sylow_tower_impl, has_sylow_tower_sst, is_supersoluble

from conftest import golden_verdicts, group_of, sub_of
from oracles import (
    affine_verdicts_oracle,
    condition_b_law_opposite,
    condition_lf_oracle,
    cyclic_extension_oracle,
    extraspecial_semidirect,
    p_subnormal_oracle,
    quotient_by,
    sylow_tower_oracle,
    word_terminates_oracle,
)


def _trace_text(g, x, y):
    """word_trace of a pair given in cycle notation, as (value texts, final
    k, cycle start or None)."""
    values, first = word_trace(g, g.index_of(parse_cycles(x, g.degree)), g.index_of(parse_cycles(y, g.degree)))
    k = len(values)
    start = None if values[-1] == 0 else first[values[-1], k % exponent(g)]
    return [format_cycles(g.perm(v)) for v in values], k, start


def _assert_trace_matches_oracle(g, x, y):
    values, first = word_trace(g, x, y)
    expected, start = word_terminates_oracle(g.perm(x), g.perm(y), exponent(g))
    assert [g.perm(v) for v in values] == expected, (g, x, y)
    if start is None:
        assert values[-1] == 0
    else:
        assert first[values[-1], len(values) % exponent(g)] == start, (g, x, y)


class TestWordIteration:
    def test_trace_ends_at_first_identity(self, s4):
        # the identity is a fixed point of the step, so a trace stops there
        n = s4.order
        for x in range(n):
            for y in range(n):
                values, _ = word_trace(s4, x, y)
                assert 0 not in values[:-1]

    def test_next_on_commuting_value_is_negative_power(self, s4):
        # when u_k commutes with y, [u_k, y] = 1 and u_{k+1} = u_k^(-k)
        mul, n = s4.mul, s4.order
        checked = 0
        for x in range(n):
            for y in range(n):
                values, _ = word_trace(s4, x, y)
                for k, (u, nxt) in enumerate(zip(values, values[1:]), start=1):
                    if mul[u, y] == mul[y, u]:
                        assert nxt == powers(mul, s4.inv[u], k)
                        checked += 1
        assert checked > 0

    def test_hand_trace_in_s3(self, s3):
        assert _trace_text(s3, "(1 2)", "(1 2 3)") == (["(1 3 2)", "(1 2 3)", "(1 2 3)", "()"], 4, None)

    def test_equal_pair_terminates_immediately(self):
        g = group_of(4, "(1 2 3 4)")
        x = g.index_of(parse_cycles("(1 2 3 4)", 4))
        assert word_trace(g, x, x) == ([0], {})

    def test_a4_pair_cycles(self, a4):
        texts, k, start = _trace_text(a4, "(1 2 3)", "(1 2 4)")
        assert start is not None and (k - start) % 6 == 0
        assert "()" not in texts

    @pytest.mark.parametrize("name", ["s3", "s4", "a4"])
    def test_matches_permutation_oracle_on_every_pair(self, name, request):
        g = request.getfixturevalue(name)
        for x in range(g.order):
            for y in range(g.order):
                _assert_trace_matches_oracle(g, x, y)

    def test_matches_permutation_oracle_on_a4xc7_sample(self):
        # a fixed sample of ordered pairs, both terminating and cycling ones
        g = build_group(direct_product(alternating(4), cyclic(7)))
        pairs = np.random.default_rng(7).integers(0, g.order, size=(60, 2)).tolist()
        cycling = 0
        for x, y in pairs:
            _assert_trace_matches_oracle(g, x, y)
            cycling += word_trace(g, x, y)[0][-1] != 0
        assert 0 < cycling < len(pairs)


class TestPSubnormal:
    """``Lattice.p_subnormal``, which ``cond_x`` reads."""

    def test_order_two_in_a4_via_klein(self, a4):
        lat = all_subgroups(a4)
        assert lat.p_subnormal[lat.find(sub_of(a4, "(1 2)(3 4)")[None])[0]]

    @pytest.mark.parametrize("maker", [
        lambda: group_of(3, "(1 2)", "(1 2 3)"),
        lambda: group_of(4, "(1 2 3)", "(2 3 4)"),
        lambda: group_of(4, "(1 2)", "(1 2 3 4)"),
        lambda: build_group(dihedral(6)),
        lambda: build_group(order75_witness()),
        lambda: group_of(5, "(1 2)", "(1 2 3 4 5)"),  # order 120
    ])
    def test_bfs_matches_recursive_oracle(self, maker):
        # every member, the top and A4's <(1 2 3)> and Klein group among them
        g = maker()
        lat = all_subgroups(g)
        memo = {}
        assert lat.p_subnormal.tolist() == [p_subnormal_oracle(lat, h, memo) for h in lat.subgroups]


class TestConditions:
    def test_condition_x(self, s3, a4):
        assert condition_x(s3, all_subgroups(s3))
        assert not condition_x(a4, all_subgroups(a4))

    def test_condition_x_on_supersoluble_groups(self):
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
            assert condition_b_law(g) == condition_b_law_opposite(g)


CENSUS_REPORTS = [(4, "standard.tsv"), (5, "standard.tsv"), (6, "s6.tsv")]


def _census_verdicts(n: int, report: str):
    """The lattice of S_n, its census row names (row S{n}-sub{i:03d}-o{order}
    is member i) and the (members, six) table of their golden verdicts."""
    verdicts = golden_verdicts(report)
    lat = all_subgroups(build_group(symmetric(n)))
    names = [f"S{n}-sub{i:03d}-o{order}" for i, order in enumerate(lat.orders.tolist())]
    return lat, names, np.array([[verdicts[name][key] for key in PREDICATE_KEYS] for name in names])


class TestFormationClosure:
    def test_two_minimal_normals_with_trivial_intersection(self):
        # if G/N1 and G/N2 both satisfy the chain condition and N1 meets N2
        # trivially, G embeds in the product of the quotients and must too
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
            for i, n1 in enumerate(lat.matrix[minimals]):
                for n2 in lat.matrix[minimals[i + 1 :]]:
                    if (n1 & n2).sum() != 1:
                        continue
                    q1 = quotient_by(g, n1).group
                    q2 = quotient_by(g, n2).group
                    if condition_x(q1, all_subgroups(q1)) and condition_x(q2, all_subgroups(q2)):
                        exercised += 1
                        assert condition_x(g, all_subgroups(g))
        assert exercised >= 3

    def test_direct_products_take_the_conjunction(self):
        # U, X, B and D are formations, and a subgroup-closed formation
        # holds A x B iff it holds A and B, so every verdict of a product is
        # the conjunction of its factors'
        lefts = [symmetric(3), alternating(4), symmetric(4), order75_witness()]
        rights = [cyclic(2), cyclic(3), symmetric(3)]
        c294 = order294_candidate()
        verdicts = {s.name: classify(build_group(s), s.name).predicates for s in [*lefts, *rights, c294]}
        products = {}
        for a, b in [*((a, b) for a in lefts for b in rights), (c294, cyclic(2)), (c294, cyclic(3))]:
            spec = direct_product(a, b)
            got = products[spec.name] = classify(build_group(spec), spec.name).predicates
            assert got == {k: verdicts[a.name][k] and verdicts[b.name][k] for k in PREDICATE_KEYS}, spec.name
        # in X but not U, and in D but not X
        assert products["C7^2:S3xC2"]["cond_x"] and not products["C7^2:S3xC2"]["supersoluble"]
        assert products["C5^2:L3xC2"]["sylow_tower"] and not products["C5^2:L3xC2"]["cond_x"]

    def test_affine_verdicts_match_the_theory(self):
        # F_p^2 : H with H irreducible of order prime to p, where B = X is
        # hardest to meet: theory predicts U and X from H's matrices and H's
        # own verdicts (affine_verdicts_oracle).  The first six are in X but
        # not U; the control C5^2:S3 is in D but not X, as exp(S3) = 6 does
        # not divide 4.  p is the largest prime dividing |G| and H has a
        # Sylow tower, so G has one.
        d8 = (((1, 0), (0, -1)), SWAP_MATRIX)
        families = [
            ("C5^2:D8", 5, d8),
            ("C5^2:Q8", 5, (((0, -1), (1, 0)), ((2, 0), (0, 3)))),
            ("C11^2:D10", 11, (((3, 0), (0, 4)), SWAP_MATRIX)),
            ("C13^2:S3", 13, (ROTATION_MATRIX, SWAP_MATRIX)),
            ("C13^2:D8", 13, d8),
            ("C13^2:Q8", 13, (((0, -1), (1, 0)), ((0, 5), (5, 0)))),
            ("C5^2:S3", 5, (ROTATION_MATRIX, SWAP_MATRIX)),
        ]
        for name, p, matrices in families:
            spec = affine_semidirect(p, *matrices)
            linear = GroupSpec(f"{name} linear part", spec.degree, spec.generators[2:])
            h = classify(build_group(linear), linear.name).predicates
            in_u, in_x = affine_verdicts_oracle(p, matrices, h["supersoluble"], h["cond_x"])
            assert (in_u, in_x) == (False, name != "C5^2:S3"), name
            got = classify(build_group(spec), name).predicates
            want = {"supersoluble": in_u, "sylow_tower": True, **dict.fromkeys(THEOREM_KEYS, in_x)}
            assert got == want, (name, {k: got[k] for k in want if got[k] != want[k]})

    def test_extraspecial_groups_are_saturated(self):
        # G = 5^(1+2) : H has Phi(G) = Z(P) of order 5, and U, X, B and D
        # are saturated: G takes the verdicts of G/Phi(G) = C5^2 : H, which
        # theory predicts from H's matrices.  Q8 and D8 give groups in X but
        # not U, C8 and S3 in D but not X, and C4 one in U.
        families = {
            "Q8": ((((0, 4), (1, 0)), ((2, 0), (0, 3))), (False, True)),
            "D8": ((((1, 0), (0, 4)), SWAP_MATRIX), (False, True)),
            "C8": ((((0, 2), (1, 0)),), (False, False)),
            "S3": ((((0, 4), (1, 4)), SWAP_MATRIX), (False, False)),
            "C4": ((((2, 0), (0, 1)),), (True, True)),
        }
        for name, (matrices, expected) in families.items():
            g = build_group(extraspecial_semidirect(5, *matrices))
            lat = all_subgroups(g)
            assert lat.orders[frattini(lat)] == 5, name
            got = {
                "supersoluble": is_supersoluble(g, lat),
                "cond_x": condition_x(g, lat),
                "cond_b_subgroups": condition_b_subgroups(g, lat),
                "cond_b_law": condition_b_law(g),
                "cond_lf": condition_lf_f(g, lat),
                "sylow_tower": has_sylow_tower_sst(g),
            }
            quotient = affine_semidirect(5, *matrices)
            assert got == classify(build_group(quotient), quotient.name).predicates, name
            linear = GroupSpec(f"{name} linear part", quotient.degree, quotient.generators[2:])
            h = classify(build_group(linear), linear.name).predicates
            in_u, in_x = affine_verdicts_oracle(5, matrices, h["supersoluble"], h["cond_x"])
            assert (in_u, in_x) == expected, name
            want = {"supersoluble": in_u, "sylow_tower": True, **dict.fromkeys(THEOREM_KEYS, in_x)}
            assert got == want, (name, {k: got[k] for k in want if got[k] != want[k]})

    @pytest.mark.parametrize("n, report", CENSUS_REPORTS)
    def test_census_reports_are_subgroup_closed(self, n, report):
        # every verdict column names a subgroup-closed class, so K true and
        # H <= K must give H true; the census holds every subgroup H of S_n
        lat, names, table = _census_verdicts(n, report)
        checked = 0
        for column, key in enumerate(PREDICATE_KEYS):
            held = table[:, column]
            checked += int((lat.containment & held[None, :]).sum())
            escaped = np.argwhere(lat.containment & ~held[:, None] & held[None, :])
            assert not escaped.size, (key, [(names[h], names[k]) for h, k in escaped[:3]])
        assert checked == {4: 660, 5: 4_980, 6: 72_690}[n]  # (column, H <= K) with K true

    @pytest.mark.parametrize("n, report", CENSUS_REPORTS)
    def test_census_verdicts_are_constant_on_conjugacy_classes(self, n, report):
        # conjugate subgroups are isomorphic, so every verdict row equals
        # the row of its class's least member, the class label
        lat, names, table = _census_verdicts(n, report)
        ids = lat.class_ids()
        differ = np.flatnonzero((table != table[ids]).any(axis=1))
        assert not differ.size, [(names[i], names[ids[i]]) for i in differ[:3]]
        classes = np.count_nonzero(ids == np.arange(len(lat)))
        assert (len(lat), classes) == {4: (30, 11), 5: (156, 19), 6: (1455, 56)}[n]

    def test_standard_report_is_quotient_closed_and_saturated(self):
        # U, X, B (the word law) and D are saturated formations: G in F gives
        # G/N in F for each minimal normal N, and G/Phi(G) is in F iff G is
        def verdicts_of(q):
            lat = all_subgroups(q)
            return {
                "supersoluble": is_supersoluble(q, lat),
                "cond_x": condition_x(q, lat),
                "cond_b_law": condition_b_law(q),
                "sylow_tower": has_sylow_tower_sst(q),
            }

        golden = golden_verdicts("standard.tsv")
        violations = []
        saturation_checks = quotient_checks = 0
        for spec in standard_corpus():
            g = build_group(spec)
            lat = all_subgroups(g)
            verdicts = golden[spec.name]
            phi = frattini(lat)
            if lat.orders[phi] > 1:
                for key, held in verdicts_of(quotient_by(g, lat.matrix[phi]).group).items():
                    saturation_checks += 1
                    if held != verdicts[key]:
                        violations.append(f"{spec.name}: {key} of G/Phi(G) is {held}")
            for n in minimal_normal_subgroups(lat):
                if lat.orders[n] == g.order:
                    continue  # G/G is trivial and in every class
                for key, held in verdicts_of(quotient_by(g, lat.matrix[n]).group).items():
                    if verdicts[key]:
                        quotient_checks += 1
                        if not held:
                            violations.append(f"{spec.name}: {key} fails on G/N, |N| = {lat.orders[n]}")
        assert not violations, violations[:5]
        assert (saturation_checks, quotient_checks) == (548, 1_872)


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

    def test_resource_error_names_group(self, monkeypatch):
        import formationlab.lattice as lattice
        from formationlab.errors import ResourceLimitError

        monkeypatch.setattr(lattice, "DEFAULT_SUBGROUP_BOUND", 5)
        big = group_of(5, "(1 2)", "(1 2 3 4 5)")
        with pytest.raises(ResourceLimitError) as err:
            classify(big, "S5")
        assert "S5" in str(err.value)

    def test_invariant_error_names_group(self, s3, monkeypatch):
        import formationlab.checkers as checkers
        from formationlab.errors import InvariantError

        def broken(lat):
            raise InvariantError("chief series is inconsistent")

        monkeypatch.setattr(checkers, "chief_series", broken)
        with pytest.raises(InvariantError, match="group S3: chief series is inconsistent"):
            classify(s3, "S3")

    def test_witnesses_do_not_depend_on_enumeration_path(self, s5, monkeypatch):
        # the oracle finds the same members by other paths; a witness names
        # a subgroup by generators read off the lattice, from its mask alone
        import formationlab.checkers as checkers

        groups = [(spec.name, build_group(spec)) for spec in standard_corpus()]
        groups = [(name, g) for name, g in groups if g.order <= 60] + [("S5", s5)]
        naming = []  # the groups whose witnesses name a subgroup
        for name, g in groups:
            report = classify(g, name)
            if {"cond_x", "cond_b_subgroups"} & set(report.witnesses):
                naming.append((name, g, report))
        assert len(naming) == 19
        monkeypatch.setattr(checkers, "all_subgroups", cyclic_extension_oracle)
        for name, g, report in naming:
            other = classify(g, name)
            assert (other.predicates, other.witnesses) == (report.predicates, report.witnesses), name

    @pytest.mark.parametrize("maker", [
        lambda: group_of(4, "(1 2)", "(1 2 3 4)"),
        lambda: group_of(4, "(1 2 3)", "(2 3 4)"),
        lambda: build_group(order75_witness()),
        lambda: build_group(order294_candidate()),
    ])
    def test_builds_no_table_and_one_lattice(self, maker, monkeypatch):
        g = maker()
        counts = {GroupTable: 0, Lattice: 0}
        for cls in counts:
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        classify(g, "G")
        assert counts == {GroupTable: 0, Lattice: 1}


@pytest.fixture(scope="module")
def quotient_oracle_groups():
    """Every standard-corpus group of order <= 120 (S5 and the order-75
    witness among them), C7^2:S3 and A5 x C3, each with its lattice."""
    groups = [build_group(spec) for spec in standard_corpus()]
    groups = [g for g in groups if g.order <= 120]
    groups += [build_group(order294_candidate()), build_group(direct_product(alternating(5), cyclic(3)))]
    return [(g, all_subgroups(g)) for g in groups]


class TestQuotientOracles:
    """The Sylow tower and cond_lf on masks agree with the quotient-table
    algorithms in verdict and witness text."""

    def test_sylow_tower(self, quotient_oracle_groups):
        outcomes = set()
        for g, _ in quotient_oracle_groups:
            got = _sylow_tower_impl(g)
            assert got == sylow_tower_oracle(g)
            outcomes.add(got[0])
        assert outcomes == {True, False}

    def test_condition_lf(self, quotient_oracle_groups):
        outcomes = set()
        for g, lat in quotient_oracle_groups:
            got = _condition_lf_impl(g, lat, chief_series(lat))
            assert got == condition_lf_oracle(g, lat)
            outcomes.add(got[0])
        assert outcomes == {True, False}

    def test_condition_lf_solubility_branch(self, a5):
        # Within the order bound no action group is insoluble with exponent
        # dividing p - 1 for a prime p of its chief factor (p >= 31 is
        # needed), so A5's one chief factor is relabelled with the prime 61:
        # A5's exponent 30 divides 60, and only the solubility test fails.
        lat = all_subgroups(a5)
        (factor,) = chief_series(lat)
        assert _condition_lf_impl(a5, lat, [replace(factor, primes=(61,))]) == (False, (
            "chief factor of order 60: the action group of order 60 is not soluble "
            "of exponent dividing 61 - 1"
        ))
