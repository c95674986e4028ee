"""The four predicates whose agreement the harness verifies, ``classify``,
and the word trace behind ``formationlab brandl``.

The word sequence for a pair (x, y) is u_1 = [x, y] and
u_{k+1} = u_k^(-k) [u_k, y], applied for every k >= 1 (Brandl's law).  A
pair terminates when some u_k is the identity; since u_{k+1} depends on k
only through k mod e (e the ambient exponent), a repeated (value, k mod e)
state proves the sequence never terminates.  Both the all-pairs sweep
(``_kernels.brandl_sweep``) and the single trace (``word_trace``) step it
on the Cayley table.  The sequence depends on (x, y) only through its start
state ([x, y], y), so the sweep steps each distinct start state once and
then maps failures back to the least failing pair.

``cond_x`` and ``cond_b_subgroups`` judge one member per conjugacy class
of subgroups (``Lattice.class_ids``), the first in lattice order, which
``Lattice`` fixes whatever order its members were given in:
conjugation by the top is an automorphism fixing the top, so "cyclic,
primary and not prime-step subnormal", "[H, H] nilpotent" and "H
supersoluble" hold for all of a class or for none, and the first failing
member and its witness are those of a member-by-member scan.
``cond_b_subgroups`` first judges H's supersolubility on the given lattice
(Huppert's test); only for a non-supersoluble H does it read the derived
subgroup [H, H] off the same lattice (``lattice.derived_index``), not from
all |H|^2 commutators.  A subgroup named in a witness is named by its
greedy generators, read off the lattice (``Lattice.generators``), so the
text depends on the group alone.

``classify`` takes one chief series of the lattice and reads two
predicates off it.  The group is supersoluble iff every chief factor has
prime order, and the first factor that does not is the witness.
``cond_lf`` walks the same factors H/K.  It works on the centralizer's
member mask C = C_G(H/K) and never forms G/C: G/C is soluble iff the last
term of G's derived series lies in C, and its exponent divides p - 1 iff
every x^(p-1) lies in C.  That last term, the soluble residual, is the
lattice member where ``derived_index`` stops moving, walked down from the
top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .errors import InvariantError, naming_group
from .groups import GroupTable, _centralizer_mod_mask, exponent
from .lattice import ChiefFactor, Lattice, all_subgroups, chief_series, derived_index
from .perms import format_cycles
from .predicates import _check_lattice, _huppert, _sylow_tower_impl, is_cyclic, is_nilpotent, is_primary
from .primes import is_prime

__all__ = [
    "word_trace",
    "condition_x",
    "condition_b_subgroups",
    "condition_b_law",
    "condition_lf_f",
    "ClassReport",
    "classify",
]


def word_trace(g: GroupTable, x: int, y: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The word sequence of the pair of element indices (x, y), stepped on
    the Cayley table until u_k is the identity or a state (u_k, k mod e)
    repeats, e the exponent of g.

    Returns (values, first): ``values[k - 1]`` is u_k, and ``first`` maps
    each state met before the last step to the first k that reached it, so
    a trace that does not end at the identity (index 0) ends on a state of
    ``first``.  Going past the pigeonhole cap |G| * e + 1 without either
    raises InvariantError.
    """
    mul, inv = g.mul, g.inv
    e = exponent(g)
    cap = g.order * e + 1
    u = int(_kernels.commutators(mul, inv, x, y))
    values: list[int] = []
    first: dict[tuple[int, int], int] = {}
    k = 1
    while True:
        values.append(u)
        state = (u, k % e)
        if u == 0 or state in first:
            return values, first
        first[state] = k
        if k > cap:
            raise InvariantError("word iteration exceeded the pigeonhole cap without repeating")
        u = int(mul[_kernels.powers(mul, inv[u], k % e), _kernels.commutators(mul, inv, u, y)])  # u^(-k) [u, y]
        k += 1


def _describe(lat: Lattice, i: int) -> str:
    gens = ", ".join(format_cycles(lat.parent.perm(x)) for x in lat.generators(i)) or "()"
    return f"<{gens}> of order {lat.orders[i]}"


def _class_firsts(lat: Lattice) -> np.ndarray:
    """The index of the first member of each conjugacy class of subgroups,
    in lattice order."""
    return np.flatnonzero(lat.class_ids() == np.arange(len(lat)))


def _condition_x_impl(lat: Lattice) -> tuple[bool, Optional[str]]:
    """``cond_x`` for the top of ``lat``, any subgroup of its parent."""
    for i in _class_firsts(lat):
        if lat.p_subnormal[i] or not is_primary(int(lat.orders[i])):
            continue
        if is_cyclic(lat.parent.elem_orders[lat.matrix[i]]):
            return False, f"cyclic primary subgroup {_describe(lat, i)} is not prime-step subnormal"
    return True, None


def condition_x(g: GroupTable, lat: Lattice) -> bool:
    """Every cyclic primary subgroup is prime-step subnormal in the top."""
    _check_lattice(g, lat)
    return _condition_x_impl(lat)[0]


def _condition_b_subgroups_impl(lat: Lattice) -> tuple[bool, Optional[str]]:
    """``cond_b_subgroups`` for the top of ``lat``, any subgroup of its parent."""
    for i in _class_firsts(lat):
        if _huppert(lat, i):
            continue  # a supersoluble group's derived subgroup is nilpotent
        derived = derived_index(lat, i)
        if is_nilpotent(lat.parent.elem_orders[lat.matrix[derived]]):
            return False, (
                f"subgroup {_describe(lat, i)} has nilpotent derived subgroup "
                f"(order {lat.orders[derived]}) but is not supersoluble"
            )
    return True, None


def condition_b_subgroups(g: GroupTable, lat: Lattice) -> bool:
    """Every subgroup with nilpotent derived subgroup is supersoluble."""
    _check_lattice(g, lat)
    return _condition_b_subgroups_impl(lat)[0]


def _condition_b_law_impl(g: GroupTable) -> tuple[bool, Optional[str]]:
    e = exponent(g)
    status, x, y = _kernels.brandl_sweep(g.mul, g.inv, g.gen_indices, e)
    if status == 1:
        return True, None
    return False, (
        f"pair x={format_cycles(g.perm(x))}, y={format_cycles(g.perm(y))} never terminates"
    )


def condition_b_law(g: GroupTable) -> bool:
    """The word sequence terminates for every ordered pair of elements."""
    return _condition_b_law_impl(g)[0]


def _soluble_residual(lat: Lattice) -> int:
    """The index of the last term of the top's derived series: the member
    where ``derived_index`` stops moving, walked down from the top."""
    term, nxt = -1, len(lat) - 1
    while nxt != term:
        term, nxt = nxt, derived_index(lat, nxt)
    return term


def _condition_lf_impl(g: GroupTable, lat: Lattice, series: list[ChiefFactor]) -> tuple[bool, Optional[str]]:
    every = np.arange(g.order)
    residual = None  # the last term of G's derived series, once needed
    for factor in series:
        upper, lower = lat.matrix[factor.upper], lat.matrix[factor.lower]
        cent = _centralizer_mod_mask(g, upper, lower, lat.generators(factor.upper))
        if cent.all():
            continue  # the quotient is trivial and lies in every f(p)
        if residual is None:
            residual = lat.matrix[_soluble_residual(lat)]
        soluble = not (residual & ~cent).any()
        for p in factor.primes:
            if not (soluble and cent[_kernels.powers(g.mul, every, p - 1)].all()):
                return False, (
                    f"chief factor of order {factor.order}: the action group of order "
                    f"{g.order // int(cent.sum())} is not soluble of exponent dividing {p} - 1"
                )
    return True, None


def condition_lf_f(g: GroupTable, lat: Lattice) -> bool:
    """For every chief factor H/K and every prime p | |H/K|, the quotient by
    the centralizer of H/K is soluble of exponent dividing p - 1."""
    _check_lattice(g, lat)
    return _condition_lf_impl(g, lat, chief_series(lat))[0]


def _supersoluble_impl(series: list[ChiefFactor]) -> tuple[bool, Optional[str]]:
    """Supersoluble iff every chief factor has prime order."""
    for factor in series:
        if not is_prime(factor.order):
            return False, f"chief factor of non-prime order {factor.order}"
    return True, None


PREDICATE_KEYS = (
    "supersoluble",
    "cond_x",
    "cond_b_subgroups",
    "cond_b_law",
    "cond_lf",
    "sylow_tower",
)

THEOREM_KEYS = ("cond_x", "cond_b_subgroups", "cond_b_law", "cond_lf")


@dataclass
class ClassReport:
    """Evaluated truth values of all six predicates for one group, with a
    witness for every false value and per-predicate wall time."""

    name: str
    degree: int
    order: int
    predicates: dict[str, Optional[bool]]
    witnesses: dict[str, str] = field(default_factory=dict)
    times: dict[str, float] = field(default_factory=dict)
    status: str = "ok"

    def theorem_consistent(self) -> bool:
        values = {self.predicates[k] for k in THEOREM_KEYS}
        return len(values) == 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "degree": self.degree,
            "order": self.order,
            "predicates": {k: self.predicates[k] for k in PREDICATE_KEYS},
            "witnesses": dict(self.witnesses),
            "times": {k: round(v, 6) for k, v in self.times.items()},
            "status": self.status,
        }


def classify(g: GroupTable, name: str = "") -> ClassReport:
    """Build the lattice and one chief series of it once, and evaluate all
    six predicates; the supersoluble verdict and ``cond_lf`` read the series.

    Resource and invariant errors gain the group's name; predicate
    disagreement among the four chain/law/local tests is reported as status
    "mismatch", never raised, so a sweep can show the offending group.
    """
    predicates: dict[str, Optional[bool]] = {}
    witnesses: dict[str, str] = {}
    times: dict[str, float] = {}
    with naming_group(name or "?"):
        start = time.perf_counter()
        lat = all_subgroups(g)
        series = chief_series(lat)
        times["lattice"] = time.perf_counter() - start

        def run(key: str, func) -> None:
            t0 = time.perf_counter()
            ok, witness = func()
            times[key] = time.perf_counter() - t0
            predicates[key] = ok
            if witness is not None:
                witnesses[key] = witness

        run("supersoluble", lambda: _supersoluble_impl(series))
        run("sylow_tower", lambda: _sylow_tower_impl(g))
        run("cond_x", lambda: _condition_x_impl(lat))
        run("cond_b_subgroups", lambda: _condition_b_subgroups_impl(lat))
        run("cond_b_law", lambda: _condition_b_law_impl(g))
        run("cond_lf", lambda: _condition_lf_impl(g, lat, series))

    report = ClassReport(name, g.degree, g.order, predicates, witnesses, times)
    report.status = "ok" if report.theorem_consistent() else "mismatch"
    return report
