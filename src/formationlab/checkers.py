"""The four predicates whose agreement the harness verifies, plus the
iterated-commutator word machinery behind the law-based one.

The word sequence for a pair (x, y) is u_1 = [x, y] and
u_{k+1} = u_k^(-k) [u_k, y], applied for every k >= 1.  A pair terminates
when some u_k is the identity; since u_{k+1} depends on k only through
k mod e (e the ambient exponent), a repeated (value, k mod e) state proves
the sequence never terminates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .groups import (
    GroupTable,
    Subgroup,
    commutator_subgroup,
    exponent,
    quotient_by,
)
from .lattice import Lattice, all_subgroups, chief_series
from .perms import Permutation, commutator, compose, format_cycles, power
from .predicates import (
    _check_lattice,
    _sylow_tower_impl,
    in_f_p,
    is_cyclic,
    is_nilpotent,
    is_primary,
    is_supersoluble,
)
from .primes import is_prime

__all__ = [
    "BrandlState",
    "BrandlTrace",
    "brandl_next",
    "brandl_terminates",
    "is_p_subnormal",
    "p_subnormal_chain",
    "condition_x",
    "condition_b_subgroups",
    "condition_b_law",
    "condition_lf_f",
    "ClassReport",
    "classify",
]


@dataclass(frozen=True)
class BrandlState:
    """One step of the word iteration: value u_k, its index k, and the fixed
    right argument y."""

    value: Permutation
    step: int
    y: Permutation


@dataclass(frozen=True)
class BrandlTrace:
    terminated: bool
    steps: tuple[Permutation, ...]
    k_final: Optional[int] = None
    cycle_detected: bool = False
    cycle_start: Optional[int] = None
    cycle_length: Optional[int] = None

    def __post_init__(self):
        if self.terminated == self.cycle_detected:
            raise InvariantError("a trace either terminates or cycles, never both")
        if self.terminated and not self.steps[-1].is_identity():
            raise InvariantError("a terminated trace must end at the identity")


def brandl_next(s: BrandlState) -> BrandlState:
    """u_{k+1} = u_k^(-k) [u_k, y]."""
    value = compose(power(s.value, -s.step), commutator(s.value, s.y))
    return BrandlState(value, s.step + 1, s.y)


def brandl_terminates(
    x: Permutation,
    y: Permutation,
    e: int,
    *,
    group_order: int | None = None,
) -> BrandlTrace:
    """Iterate the word sequence for (x, y) until the identity appears or a
    (value, step mod e) state repeats.

    ``e`` must be a multiple of every element order of the ambient group.
    When ``group_order`` is supplied, exceeding group_order * e iterations
    without a repeat raises InvariantError (it is impossible by pigeonhole).
    """
    if x.degree != y.degree:
        raise InputError(f"degree mismatch: {x.degree} vs {y.degree}")
    if e < 1:
        raise InputError(f"exponent must be positive, got {e}")
    cap = group_order * e + 1 if group_order is not None else None
    state = BrandlState(commutator(x, y), 1, y)
    steps: list[Permutation] = []
    seen: dict[tuple[Permutation, int], int] = {}
    while True:
        steps.append(state.value)
        if state.value.is_identity():
            return BrandlTrace(True, tuple(steps), k_final=state.step)
        key = (state.value, state.step % e)
        first = seen.get(key)
        if first is not None:
            return BrandlTrace(
                False,
                tuple(steps),
                cycle_detected=True,
                cycle_start=first,
                cycle_length=state.step - first,
            )
        seen[key] = state.step
        if cap is not None and state.step > cap:
            raise InvariantError("word iteration exceeded the pigeonhole cap without repeating")
        state = brandl_next(state)


def is_p_subnormal(lat: Lattice, h: Subgroup) -> bool:
    """True when a chain h = H_0 < H_1 < ... < H_n = top exists with every
    index |H_i : H_{i-1}| prime."""
    from .lattice import p_reachable

    return p_reachable(lat, h)


def p_subnormal_chain(lat: Lattice, h: Subgroup) -> tuple[list[Subgroup], list[int]] | None:
    """A witness chain (subgroups, prime indices), or None when h is not
    prime-step subnormal.  The chain for h = top is ([top], [])."""
    from .lattice import _bfs_chain

    indices = _bfs_chain(lat, lat.index_of(h))
    if indices is None:
        return None
    subs = [lat.subgroups[i] for i in indices]
    steps = [subs[i + 1].order // subs[i].order for i in range(len(subs) - 1)]
    return subs, steps


def _describe(s: Subgroup) -> str:
    gens = ", ".join(format_cycles(p) for p in s.generators()) or "()"
    return f"<{gens}> of order {s.order}"


def _condition_x_impl(g, lat: Lattice) -> tuple[bool, Optional[str]]:
    _check_lattice(g, lat)
    for s in lat.subgroups:
        if is_primary(s) and is_cyclic(s) and not is_p_subnormal(lat, s):
            return False, f"cyclic primary subgroup {_describe(s)} is not prime-step subnormal"
    return True, None


def condition_x(g, lat: Lattice) -> bool:
    """Every cyclic primary subgroup is prime-step subnormal in the top."""
    return _condition_x_impl(g, lat)[0]


def _condition_b_subgroups_impl(g: GroupTable, lat: Lattice) -> tuple[bool, Optional[str]]:
    _check_lattice(g, lat)
    for h in lat.subgroups:
        derived = commutator_subgroup(lat.parent, h, h)
        if is_nilpotent(derived) and not is_supersoluble(h, lat.restrict(h)):
            return False, (
                f"subgroup {_describe(h)} has nilpotent derived subgroup "
                f"(order {derived.order}) but is not supersoluble"
            )
    return True, None


def condition_b_subgroups(g: GroupTable, lat: Lattice) -> bool:
    """Every subgroup with nilpotent derived subgroup is supersoluble."""
    return _condition_b_subgroups_impl(g, lat)[0]


def _condition_b_law_impl(
    g: GroupTable, *, opposite_convention: bool = False
) -> tuple[bool, Optional[str]]:
    e = exponent(g)
    mul = np.ascontiguousarray(g.mul.T) if opposite_convention else g.mul
    pow_neg = _kernels.negative_power_table(mul, g.inv, e)
    status, x, y = _kernels.brandl_sweep(mul, g.inv, pow_neg, e)
    if status == 1:
        return True, None
    return False, (
        f"pair x={format_cycles(g.elements[x])}, y={format_cycles(g.elements[y])} never terminates"
    )


def condition_b_law(g: GroupTable, *, opposite_convention: bool = False) -> bool:
    """The word sequence terminates for every ordered pair of elements.

    ``opposite_convention`` runs the sweep with the reversed composition
    (b then a); class membership is invariant under that swap, which the
    test suite exercises.
    """
    return _condition_b_law_impl(g, opposite_convention=opposite_convention)[0]


def _condition_lf_impl(g: GroupTable, lat: Lattice) -> tuple[bool, Optional[str]]:
    from .groups import centralizer_mod

    _check_lattice(g, lat)
    for factor in chief_series(lat):
        cent = centralizer_mod(g, factor.upper, factor.lower)
        if cent.is_whole():
            continue  # the quotient is trivial and lies in every f(p)
        quotient = quotient_by(g, cent).group
        for p in factor.primes:
            if not in_f_p(quotient, p):
                return False, (
                    f"chief factor of order {factor.order}: the action group of order "
                    f"{quotient.order} is not soluble of exponent dividing {p} - 1"
                )
    return True, None


def condition_lf_f(g: GroupTable, lat: Lattice) -> bool:
    """For every chief factor H/K and every prime p | |H/K|, the quotient by
    the centralizer of H/K is soluble of exponent dividing p - 1."""
    return _condition_lf_impl(g, lat)[0]


def _supersoluble_witness(lat: Lattice) -> Optional[str]:
    for factor in chief_series(lat):
        if not is_prime(factor.order):
            return f"chief factor of non-prime order {factor.order}"
    return None


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


def classify(
    g: GroupTable,
    name: str = "",
    *,
    subgroup_bound: int | None = None,
) -> ClassReport:
    """Build the lattice once and evaluate all six predicates.

    Resource and invariant errors gain the group's name; predicate
    disagreement among the four chain/law/local tests is reported as status
    "mismatch", never raised, so a sweep can show the offending group.
    """
    from .lattice import DEFAULT_SUBGROUP_BOUND

    bound = subgroup_bound if subgroup_bound is not None else DEFAULT_SUBGROUP_BOUND
    predicates: dict[str, Optional[bool]] = {}
    witnesses: dict[str, str] = {}
    times: dict[str, float] = {}
    try:
        start = time.perf_counter()
        lat = all_subgroups(g, subgroup_bound=bound)
        times["lattice"] = time.perf_counter() - start

        def run(key: str, func) -> None:
            t0 = time.perf_counter()
            ok, witness = func()
            times[key] = time.perf_counter() - t0
            predicates[key] = ok
            if witness is not None:
                witnesses[key] = witness

        run("supersoluble", lambda: (is_supersoluble(g, lat), _supersoluble_witness(lat)))
        run("sylow_tower", lambda: _sylow_tower_witness(g))
        run("cond_x", lambda: _condition_x_impl(g, lat))
        run("cond_b_subgroups", lambda: _condition_b_subgroups_impl(g, lat))
        run("cond_b_law", lambda: _condition_b_law_impl(g))
        run("cond_lf", lambda: _condition_lf_impl(g, lat))
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"group {name or '?'}: {exc.raw_message}", exc.bound)
    except InvariantError as exc:
        raise InvariantError(f"group {name or '?'}: {exc}") from exc

    report = ClassReport(name, g.degree, g.order, predicates, witnesses, times)
    report.status = "ok" if report.theorem_consistent() else "mismatch"
    return report


def _sylow_tower_witness(g: GroupTable) -> tuple[bool, Optional[str]]:
    ok, p = _sylow_tower_impl(g)
    if ok:
        return True, None
    return False, f"Sylow {p}-subgroup is not normal at its tower level"
