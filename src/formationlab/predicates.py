"""Class-membership tests for the auxiliary group classes: abelian, cyclic,
primary, soluble, nilpotent, supersoluble, Sylow tower of supersoluble type,
and the local class "soluble of exponent dividing p-1".

The independent second algorithms for nilpotency and supersolubility live
with the test suite's oracles.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import InputError
from .groups import (
    GroupTable,
    Subgroup,
    array_to_mask,
    as_subgroup,
    derived_series,
    exponent,
    lower_central_series,
    quotient_by,
)
from .lattice import Lattice
from .primes import is_prime, p_part, prime_divisors

__all__ = [
    "is_abelian",
    "is_cyclic",
    "is_primary",
    "is_soluble",
    "is_nilpotent",
    "is_supersoluble",
    "has_sylow_tower_sst",
    "in_f_p",
]

GroupLike = Union[GroupTable, Subgroup]


def is_abelian(g: GroupLike) -> bool:
    sub = as_subgroup(g)
    mul = sub.parent.mul
    gens = sub.generator_indices
    return all(mul[a, b] == mul[b, a] for a in gens for b in gens)


def is_cyclic(g: GroupLike) -> bool:
    """True when some element order equals the group order."""
    sub = as_subgroup(g)
    if sub.order == 1:
        return True
    return bool((sub.parent.elem_orders[sub.indices()] == sub.order).max())


def is_primary(g: GroupLike) -> bool:
    """Order is a power of a single prime; the trivial group does not count."""
    order = as_subgroup(g).order
    return order > 1 and len(prime_divisors(order)) == 1


def is_soluble(g: GroupLike) -> bool:
    return derived_series(g)[-1].order == 1


def is_nilpotent(g: GroupLike) -> bool:
    return lower_central_series(g)[-1].order == 1


def _check_lattice(g: GroupLike, lat: Lattice) -> Subgroup:
    sub = as_subgroup(g)
    if lat.top.mask != sub.mask or lat.parent is not sub.parent:
        raise InputError("lattice does not belong to the given group")
    return sub


def is_supersoluble(g: GroupLike, lat: Lattice) -> bool:
    """Reachability from the trivial subgroup to the top along prime-index
    steps that stay inside the normal subgroups: exactly a chain
    1 = N_0 < N_1 < ... < N_m = G with every N_i normal and every index prime.
    """
    _check_lattice(g, lat)
    flags = lat.normal_flags()
    start = lat.index_of(lat.parent.trivial_subgroup())
    goal = lat.top_index()
    seen = {start}
    queue = [start]
    while queue:
        i = queue.pop()
        if i == goal:
            return True
        for j in lat.up_edges[i]:
            if j not in seen and flags[j]:
                seen.add(j)
                queue.append(j)
    return False


def _normal_sylow_mask(g: GroupTable, p: int) -> np.ndarray | None:
    """Mask of p-power-order elements when they form the (then unique, hence
    normal) Sylow p-subgroup; None when the Sylow subgroups are not normal."""
    part = p_part(g.order, p)
    arr = part % g.elem_orders == 0
    if int(arr.sum()) != part:
        return None
    return arr


def has_sylow_tower_sst(g: GroupTable, lat: Lattice | None = None) -> bool:
    """Sylow tower of supersoluble type: peeling primes largest-first, each
    Sylow subgroup is normal in the remaining quotient.

    The lattice parameter keeps the predicate call signature uniform; the
    test itself runs on quotients, where no lattice exists.
    """
    ok, _ = _sylow_tower_impl(g)
    return ok


def _sylow_tower_impl(g: GroupTable) -> tuple[bool, int | None]:
    work = g
    while work.order > 1:
        p = max(prime_divisors(work.order))
        arr = _normal_sylow_mask(work, p)
        if arr is None:
            return False, p
        sylow = Subgroup.from_mask(work, array_to_mask(arr))
        work = quotient_by(work, sylow).group
    return True, None


def in_f_p(g: GroupTable, p: int) -> bool:
    """Soluble with exponent dividing p-1; contains the trivial group."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return is_soluble(g) and (p - 1) % exponent(g) == 0
