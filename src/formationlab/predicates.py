"""Class-membership tests for the auxiliary group classes: cyclic, primary,
nilpotent, supersoluble, and Sylow tower of supersoluble type.

Cyclicity and nilpotency are read off element orders (one count of
p-elements per prime), supersolubility is judged by Huppert's theorem on
the members of a subgroup lattice, and the Sylow-tower test works on masks
of the group (the preimages of its quotients' subgroups), so none of them
builds a group table or a lattice.  A subgroup's element orders are
``g.elem_orders[mask]``.  The independent second algorithms for
nilpotency (the lower central series), supersolubility and the Sylow tower
live with the test suite's oracles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from .errors import InputError
from .groups import GroupTable
from .lattice import Lattice
from .primes import p_part, prime_divisors

__all__ = [
    "is_cyclic",
    "is_primary",
    "is_nilpotent",
    "is_supersoluble",
    "has_sylow_tower_sst",
]


def is_cyclic(orders: np.ndarray) -> bool:
    """True when some element order equals the group order; ``orders`` holds every element's."""
    return bool(orders.max() == len(orders))


def is_primary(order: int) -> bool:
    """Order is a power of a single prime; the trivial group does not count."""
    return order > 1 and len(prime_divisors(order)) == 1


def is_nilpotent(orders: np.ndarray) -> bool:
    """Nilpotent iff every Sylow subgroup is normal, i.e. for each prime p
    the elements of p-power order number exactly the p-part of the order
    (then they are the one Sylow p-subgroup); ``orders`` holds every element's."""
    for p in prime_divisors(len(orders)):
        part = p_part(len(orders), p)
        if int((part % orders == 0).sum()) != part:
            return False
    return True


def _check_lattice(g: GroupTable, lat: Lattice) -> None:
    """``lat`` must be g's own lattice: g's table, with all of g on top."""
    if lat.parent is not g or not lat.top.all():
        raise InputError("lattice does not belong to the given group")


def is_supersoluble(g: GroupTable, lat: Lattice) -> bool:
    """Huppert's test (``_huppert``) on the top of g's own lattice."""
    _check_lattice(g, lat)
    return _huppert(lat, len(lat) - 1)


def _huppert(lat: Lattice, h: int) -> bool:
    """Huppert's theorem (Math. Z. 60 (1954) 409-434): a finite group is
    supersoluble iff every maximal subgroup has prime index, i.e. every
    proper subgroup lies in one of prime index.  The group is member h of
    ``lat``; the members inside it are its subgroups, read off the
    lattice's containment matrix.
    """
    order = int(lat.orders[h])
    contains = lat.containment
    proper = contains[:, h] & (lat.orders < order)
    prime_index = np.zeros_like(proper)
    for p in prime_divisors(order):
        prime_index |= lat.orders * p == order
    prime_index &= proper
    return bool((contains[proper] @ prime_index).all())


def has_sylow_tower_sst(g: GroupTable) -> bool:
    """Sylow tower of supersoluble type: peeling primes largest-first, each
    Sylow subgroup is normal in the remaining quotient.  The test works on
    masks of g, the preimages of the quotients' subgroups."""
    return _sylow_tower_impl(g)[0]


def _sylow_tower_impl(g: GroupTable) -> tuple[bool, Optional[str]]:
    """N runs through the tower's terms as masks of g.  With p^a the
    p-part of |G|, xN has p-power order in G/N iff x^(p^a) lies in N, so
    ``above`` is the preimage of G/N's p-elements; they form a (normal)
    Sylow subgroup iff there are |N| * p^a of them, and then ``above`` is
    the next term.  The witness names the first prime whose Sylow subgroup
    fails."""
    every = np.arange(g.order)
    below = np.zeros(g.order, np.bool_)
    below[0] = True
    for p in sorted(prime_divisors(g.order), reverse=True):
        part = p_part(g.order, p)
        above = below[_kernels.powers(g.mul, every, part)]
        if int(above.sum()) != int(below.sum()) * part:
            return False, f"Sylow {p}-subgroup is not normal at its tower level"
        below = above
    return True, None
