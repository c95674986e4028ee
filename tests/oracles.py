"""Independent brute-force oracles the production code is checked against.

Everything here is deliberately dumb pure Python: closures by worklist over
int bitmasks, subgroup enumeration by closing S union T for every subset T of
size at most 2 of each known subgroup's complement, prime-step subnormality
by top-down recursion, and quotients by explicit coset-product tables.  The
one exception is ``cyclic_extension_oracle``, the package's earlier
enumerator (every subgroup extended by every cyclic subgroup, closed by
frontier x members products), kept as a differential reference that is fast
enough for whole-corpus comparisons.
"""

from __future__ import annotations

import numpy as np

from formationlab.groups import GroupTable, Subgroup, array_to_mask
from formationlab.lattice import Lattice
from formationlab.primes import is_prime


def py_close(mul_rows: list[list[int]], seed: int) -> int:
    """Closure of the seed bitmask under the product, as an int bitmask."""
    mask = seed | 1
    queue = [i for i in range(len(mul_rows)) if mask >> i & 1]
    members = list(queue)
    while queue:
        x = queue.pop()
        for y in list(members):
            for p in (mul_rows[x][y], mul_rows[y][x]):
                if not mask >> p & 1:
                    mask |= 1 << p
                    members.append(p)
                    queue.append(p)
    return mask


def all_subgroups_oracle(g: GroupTable) -> set[int]:
    """Every subgroup mask, found by closing S | {x} and S | {x, y} for all
    x, y outside each known S, iterated to a fixpoint."""
    n = g.order
    mul_rows = [[int(v) for v in row] for row in g.mul]
    single: dict[tuple[int, int], int] = {}

    def extend(mask: int, x: int) -> int:
        key = (mask, x)
        got = single.get(key)
        if got is None:
            got = single[key] = py_close(mul_rows, mask | 1 << x)
        return got

    found = {py_close(mul_rows, 1)}
    frontier = list(found)
    while frontier:
        fresh: list[int] = []
        for s in frontier:
            outside = [x for x in range(n) if not s >> x & 1]
            for i, x in enumerate(outside):
                k1 = extend(s, x)
                if k1 not in found:
                    found.add(k1)
                    fresh.append(k1)
                for y in outside[i + 1 :]:
                    k2 = k1 if k1 >> y & 1 else extend(k1, y)
                    if k2 not in found:
                        found.add(k2)
                        fresh.append(k2)
        frontier = fresh
    return found


def _close_pair_products(mul: np.ndarray, base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Close ``base | extra`` (base product-closed) by multiplying every new
    element by every member on both sides until nothing new appears."""
    mask = base | extra
    frontier = np.flatnonzero(extra & ~base)
    while frontier.size:
        members = np.flatnonzero(mask)
        prods = np.concatenate(
            (mul[np.ix_(frontier, members)].ravel(), mul[np.ix_(members, frontier)].ravel())
        )
        new = np.zeros_like(mask)
        new[prods] = True
        new &= ~mask
        mask |= new
        frontier = np.flatnonzero(new)
    return mask


def cyclic_extension_oracle(g: GroupTable) -> Lattice:
    """Every subgroup, found by extending every known subgroup (not just one
    per conjugacy class) by every cyclic subgroup, to a fixpoint."""
    n = g.order
    cyclics: dict[bytes, np.ndarray] = {}
    for i in range(1, n):
        arr = np.zeros(n, np.bool_)
        arr[0] = True
        j = i
        while j != 0:
            arr[j] = True
            j = int(g.mul[j, i])
        cyclics.setdefault(arr.tobytes(), arr)
    trivial = np.zeros(n, np.bool_)
    trivial[0] = True
    found = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for h_arr in frontier:
            for cyc_arr in cyclics.values():
                if not (cyc_arr & ~h_arr).any():
                    continue  # already inside h
                closed = _close_pair_products(g.mul, h_arr, cyc_arr)
                if closed.tobytes() not in found:
                    found[closed.tobytes()] = closed
                    fresh.append(closed)
        frontier = fresh
    masks = sorted((array_to_mask(arr) for arr in found.values()), key=lambda m: (m.bit_count(), m))
    return Lattice(g, g.full_subgroup(), [Subgroup.from_mask(g, m) for m in masks])


def p_subnormal_oracle(lat: Lattice, h: Subgroup, _memo=None) -> bool:
    """H is the top, or some prime-index subgroup of the top contains H and
    has the property within its own restricted lattice."""
    if _memo is None:
        _memo = {}
    key = (lat.top.mask, h.mask)
    if key in _memo:
        return _memo[key]
    if h.mask == lat.top.mask:
        result = True
    else:
        result = False
        for m in lat.subgroups:
            if (
                m.order < lat.top.order
                and lat.top.order % m.order == 0
                and is_prime(lat.top.order // m.order)
                and m.contains(h)
                and p_subnormal_oracle(lat.restrict(m), h, _memo)
            ):
                result = True
                break
    _memo[key] = result
    return result


def quotient_oracle(g: GroupTable, n_mask: int) -> tuple[int, set[frozenset[int]]]:
    """Right cosets of the subgroup with the given mask, and the induced
    coset product table; returns (coset count, set of cosets)."""
    members = [i for i in range(g.order) if n_mask >> i & 1]
    cosets: list[frozenset[int]] = []
    where: dict[int, int] = {}
    for x in range(g.order):
        if x in where:
            continue
        coset = frozenset(int(g.mul[m, x]) for m in members)
        for y in coset:
            where[y] = len(cosets)
        cosets.append(coset)
    # well-definedness of the product on cosets = normality in action
    for a in cosets:
        for b in cosets:
            images = {where[int(g.mul[x, y])] for x in a for y in b}
            assert len(images) == 1, "coset product is not well defined"
    return len(cosets), set(cosets)


def commutator_values_oracle(g: GroupTable, a_mask: int, b_mask: int) -> int:
    """Closure of the set of all commutators [x, y], x in A, y in B."""
    mul_rows = [[int(v) for v in row] for row in g.mul]
    inv = [int(v) for v in g.inv]
    seed = 1
    for x in range(g.order):
        if not a_mask >> x & 1:
            continue
        for y in range(g.order):
            if not b_mask >> y & 1:
                continue
            c = mul_rows[mul_rows[mul_rows[inv[x]][inv[y]]][x]][y]
            seed |= 1 << c
    return py_close(mul_rows, seed)
