"""Independent brute-force oracles the production code is checked against.

Everything here is deliberately dumb pure Python: Cayley tables by composing
every pair of permutations (image rows in numpy), closures by worklist over
int bitmasks, subgroup enumeration by closing S union T for every subset T
of size at most 2 of each known subgroup's complement, prime-step
subnormality by top-down recursion, quotients by explicit coset-product
tables, conjugacy classes of subgroups and of elements by conjugating by
every element (the element classes in numpy), the lattice's bookkeeping
(edges, maximal, normal and minimal normal members, chief series, Huppert's
test) by pairwise subset tests on int bitmasks, and the word sweep's start
states from the commutators of all n*n pairs (numpy, the sweep's earlier
first pass), and the order of a group of 2x2 matrices mod p by breadth-first
search over the matrices (the package closes their permutations of the
vectors).  Second algorithms for nilpotency (normal Sylow subgroups) and
supersolubility (prime-order chief factors) cross-check the package's, and
the Sylow tower and ``cond_lf`` are decided again on quotient group tables
(the package decides both on masks of the group).  The two exceptions are
the package's earlier enumerators, kept as differential references fast
enough for whole-corpus comparisons: ``cyclic_extension_oracle`` (every
subgroup extended by every cyclic subgroup, closed by frontier x members
products), whose members' generators come from their masks alone, and
``sequential_extension_oracle`` (one ``close_mask`` call per seed, before
seeds were closed a wave per call), which pins masks, class ids and edges.
"""

from __future__ import annotations

import numpy as np

from formationlab import _kernels, perms
from formationlab.groups import (
    GroupTable,
    Subgroup,
    as_subgroup,
    centralizer_mod,
    exponent,
    quotient_by,
)
from formationlab.lattice import Lattice, _class_of, _conjugators, _cyclic_masks, chief_series
from formationlab.predicates import _check_lattice, in_f_p
from formationlab.primes import is_prime, p_part, prime_divisors


def mask_int(arr: np.ndarray) -> int:
    """A bool element mask as an int bitmask, bit i for element i."""
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def restrict(lat: Lattice, h: Subgroup) -> Lattice:
    """The complete lattice of h, from the members of ``lat`` inside h."""
    inside = np.flatnonzero(lat.containment[:, lat.index_of(h)])
    return Lattice(lat.parent, h, [lat.subgroups[i] for i in inside])


def linear_group_order_oracle(matrices, p: int) -> int:
    """Order of the group generated by 2x2 matrices mod p, by breadth-first
    search over products of the matrices as tuples."""

    def mat_mul(m1, m2):
        (a, b), (c, d) = m1
        (e, f), (g, h) = m2
        return ((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p)

    ident = ((1, 0), (0, 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gen in matrices:
                prod = mat_mul(m, gen)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def condition_b_law_opposite(g: GroupTable) -> bool:
    """The word law swept with the reversed composition (b then a), on the
    transposed table; class membership is invariant under that swap."""
    mul = np.ascontiguousarray(g.mul.T)
    return _kernels.brandl_sweep(mul, g.inv, g.gen_indices, exponent(g))[0] == 1


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


def cayley_oracle(g: GroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cayley table, inverses and element orders of g's own elements: each
    product and inverse is composed from the elements' image rows and
    looked up by its row bytes."""
    elements = [g.perm(i) for i in range(g.order)]
    rows = np.array([p.images for p in elements], dtype=np.int64) - 1
    width = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    index = {key: i for i, key in enumerate(rows.view(width).ravel().tolist())}

    def lookup(images: np.ndarray) -> list[int]:
        return [index[key] for key in np.ascontiguousarray(images).view(width).ravel().tolist()]

    # a then b maps i to b(a(i)): row a of the table composes every b after a
    mul = np.array([lookup(rows[:, rows[a]]) for a in range(g.order)], dtype=np.int32)
    inv = np.array(lookup(np.argsort(rows, axis=1)), dtype=np.int32)
    orders = np.array([perms.order_of(a) for a in elements], dtype=np.int64)
    return mul, inv, orders


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
    arrs = sorted(found.values(), key=lambda arr: (int(arr.sum()), mask_int(arr)))
    return Lattice(g, g.full_subgroup(), [Subgroup.from_mask(g, arr) for arr in arrs])


def sequential_extension_oracle(g: GroupTable) -> tuple[Lattice, int]:
    """The class-representative cyclic extension of ``all_subgroups``, one
    seed closed at a time from H by ``close_mask``; each member's
    generators are those of the path that found it.  Returns the lattice,
    with class ids in order of discovery, and the number of waves: a
    representative's wave is one more than the wave of the one it extends,
    and the trivial subgroup is wave 0."""
    n = g.order
    mul, inv = g.mul, g.inv
    elements = np.arange(n)
    cyclics, cyclic_id = _cyclic_masks(g)
    cyclic_gens = np.array([gen for _, gen in cyclics], np.intp)
    conjugators = _conjugators(g, g.gen_indices)

    trivial = np.zeros(n, np.bool_)
    trivial[0] = True
    found = {trivial.tobytes(): (trivial, (), 0)}
    seeds_done: set[bytes] = set()
    reps = [(trivial, (), 0)]
    for h_arr, h_gens, wave in reps:  # grows while iterating
        outside = np.flatnonzero(~h_arr[cyclic_gens])
        if not outside.size:
            continue
        conjugated = mul[mul[inv[:, None], list(h_gens)], elements[:, None]]
        normaliser = np.flatnonzero(h_arr[conjugated].all(axis=1))
        images = cyclic_id[mul[mul[inv[normaliser, None], cyclic_gens[outside]], normaliser[:, None]]]
        for c in outside[images.min(axis=0) == outside]:
            cyc_arr, cyc_gen = cyclics[c]
            seed_key = (h_arr | cyc_arr).tobytes()
            if seed_key in found or seed_key in seeds_done:
                continue
            seeds_done.add(seed_key)
            gens = h_gens + (cyc_gen,)
            closed = _kernels.close_mask(mul, h_arr, gens)
            if closed.tobytes() in found:
                continue
            reps.append((closed, gens, wave + 1))
            for member, member_gens in _class_of(closed, gens, conjugators):
                found[member.tobytes()] = (member, member_gens, len(reps) - 1)

    entries = sorted(found.values(), key=lambda t: (int(t[0].sum()), mask_int(t[0])))
    numbering: dict[int, int] = {}
    class_ids = tuple(numbering.setdefault(rep, len(numbering)) for _, _, rep in entries)
    lat = Lattice(
        g, g.full_subgroup(), [Subgroup(g, arr, gens) for arr, gens, _ in entries], _class_ids=class_ids
    )
    return lat, reps[-1][2] + 1


def p_subnormal_oracle(lat: Lattice, h: Subgroup, _memo=None) -> bool:
    """H is the top, or some prime-index subgroup of the top contains H and
    has the property within its own restricted lattice."""
    if _memo is None:
        _memo = {}
    key = (mask_int(lat.top.mask), mask_int(h.mask))
    if key in _memo:
        return _memo[key]
    if h == lat.top:
        result = True
    else:
        result = False
        for m in lat.subgroups:
            if (
                m.order < lat.top.order
                and lat.top.order % m.order == 0
                and is_prime(lat.top.order // m.order)
                and m.contains(h)
                and p_subnormal_oracle(restrict(lat, m), h, _memo)
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


def lattice_bookkeeping_oracle(lat: Lattice) -> dict:
    """The lattice's bookkeeping by pairwise subset tests on int bitmasks:
    prime-index edges, maximal members, normal flags (conjugating every
    element by each generator of the top), minimal normal members, the
    chief series as (lower, upper) index pairs, and Huppert's test on each
    member against the members inside it."""
    g = lat.parent
    masks = [mask_int(s.mask) for s in lat.subgroups]
    orders = [s.order for s in lat.subgroups]
    count = len(masks)
    top = masks.index(mask_int(lat.top.mask))

    def inside(a: int, b: int) -> bool:
        return masks[a] & ~masks[b] == 0

    by_order: dict[int, list[int]] = {}
    for i, order in enumerate(orders):
        by_order.setdefault(order, []).append(i)
    up: list[list[int]] = [[] for _ in masks]
    for j in range(count):
        for p in prime_divisors(orders[j]):
            for i in by_order.get(orders[j] // p, ()):
                if inside(i, j):
                    up[i].append(j)
    up_edges = tuple(tuple(sorted(js)) for js in up)
    maximal = tuple(
        i for i in range(count)
        if i != top and not any(k != top and orders[k] > orders[i] and inside(i, k) for k in range(count))
    )
    mul_rows = g.mul.tolist()
    inv = g.inv.tolist()
    normal = [
        all(masks[i] >> mul_rows[mul_rows[inv[c]][x]][c] & 1 for c in lat.top.generator_indices
            for x in range(g.order) if masks[i] >> x & 1)
        for i in range(count)
    ]
    normals = [i for i in range(count) if normal[i] and orders[i] > 1]
    minimal_normal = [i for i in normals if not any(orders[k] < orders[i] and inside(k, i) for k in normals)]
    chief = []
    current = masks.index(1)
    while current != top:
        nxt = next(k for k in range(count) if normal[k] and orders[k] > orders[current] and inside(current, k))
        chief.append((current, nxt))
        current = nxt
    supersoluble = []
    for h in range(count):
        members = [k for k in range(count) if orders[k] < orders[h] and inside(k, h)]
        prime_index = [k for k in members if is_prime(orders[h] // orders[k])]
        supersoluble.append(all(any(inside(k, m) for m in prime_index) for k in members))
    return {
        "up_edges": up_edges,
        "maximal": maximal,
        "normal": normal,
        "minimal_normal": minimal_normal,
        "chief": chief,
        "supersoluble": supersoluble,
    }


def is_nilpotent_sylow(g) -> bool:
    """Nilpotency as: every Sylow subgroup is normal, i.e. for each prime
    the p-power-order elements number exactly the p-part."""
    sub = as_subgroup(g)
    orders = sub.parent.elem_orders[sub.indices()]
    for p in prime_divisors(sub.order):
        part = p_part(sub.order, p)
        if int((part % orders == 0).sum()) != part:
            return False
    return True


def is_supersoluble_chief(g, lat: Lattice) -> bool:
    """Supersolubility as: every chief factor has prime order."""
    _check_lattice(g, lat)
    return all(is_prime(f.order) for f in chief_series(lat))


def sylow_tower_oracle(g: GroupTable) -> tuple[bool, str | None]:
    """The Sylow tower by peeling quotients, with the classify witness: the
    largest prime of the remaining quotient first, its p-power-order
    elements must number the p-part (then they are its normal Sylow
    subgroup), and the quotient by them is built as a group table."""
    work = g
    while work.order > 1:
        p = max(prime_divisors(work.order))
        part = p_part(work.order, p)
        arr = part % work.elem_orders == 0
        if int(arr.sum()) != part:
            return False, f"Sylow {p}-subgroup is not normal at its tower level"
        work = quotient_by(work, Subgroup.from_mask(work, arr)).group
    return True, None


def condition_lf_oracle(g: GroupTable, lat: Lattice) -> tuple[bool, str | None]:
    """cond_lf with the classify witness, every action group G / C_G(H/K)
    built as a quotient group table and tested by ``in_f_p``."""
    for factor in chief_series(lat):
        quotient = quotient_by(g, centralizer_mod(g, factor.upper, factor.lower)).group
        for p in factor.primes:
            if not in_f_p(quotient, p):
                return False, (
                    f"chief factor of order {factor.order}: the action group of order "
                    f"{quotient.order} is not soluble of exponent dividing {p} - 1"
                )
    return True, None


def subgroup_classes_oracle(lat: Lattice) -> list[int]:
    """Conjugacy class id of each member of a whole-group lattice, by
    conjugating its mask by every element of the group; classes are
    numbered in order of their first member."""
    g = lat.parent
    members = [s.indices().tolist() for s in lat.subgroups]
    index = {mask_int(s.mask): i for i, s in enumerate(lat.subgroups)}
    ids = [-1] * len(members)
    count = 0
    for i, xs in enumerate(members):
        if ids[i] >= 0:
            continue
        for y in range(g.order):
            conj = sum(1 << int(g.mul[g.mul[g.inv[y], x], y]) for x in xs)
            ids[index[conj]] = count
        count += 1
    return ids


def element_classes_oracle(g: GroupTable) -> np.ndarray:
    """Label of each element's conjugacy class, the least index in it, by
    conjugating the element by every element of the group."""
    every = np.arange(g.order)
    return np.array([int(g.mul[g.mul[g.inv, x], every].min()) for x in range(g.order)])


def start_states_oracle(mul: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The sorted distinct start states v*n + y, v = [x, y] not the
    identity, from the commutators of all n*n pairs, in blocks of rows x."""
    n = mul.shape[0]
    marked = np.zeros(n * n, np.bool_)
    y = np.arange(n)[None, :]
    for lo in range(0, n, 256):
        x = np.arange(lo, min(lo + 256, n))[:, None]
        v = mul[mul[mul[inv[x], inv[y]], x], y].astype(np.int64)
        marked[(v * n + y).ravel()] = True
    marked[:n] = False
    return np.flatnonzero(marked)
