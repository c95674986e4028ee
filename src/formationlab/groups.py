"""Fully enumerated finite groups built from permutation generators.

A GroupTable carries a deterministic element ordering (identity first), the
elements in orbit/transversal/base form with a sorted lookup of their base
images (read from the closure's rows, one buffer grown in place), the full
Cayley table as a numpy array in the smallest index dtype, and its cyclic
subgroups, each walked once, giving the element orders and inverses.
A permutation enters and leaves as the tuple of its images of 1..degree:
``close_generators`` checks once that each generator tuple is a bijection,
and an element's tuple is read back only when asked for (``perm``), for
witness text and census specs.  A subgroup is a bool mask over element
indices (a lattice member is a row of one matrix), and all heavy algebra
runs through the kernels in ``_kernels``.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .perms import format_cycles

__all__ = [
    "DEFAULT_ORDER_BOUND",
    "GroupTable",
    "close_generators",
    "exponent",
]

DEFAULT_ORDER_BOUND = 2000
ROW_BUFFER_BYTES = 1 << 16  # the closure's first row buffer (at least one row); it doubles in place


class GroupTable:
    """A finite permutation group with every element enumerated.

    Elements are held in orbit/transversal/base form (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4):
    ``orbit[q]`` numbers point q's orbit, ``images[o, i]`` is element i's
    image of orbit o's least point r, and ``transversal[q]`` is the least
    element taking r to q, so element i's image row is
    ``images[orbit, mul[transversal, i]]``.  Only the identity fixes every
    ``base`` point, so the base images ``keys`` tell the elements apart;
    ``key_order`` sorts them.  Row 0 is the identity; ``mul[i, j]`` is the
    index of "element i then element j", int16 while the order is below
    2^15 and int32 beyond, and ``inv``, ``cyclic_id``, ``transversal`` and
    every index array derived from the table share its dtype.  The ordering
    is the insertion order of the generator closure, so equal generator
    sequences give bit-identical tables.

    ``elem_orders``, ``inv`` and the cyclic subgroups come from one walk
    over each cyclic subgroup, started at its least generator x: the powers
    x, x^2, ..., x^m = 1 give x^k the order m / gcd(k, m) and the inverse
    x^(m - k), and x^k generates <x> when gcd(k, m) = 1.  ``cyclics`` lists
    each non-trivial cyclic subgroup once, as (mask, least generator), in
    order of that generator, and ``cyclic_id[x]`` is the position of <x> in
    it (-1 for the identity).  Instances are immutable after construction.
    """

    __slots__ = (
        "degree",
        "orbit",
        "images",
        "transversal",
        "base",
        "keys",
        "key_order",
        "order",
        "mul",
        "inv",
        "elem_orders",
        "cyclics",
        "cyclic_id",
        "gen_indices",
    )

    def __init__(self, store, mul, gen_indices):
        self.orbit, self.images, self.transversal, self.base, self.keys, self.key_order = store
        self.degree = len(self.orbit)
        n = self.order = mul.shape[0]
        self.mul = mul
        self.elem_orders = np.ones(n, np.int64)
        self.inv = np.zeros(n, mul.dtype)
        self.cyclic_id = np.full(n, -1, mul.dtype)
        self.cyclics: list[tuple[np.ndarray, int]] = []
        for i in range(1, n):
            if self.cyclic_id[i] >= 0:
                continue
            powers = [i]  # powers[k - 1] = x^k, ending at the identity
            while powers[-1] != 0:
                if len(powers) == n:
                    raise InvariantError("an element's powers never reach the identity")
                powers.append(int(mul[powers[-1], i]))
            powers = np.array(powers)
            m = len(powers)
            ks = np.arange(1, m + 1)
            gcd = np.gcd(ks, m)
            self.elem_orders[powers] = m // gcd
            self.inv[powers] = powers[m - 1 - ks]  # x^(m - k); index -1 is x^m = 1
            self.cyclic_id[powers[gcd == 1]] = len(self.cyclics)
            arr = np.zeros(n, np.bool_)
            arr[powers] = True
            self.cyclics.append((arr, i))
        if (mul[np.arange(n), self.inv] != 0).any():
            raise InvariantError("an element times its computed inverse is not the identity")
        self.gen_indices = tuple(gen_indices)

    def full_subgroup(self) -> np.ndarray:
        """The whole group as a subgroup: its read-only all-True mask."""
        full = np.ones(self.order, np.bool_)
        full.flags.writeable = False
        return full

    def perm(self, index: int) -> tuple[int, ...]:
        """Element ``index`` as the tuple of its images of 1..degree."""
        return tuple((self.images[self.orbit, self.mul[self.transversal, index]] + 1).tolist())

    def indices_of(self, block: np.ndarray) -> np.ndarray:
        """The element index of each image row in ``block``, or -1 where the
        row is no element: a lookup of its base images, then a full check."""
        found = _lookup(self.keys, self.key_order, block[:, self.base].astype(self.keys.dtype))
        rows = self.images[self.orbit[:, None], self.mul[self.transversal[:, None], found]].T
        return np.where((rows == block).all(axis=1), found, -1)

    def index_of(self, p: Sequence[int]) -> int:
        """The index of the element with images ``p`` of 1..degree."""
        if len(p) != self.degree:
            raise InputError(
                f"permutation {format_cycles(p)} has degree {len(p)}, not the group's {self.degree}"
            )
        index = int(self.indices_of(np.array(p)[None, :] - 1)[0])
        if index < 0:
            raise InputError(f"permutation {format_cycles(p)} is not a group element")
        return index

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, degree={self.degree})"


def _row_dtype(degree: int):
    return np.int16 if degree < 1 << 15 else np.int32


def _row_keys(block: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, the keys of a row index."""
    buf = block.tobytes()  # C order whatever the layout
    width = block.shape[1] * block.itemsize
    return [buf[i:i + width] for i in range(0, len(buf), width)]


def _void_rows(block: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one void scalar, which sorts and compares
    by the row's bytes; a view when the array is C-contiguous."""
    block = np.ascontiguousarray(block)
    return block.view(np.dtype((np.void, block.shape[1] * block.itemsize))).ravel()


def _lookup(keys: np.ndarray, order: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """The index in ``keys`` of each row of ``block`` (same dtype and
    width), or -1 where the row is absent.  ``order`` is the argsort of
    ``_void_rows(keys)``, or None when the keys are sorted already: one
    binary search per row, then an equality check."""
    void_keys, probes = _void_rows(keys), _void_rows(block)
    found = np.minimum(np.searchsorted(void_keys, probes, sorter=order), len(keys) - 1)
    found = found if order is None else order[found]
    return np.where(void_keys[found] == probes, found, -1)


def _close_rows(degree: int, gen_rows: np.ndarray, bound: int) -> np.ndarray:
    """Image rows of the group generated by ``gen_rows`` in insertion order,
    written into one buffer that doubles in place as it fills (a realloc, so
    no second buffer; never past ``bound``) and found through a dict from
    the hash of a row's bytes to its number.  A hit is checked against the
    stored row, so a hash collision raises rather than merging two elements."""
    dtype = _row_dtype(degree)
    rows = np.empty((max(1, min(bound, ROW_BUFFER_BYTES // (degree * np.dtype(dtype).itemsize))), degree), dtype)
    rows[0] = np.arange(degree)
    index = {hash(rows[0].tobytes()): 0}
    n = 1
    taken: list[np.ndarray] = []
    for grow in gen_rows:
        taken.append(grow)
        m = n  # rows[:m] is the closed subgroup so far
        queue: deque[np.ndarray] = deque([grow])
        while queue:
            rep = queue.popleft()
            key = rep.tobytes()
            if (k := index.get(hash(key))) is not None:
                if rows[k].tobytes() != key:
                    raise InvariantError("two image rows share a hash")
                continue  # else H*rep is disjoint from the cosets already found
            if n + m > bound:
                raise ResourceLimitError("group order exceeds the order bound", bound)
            if n + m > len(rows):  # holds n + m <= 2n rows
                # every view of rows is a statement temporary, so none outlives the
                # realloc; unchecked, as a profiler's hold on rows.resize fails refcheck
                rows.resize((min(2 * len(rows), bound), degree), refcheck=False)
            if m == 1:  # H*rep = {rep}, whose hash was just missed
                rows[n] = rep
                index[hash(key)] = n
            else:  # (h then rep): images rep[h[p]]; no view of rows is kept
                rep.take(rows[:m], out=rows[n:n + m])
                index.update(zip(map(hash, _row_keys(rows[n:n + m])), range(n, n + m)))
                if len(index) != n + m:
                    raise InvariantError("a coset repeats a row's hash")
            n += m
            for s in taken:
                queue.append(s[rep])  # (rep then s)
    return rows[:n]


def _element_store(rows: np.ndarray) -> tuple:
    """The store of GroupTable read from the closed ``rows``.  The base is
    greedy: while an element other than the identity fixes every base point,
    add the first point the least such element moves ([0] if none does)."""
    n, degree = rows.shape
    labels = rows.min(axis=0)  # column q is the orbit of point q
    reps = np.flatnonzero(labels == np.arange(degree))
    orbit = np.searchsorted(reps, labels)
    images = rows.T[reps]
    transversal = np.empty(degree, _row_dtype(n))
    transversal[images[:, ::-1]] = np.arange(n - 1, -1, -1)  # the least element writes last
    base: list[int] = []
    fixing = np.arange(n) > 0  # the elements other than the identity that fix every base point
    while t := int(fixing.argmax()):  # 0 once no such element is left
        p = int((rows[t] != np.arange(degree)).argmax())
        base.append(p)
        fixing &= rows[:, p] == p
    base = np.array(base or [0])
    keys = rows[:, base]
    return orbit, images, transversal, base, keys, np.argsort(_void_rows(keys))


def close_generators(
    degree: int,
    gens: Sequence[Sequence[int]],
    *,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> GroupTable:
    """Enumerate the group generated by ``gens`` on {1..degree}, each the
    tuple of its images of 1..degree; one that is not a permutation of
    1..degree raises InputError, and a group of more than ``order_bound``
    elements raises ResourceLimitError before its rows outgrow the bound.

    Inductive closure on image rows: extend by one generator at a time,
    appending whole right cosets H*rep of the previously closed set H (one
    2-D take per coset), with new coset representatives produced by
    multiplying known representatives by the generators taken so far.  Each
    row is held once, in one buffer grown in place to (order, degree) and
    indexed by the hashes of the rows' bytes (``_close_rows``); it is dropped
    once the store (see GroupTable) and each generator's Cayley row, looked
    up by base images, are read from it, before a page of the table is
    touched.  Insertion order (hence the table) is deterministic.  The rest
    of the table, in the smallest index dtype, is filled by rows: (s then i)
    is ``mul[s][mul[i]]``; every row must be reached exactly once.
    """
    if degree < 1:
        raise InputError(f"degree must be a positive integer, got {degree}")
    for g in gens:
        if len(g) != degree:
            raise InputError(f"generator degree {len(g)} != group degree {degree}")
    gen_rows = np.array(gens, np.int64).reshape(len(gens), degree) - 1
    inside = (gen_rows >= 0) & (gen_rows < degree)
    hit = np.zeros(gen_rows.shape, np.bool_)  # hit[g, q]: generator g takes some point to q
    hit[np.nonzero(inside)[0], gen_rows[inside]] = True
    if not (inside.all() and hit.all()):
        raise InputError(f"a generator is not a permutation of 1..{degree}")
    gen_rows = gen_rows.astype(_row_dtype(degree))

    rows = _close_rows(degree, gen_rows, order_bound)
    store = _element_store(rows)
    base, keys, key_order = store[3:]
    gen_indices = _lookup(keys, key_order, gen_rows[:, base]).tolist()
    gen_mul: dict[int, list[int]] = {}  # each distinct non-identity generator's table row
    for s, grow in zip(gen_indices, gen_rows):
        if s and s not in gen_mul:  # (s then j) maps b to j[s[b]]
            row = _lookup(keys, key_order, rows[:, grow[base]])
            if row.min() < 0:
                raise InvariantError("a generator's product with an element is no element")
            gen_mul[s] = row.tolist()
    n = len(rows)
    mul = np.empty((n, n), dtype=_row_dtype(n))  # its pages are touched only once the rows are gone
    del rows
    mul[0] = np.arange(n)
    for s, row in gen_mul.items():
        mul[s] = row
    reached = [0, *gen_mul]
    seen = set(reached)
    for i in reached:  # grows while iterating
        for s, srow in gen_mul.items():
            if (k := srow[i]) not in seen:
                seen.add(k)
                mul[s].take(mul[i], out=mul[k])
                reached.append(k)
    if len(reached) != n:
        raise InvariantError("Cayley table rows not reached from the generators")
    return GroupTable(store, mul, gen_indices)


def exponent(g: GroupTable) -> int:
    """lcm of the element orders; divides the group order."""
    return int(np.lcm.reduce(g.elem_orders))


def _centralizer_mod_mask(g: GroupTable, h: np.ndarray, k: np.ndarray, h_gens: Sequence[int]) -> np.ndarray:
    """The mask of C_G(H/K) = {x : [x, h] in K for all h in H}, for masks h
    and k; requires K normal in G, K <= H, and ``h_gens`` to generate H,
    which consecutive terms of a chief series meet by construction.  It
    is the x with [x, h] in K for every h in ``h_gens``, which suffices as
    K is normal, so the condition extends from generators to all of H."""
    hi = np.array(h_gens, dtype=np.intp)
    return k[_kernels.commutators(g.mul, g.inv, np.arange(g.order)[:, None], hi[None, :])].all(axis=1)
