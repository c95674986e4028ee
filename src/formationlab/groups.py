"""Fully enumerated finite groups built from permutation generators.

A GroupTable carries a deterministic element ordering (identity first), the
full Cayley table as a numpy array, and inverse/order arrays; subgroups are
bitmasks over element indices, so containment is subset testing on ints and
all heavy algebra runs through the kernels in ``_kernels``.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .perms import Permutation, format_cycles, order_of

__all__ = [
    "DEFAULT_ORDER_BOUND",
    "GroupTable",
    "Subgroup",
    "QuotientMap",
    "close_generators",
    "subgroup_generated",
    "quotient_by",
    "commutator_subgroup",
    "derived_series",
    "lower_central_series",
    "exponent",
    "centralizer",
    "centralizer_mod",
    "default_order_bound",
]

DEFAULT_ORDER_BOUND = 2000


def default_order_bound() -> int:
    """Group-order bound: FORMATIONLAB_MAX_ORDER when set, else 2000."""
    raw = os.environ.get("FORMATIONLAB_MAX_ORDER", "").strip()
    if not raw:
        return DEFAULT_ORDER_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise InputError(f"FORMATIONLAB_MAX_ORDER must be an integer, got {raw!r}")
    if bound < 1:
        raise InputError(f"FORMATIONLAB_MAX_ORDER must be positive, got {bound}")
    return bound


def mask_to_array(mask: int, n: int) -> np.ndarray:
    data = mask.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    return bits[:n].astype(np.bool_)


def array_to_mask(arr: np.ndarray) -> int:
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class GroupTable:
    """A finite permutation group with every element enumerated.

    ``elements[0]`` is the identity; ``mul[i, j]`` is the index of "element i
    then element j"; the ordering is the insertion order of the generator
    closure, so equal generator sequences give bit-identical tables.
    Instances are immutable after construction.
    """

    __slots__ = (
        "degree",
        "generators",
        "elements",
        "element_index",
        "order",
        "mul",
        "inv",
        "elem_orders",
        "gen_indices",
        "_full",
    )

    def __init__(self, degree, generators, elements, mul):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.element_index = {p: i for i, p in enumerate(self.elements)}
        self.mul = mul
        self.inv = np.ascontiguousarray((mul == 0).argmax(axis=1).astype(np.int32))
        self.elem_orders = np.array([order_of(p) for p in self.elements], dtype=np.int64)
        self.gen_indices = tuple(self.element_index[g] for g in self.generators)
        self._full = None

    def full_subgroup(self) -> "Subgroup":
        if self._full is None:
            self._full = Subgroup(self, (1 << self.order) - 1, self.gen_indices)
        return self._full

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1, ())

    def perm(self, index: int) -> Permutation:
        return self.elements[index]

    def index_of(self, p: Permutation) -> int:
        try:
            return self.element_index[p]
        except KeyError:
            raise InputError(f"permutation {format_cycles(p)} is not a group element")

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, degree={self.degree})"


class Subgroup:
    """An element-index bitmask within a parent GroupTable.

    The mask is trusted to be product-closed; use :meth:`from_mask` to
    validate an arbitrary mask.  Lagrange is asserted on every construction.
    """

    __slots__ = ("parent", "mask", "order", "generator_indices")

    def __init__(self, parent: GroupTable, mask: int, generator_indices: Sequence[int]):
        if not mask & 1:
            raise InvariantError("subgroup mask must contain the identity (index 0)")
        self.parent = parent
        self.mask = mask
        self.order = mask.bit_count()
        self.generator_indices = tuple(generator_indices)
        if parent.order % self.order:
            raise InvariantError(
                f"subgroup order {self.order} does not divide group order {parent.order}"
            )

    @classmethod
    def from_mask(cls, parent: GroupTable, mask: int) -> "Subgroup":
        """Build from an untrusted mask: verifies closure, derives generators."""
        arr = mask_to_array(mask, parent.order)
        members = np.flatnonzero(arr)
        if not arr[0]:
            raise InputError("subgroup mask must contain the identity")
        prods = parent.mul[np.ix_(members, members)]
        if not arr[prods].all():
            raise InputError("element set is not closed under multiplication")
        return cls(parent, mask, _greedy_generators(parent.mul, arr)[1])

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask_array())

    def mask_array(self) -> np.ndarray:
        return mask_to_array(self.mask, self.parent.order)

    def generators(self) -> tuple[Permutation, ...]:
        return tuple(self.parent.elements[i] for i in self.generator_indices)

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & ~self.mask == 0

    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        gens = ", ".join(format_cycles(p) for p in self.generators()) or "()"
        return f"Subgroup(order={self.order}, gens=[{gens}])"


def _greedy_generators(mul: np.ndarray, seed_arr: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The subgroup generated by a seed mask, with a short generator list:
    scan the seeds in index order, keeping each one not yet generated and
    closing once per kept seed.  Returns (closed mask, generators)."""
    current = np.zeros(mul.shape[0], np.bool_)
    current[0] = True
    gens: list[int] = []
    for i in np.flatnonzero(seed_arr):
        if not current[i]:
            gens.append(int(i))
            current = _kernels.close_mask(mul, current, gens)
    return current, tuple(gens)


def close_generators(
    degree: int,
    gens: Sequence[Permutation],
    *,
    order_bound: int | None = None,
) -> GroupTable:
    """Enumerate the group generated by ``gens`` on {1..degree}.

    Inductive closure: extend by one generator at a time, appending whole
    right cosets of the previously closed set, with new coset representatives
    produced by multiplying known representatives by the generators taken so
    far.  Insertion order (hence the table) is deterministic.
    """
    if degree < 1:
        raise InputError(f"degree must be a positive integer, got {degree}")
    bound = order_bound if order_bound is not None else default_order_bound()
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} != group degree {degree}")

    id_row = np.arange(degree, dtype=np.int32)
    rows: list[np.ndarray] = [id_row]
    index: dict[bytes, int] = {id_row.tobytes(): 0}
    gen_rows = [np.array(g.images, dtype=np.int32) - 1 for g in gens]

    taken: list[np.ndarray] = []
    for grow in gen_rows:
        taken.append(grow)
        if grow.tobytes() in index:
            continue
        base_count = len(rows)  # rows[:base_count] is the closed subgroup so far
        queue: deque[np.ndarray] = deque([grow])
        while queue:
            rep = queue.popleft()
            if rep.tobytes() in index:
                continue
            for h in rows[:base_count]:
                row = rep[h]  # (h then rep): images rep[h[p]]
                key = row.tobytes()
                if key not in index:
                    if len(rows) >= bound:
                        raise ResourceLimitError("group order exceeds the order bound", bound)
                    index[key] = len(rows)
                    rows.append(row)
            for s in taken:
                queue.append(s[rep])  # (rep then s)

    elements = [Permutation(int(v) + 1 for v in row) for row in rows]
    mul = _build_mul_table(np.array(rows, dtype=np.int32))
    return GroupTable(degree, gens, elements, mul)


def _find_base(rowmat: np.ndarray) -> list[int]:
    """Greedy set of points whose images distinguish all elements."""
    n, d = rowmat.shape
    if n == 1:
        return []
    base: list[int] = []
    ids = np.zeros(n, dtype=np.int64)
    distinct = 1
    for p in range(d):
        if distinct == n:
            break
        combined = ids * d + rowmat[:, p]
        uniq, new_ids = np.unique(combined, return_inverse=True)
        if len(uniq) > distinct:
            base.append(p)
            ids = new_ids
            distinct = len(uniq)
    if distinct != n:
        raise InvariantError("element rows are not distinct")
    return base


def _build_mul_table(rowmat: np.ndarray) -> np.ndarray:
    n = rowmat.shape[0]
    mul = np.empty((n, n), dtype=np.int32)
    if n == 1:
        mul[0, 0] = 0
        return mul
    base = _find_base(rowmat)
    lookup = {rowmat[j, base].tobytes(): j for j in range(n)}
    for i in range(n):
        partial = rowmat[:, rowmat[i, base]]  # row j = images of (i then j) at base
        mul[i] = [lookup[partial[j].tobytes()] for j in range(n)]
    return mul


def as_subgroup(g: Union[GroupTable, Subgroup]) -> Subgroup:
    return g.full_subgroup() if isinstance(g, GroupTable) else g


def subgroup_generated(g: GroupTable, seed: Iterable[int]) -> Subgroup:
    """Least subgroup containing the given element indices."""
    seed_arr = np.zeros(g.order, np.bool_)
    for i in seed:
        i = int(i)
        if not 0 <= i < g.order:
            raise InputError(f"element index {i} out of range 0..{g.order - 1}")
        seed_arr[i] = True
    closed, gens = _greedy_generators(g.mul, seed_arr)
    return Subgroup(g, array_to_mask(closed), gens)


def is_normal_mask(g: GroupTable, member_arr: np.ndarray, conj_gen_indices: Sequence[int]) -> bool:
    """True when the member set is stable under conjugation by the given
    generators (equivalently, by the group they generate)."""
    members = np.flatnonzero(member_arr)
    for ci in conj_gen_indices:
        conj = g.mul[g.mul[g.inv[ci], members], ci]
        if not member_arr[conj].all():
            return False
    return True


class QuotientMap(NamedTuple):
    group: GroupTable
    projection: np.ndarray  # element index -> quotient element index


def quotient_by(g: GroupTable, n_sub: Subgroup) -> QuotientMap:
    """Quotient acting on right cosets by right multiplication.

    Coset representatives are the least element index in each coset; the
    projection is verified to be a homomorphism with kernel exactly ``n_sub``.
    """
    if n_sub.parent is not g:
        raise InputError("subgroup belongs to a different group")
    arr = n_sub.mask_array()
    if not is_normal_mask(g, arr, g.gen_indices):
        raise InputError("cannot form the quotient: subgroup is not normal")
    members = np.flatnonzero(arr)
    coset_id = np.full(g.order, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(g.order):
        if coset_id[x] < 0:
            coset_id[g.mul[members, x]] = len(reps)
            reps.append(x)
    m = len(reps)
    reps_arr = np.array(reps, dtype=np.int64)

    def coset_perm(x: int) -> Permutation:
        return Permutation(int(v) + 1 for v in coset_id[g.mul[reps_arr, x]])

    qgens = [coset_perm(i) for i in g.gen_indices]
    quotient = close_generators(m, qgens, order_bound=m)
    if quotient.order != m:
        raise InvariantError("quotient order does not equal the subgroup index")
    projection = np.array(
        [quotient.element_index[coset_perm(x)] for x in range(g.order)], dtype=np.int32
    )
    for i in g.gen_indices:
        for j in g.gen_indices:
            if projection[g.mul[i, j]] != quotient.mul[projection[i], projection[j]]:
                raise InvariantError("quotient projection is not a homomorphism")
    if array_to_mask(projection == 0) != n_sub.mask:
        raise InvariantError("quotient kernel differs from the given subgroup")
    return QuotientMap(quotient, projection)


def commutator_subgroup(g: GroupTable, a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by all [x, y] with x in a, y in b."""
    ai = a.indices()
    bi = b.indices()
    t = g.mul[np.ix_(g.inv[ai], g.inv[bi])]
    t = g.mul[t, ai[:, None]]
    t = g.mul[t, bi[None, :]]
    seed = np.zeros(g.order, np.bool_)
    seed[t.ravel()] = True
    closed, gens = _greedy_generators(g.mul, seed)
    return Subgroup(g, array_to_mask(closed), gens)


def derived_series(g: Union[GroupTable, Subgroup]) -> list[Subgroup]:
    """G >= G' >= G'' >= ...; stops at the trivial subgroup, or repeats the
    stable term exactly once when the series bottoms out above it."""
    start = as_subgroup(g)
    table = start.parent
    series = [start]
    while series[-1].order > 1:
        nxt = commutator_subgroup(table, series[-1], series[-1])
        series.append(nxt)
        if nxt == series[-2]:
            break
    return series


def lower_central_series(g: Union[GroupTable, Subgroup]) -> list[Subgroup]:
    """G_1 = G, G_{i+1} = [G_i, G]; same tail convention as derived_series."""
    start = as_subgroup(g)
    table = start.parent
    series = [start]
    while series[-1].order > 1:
        nxt = commutator_subgroup(table, series[-1], start)
        series.append(nxt)
        if nxt == series[-2]:
            break
    return series


def exponent(g: Union[GroupTable, Subgroup]) -> int:
    """lcm of the element orders; divides the group order."""
    sub = as_subgroup(g)
    orders = sub.parent.elem_orders[sub.indices()]
    return int(np.lcm.reduce(orders))


def _relative_centralizer(g: GroupTable, h_gen_indices: Sequence[int], k_arr: np.ndarray) -> np.ndarray:
    """Mask of x with [x, h] in K for every h generating H; valid because K is
    normal, so the condition extends from generators to all of H."""
    ok = np.ones(g.order, np.bool_)
    every = np.arange(g.order, dtype=np.int64)
    for hg in h_gen_indices:
        t = g.mul[g.inv[every], g.inv[hg]]
        t = g.mul[t, every]
        t = g.mul[t, hg]
        ok &= k_arr[t]
    return ok


def centralizer(g: GroupTable, s: Subgroup) -> Subgroup:
    """Elements commuting with every member of s."""
    k_arr = np.zeros(g.order, np.bool_)
    k_arr[0] = True
    mask_arr = _relative_centralizer(g, s.generator_indices, k_arr)
    return Subgroup(g, array_to_mask(mask_arr), _greedy_generators(g.mul, mask_arr)[1])


def centralizer_mod(g: GroupTable, h: Subgroup, k: Subgroup) -> Subgroup:
    """C_G(H/K) = {x : [x, h] in K for all h in H}; requires K normal in G
    and K <= H."""
    if not h.contains(k):
        raise InputError("centralizer_mod requires K <= H")
    if not is_normal_mask(g, k.mask_array(), g.gen_indices):
        raise InputError("centralizer_mod requires K normal in the group")
    mask_arr = _relative_centralizer(g, h.generator_indices, k.mask_array())
    return Subgroup(g, array_to_mask(mask_arr), _greedy_generators(g.mul, mask_arr)[1])
