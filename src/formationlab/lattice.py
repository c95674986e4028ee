"""Complete subgroup lattices and the lattice-level objects the predicates
consume: conjugacy classes of subgroups, maximal/normal/minimal-normal
subgroups, the Frattini subgroup, chief series, prime-step subnormality,
and each member's derived subgroup and generators, looked up among the
members.

Enumeration is by cyclic extension over conjugacy classes of subgroups
(Neubüser's method, as in Cannon, Cox and Holt, "Computing the subgroup
lattice of a permutation group", J. Symb. Comput. 31, 2001): one
representative H of each class is extended by one cyclic subgroup per
orbit of N_G(H) on the cyclic subgroups and closed, and each newly found
subgroup brings its whole class, found by permuting its mask under
conjugation by the group's generators.  Those orbits are the conjugacy
classes, so the enumerated lattice carries a class id per member.  The
representatives are extended in waves, and all seeds H | <c> of one wave
are closed in one ``close_mask`` call, which bounds its own batches.
Subgroups are deduplicated by element mask, never by isomorphism.

A lattice is one (S, n) bool matrix of element masks, and that matrix is
the only copy of them: each member's mask is a read-only view of its row,
and a member is found by scanning the rows, with no second index of mask
bytes.  ``Lattice`` alone decides the member order, (order, mask), and
labels each conjugacy class by its least member, whatever order the
members arrive in, so every downstream choice depends on the group alone.
Containment between members is stored data, as in Cannon, Cox and Holt:
one boolean product of the matrix with its complement, computed once per
lattice, from which prime-step subnormality, maximal subgroups, minimal
normal subgroups, chief series, derived subgroups, each member's greedy
generators (by joins) and Huppert's supersolubility test are read.
Normality in the top is read off the class ids: a normal member is a class
of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .groups import GroupTable, Subgroup, _lookup, _void_rows
from .primes import prime_divisors

__all__ = [
    "DEFAULT_SUBGROUP_BOUND",
    "Lattice",
    "ChiefFactor",
    "all_subgroups",
    "normal_subgroups",
    "minimal_normal_subgroups",
    "frattini",
    "chief_series",
    "derived_index",
]

DEFAULT_SUBGROUP_BOUND = 10**6


@dataclass(frozen=True)
class ChiefFactor:
    """A factor H/K of a maximal chain of normal subgroups; H is lattice member ``upper_index``."""

    lower: Subgroup
    upper: Subgroup
    order: int
    primes: tuple[int, ...]
    upper_index: int


class Lattice:
    """All subgroups of ``top`` inside a parent GroupTable.

    The lattice sorts its members, whatever order they are given in, into
    (order, mask) order, the highest element index most significant, so the
    trivial subgroup is member 0, the top is the last member, and every
    choice read off the lattice depends on the members alone.  ``matrix`` is
    one read-only (S, n) bool array, and the mask of ``subgroups[i]`` is a
    view of row i, so the masks the members were given with are not kept;
    ``orders`` holds the row counts.  ``containment[i, j]`` holds when
    member i lies in member j: one boolean product, since i lies in j iff
    no element of i is outside j; construction checks that every contained
    pair obeys Lagrange.  ``p_subnormal[i]`` holds when a chain of
    members, each of prime index in the next, leads from member i up to the
    top.  ``class_ids()`` labels each member's conjugacy class under
    ``top`` by the index of its least member; a member is normal in ``top``
    when its class has no other member.
    """

    __slots__ = (
        "parent",
        "top",
        "subgroups",
        "matrix",
        "orders",
        "containment",
        "p_subnormal",
        "_class_ids",
    )

    def __init__(
        self,
        parent: GroupTable,
        top: Subgroup,
        subgroups: Sequence[Subgroup],
        *,
        _class_ids: Sequence[int] | None = None,
    ):
        """``_class_ids``, when given, numbers each member's conjugacy class
        under ``top`` (any numbers, equal within a class), in the order the
        members are given."""
        self.parent = parent
        self.top = top
        members = tuple(subgroups)
        matrix = np.array([s.mask for s in members], np.bool_).reshape(len(members), parent.order)
        orders = np.count_nonzero(matrix, axis=1)
        # one byte key per member: its order in 8 big-endian bytes, then its mask packed highest element first
        keys = np.hstack([orders.astype(">u8").view(np.uint8).reshape(-1, 8), np.packbits(matrix[:, ::-1], axis=1)])
        rank = np.argsort(_void_rows(keys))
        sorted_keys = _void_rows(keys)[rank]
        if (sorted_keys[1:] == sorted_keys[:-1]).any():  # equal masks sort next to each other
            raise InvariantError("duplicate subgroup masks in lattice")
        self.matrix = matrix = matrix[rank]  # the rebinding frees the unsorted copy
        self.matrix.flags.writeable = False
        self.orders = orders[rank]
        # each member's mask is a read-only view of its row; the given masks are not kept
        self.subgroups = tuple(Subgroup(parent, row) for row in self.matrix)
        if not members or self.orders[0] != 1 or not np.array_equal(self.matrix[-1], top.mask):
            raise InvariantError("lattice must contain the trivial subgroup and the top")
        self.containment = ~(self.matrix @ ~self.matrix.T)
        self.containment.flags.writeable = False
        self._class_ids = None
        if _class_ids is not None:
            _, first, inverse = np.unique(np.asarray(_class_ids)[rank], return_index=True, return_inverse=True)
            self._class_ids = first[inverse]
        self.p_subnormal = self._p_subnormal_flags()

    def _p_subnormal_flags(self) -> np.ndarray:
        # Every contained pair must obey Lagrange; then no member can lie
        # strictly between a pair at prime index, so those pairs are the
        # prime steps.  A violation means the enumeration or a mask is broken.
        orders = self.orders
        small, big = np.nonzero(self.containment)
        bad = np.flatnonzero(orders[big] % orders[small])
        if bad.size:
            i, j = small[bad[0]], big[bad[0]]
            raise InvariantError(
                f"Lagrange fails: a member of order {orders[i]} lies in a member of order {orders[j]}"
            )
        prime = np.zeros(self.parent.order + 1, np.bool_)
        prime[list(prime_divisors(self.parent.order))] = True
        step = prime[orders[big] // orders[small]]
        small, big = small[step], big[step]
        # one round per prime step down from the top
        flags = np.arange(len(orders)) == len(orders) - 1
        while (flags[small] < flags[big]).any():
            flags[small[flags[big]]] = True
        flags.flags.writeable = False
        return flags

    # -- indexed access ------------------------------------------------

    def index_of(self, s: Subgroup) -> int:
        """The index of the member with s's mask, found among the rows of
        s's order, which the sort keeps together."""
        if s.parent is self.parent:
            lo, hi = np.searchsorted(self.orders, [s.order, s.order + 1])
            hits = np.flatnonzero((self.matrix[lo:hi] == s.mask).all(axis=1))
            if hits.size:
                return int(lo + hits[0])
        raise InputError("subgroup does not belong to this lattice")

    def __len__(self) -> int:
        return len(self.subgroups)

    def generators(self, i: int) -> tuple[int, ...]:
        """The greedy generators of member i, as element indices: its
        elements in index order, each kept when it is outside the subgroup
        K generated by those kept before.  The lattice is complete, so the
        join <K, x> needs no closure: it is the least member holding K and
        x, the first in lattice order with K inside it, x in it and it
        inside member i (member i itself qualifies, so each step grows K).
        When that first one does not lie in every such member, the join is
        missing and the member list was incomplete."""
        row, contains, gens, cur = self.matrix[i], self.containment, [], 0
        while (outside := row > self.matrix[cur]).any():  # K is member i once it holds its row
            x = int(outside.argmax())
            gens.append(x)
            joins = np.flatnonzero(contains[cur] & self.matrix[:, x] & contains[:, i])
            cur = int(joins[0])
            if not contains[cur, joins].all():
                raise InvariantError("a join is missing from the lattice")
        return tuple(gens)

    # -- normality (relative to top) ------------------------------------

    def normal_flags(self) -> np.ndarray:
        """Member i is normal in ``top`` when it is alone in its conjugacy
        class under ``top``."""
        ids = self.class_ids()
        return np.bincount(ids)[ids] == 1

    def class_ids(self) -> np.ndarray:
        """Conjugacy class of each member under ``top``, labelled by the
        index of the class's least member.  For a lattice built without
        them, conjugation by each of ``top``'s generators (``generators``)
        permutes the members
        (one scatter of the matrix, each image row looked up), and the
        classes are the orbits of those permutations."""
        if self._class_ids is None:
            g, gens = self.parent, self.generators(-1)
            maps = np.empty((len(gens), len(self.subgroups)), np.intp)
            order = np.argsort(_void_rows(self.matrix))
            for row, conj in zip(maps, _kernels.conjugation_maps(g.mul, g.inv, gens)):
                images = np.empty_like(self.matrix)
                images[:, conj] = self.matrix  # every member conjugated by one generator
                row[:] = _lookup(self.matrix, order, images)
                if (row < 0).any():
                    raise InvariantError("a conjugate of a member is missing from the lattice")
            self._class_ids = _kernels.orbit_labels(maps)
        self._class_ids.flags.writeable = False  # every caller shares the labels
        return self._class_ids

    def maximal_indices(self) -> tuple[int, ...]:
        """Members other than the top that lie in no member but themselves
        and the top."""
        # the members other than i and the top that i lies in; -1 for the top
        over = self.containment.sum(axis=1) - 1 - self.containment[:, -1]
        return tuple(np.flatnonzero(over == 0).tolist())


def _class_of(arr: np.ndarray, conjugators: list[np.ndarray]) -> list[np.ndarray]:
    """The conjugacy class of the subgroup with mask ``arr``, as masks in
    breadth-first order from it under the conjugation maps (the orbit
    algorithm)."""
    orbit = [arr]
    seen = {arr.tobytes()}
    for member in orbit:
        for conj in conjugators:
            image = np.empty_like(member)
            image[conj] = member
            key = image.tobytes()
            if key not in seen:
                seen.add(key)
                orbit.append(image)
    return orbit


def all_subgroups(g: GroupTable) -> Lattice:
    """Enumerate every subgroup of g by cyclic extension of class
    representatives.

    Only the first-found member of each conjugacy class is extended; the
    rest of its class is added at once by conjugating masks under the
    group's generators.  Complete because every subgroup K is <H, c> for a
    maximal subgroup H of K and some cyclic c, and conjugation carries this
    over: <H, c>^x = <H^x, c^x>, so extending H's representative H^x by
    <c^x> gives a member of K's class.

    The representative H is extended by one cyclic subgroup per orbit of
    its normaliser N_G(H): for x in N_G(H), <H, c^x> = <H, c>^x is in the
    class that <H, c> brought.  The one closed is the orbit's least in
    ``GroupTable.cyclics`` order, the first that extending by every cyclic
    subgroup in that order would close; the later ones would only find
    conjugates already known.

    Representatives are handled in waves, a wave being those queued when
    the previous one ended.  The wave's distinct seeds not known before it
    are closed in one ``close_mask`` call, each from its mask H | <c>
    rather than from H, so a long cyclic subgroup is not walked one power
    per round, and each seed whose closure is new becomes a representative.
    Only the representatives keep generators, the seed generators H's and
    c's that they are extended by; a member's class brings its mask alone.
    The members go to ``Lattice`` in discovery order, each with the number
    of its class's representative, and ``Lattice`` orders and labels them.
    """
    n = g.order
    mul, inv = g.mul, g.inv
    elements = np.arange(n)
    cyclics, cyclic_id = g.cyclics, g.cyclic_id
    cyclic_gens = np.array([gen for _, gen in cyclics], np.intp)
    conjugators = _kernels.conjugation_maps(mul, inv, g.gen_indices)

    trivial = np.zeros(n, np.bool_)
    trivial[0] = True
    # mask bytes -> (mask, number of its class's representative)
    found: dict[bytes, tuple[np.ndarray, int]] = {trivial.tobytes(): (trivial, 0)}
    seeds_done: set[bytes] = set()
    reps = [(trivial, ())]
    done = 0
    while done < len(reps):  # one wave: the representatives queued so far
        wave, done = reps[done:], len(reps)
        seeds: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}  # distinct seeds, first found first
        for h_arr, h_gens in wave:
            outside = np.flatnonzero(~h_arr[cyclic_gens])  # cyclic subgroups not inside H
            if not outside.size:
                continue
            # x normalises H when x^-1 h x lies in H for each generator h of H
            conjugated = _kernels.conjugates(mul, inv, np.array(h_gens, np.intp), elements[:, None])
            normaliser = np.flatnonzero(h_arr[conjugated].all(axis=1))
            # N_G(H) permutes the outside cyclic subgroups; keep each orbit's least
            images = cyclic_id[_kernels.conjugates(mul, inv, cyclic_gens[outside], normaliser[:, None])]
            for c in outside[images.min(axis=0) == outside]:
                cyc_arr, cyc_gen = cyclics[c]
                seed_arr = h_arr | cyc_arr
                seed_key = seed_arr.tobytes()
                if seed_key not in found and seed_key not in seeds_done:  # else known or closed before
                    seeds.setdefault(seed_key, (seed_arr, h_gens + (cyc_gen,)))
        if not seeds:
            continue
        seeds_done.update(seeds)
        # a representative found in wave w has w generators, so the rows need no padding
        bases = np.array([arr for arr, _ in seeds.values()])
        gen_rows = np.array([gens for _, gens in seeds.values()], np.intp)
        for (_, gens), closed in zip(seeds.values(), _kernels.close_mask(mul, bases, gen_rows)):
            if closed.tobytes() in found:
                continue
            reps.append((closed, gens))
            for member in _class_of(closed, conjugators):
                found[member.tobytes()] = (member, len(reps) - 1)
            if len(found) > DEFAULT_SUBGROUP_BOUND:
                raise ResourceLimitError("subgroup count exceeds the enumeration bound", DEFAULT_SUBGROUP_BOUND)

    subgroups = [Subgroup(g, arr) for arr, _ in found.values()]
    return Lattice(g, g.full_subgroup(), subgroups, _class_ids=[rep for _, rep in found.values()])


def normal_subgroups(lat: Lattice) -> list[Subgroup]:
    flags = lat.normal_flags()
    return [s for i, s in enumerate(lat.subgroups) if flags[i]]


def minimal_normal_subgroups(lat: Lattice) -> list[Subgroup]:
    """The non-trivial normal members containing no other non-trivial
    normal member."""
    normals = np.flatnonzero(lat.normal_flags() & (lat.orders > 1))
    inside = lat.containment[np.ix_(normals, normals)].sum(axis=0)
    return [lat.subgroups[i] for i in normals[inside == 1]]


def frattini(lat: Lattice) -> Subgroup:
    """Intersection of all maximal subgroups (the top itself when none)."""
    maxima = list(lat.maximal_indices())
    if not maxima:
        return lat.top
    # the intersection, when a member, is the largest member inside every maximal subgroup
    idx = np.flatnonzero(lat.containment[:, maxima].all(axis=1))[-1]
    if not np.array_equal(lat.matrix[idx], lat.matrix[maxima].all(axis=0)):
        raise InvariantError("Frattini intersection is missing from the lattice")
    return lat.subgroups[idx]


def chief_series(lat: Lattice) -> list[ChiefFactor]:
    """One maximal chain of normal-in-top subgroups: from each term, the
    normal member of least order above it (the first such in lattice order),
    so no normal subgroup lies strictly between two terms."""
    flags, contains, orders = lat.normal_flags(), lat.containment, lat.orders
    current, top = 0, len(lat) - 1
    factors: list[ChiefFactor] = []
    while current != top:
        nxt = int(np.flatnonzero(flags & contains[current] & (orders > orders[current]))[0])
        ratio = int(orders[nxt] // orders[current])
        factors.append(ChiefFactor(lat.subgroups[current], lat.subgroups[nxt], ratio, prime_divisors(ratio), nxt))
        current = nxt
    return factors


def derived_index(lat: Lattice, i: int) -> int:
    """The index of [H, H] for member H = ``lat.subgroups[i]``: the first
    member inside H, in lattice order, that holds the commutators of the
    pairs of H's generators (``Lattice.generators``) and is normalised by
    them.  Such a member K is normal in H, and H/K is abelian, since H's
    generators commute modulo K; so K contains [H, H], which itself
    qualifies and is the least of them."""
    g = lat.parent
    gens = np.array(lat.generators(i), np.intp)
    values = _kernels.commutators(g.mul, g.inv, gens[:, None], gens[None, :]).ravel()
    candidates = np.flatnonzero(lat.containment[:, i] & lat.matrix[:, values].all(axis=1))
    rows = lat.matrix[candidates]
    normalised = np.ones(len(candidates), np.bool_)
    for conj in _kernels.conjugation_maps(g.mul, g.inv, gens):
        normalised &= (rows[:, conj] | ~rows).all(axis=1)
    return int(candidates[normalised.argmax()])
