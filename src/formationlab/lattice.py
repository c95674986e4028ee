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
the only copy of them: a member is named by its index, its mask is its
row, and a mask is found by one binary search over the packed keys the
members are sorted by (``Lattice.find``).  ``Lattice`` alone decides that order,
(order, mask), and labels each conjugacy class by its least member, so
every downstream choice depends on the group alone.
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
from .errors import InvariantError, ResourceLimitError
from .groups import GroupTable, _lookup, _void_rows
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
    """A factor H/K of a maximal chain of normal subgroups, K and H by member index."""

    lower: int
    upper: int
    order: int
    primes: tuple[int, ...]


class Lattice:
    """All subgroups of ``top`` inside a parent GroupTable.

    ``top`` and the members are bool masks (any sequence of n-vectors, or
    one (S, n) array).  The member list must be complete, every join of two
    members a member: ``generators`` reads joins and does not always notice
    a missing one.  ``all_subgroups`` meets this; a hand-built list must too.
    The lattice sorts its members, whatever order they are given in, into
    (order, mask) order, the highest element index most significant, so the
    trivial subgroup is member 0, the top is the last member, and every
    choice read off the lattice depends on the members alone.  Member i is
    row i of ``matrix``, one read-only (S, n) bool array (also ``subgroups``;
    ``top`` views its last row), so the given masks are not kept; ``orders``
    holds the row counts, ``_keys`` the sorted byte keys that ``find``
    searches.  ``containment[i, j]`` holds when member i lies in member j:
    one boolean product, since i lies in j iff no element of i is outside
    j; construction checks that every member holds the identity and that
    every contained pair obeys Lagrange.
    ``p_subnormal[i]`` holds when a chain of members, each of prime index in
    the next, leads from member i up to the top.  ``class_ids()`` labels
    each member's conjugacy class under ``top`` by the index of its least
    member; a member is normal in ``top`` when its class has no other
    member.
    """

    __slots__ = (
        "parent",
        "top",
        "matrix",
        "orders",
        "containment",
        "p_subnormal",
        "_keys",
        "_class_ids",
    )

    def __init__(
        self,
        parent: GroupTable,
        top: np.ndarray,
        subgroups: Sequence[np.ndarray] | np.ndarray,
        *,
        _class_ids: Sequence[int] | None = None,
    ):
        """``_class_ids``, when given, numbers each member's conjugacy class
        under ``top`` (any numbers, equal within a class), in the order the
        members are given."""
        self.parent = parent
        matrix = np.asarray(subgroups, np.bool_).reshape(len(subgroups), parent.order)
        keys = _mask_keys(matrix)
        rank = np.argsort(_void_rows(keys))
        self._keys = keys = keys[rank]  # the rebinding frees the unsorted keys
        sorted_keys = _void_rows(keys)
        if (sorted_keys[1:] == sorted_keys[:-1]).any():  # equal masks sort next to each other
            raise InvariantError("duplicate subgroup masks in lattice")
        self.matrix = matrix = matrix[rank]  # the rebinding frees the unsorted copy
        self.matrix.flags.writeable = False
        self.orders = np.count_nonzero(matrix, axis=1)
        if not len(matrix) or self.orders[0] != 1 or not np.array_equal(matrix[-1], top):
            raise InvariantError("lattice must contain the trivial subgroup and the top")
        if not matrix[:, 0].all():
            raise InvariantError("every subgroup mask must contain the identity (index 0)")
        self.top = matrix[-1]
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

    def find(self, masks: np.ndarray) -> np.ndarray:
        """The member index of each row of a (k, n) bool mask matrix, or -1."""
        return _lookup(self._keys, None, _mask_keys(masks))

    @property
    def subgroups(self) -> np.ndarray:
        """The member masks: ``matrix`` itself, not a copy."""
        return self.matrix

    def __len__(self) -> int:
        return len(self.matrix)

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
        permutes the members (one scatter of the matrix, the image rows
        looked up by ``find``), and the classes are the orbits of those
        permutations."""
        if self._class_ids is None:
            g, gens = self.parent, self.generators(-1)
            maps = np.empty((len(gens), len(self)), np.intp)
            for row, conj in zip(maps, _kernels.conjugation_maps(g.mul, g.inv, gens)):
                images = np.empty_like(self.matrix)
                images[:, conj] = self.matrix  # every member conjugated by one generator
                row[:] = self.find(images)
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


def _mask_keys(masks: np.ndarray) -> np.ndarray:
    """Each row's byte key, which sorts as (order, mask): the row's count in
    8 big-endian bytes, then the row packed highest element first."""
    counts = np.count_nonzero(masks, axis=1).astype(">u8").view(np.uint8).reshape(-1, 8)
    return np.hstack([counts, np.packbits(masks[:, ::-1], axis=1)])


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
    No seed is closed twice, so no memo of past waves is kept: were
    H | <c> = H' | <c'> for representatives H != H', then H' lies in H or
    <c> and H in H' or <c'>, no group being a union of two proper
    subgroups, so the seed is <c> or <c'>, known before its wave, or H and
    H' are cyclic, both in the first wave, whose seeds one dict merges.
    Seeds and members are held as mask bytes alone, keyed to a seed's
    generators, H's and c's, and to a member's class representative; the
    members reach ``Lattice`` as one matrix over their joined bytes.
    """
    n = g.order
    mul, inv = g.mul, g.inv
    elements = np.arange(n)
    cyclics, cyclic_id = g.cyclics, g.cyclic_id
    cyclic_gens = np.array([gen for _, gen in cyclics], np.intp)
    conjugators = _kernels.conjugation_maps(mul, inv, g.gen_indices)

    reps = [(b"\1" + bytes(n - 1), ())]  # (mask bytes, generators): the identity alone
    found = {reps[0][0]: 0}  # mask bytes -> number of its class's representative
    done = 0
    while done < len(reps):  # one wave: the representatives queued so far
        wave, done = reps[done:], len(reps)
        seeds: dict[bytes, tuple[int, ...]] = {}  # distinct seed masks -> generators, first found first
        for h_key, h_gens in wave:
            h_arr = np.frombuffer(h_key, np.bool_)
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
                if (seed_key := (h_arr | cyc_arr).tobytes()) not in found:  # else a subgroup known before
                    seeds.setdefault(seed_key, h_gens + (cyc_gen,))
        if not seeds:
            continue
        # close_mask copies this read-only base; a wave's seeds have equally many generators
        bases = np.frombuffer(b"".join(seeds), np.bool_).reshape(len(seeds), n)
        for gens, closed in zip(seeds.values(), _kernels.close_mask(mul, bases, np.array(list(seeds.values())))):
            if closed.tobytes() in found:
                continue
            keys = [member.tobytes() for member in _class_of(closed, conjugators)]
            reps.append((keys[0], gens))
            found.update(dict.fromkeys(keys, len(reps) - 1))
            if len(found) > DEFAULT_SUBGROUP_BOUND:
                raise ResourceLimitError("subgroup count exceeds the enumeration bound", DEFAULT_SUBGROUP_BOUND)

    masks = np.frombuffer(b"".join(found), np.bool_).reshape(len(found), n)
    class_ids = list(found.values())
    del found  # its keys are freed before Lattice sorts the joined masks
    return Lattice(g, g.full_subgroup(), masks, _class_ids=class_ids)


def normal_subgroups(lat: Lattice) -> np.ndarray:
    """The indices of the members normal in the top."""
    return np.flatnonzero(lat.normal_flags())


def minimal_normal_subgroups(lat: Lattice) -> np.ndarray:
    """The indices of the non-trivial normal members holding no other one."""
    normals = np.flatnonzero(lat.normal_flags() & (lat.orders > 1))
    inside = lat.containment[np.ix_(normals, normals)].sum(axis=0)
    return normals[inside == 1]


def frattini(lat: Lattice) -> int:
    """The index of the intersection of all maximal subgroups (the top when none)."""
    maxima = list(lat.maximal_indices())
    if not maxima:
        return len(lat) - 1
    idx = int(lat.find(lat.matrix[maxima].all(axis=0)[None])[0])
    if idx < 0:
        raise InvariantError("Frattini intersection is missing from the lattice")
    return idx


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
        factors.append(ChiefFactor(current, nxt, ratio, prime_divisors(ratio)))
        current = nxt
    return factors


def derived_index(lat: Lattice, i: int) -> int:
    """The index of [H, H] for member H = i of ``lat``: the first
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
