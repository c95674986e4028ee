"""Complete subgroup lattices and the lattice-level objects the predicates
consume: conjugacy classes of subgroups, maximal/normal/minimal-normal
subgroups, the Frattini subgroup, chief series, and prime-index
reachability.

Enumeration is by cyclic extension over conjugacy classes of subgroups
(Neubüser's method, as in Cannon, Cox and Holt, "Computing the subgroup
lattice of a permutation group", J. Symb. Comput. 31, 2001): one
representative H of each class is extended by one cyclic subgroup per
orbit of N_G(H) on the cyclic subgroups and closed, and each newly found
subgroup brings its whole class, found by permuting its mask under
conjugation by the group's generators.  Those orbits are the conjugacy
classes, so the enumerated lattice carries a class id per member.  The
representatives are extended in waves, and all seeds H | <c> of one wave
are closed together in batched ``close_mask`` calls.  Subgroups are
deduplicated by element mask, never by isomorphism, and the lattice order
is (order, mask) so every downstream choice is reproducible.

A lattice is one (S, n) bool matrix of element masks, each member a row of
it.  Containment between members is stored data, as in Cannon, Cox and
Holt: one boolean product of the matrix with its complement, computed once
per lattice, from which the prime-index edges, maximal subgroups,
minimal normal subgroups, chief series and Huppert's supersolubility test
are read.  Normality in the top is read off the class ids: a normal member
is a class of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .groups import GroupTable, Subgroup, _row_keys
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
    "p_reachable",
]

DEFAULT_SUBGROUP_BOUND = 10**6
# Most products (rows * order * generators) of one batched closure call,
# which bounds its temporary arrays to a few MB however large the wave.
CLOSE_BATCH_PRODUCTS = 1 << 18


@dataclass(frozen=True)
class ChiefFactor:
    """A factor H/K of a maximal chain of normal subgroups."""

    lower: Subgroup
    upper: Subgroup
    order: int
    primes: tuple[int, ...]


class Lattice:
    """All subgroups of ``top`` inside a parent GroupTable.

    ``matrix`` is one read-only (S, n) bool array, row i a copy of the
    element mask of ``subgroups[i]``, and ``orders`` its row counts.  The
    members keep the order they are given in; ``all_subgroups`` gives them
    in (order, mask) order.  ``containment[i, j]`` holds when member i lies
    in member j: one boolean product, since i lies in j iff no element of i
    is outside j; construction checks that every contained pair obeys
    Lagrange.  ``up_edges[i]`` lists the lattice indices j with
    subgroups[i] < subgroups[j] at prime index.  Conjugacy-class ids under
    ``top`` come with the enumerated lattice, or are computed by the orbit
    algorithm when first asked for and cached; a member is normal in
    ``top`` when its class has no other member.
    """

    __slots__ = (
        "parent",
        "top",
        "subgroups",
        "matrix",
        "orders",
        "containment",
        "up_edges",
        "_index",
        "_class_ids",
    )

    def __init__(
        self,
        parent: GroupTable,
        top: Subgroup,
        subgroups: Sequence[Subgroup],
        *,
        _class_ids: tuple[int, ...] | None = None,
    ):
        self.parent = parent
        self.top = top
        self.subgroups = tuple(subgroups)
        matrix = np.array([s.mask for s in self.subgroups], np.bool_).reshape(len(self.subgroups), parent.order)
        matrix.flags.writeable = False
        self.matrix = matrix
        self.orders = np.count_nonzero(matrix, axis=1)
        self._index = {key: i for i, key in enumerate(_row_keys(matrix))}
        if len(self._index) != len(self.subgroups):
            raise InvariantError("duplicate subgroup masks in lattice")
        if parent.trivial_subgroup().mask.tobytes() not in self._index or top.mask.tobytes() not in self._index:
            raise InvariantError("lattice must contain the trivial subgroup and the top")
        self.containment = ~(matrix @ ~matrix.T)
        self.containment.flags.writeable = False
        self._class_ids = _class_ids
        self.up_edges = self._build_edges()

    def _build_edges(self) -> tuple[tuple[int, ...], ...]:
        # Every contained pair must obey Lagrange; then no member can lie
        # strictly between a pair at prime index, so those pairs are the
        # edges.  A violation means the enumeration or a mask is broken.
        orders = self.orders
        small, big = np.nonzero(self.containment)  # ordered by small, then big
        bad = np.flatnonzero(orders[big] % orders[small])
        if bad.size:
            i, j = small[bad[0]], big[bad[0]]
            raise InvariantError(
                f"Lagrange fails: a member of order {orders[i]} lies in a member of order {orders[j]}"
            )
        prime = np.zeros(self.parent.order + 1, np.bool_)
        prime[list(prime_divisors(self.parent.order))] = True
        edge = prime[orders[big] // orders[small]]
        small, big = small[edge], big[edge]
        starts = np.searchsorted(small, np.arange(len(orders) + 1)).tolist()
        ups = big.tolist()
        return tuple(tuple(ups[lo:hi]) for lo, hi in zip(starts, starts[1:]))

    # -- indexed access ------------------------------------------------

    def index_of(self, s: Subgroup) -> int:
        try:
            return self._index[s.mask.tobytes()]
        except KeyError:
            raise InputError("subgroup does not belong to this lattice")

    def top_index(self) -> int:
        return self._index[self.top.mask.tobytes()]

    def __len__(self) -> int:
        return len(self.subgroups)

    # -- normality (relative to top) ------------------------------------

    def normal_flags(self) -> np.ndarray:
        """Member i is normal in ``top`` when it is alone in its conjugacy
        class under ``top``."""
        ids = np.array(self.class_ids())
        return np.bincount(ids)[ids] == 1

    def class_ids(self) -> tuple[int, ...]:
        """Conjugacy class of each member under ``top``, numbered 0, 1, ...
        in order of each class's first member.  For a lattice built without
        them, conjugation by each generator of ``top`` permutes the members
        (one scatter of the matrix, each image row looked up), and the
        classes are the orbits of those permutations."""
        if self._class_ids is None:
            g = self.parent
            maps = np.empty((len(self.top.generator_indices), len(self.subgroups)), np.intp)
            for row, conj in zip(maps, _kernels.conjugation_maps(g.mul, g.inv, self.top.generator_indices)):
                images = np.empty_like(self.matrix)
                images[:, conj] = self.matrix  # every member conjugated by one generator
                row[:] = [self._index[key] for key in _row_keys(images)]
            labels = _kernels.orbit_labels(maps)
            self._class_ids = tuple(np.unique(labels, return_inverse=True)[1].tolist())
        return self._class_ids

    def maximal_indices(self) -> tuple[int, ...]:
        """Members other than the top that lie in no member but themselves
        and the top."""
        top = self.top_index()
        # the members other than i and the top that i lies in; -1 for the top
        over = self.containment.sum(axis=1) - 1 - self.containment[:, top]
        return tuple(np.flatnonzero(over == 0).tolist())


def _class_of(
    arr: np.ndarray, gens: tuple[int, ...], conjugators: list[np.ndarray]
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The conjugacy class of the subgroup with mask ``arr`` and generators
    ``gens``, as (mask, generators) pairs in breadth-first order from it
    under the conjugation maps (the orbit algorithm)."""
    orbit = [(arr, gens)]
    seen = {arr.tobytes()}
    for member, member_gens in orbit:
        for conj in conjugators:
            image = np.empty_like(member)
            image[conj] = member
            key = image.tobytes()
            if key not in seen:
                seen.add(key)
                orbit.append((image, tuple(conj[list(member_gens)].tolist())))
    return orbit


def _close_seeds(mul: np.ndarray, seeds: Collection[tuple[np.ndarray, tuple[int, ...]]]) -> np.ndarray:
    """The closure of each (mask, generators) seed, one row per seed.

    Each seed's mask is a base row of a batched ``close_mask`` call and its
    generators the generator row.  The seeds of one wave all have the same
    number of generators (a representative found in wave w has w), so the
    rows need no padding.  Each call takes as many rows as keep rows * order
    * generators within ``CLOSE_BATCH_PRODUCTS``, which bounds its products.
    """
    bases = np.array([arr for arr, _ in seeds])
    gens = np.array([gens for _, gens in seeds], np.intp)
    step = max(1, CLOSE_BATCH_PRODUCTS // (mul.shape[0] * gens.shape[1]))
    closed = [
        _kernels.close_mask(mul, bases[lo : lo + step], gens[lo : lo + step]) for lo in range(0, len(bases), step)
    ]
    return np.concatenate(closed)


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
    are closed together (``_close_seeds``), each from its mask H | <c>
    rather than from H, so a long cyclic subgroup is not walked one power
    per round, and each seed whose closure is new becomes a representative.
    A member's generators generate its mask and serve the algorithms;
    reports name it by ``Subgroup.generators``, from the mask alone.
    """
    n = g.order
    mul, inv = g.mul, g.inv
    elements = np.arange(n)
    cyclics, cyclic_id = g.cyclics, g.cyclic_id
    cyclic_gens = np.array([gen for _, gen in cyclics], np.intp)
    conjugators = _kernels.conjugation_maps(mul, inv, g.gen_indices)

    trivial = np.zeros(n, np.bool_)
    trivial[0] = True
    # mask bytes -> (mask, generators, class number in order of discovery)
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...], int]] = {trivial.tobytes(): (trivial, (), 0)}
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
            conjugated = mul[mul[inv[:, None], list(h_gens)], elements[:, None]]
            normaliser = np.flatnonzero(h_arr[conjugated].all(axis=1))
            # N_G(H) permutes the outside cyclic subgroups; keep each orbit's least
            images = cyclic_id[mul[mul[inv[normaliser, None], cyclic_gens[outside]], normaliser[:, None]]]
            for c in outside[images.min(axis=0) == outside]:
                cyc_arr, cyc_gen = cyclics[c]
                seed_arr = h_arr | cyc_arr
                seed_key = seed_arr.tobytes()
                if seed_key not in found and seed_key not in seeds_done:  # else known or closed before
                    seeds.setdefault(seed_key, (seed_arr, h_gens + (cyc_gen,)))
        if not seeds:
            continue
        seeds_done.update(seeds)
        for (_, gens), closed in zip(seeds.values(), _close_seeds(mul, seeds.values())):
            if closed.tobytes() in found:
                continue
            reps.append((closed, gens))
            for member, member_gens in _class_of(closed, gens, conjugators):
                found[member.tobytes()] = (member, member_gens, len(reps) - 1)
            if len(found) > DEFAULT_SUBGROUP_BOUND:
                raise ResourceLimitError("subgroup count exceeds the enumeration bound", DEFAULT_SUBGROUP_BOUND)

    arrs, gens, reps = zip(*found.values())
    # (order, mask) order, the highest element index most significant: byte
    # k of a little-endian packed mask holds elements 8k..8k+7, low bit first
    matrix = np.array(arrs)
    packed = np.packbits(matrix, axis=1, bitorder="little")
    rank = np.lexsort([*packed.T, np.count_nonzero(matrix, axis=1)]).tolist()
    subgroups = [Subgroup(g, arrs[k], gens[k]) for k in rank]
    numbering: dict[int, int] = {}
    class_ids = tuple(numbering.setdefault(reps[k], len(numbering)) for k in rank)
    return Lattice(g, g.full_subgroup(), subgroups, _class_ids=class_ids)


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
    idx = lat._index.get(lat.matrix[maxima].all(axis=0).tobytes())
    if idx is None:
        raise InvariantError("Frattini intersection is missing from the lattice")
    return lat.subgroups[idx]


def chief_series(lat: Lattice) -> list[ChiefFactor]:
    """One maximal chain of normal-in-top subgroups: from each term, the
    normal member of least order above it (the first such in lattice order),
    so no normal subgroup lies strictly between two terms whatever the
    order of the members."""
    flags, contains, orders = lat.normal_flags(), lat.containment, lat.orders
    current = lat.index_of(lat.parent.trivial_subgroup())
    top = lat.top_index()
    factors: list[ChiefFactor] = []
    while current != top:
        above = np.flatnonzero(flags & contains[current] & (orders > orders[current]))
        nxt = int(above[np.argmin(orders[above])])
        ratio = int(orders[nxt] // orders[current])
        factors.append(ChiefFactor(lat.subgroups[current], lat.subgroups[nxt], ratio, prime_divisors(ratio)))
        current = nxt
    return factors


def p_reachable(lat: Lattice, frm: Subgroup) -> bool:
    """True when the top is reachable from ``frm`` along prime-index edges."""
    goal = lat.top_index()
    seen = {lat.index_of(frm)}
    stack = list(seen)
    while stack:
        i = stack.pop()
        if i == goal:
            return True
        for j in lat.up_edges[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return False
