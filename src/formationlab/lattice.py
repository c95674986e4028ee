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
deduplicated by bitmask, never by isomorphism, and the lattice order is
(order, mask) so every downstream choice is reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .groups import (
    GroupTable,
    Subgroup,
    array_to_mask,
    is_normal_mask,
)
from .primes import prime_divisors

__all__ = [
    "DEFAULT_SUBGROUP_BOUND",
    "Lattice",
    "ChiefFactor",
    "all_subgroups",
    "is_normal",
    "normal_subgroups",
    "maximal_subgroups",
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

    ``subgroups`` is sorted by (order, mask); ``up_edges[i]`` lists the
    lattice indices j with subgroups[i] < subgroups[j] at prime index.
    Normality (of a member, in ``top``) and conjugacy-class ids (under
    conjugation by ``top``) are computed lazily and cached.
    """

    __slots__ = (
        "parent",
        "top",
        "subgroups",
        "up_edges",
        "_mask_index",
        "_normal",
        "_maximal",
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
        self._mask_index = {s.mask: i for i, s in enumerate(self.subgroups)}
        if len(self._mask_index) != len(self.subgroups):
            raise InvariantError("duplicate subgroup masks in lattice")
        if 1 not in self._mask_index or top.mask not in self._mask_index:
            raise InvariantError("lattice must contain the trivial subgroup and the top")
        self.up_edges = self._build_edges()
        self._normal: np.ndarray | None = None
        self._maximal: tuple[int, ...] | None = None
        self._class_ids = _class_ids

    def _build_edges(self) -> tuple[tuple[int, ...], ...]:
        subs = self.subgroups
        by_order: dict[int, list[int]] = {}
        for i, s in enumerate(subs):
            by_order.setdefault(s.order, []).append(i)
        edges: list[list[int]] = [[] for _ in subs]
        for j, big in enumerate(subs):
            for p in prime_divisors(big.order):
                for i in by_order.get(big.order // p, ()):
                    if big.contains(subs[i]):
                        edges[j].append(i)  # temporarily downward; inverted below
        up: list[list[int]] = [[] for _ in subs]
        for j, downs in enumerate(edges):
            for i in downs:
                up[i].append(j)
        self._assert_edges_maximal(up, by_order)
        return tuple(tuple(sorted(js)) for js in up)

    def _assert_edges_maximal(self, up: list[list[int]], by_order: dict[int, list[int]]) -> None:
        # Prime index forces maximality (Lagrange); a violation means the
        # enumeration or the subset relation is broken.  Only subgroups of an
        # order strictly between the pair's can lie strictly between them.
        subs = self.subgroups
        orders = sorted(by_order)
        for i, ups in enumerate(up):
            small = subs[i]
            for j in ups:
                big = subs[j]
                for order in orders[bisect_right(orders, small.order) : bisect_left(orders, big.order)]:
                    for k in by_order[order]:
                        mid = subs[k]
                        if big.contains(mid) and mid.contains(small):
                            raise InvariantError(
                                f"subgroup strictly between a prime-index pair "
                                f"({small.order} < {mid.order} < {big.order})"
                            )

    # -- indexed access ------------------------------------------------

    def index_of(self, s: Subgroup) -> int:
        try:
            return self._mask_index[s.mask]
        except KeyError:
            raise InputError("subgroup does not belong to this lattice")

    def top_index(self) -> int:
        return self._mask_index[self.top.mask]

    def __len__(self) -> int:
        return len(self.subgroups)

    # -- normality (relative to top) ------------------------------------

    def normal_flags(self) -> np.ndarray:
        if self._normal is None:
            g = self.parent
            cgens = self.top.generator_indices
            flags = np.empty(len(self.subgroups), np.bool_)
            for i, s in enumerate(self.subgroups):
                flags[i] = is_normal_mask(g, s.mask_array(), cgens)
            self._normal = flags
        return self._normal

    def class_ids(self) -> tuple[int, ...]:
        """Conjugacy class of each member under ``top``, numbered 0, 1, ...
        in order of each class's first member."""
        if self._class_ids is None:
            conjugators = _conjugators(self.parent, self.top.generator_indices)
            ids = [-1] * len(self.subgroups)
            count = 0
            for i, s in enumerate(self.subgroups):
                if ids[i] < 0:
                    for arr, _ in _class_of(s.mask_array(), (), conjugators):
                        ids[self._mask_index[array_to_mask(arr)]] = count
                    count += 1
            self._class_ids = tuple(ids)
        return self._class_ids

    def maximal_indices(self) -> tuple[int, ...]:
        if self._maximal is None:
            subs = self.subgroups
            top_i = self.top_index()
            out = []
            for i, s in enumerate(subs):
                if i == top_i:
                    continue
                proper_over = any(
                    t.order > s.order and t.contains(s)
                    for k, t in enumerate(subs)
                    if k != top_i
                )
                if not proper_over:
                    out.append(i)
            self._maximal = tuple(out)
        return self._maximal

    def restrict(self, h: Subgroup) -> "Lattice":
        """The complete lattice of h, reusing this one's members."""
        self.index_of(h)  # validates membership
        return Lattice(self.parent, h, [s for s in self.subgroups if h.contains(s)])


def _cyclic_masks(g: GroupTable) -> tuple[list[tuple[np.ndarray, int]], np.ndarray]:
    """One mask per cyclic subgroup, with its least generator index, and
    each element's cyclic-subgroup id: the position of <x> in that list (-1
    for the identity).  The generators of <x> are the x^k with
    gcd(k, |x|) = 1, so each cyclic subgroup is walked once."""
    n = g.order
    ids = np.full(n, -1, np.intp)
    out: list[tuple[np.ndarray, int]] = []
    for i in range(1, n):
        if ids[i] >= 0:
            continue
        powers = [i]  # powers[k - 1] = x^k, ending at the identity
        while powers[-1] != 0:
            powers.append(int(g.mul[powers[-1], i]))
        powers = np.array(powers)
        ks = np.arange(1, len(powers) + 1)
        ids[powers[np.gcd(ks, len(powers)) == 1]] = len(out)
        arr = np.zeros(n, np.bool_)
        arr[powers] = True
        out.append((arr, i))
    return out, ids


def _conjugators(g: GroupTable, gens: Sequence[int]) -> list[np.ndarray]:
    """conj[x] = s^-1 x s for each s in gens; scattering a mask through conj
    conjugates the subgroup by s (no n x n table)."""
    return [g.mul[g.mul[g.inv[s]], s] for s in gens]


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


def _close_seeds(
    mul: np.ndarray, seeds: list[tuple[bytes, np.ndarray, tuple[int, ...]]]
) -> dict[bytes, np.ndarray]:
    """The closure of each distinct seed mask, keyed by the seed's bytes.

    Each seed's mask is a base row of a batched ``close_mask`` call and its
    generators the generator row.  The seeds of one wave all have the same
    number of generators (a representative found in wave w has w), so the
    rows need no padding.  Each call takes as many rows as keep rows * order
    * generators within ``CLOSE_BATCH_PRODUCTS``, which bounds its products.
    """
    distinct = {key: (arr, gens) for key, arr, gens in seeds}
    if not distinct:
        return {}
    bases = np.array([arr for arr, _ in distinct.values()])
    gens = np.array([gens for _, gens in distinct.values()], np.intp)
    step = max(1, CLOSE_BATCH_PRODUCTS // (mul.shape[0] * gens.shape[1]))
    closed = [
        _kernels.close_mask(mul, bases[lo : lo + step], gens[lo : lo + step]) for lo in range(0, len(bases), step)
    ]
    return dict(zip(distinct, np.concatenate(closed)))


def all_subgroups(g: GroupTable, *, subgroup_bound: int = DEFAULT_SUBGROUP_BOUND) -> Lattice:
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
    ``_cyclic_masks`` order, the first that extending by every cyclic
    subgroup in that order would close; the later ones would only find
    conjugates already known.  So members and their generators are the
    same as under extension by every cyclic subgroup.

    Representatives are handled in waves, a wave being those queued when
    the previous one ended.  All of a wave's seeds not known before it are
    closed together (``_close_seeds``), each from its mask H | <c> rather
    than from H, so a long cyclic subgroup is not walked one power per
    round.  Then the seeds are taken in the order of closing one seed at a
    time, each kept when its closure is new.  A seed that one-at-a-time
    loop would skip, being a known subgroup or closed before, has its
    closure in ``found`` already, so masks, generators and class ids are
    the ones it gives.
    """
    n = g.order
    mul, inv = g.mul, g.inv
    elements = np.arange(n)
    cyclics, cyclic_id = _cyclic_masks(g)
    cyclic_gens = np.array([gen for _, gen in cyclics], np.intp)
    conjugators = _conjugators(g, g.gen_indices)

    trivial = np.zeros(n, np.bool_)
    trivial[0] = True
    # mask bytes -> (mask, generators, class number in order of discovery)
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...], int]] = {trivial.tobytes(): (trivial, (), 0)}
    seeds_done: set[bytes] = set()
    reps = [(trivial, ())]
    done = 0
    while done < len(reps):  # one wave: the representatives queued so far
        wave, done = reps[done:], len(reps)
        seeds = []  # (seed key, seed mask, generators) in the one-at-a-time order
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
                    seeds.append((seed_key, seed_arr, h_gens + (cyc_gen,)))
        closures = _close_seeds(mul, seeds)
        seeds_done.update(closures)
        for seed_key, _, gens in seeds:  # in the order of closing one seed at a time
            closed = closures[seed_key]
            if closed.tobytes() in found:
                continue  # as is every seed the one-at-a-time loop skips
            reps.append((closed, gens))
            for member, member_gens in _class_of(closed, gens, conjugators):
                found[member.tobytes()] = (member, member_gens, len(reps) - 1)
            if len(found) > subgroup_bound:
                raise ResourceLimitError("subgroup count exceeds the enumeration bound", subgroup_bound)

    entries = sorted(
        ((array_to_mask(arr), gens, rep) for arr, gens, rep in found.values()),
        key=lambda t: (t[0].bit_count(), t[0]),
    )
    subgroups = [Subgroup(g, mask, gens) for mask, gens, _ in entries]
    numbering: dict[int, int] = {}
    class_ids = tuple(numbering.setdefault(rep, len(numbering)) for _, _, rep in entries)
    return Lattice(g, g.full_subgroup(), subgroups, _class_ids=class_ids)


def is_normal(lat: Lattice, s: Subgroup) -> bool:
    return bool(lat.normal_flags()[lat.index_of(s)])


def normal_subgroups(lat: Lattice) -> list[Subgroup]:
    flags = lat.normal_flags()
    return [s for i, s in enumerate(lat.subgroups) if flags[i]]


def maximal_subgroups(lat: Lattice) -> list[Subgroup]:
    return [lat.subgroups[i] for i in lat.maximal_indices()]


def minimal_normal_subgroups(lat: Lattice) -> list[Subgroup]:
    normals = [s for s in normal_subgroups(lat) if not s.is_trivial()]
    out = []
    for s in normals:
        if not any(t.order < s.order and s.contains(t) for t in normals):
            out.append(s)
    return out


def frattini(lat: Lattice) -> Subgroup:
    """Intersection of all maximal subgroups (the top itself when none)."""
    maxima = maximal_subgroups(lat)
    if not maxima:
        return lat.top
    mask = lat.top.mask
    for s in maxima:
        mask &= s.mask
    idx = lat._mask_index.get(mask)
    if idx is None:
        raise InvariantError("Frattini intersection is missing from the lattice")
    return lat.subgroups[idx]


def chief_series(lat: Lattice) -> list[ChiefFactor]:
    """One maximal chain of normal-in-top subgroups, least eligible first."""
    flags = lat.normal_flags()
    normals = [s for i, s in enumerate(lat.subgroups) if flags[i]]
    current = lat.subgroups[lat._mask_index[1]]
    factors: list[ChiefFactor] = []
    while current.mask != lat.top.mask:
        nxt = next(
            s for s in normals if s.order > current.order and s.contains(current)
        )  # least order first => no normal subgroup strictly between
        ratio = nxt.order // current.order
        factors.append(ChiefFactor(current, nxt, ratio, prime_divisors(ratio)))
        current = nxt
    return factors


def p_reachable(lat: Lattice, frm: Subgroup) -> bool:
    """True when the top is reachable from ``frm`` along prime-index edges."""
    return _bfs_chain(lat, lat.index_of(frm)) is not None


def _bfs_chain(lat: Lattice, start: int) -> list[int] | None:
    """Indices of a shortest prime-index chain from start to the top."""
    goal = lat.top_index()
    if start == goal:
        return [start]
    prev = {start: -1}
    queue = [start]
    while queue:
        nxt_queue = []
        for i in queue:
            for j in lat.up_edges[i]:
                if j not in prev:
                    prev[j] = i
                    if j == goal:
                        chain = [j]
                        while chain[-1] != start:
                            chain.append(prev[chain[-1]])
                        chain.reverse()
                        return chain
                    nxt_queue.append(j)
        queue = nxt_queue
    return None
