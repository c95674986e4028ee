"""Complete subgroup lattices and the lattice-level objects the predicates
consume: maximal/normal/minimal-normal subgroups, the Frattini subgroup,
Sylow subgroups, pi-cores, chief series, and prime-index reachability.

Enumeration is by cyclic extension over conjugacy classes of subgroups
(Neubüser's method, as in Cannon, Cox and Holt, "Computing the subgroup
lattice of a permutation group", J. Symb. Comput. 31, 2001): one
representative of each class is extended by every cyclic subgroup and
closed, and each newly found subgroup brings its whole class, found by
permuting its mask under conjugation by the group's generators.  Subgroups
are deduplicated by bitmask, never by isomorphism, and the lattice order is
(order, mask) so every downstream choice is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InputError, InvariantError, ResourceLimitError
from .groups import (
    GroupTable,
    Subgroup,
    _greedy_generators,
    array_to_mask,
    is_normal_mask,
    mask_to_array,
)
from .primes import is_prime, p_part, prime_divisors

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
    "sylow_subgroup",
    "o_pi",
    "o_pprime_p",
    "chief_series",
    "p_reachable",
]

DEFAULT_SUBGROUP_BOUND = 10**6


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
    Normality (of a member, in ``top``) is computed lazily and cached.
    """

    __slots__ = ("parent", "top", "subgroups", "up_edges", "_mask_index", "_normal", "_maximal")

    def __init__(
        self,
        parent: GroupTable,
        top: Subgroup,
        subgroups: Sequence[Subgroup],
        *,
        _edges_prevalidated: bool = False,
    ):
        self.parent = parent
        self.top = top
        self.subgroups = tuple(subgroups)
        self._mask_index = {s.mask: i for i, s in enumerate(self.subgroups)}
        if len(self._mask_index) != len(self.subgroups):
            raise InvariantError("duplicate subgroup masks in lattice")
        if 1 not in self._mask_index or top.mask not in self._mask_index:
            raise InvariantError("lattice must contain the trivial subgroup and the top")
        self.up_edges = self._build_edges(validate=not _edges_prevalidated)
        self._normal: np.ndarray | None = None
        self._maximal: tuple[int, ...] | None = None

    def _build_edges(self, validate: bool = True) -> tuple[tuple[int, ...], ...]:
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
        if validate:
            self._assert_edges_maximal(up)
        return tuple(tuple(sorted(js)) for js in up)

    def _assert_edges_maximal(self, up: list[list[int]]) -> None:
        # Prime index forces maximality (Lagrange); a violation means the
        # enumeration or the subset relation is broken.
        subs = self.subgroups
        for i, ups in enumerate(up):
            small = subs[i]
            for j in ups:
                big = subs[j]
                for k, mid in enumerate(subs):
                    if small.order < mid.order < big.order and big.contains(mid) and mid.contains(small):
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
        """The complete lattice of h, reusing this one's members.  Restricted
        edges are a subset of already-validated ones, so the maximality
        assertion is skipped."""
        self.index_of(h)  # validates membership
        keep = [i for i, s in enumerate(self.subgroups) if h.contains(s)]
        return Lattice(self.parent, h, [self.subgroups[i] for i in keep], _edges_prevalidated=True)


def _cyclic_masks(g: GroupTable) -> list[tuple[np.ndarray, int]]:
    """One mask per cyclic subgroup, with its least generator index.  The
    generators of <x> are the x^k with gcd(k, |x|) = 1, so each cyclic
    subgroup is walked once."""
    n = g.order
    done = np.zeros(n, np.bool_)
    out: list[tuple[np.ndarray, int]] = []
    for i in range(1, n):
        if done[i]:
            continue
        powers = [i]  # powers[k - 1] = x^k, ending at the identity
        while powers[-1] != 0:
            powers.append(int(g.mul[powers[-1], i]))
        powers = np.array(powers)
        ks = np.arange(1, len(powers) + 1)
        done[powers[np.gcd(ks, len(powers)) == 1]] = True
        arr = np.zeros(n, np.bool_)
        arr[powers] = True
        out.append((arr, i))
    return out


def all_subgroups(g: GroupTable, *, subgroup_bound: int = DEFAULT_SUBGROUP_BOUND) -> Lattice:
    """Enumerate every subgroup of g by cyclic extension of class
    representatives.

    Only the first-found member of each conjugacy class is extended by the
    cyclic subgroups; the rest of its class is added at once by conjugating
    masks under the group's generators.  Complete because every subgroup K
    is <H, c> for a maximal subgroup H of K and some c, and conjugation
    carries this over: <H, c>^x = <H^x, c^x>, so extending H's
    representative H^x by <c^x> gives a member of K's class.
    """
    n = g.order
    mul = g.mul
    cyclics = _cyclic_masks(g)
    # conj[x] = s^-1 x s for each group generator s; scattering a mask
    # through conj conjugates the subgroup by s
    conjugators = [mul[mul[g.inv[s]], s] for s in g.gen_indices]

    trivial = np.zeros(n, np.bool_)
    trivial[0] = True
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {trivial.tobytes(): (trivial, ())}
    seeds_done: set[bytes] = set()
    reps = [(trivial, ())]
    for h_arr, h_gens in reps:  # grows while iterating: new representatives queue up
        for cyc_arr, cyc_gen in cyclics:
            if not (cyc_arr & ~h_arr).any():
                continue  # already inside h
            seed_key = (h_arr | cyc_arr).tobytes()
            if seed_key in found or seed_key in seeds_done:
                continue  # closed already, or closure computed before
            seeds_done.add(seed_key)
            gens = h_gens + (cyc_gen,)
            closed = _kernels.close_mask(mul, h_arr, gens)
            key = closed.tobytes()
            if key in found:
                continue
            reps.append((closed, gens))
            found[key] = (closed, gens)
            orbit = [(closed, gens)]
            for arr, arr_gens in orbit:
                for conj in conjugators:
                    image = np.empty_like(arr)
                    image[conj] = arr
                    if image.tobytes() not in found:
                        member = (image, tuple(conj[list(arr_gens)].tolist()))
                        found[image.tobytes()] = member
                        orbit.append(member)
            if len(found) > subgroup_bound:
                raise ResourceLimitError("subgroup count exceeds the enumeration bound", subgroup_bound)

    entries = sorted(
        ((array_to_mask(arr), gens) for arr, gens in found.values()),
        key=lambda t: (t[0].bit_count(), t[0]),
    )
    subgroups = [Subgroup(g, mask, gens) for mask, gens in entries]
    return Lattice(g, g.full_subgroup(), subgroups)


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


def sylow_subgroup(lat: Lattice, p: int) -> Subgroup:
    """First lattice member whose order is the full p-part of |top|;
    the trivial subgroup when p does not divide the order."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    part = p_part(lat.top.order, p)
    for s in lat.subgroups:  # sorted, so the choice is deterministic
        if s.order == part:
            return s
    raise InvariantError(f"no subgroup of order {part} found (Sylow violation)")


def _join_of(lat: Lattice, members: list[Subgroup]) -> Subgroup:
    mask = 1
    for s in members:
        mask |= s.mask
    closed, _ = _greedy_generators(lat.parent.mul, mask_to_array(mask, lat.parent.order))
    idx = lat._mask_index.get(array_to_mask(closed))
    if idx is None:
        raise InvariantError("join of normal subgroups is missing from the lattice")
    return lat.subgroups[idx]


def o_pi(lat: Lattice, pi) -> Subgroup:
    """Largest normal subgroup whose order has prime support inside pi
    (the join of all of them)."""
    pi = frozenset(pi)
    candidates = [s for s in normal_subgroups(lat) if set(prime_divisors(s.order)) <= pi]
    top = _join_of(lat, candidates)
    for s in candidates:
        if not top.contains(s):
            raise InvariantError("pi-core does not contain a normal pi-subgroup")
    if not set(prime_divisors(top.order)) <= pi:
        raise InvariantError("pi-core has primes outside pi")
    return top


def o_pprime_p(lat: Lattice, p: int) -> Subgroup:
    """Preimage of the p-core of top/O_{p'}: the largest normal subgroup N
    with O_{p'} <= N and |N : O_{p'}| a power of p."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    others = frozenset(q for q in prime_divisors(lat.top.order) if q != p)
    core = o_pi(lat, others)
    candidates = [
        s
        for s in normal_subgroups(lat)
        if s.contains(core) and _is_p_power(s.order // core.order, p)
    ]
    return _join_of(lat, candidates)


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


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
