"""Hot inner loops over Cayley tables, all vectorized numpy kernels, and
the package's one home of words in table lookups: subgroup closure,
conjugates and conjugation maps, orbit labels (the conjugacy classes of
elements and of subgroups), commutators and powers of index arrays, the
table of negative powers, and the pair sweep of the iterated-commutator
word.  The sweep steps each distinct start state ([x, y], y) once, not
each of the n*n pairs, and takes those states from the conjugacy classes,
not from the n*n commutators.

Conventions: ``mul`` is an (n, n) table with ``mul[i, j]`` the index of
"element i then element j", int16 while n < 2^15 and int32 beyond; index 0
is the identity; ``inv[i]`` is the index of the inverse, in ``mul``'s dtype.
Index arithmetic that can pass 2^15, such as a state v*n + y, is done in
int64: a small integer array times a Python int keeps its dtype and wraps.
Masks are boolean arrays of length n, or (k, n) matrices of k masks where a
kernel closes a batch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "close_mask",
    "conjugates",
    "conjugation_maps",
    "orbit_labels",
    "class_labels",
    "start_states",
    "brandl_sweep",
    "negative_power_table",
    "commutators",
    "powers",
]

# Every kernel is numpy; the name stays because perfbench/run.py reports it.
JIT_ENABLED = False
# States or pairs per step of ``brandl_sweep``, which bounds its temporaries.
SWEEP_CHUNK = 8192
# Most products (rows * order * generators) per batch of ``close_mask``,
# which bounds its temporary arrays to a few MB however many rows it closes.
CLOSE_BATCH_PRODUCTS = 1 << 18


def close_mask(mul: np.ndarray, base: np.ndarray, gens) -> np.ndarray:
    """Mask of the subgroup generated by the element indices ``gens``, or
    one such mask per row.

    ``base`` is an n-length mask, or a (k, n) matrix of k masks; ``gens``
    is then one index list, or a (k, r) matrix whose row i generates row i,
    padded with 0 (the identity).  Each base row must contain the identity
    and lie inside its subgroup, but need not be product-closed: a
    subgroup H together with a cyclic subgroup <c> will do.

    Breadth-first search right-multiplies every base member, then each
    newly found element, by every generator of its row, about |K| * r
    products for a result of order |K| from r generators.  Every element
    is a word in the generators, so all are reached from the identity.
    The rows are closed in batches of as many as keep rows * n * r within
    ``CLOSE_BATCH_PRODUCTS``, which bounds the temporaries however large
    the batch; the rows of a batch advance together on flat indices
    row * n + element, one round of numpy calls per search depth.
    """
    n = mul.shape[0]
    mask = np.array(base, dtype=np.bool_)
    rows = mask.reshape(-1, n)
    gens = np.asarray(gens, dtype=np.intp).reshape(len(rows), -1)
    step = max(1, CLOSE_BATCH_PRODUCTS // (n * max(1, gens.shape[1])))
    for lo in range(0, len(rows), step):
        flat, row_gens = rows[lo:lo + step].reshape(-1), gens[lo:lo + step]  # flat views ``mask``
        frontier = np.flatnonzero(flat)
        while frontier.size:
            row, x = np.divmod(frontier, n)
            prods = (mul[x[:, None], row_gens[row]] + (row * n)[:, None]).ravel()
            new = np.zeros_like(flat)
            new[prods] = True
            new &= ~flat
            frontier = np.flatnonzero(new)
            flat |= new
    return mask


def conjugates(mul: np.ndarray, inv: np.ndarray, x, s) -> np.ndarray:
    """x^s = s^-1 x s, for index arrays (or indices) that broadcast:
    ``x[None, :], s[:, None]`` gives every x conjugated by every s."""
    return mul[mul[inv[s], x], s]


def conjugation_maps(mul: np.ndarray, inv: np.ndarray, gens) -> list[np.ndarray]:
    """conj[x] = s^-1 x s for each s in ``gens``, one array per generator.
    Reading a mask at conj tests that conjugation by s keeps it; scattering
    a mask through conj conjugates the subgroup by s (no n x n table)."""
    return list(conjugates(mul, inv, np.arange(mul.shape[0]), np.asarray(gens, np.intp).reshape(-1, 1)))


def orbit_labels(maps: np.ndarray) -> np.ndarray:
    """Label of each point by the least point of its orbit under the group
    generated by ``maps``, a (k, m) array whose rows are permutations of
    0..m-1 (k may be 0).

    Labels start as the points themselves; each round takes the minimum of
    a label and the label at each map's image, then jumps every label to
    its own label, until nothing changes.  A label is always a point of the
    same orbit, so the fixed point is constant on each orbit and equals its
    least point.
    """
    labels = np.arange(maps.shape[1])
    while True:
        new = labels
        for conj in maps:
            new = np.minimum(new, new[conj])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def class_labels(mul: np.ndarray, inv: np.ndarray, gens) -> np.ndarray:
    """Label of each element's conjugacy class: the least index in the
    class.  The classes are the orbits of the group generated by the
    conjugation maps x -> s^-1 x s of the generators s (the orbit
    algorithm; Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005)."""
    return orbit_labels(np.array(conjugation_maps(mul, inv, gens)).reshape(-1, mul.shape[0]))


def start_states(mul: np.ndarray, inv: np.ndarray, gens) -> np.ndarray:
    """Every distinct start state v*n + y, v = [x, y] not the identity, over
    all pairs (x, y), as an int64 array with no repeats.

    For fixed y, [x, y] = (y^-1)^x y and (y^-1)^x runs over the class of
    y^-1 as x runs over the group, so the states with y in a class K are
    the products c y with c in inv[K]: |K|^2 states, distinct by
    construction, one of them (c = y^-1) the identity.  Central elements
    add none.  Classes of one size are handled in one 3-D take.
    """
    n = mul.shape[0]
    labels = class_labels(mul, inv, gens)
    members = np.argsort(labels, kind="stable")  # each class contiguous
    sorted_labels = labels[members]
    firsts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    sizes = np.diff(np.r_[firsts, n])
    parts = [np.empty(0, np.int64)]
    for size in sorted(set(sizes.tolist()) - {1}):
        k = members[firsts[sizes == size][:, None] + np.arange(size)]  # one class per row
        v = mul[inv[k][:, :, None], k[:, None, :]].astype(np.int64)
        parts.append((v * n + k[:, None, :])[v != 0])
    return np.concatenate(parts)


def commutators(mul: np.ndarray, inv: np.ndarray, x, y) -> np.ndarray:
    """[x, y] = x^-1 y^-1 x y, for index arrays (or indices) that broadcast:
    ``x[:, None], y[None, :]`` gives every pair."""
    return mul[mul[mul[inv[x], inv[y]], x], y]


def powers(mul: np.ndarray, xs: np.ndarray, k: int) -> np.ndarray:
    """x^k for each x in ``xs`` by repeated squaring."""
    result = np.zeros(xs.shape, mul.dtype)
    base = xs
    while k:
        if k & 1:
            result = mul[result, base]
        k >>= 1
        base = mul[base, base]
    return result


def negative_power_table(mul: np.ndarray, inv: np.ndarray, rows: np.ndarray, e: int) -> np.ndarray:
    """Table P with P[i, j] = rows[i]^(-j) for 0 <= j < e, where e is a
    multiple of every element order (the group exponent).

    Filled by doubling: with columns 0..m-1 known, column j + m is v^(-m)
    times column j, one 2-D take per doubling.
    """
    table = np.empty((len(rows), e), dtype=mul.dtype)
    table[:, 0] = 0  # v^0 is the identity
    m = 1
    while m < e:
        step = mul[table[:, m - 1], inv[rows]]  # v^(-m)
        width = min(m, e - m)
        table[:, m:m + width] = mul[step[:, None], table[:, :width]]
        m += width
    return table


def _failing_states(mul, inv, pow_neg, row_of, e, states):
    """Bool array: which start states s = v*n + y (u_1 = v, right argument
    y) never reach the identity.  ``pow_neg[row_of[v], j]`` is v^(-j) for
    every value v the states reach.

    States advance in lockstep.  A state fails once its (value, k mod e)
    repeats; since all states share k, that is checked by Brent's doubling
    windows (windows of e, 2e, 4e, ... steps, comparing with the value saved
    at the window start every e steps).  A state still alive after n*e + 1
    values has repeated by pigeonhole.
    """
    n = mul.shape[0]
    cap = n * e + 1
    v, y = np.divmod(states, n)
    failed = np.zeros(states.size, np.bool_)
    pos = np.arange(states.size)
    saved = v.copy()  # saved[i]: value of state i at step k_saved
    k = k_saved = 1
    window = e
    while pos.size and k <= cap:
        c = commutators(mul, inv, v, y)
        v = mul[pow_neg[row_of[v], k % e], c]
        k += 1
        keep = v != 0
        if (k - k_saved) % e == 0:
            repeated = v == saved[pos]
            failed[pos[repeated]] = True
            keep &= ~repeated
            if k - k_saved == window:
                saved[pos] = v
                k_saved, window = k, 2 * window
        if not keep.all():
            pos, y, v = pos[keep], y[keep], v[keep]
    failed[pos] = True
    return failed


def brandl_sweep(mul, inv, gens, e):
    """Scan ordered pairs (x, y) for one whose sequence u_1 = [x, y],
    u_{k+1} = u_k^(-k) * (u_k^-1 y^-1 u_k y) never reaches the identity.
    ``gens`` are the indices of generators of the group.

    Returns (1, -1, -1) when every pair terminates, else (0, x, y) with
    (x, y) the least failing pair in index order.  The sequence depends on
    (x, y) only through its start state ([x, y], y), so the sweep runs in
    three passes, each in chunks of ``SWEEP_CHUNK`` states or pairs:

    1. take the distinct start states whose value is not the identity from
       the conjugacy classes (``start_states``); abelian groups have none;
    2. step each state once (``_failing_states``).  Every u_k lies in the
       derived subgroup G', which the start values generate, so the table
       of negative powers covers only the rows of G';
    3. only when some state fails, mark the failing states in an n*n bitmap
       and return the first pair in index order whose start state is
       marked.
    """
    n = mul.shape[0]
    states = start_states(mul, inv, gens)
    if not states.size:
        return 1, -1, -1
    values = np.zeros(n, np.bool_)
    values[states // n] = True
    identity = np.zeros(n, np.bool_)
    identity[0] = True
    rows = np.flatnonzero(close_mask(mul, identity, np.flatnonzero(values)))
    row_of = np.zeros(n, np.intp)
    row_of[rows] = np.arange(rows.size)
    pow_neg = negative_power_table(mul, inv, rows, e)
    failing = []
    for lo in range(0, states.size, SWEEP_CHUNK):
        batch = states[lo:lo + SWEEP_CHUNK]
        failing.append(batch[_failing_states(mul, inv, pow_neg, row_of, e, batch)])
    failing = np.concatenate(failing)
    if failing.size:
        pairs = n * n
        marked = np.zeros(pairs, np.bool_)
        marked[failing] = True
        for lo in range(0, pairs, SWEEP_CHUNK):
            x, y = np.divmod(np.arange(lo, min(lo + SWEEP_CHUNK, pairs), dtype=np.int64), n)
            bad = marked[commutators(mul, inv, x, y) * np.int64(n) + y]
            if bad.any():
                least = lo + int(bad.argmax())
                return 0, least // n, least % n
    return 1, -1, -1
