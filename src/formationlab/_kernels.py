"""Hot inner loops over Cayley tables, all vectorized numpy kernels:
subgroup closure, the table of negative powers, and the pair sweep of the
iterated-commutator word.  The sweep steps each distinct start state
([x, y], y) once, not each of the n*n pairs.

Conventions: ``mul`` is an (n, n) int32 table with ``mul[i, j]`` the index of
"element i then element j"; index 0 is the identity; ``inv[i]`` is the index
of the inverse.  Masks are boolean arrays of length n.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "close_mask",
    "brandl_sweep",
    "negative_power_table",
]

# Every kernel is numpy; the name stays because perfbench/run.py reports it.
JIT_ENABLED = False


def close_mask(mul: np.ndarray, base: np.ndarray, gens) -> np.ndarray:
    """Mask of the subgroup generated by the element indices ``gens``.

    ``base`` must be a product-closed mask inside that subgroup (the identity
    alone will do).  Breadth-first search right-multiplies each newly found
    element by every generator, about |K| * r products for a result of order
    |K| from r generators.  Every element is a word in the generators, and
    each prefix of a word is reached: a prefix in ``base`` times a generator
    in ``base`` stays in ``base``, so base members need only the generators
    outside it.
    """
    gens = np.asarray(gens, dtype=np.intp)
    mask = base.copy()
    prods = mul[np.flatnonzero(base)[:, None], gens[~base[gens]]].ravel()
    while True:
        new = np.zeros_like(mask)
        new[prods] = True
        new &= ~mask
        frontier = np.flatnonzero(new)
        if not frontier.size:
            return mask
        mask |= new
        prods = mul[frontier[:, None], gens].ravel()


def negative_power_table(mul: np.ndarray, inv: np.ndarray, e: int) -> np.ndarray:
    """Table P with P[v, j] = v^(-j) for 0 <= j < e, where e is a multiple of
    every element order (the group exponent).

    Filled by doubling: with columns 0..m-1 known, column j + m is v^(-m)
    times column j, one 2-D take per doubling.
    """
    n = mul.shape[0]
    table = np.empty((n, e), dtype=np.int32)
    table[:, 0] = 0  # v^0 is the identity
    m = 1
    while m < e:
        step = mul[table[:, m - 1], inv]  # v^(-m)
        width = min(m, e - m)
        table[:, m:m + width] = mul[step[:, None], table[:, :width]]
        m += width
    return table


def _commutators(mul, inv, x, y):
    """[x, y] = x^-1 y^-1 x y, elementwise."""
    return mul[mul[mul[inv[x], inv[y]], x], y]


def _failing_states(mul, inv, pow_neg, e, states):
    """Bool array: which start states s = v*n + y (u_1 = v, right argument
    y) never reach the identity.

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
        c = _commutators(mul, inv, v, y)
        v = mul[pow_neg[v, k % e], c]
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


def brandl_sweep(mul, inv, pow_neg, e, chunk: int = 8192):
    """Scan ordered pairs (x, y) for one whose sequence u_1 = [x, y],
    u_{k+1} = u_k^(-k) * (u_k^-1 y^-1 u_k y) never reaches the identity.

    Returns (1, -1, -1) when every pair terminates, else (0, x, y) with
    (x, y) the least failing pair in index order.  The sequence depends on
    (x, y) only through its start state ([x, y], y), so the sweep runs in
    three passes, each in chunks of ``chunk`` pairs or states:

    1. mark every start state v*n + y with v = [x, y] not the identity in
       one n*n bitmap;
    2. step each marked state once (``_failing_states``) and keep only the
       failing ones marked;
    3. only when some state fails, return the first pair in index order
       whose start state is marked.
    """
    n = mul.shape[0]
    pairs = n * n
    marked = np.zeros(pairs, np.bool_)

    def start_states(lo):
        x, y = np.divmod(np.arange(lo, min(lo + chunk, pairs), dtype=np.int64), n)
        return _commutators(mul, inv, x, y) * np.int64(n) + y

    for lo in range(0, pairs, chunk):
        marked[start_states(lo)] = True
    marked[:n] = False  # u_1 is the identity: the pair terminates at once
    states = np.flatnonzero(marked)
    marked[:] = False
    for lo in range(0, states.size, chunk):
        batch = states[lo:lo + chunk]
        marked[batch[_failing_states(mul, inv, pow_neg, e, batch)]] = True
    if marked.any():
        for lo in range(0, pairs, chunk):
            bad = marked[start_states(lo)]
            if bad.any():
                least = lo + int(bad.argmax())
                return 0, least // n, least % n
    return 1, -1, -1
