"""Hot inner loops over Cayley tables: subgroup closure and the pair sweep of
the iterated-commutator word, both vectorized numpy kernels.

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
    every element order (the group exponent)."""
    n = mul.shape[0]
    table = np.empty((n, e), dtype=np.int32)
    table[:, 0] = 0  # v^0 is the identity
    for j in range(1, e):
        table[:, j] = mul[table[:, j - 1], inv]
    return table


def brandl_sweep(mul, inv, pow_neg, e, chunk: int = 8192):
    """Scan ordered pairs (x, y) for one whose sequence u_1 = [x, y],
    u_{k+1} = u_k^(-k) * (u_k^-1 y^-1 u_k y) never reaches the identity.

    Returns (1, -1, -1) when every pair terminates, else (0, x, y) with
    (x, y) the least failing pair in index order.  Pairs advance in lockstep
    in chunks taken in index order.  A pair fails once its (value, k mod e)
    state repeats; since all pairs share k, that is checked by Brent's
    doubling windows (windows of e, 2e, 4e, ... steps, comparing with the
    value saved at the window start every e steps).  A pair still alive
    after n*e + 1 values has repeated a state by pigeonhole.
    """
    n = mul.shape[0]
    cap = n * e + 1
    for start in range(0, n * n, chunk):
        ids = np.arange(start, min(start + chunk, n * n), dtype=np.int64)
        x = ids // n
        y = ids % n
        v = mul[mul[mul[inv[x], inv[y]], x], y]
        saved = v  # saved[i]: value of pair start + i at step k_saved
        alive = v != 0
        ids, y, v = ids[alive], y[alive], v[alive]
        k = k_saved = 1
        window = e
        least = n * n  # least pair seen to repeat a state
        while ids.size and k <= cap:
            c = mul[mul[mul[inv[v], inv[y]], v], y]
            v = mul[pow_neg[v, k % e], c]
            k += 1
            keep = v != 0
            if (k - k_saved) % e == 0:
                repeated = v == saved[ids - start]
                if repeated.any():
                    least = min(least, int(ids[repeated.argmax()]))
                    keep &= ids < least
                if k - k_saved == window:
                    saved[ids - start] = v
                    k_saved, window = k, 2 * window
            if not keep.all():
                ids, y, v = ids[keep], y[keep], v[keep]
        if ids.size:
            least = min(least, int(ids[0]))
        if least < n * n:
            return 0, least // n, least % n
    return 1, -1, -1
