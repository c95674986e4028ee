"""Hot inner loops over Cayley tables: subgroup closure and the pair sweep of
the iterated-commutator word.

Subgroup closure is one vectorized numpy kernel.  The pair sweep has a numba
``@njit`` build and a vectorized pure-numpy build; ``FORMATIONLAB_NO_JIT=1``
(or numba being unavailable) selects the numpy path, and both are importable
by name so tests and benchmarks can compare them directly.

Conventions: ``mul`` is an (n, n) int32 table with ``mul[i, j]`` the index of
"element i then element j"; index 0 is the identity; ``inv[i]`` is the index
of the inverse.  Masks are boolean arrays of length n.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "close_mask",
    "brandl_sweep",
    "brandl_sweep_np",
    "negative_power_table",
]

_WANT_JIT = os.environ.get("FORMATIONLAB_NO_JIT", "").strip().lower() not in {
    "1",
    "true",
    "yes",
}

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

JIT_ENABLED = _WANT_JIT and _HAVE_NUMBA


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


def _brandl_sweep_loop(mul, inv, pow_neg, e):
    """Scan ordered pairs (x, y) in index order; for each, iterate
    u_{k+1} = u_k^(-k) * (u_k^-1 y^-1 u_k y) from u_1 = [x, y].

    Returns (status, x, y): status 1 = every pair reaches the identity,
    0 = (x, y) is the first pair whose (value, k mod e) state repeats,
    -2 = iteration cap breached without a repeat (an invariant violation).
    """
    n = mul.shape[0]
    cap = n * e + 1
    visited = np.zeros(n * e, np.bool_)
    touched = np.empty(n * e, np.int64)
    for x in range(n):
        ix = inv[x]
        for y in range(n):
            v = mul[mul[mul[ix, inv[y]], x], y]
            k = 1
            nt = 0
            ok = False
            overflow = False
            while True:
                if v == 0:
                    ok = True
                    break
                s = v * e + (k % e)
                if visited[s]:
                    break
                visited[s] = True
                touched[nt] = s
                nt += 1
                c = mul[mul[mul[inv[v], inv[y]], v], y]
                v = mul[pow_neg[v, k % e], c]
                k += 1
                if k > cap:
                    overflow = True
                    break
            for t in range(nt):
                visited[touched[t]] = False
            if overflow:
                return -2, x, y
            if not ok:
                return 0, x, y
    return 1, -1, -1


def brandl_sweep_np(mul, inv, pow_neg, e, chunk: int = 8192):
    """Numpy twin of the pair sweep: pairs advance in lockstep, chunked in
    index order so the reported witness is still the least failing pair.

    A pair still unterminated after n*e + 1 values has revisited a
    (value, k mod e) state by pigeonhole, hence never terminates.
    """
    n = mul.shape[0]
    cap = n * e + 1
    for start in range(0, n * n, chunk):
        ids = np.arange(start, min(start + chunk, n * n), dtype=np.int64)
        x = ids // n
        y = ids % n
        v = mul[mul[mul[inv[x], inv[y]], x], y]
        alive = v != 0
        ids, y, v = ids[alive], y[alive], v[alive]
        k = 1
        while ids.size and k <= cap:
            c = mul[mul[mul[inv[v], inv[y]], v], y]
            v = mul[pow_neg[v, k % e], c]
            k += 1
            keep = v != 0
            if not keep.all():
                ids, y, v = ids[keep], y[keep], v[keep]
        if ids.size:
            bad = int(ids[0])
            return 0, bad // n, bad % n
    return 1, -1, -1


if _HAVE_NUMBA:
    _brandl_sweep_jit = njit(cache=True)(_brandl_sweep_loop)

brandl_sweep = _brandl_sweep_jit if JIT_ENABLED else brandl_sweep_np
