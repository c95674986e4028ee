"""Permutations of {1..n} as input and output: parsing and printing
disjoint-cycle notation.

A ``Permutation`` is never multiplied.  Group generators become image rows
of a ``groups.GroupTable``, and all arithmetic, the word law included, runs
on its Cayley table, where products are left to right: "a then b" maps i to
b(a(i)).
"""

from __future__ import annotations

from typing import Iterator

from .errors import InputError

__all__ = ["Permutation", "parse_cycles", "format_cycles"]


class Permutation:
    """A bijection on {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise InputError("a permutation needs degree at least 1")
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise InputError(f"image {v!r} out of range 1..{n}")
            if seen[v - 1]:
                raise InputError(f"image {v} repeated; not a bijection")
            seen[v - 1] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an images tuple known to be a bijection on 1..n, unchecked:
        for the rows of a closed group table and other bijections by
        construction.  Outside input goes through the checking constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        # Differing degrees never arise inside one group context; treat as
        # plain inequality so hashing stays safe.
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, ordered by smallest moved point."""
        n = self.degree
        seen = [False] * n
        out = []
        for start in range(1, n + 1):
            if seen[start - 1] or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen[start - 1] = True
            p = self.images[start - 1]
            while p != start:
                cyc.append(p)
                seen[p - 1] = True
                p = self.images[p - 1]
            out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def _tokens(text: str) -> Iterator[tuple[str, int]]:
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c, i
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            yield text[i:j], i
            i = j
        else:
            raise InputError(f"unexpected character {c!r} in cycle notation", i)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(1 2 3)(4 5)``; ``()`` is the identity."""
    if degree < 1:
        raise InputError(f"degree must be positive, got {degree}")
    if not text.strip():
        raise InputError("empty cycle text; the identity is written '()'")
    images = list(range(1, degree + 1))
    used = [False] * degree
    cycle: list[int] | None = None
    open_pos = 0
    for tok, pos in _tokens(text):
        if tok == "(":
            if cycle is not None:
                raise InputError("nested '(' in cycle notation", pos)
            cycle = []
            open_pos = pos
        elif tok == ")":
            if cycle is None:
                raise InputError("')' without matching '('", pos)
            for k, p in enumerate(cycle):
                images[p - 1] = cycle[(k + 1) % len(cycle)]
            cycle = None
        else:
            if cycle is None:
                raise InputError("point outside any cycle", pos)
            p = int(tok)
            if not 1 <= p <= degree:
                raise InputError(f"point {p} out of range 1..{degree}", pos)
            if used[p - 1]:
                raise InputError(f"point {p} repeated", pos)
            used[p - 1] = True
            cycle.append(p)
    if cycle is not None:
        raise InputError("unclosed '(' in cycle notation", open_pos)
    return Permutation(images)


def format_cycles(a: Permutation) -> str:
    """Canonical cycle form: cycles sorted by smallest moved point, fixed points
    omitted, the identity printed as ``()``."""
    cycles = a.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)
