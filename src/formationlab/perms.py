"""Input and output of permutations of {1..n}: parsing and printing
disjoint-cycle notation.

A permutation is the tuple of its images of 1..n.  It is never multiplied:
group generators become image rows of a ``groups.GroupTable``, which checks
that each is a bijection, and all arithmetic, the word law included, runs
on its Cayley table, where products are left to right: "a then b" maps i to
b(a(i)).
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import InputError

__all__ = ["parse_cycles", "format_cycles"]

# [0-9], not \d, which takes "٣", read by int() as 3
_TOKEN = re.compile(r"[0-9]+|[()]|\S")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse disjoint-cycle notation like ``(1 2 3)(4 5)`` into the images of
    1..degree; ``()`` is the identity."""
    if degree < 1:
        raise InputError(f"degree must be positive, got {degree}")
    if not text.strip():
        raise InputError("empty cycle text; the identity is written '()'")
    images = list(range(1, degree + 1))
    used = [False] * degree
    cycle: list[int] | None = None
    open_pos = 0
    for match in _TOKEN.finditer(text):
        tok, pos = match.group(), match.start()
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
        elif not (tok.isascii() and tok.isdigit()):  # str.isdigit alone takes "²", which int() rejects
            raise InputError(f"unexpected character {tok!r} in cycle notation", pos)
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
    return tuple(images)


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles of length >= 2, ordered by smallest moved point."""
    seen = [False] * len(images)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start - 1] or images[start - 1] == start:
            continue
        cycle, p = [], start
        while not seen[p - 1]:
            seen[p - 1] = True
            cycle.append(p)
            p = images[p - 1]
        out.append(tuple(cycle))
    return out


def format_cycles(images: Sequence[int]) -> str:
    """Canonical cycle form: cycles sorted by smallest moved point, fixed points
    omitted, the identity printed as ``()``."""
    cycles = _cycles(images)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)
