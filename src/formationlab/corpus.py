"""Corpus construction: named group families, affine semidirect builders,
subgroup censuses of small symmetric groups, and the group-file format.

Group files are line-oriented UTF-8 text:

    # comment
    degree N
    name STRING        (optional)
    gen CYCLES         (one line per generator)

The first non-comment line must be the degree; blank lines are ignored.
Each generator is parsed once, by ``load_group``; a spec keeps it as the
tuple of its images of 1..N, which ``build_group`` hands to the closure,
and prints it back in canonical cycle form (``GroupSpec.generator_texts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InputError
from .groups import DEFAULT_ORDER_BOUND, GroupTable, close_generators
from .lattice import all_subgroups
from .perms import format_cycles, parse_cycles
from .primes import is_prime

__all__ = [
    "GroupSpec",
    "build_group",
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion_generalized",
    "direct_product",
    "affine_semidirect",
    "subgroups_of_symmetric",
    "load_group",
    "order75_witness",
    "order294_candidate",
    "standard_corpus",
]


@dataclass(frozen=True)
class GroupSpec:
    """A named recipe for one corpus group: degree plus generators, each the
    tuple of its images of 1..degree."""

    name: str
    degree: int
    generators: tuple[tuple[int, ...], ...]

    @property
    def generator_texts(self) -> tuple[str, ...]:
        """The generators in canonical cycle form, as group files write them."""
        return tuple(format_cycles(g) for g in self.generators)


def build_group(spec: GroupSpec, bound: int = DEFAULT_ORDER_BOUND) -> GroupTable:
    return close_generators(spec.degree, spec.generators, order_bound=bound)


def _rotation(n: int) -> tuple[int, ...]:
    """(1 2 ... n)."""
    return (*range(2, n + 1), 1)


def cyclic(n: int) -> GroupSpec:
    """C_n on n points; order n."""
    if n < 1:
        raise InputError(f"cyclic(n) needs n >= 1, got {n}")
    if n == 1:
        return GroupSpec("C1", 1, ())
    return GroupSpec(f"C{n}", n, (_rotation(n),))


def dihedral(n: int) -> GroupSpec:
    """Dihedral group on n points (rotation plus reflection); order 2n."""
    if n < 3:
        raise InputError(f"dihedral(n) needs n >= 3, got {n}")
    return GroupSpec(f"Dih{n}", n, (_rotation(n), tuple(range(n, 0, -1))))


def symmetric(n: int) -> GroupSpec:
    """S_n on n points; order n!."""
    if n < 1:
        raise InputError(f"symmetric(n) needs n >= 1, got {n}")
    if n == 1:
        return GroupSpec("S1", 1, ())
    swap = parse_cycles("(1 2)", n)
    if n == 2:
        return GroupSpec("S2", 2, (swap,))
    return GroupSpec(f"S{n}", n, (swap, _rotation(n)))


def alternating(n: int) -> GroupSpec:
    """A_n on n points for n >= 3; order n!/2."""
    if n < 3:
        raise InputError(f"alternating(n) needs n >= 3, got {n}")
    three = parse_cycles("(1 2 3)", n)
    if n == 3:
        return GroupSpec("A3", 3, (three,))
    big = _rotation(n) if n % 2 == 1 else (1, *range(3, n + 1), 2)  # (1 2 ... n) or (2 3 ... n)
    return GroupSpec(f"A{n}", n, (three, big))


def quaternion_generalized(m: int) -> GroupSpec:
    """Generalized quaternion (dicyclic) group of order 4m, m >= 2, acting on
    its own 4m elements by right multiplication.

    Elements are a^i b^j (0 <= i < 2m, j in {0,1}) with a^(2m) = 1,
    b^2 = a^m, and b^-1 a b = a^-1.
    """
    if m < 2:
        raise InputError(f"quaternion_generalized(m) needs m >= 2, got {m}")
    two_m = 2 * m

    def point(i: int, j: int) -> int:
        return 1 + i + two_m * j

    mul_a = [0] * (4 * m)
    mul_b = [0] * (4 * m)
    for i in range(two_m):
        for j in (0, 1):
            src = point(i, j) - 1
            if j == 0:
                mul_a[src] = point((i + 1) % two_m, 0)
                mul_b[src] = point(i, 1)
            else:
                mul_a[src] = point((i - 1) % two_m, 1)
                mul_b[src] = point((i + m) % two_m, 0)
    return GroupSpec(f"Q{4 * m}", 4 * m, (tuple(mul_a), tuple(mul_b)))


def direct_product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    """Product acting on disjoint point sets; order |a| * |b|."""
    degree = a.degree + b.degree
    gens = [(*p, *range(a.degree + 1, degree + 1)) for p in a.generators]
    gens += [(*range(1, a.degree + 1), *(v + a.degree for v in p)) for p in b.generators]
    return GroupSpec(f"{a.name}x{b.name}", degree, tuple(gens))


def _mat_mod(matrix, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = matrix
    return ((a % p, b % p), (c % p, d % p))


def affine_semidirect(p: int, *matrices) -> GroupSpec:
    """Translations of F_p^2 extended by the given invertible 2x2 matrices,
    acting on the p^2 vectors; order p^2 times the linear group order.

    Point numbering: (x, y) -> 1 + x + p*y.
    """
    if not is_prime(p):
        raise InputError(f"affine_semidirect needs a prime modulus, got {p}")
    if not matrices:
        raise InputError("affine_semidirect needs at least one matrix")
    mats = [_mat_mod(m, p) for m in matrices]
    for m in mats:
        (a, b), (c, d) = m
        if (a * d - b * c) % p == 0:
            raise InputError(f"matrix {m} is singular mod {p}")

    def point(x: int, y: int) -> int:
        return 1 + x + p * y

    t1 = tuple(point((x + 1) % p, y) for y in range(p) for x in range(p))
    t2 = tuple(point(x, (y + 1) % p) for y in range(p) for x in range(p))
    linear = [
        tuple(point((a * x + b * y) % p, (c * x + d * y) % p) for y in range(p) for x in range(p))
        for (a, b), (c, d) in mats
    ]
    # the matrices' permutations of the vectors generate a copy of their
    # linear group, whose order is at most |GL2(p)|
    k = close_generators(p * p, linear, order_bound=(p * p - 1) * (p * p - p)).order
    return GroupSpec(f"C{p}^2:L{k}", p * p, (t1, t2, *linear))


def subgroups_of_symmetric(n: int) -> list[GroupSpec]:
    """One spec per subgroup of S_n (mask-distinct, no isomorphism
    deduplication), named by its greedy generators read off the lattice
    (``Lattice.generators``), so the specs do not depend on how the lattice
    was enumerated.

    n = 6 gives 1455 subgroups of a 720-element group (a few seconds).
    """
    if not 1 <= n <= 6:
        raise InputError(f"subgroups_of_symmetric supports 1 <= n <= 6, got {n}")
    table = build_group(symmetric(n), math.factorial(n))
    lat = all_subgroups(table)
    return [
        GroupSpec(f"S{n}-sub{i:03d}-o{order}", n, tuple(table.perm(x) for x in lat.generators(i)))
        for i, order in enumerate(lat.orders.tolist())
    ]


def load_group(path) -> GroupSpec:
    """Parse a UTF-8 group file (a byte-order mark allowed); errors name the file and line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    degree: int | None = None
    name: str | None = None
    gens: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if degree is None:
            if keyword != "degree":
                raise InputError(f"{path}: line {lineno}: expected 'degree N' first, got {line!r}")
            if not (rest.isascii() and rest.isdigit()):
                raise InputError(f"{path}: line {lineno}: bad degree {rest!r}")
            degree = int(rest)
            if degree < 1:
                raise InputError(f"{path}: line {lineno}: degree must be positive, got {degree}")
        elif keyword == "degree" or (keyword == "name" and name is not None):
            raise InputError(f"{path}: line {lineno}: repeated {keyword!r} line")
        elif keyword == "name":
            if not rest:
                raise InputError(f"{path}: line {lineno}: empty name")
            if "\t" in rest:
                raise InputError(
                    f"{path}: line {lineno}: name {rest!r} contains a tab, the report's field separator"
                )
            name = rest
        elif keyword == "gen":
            try:
                gens.append(parse_cycles(rest, degree))
            except InputError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}")
        else:
            raise InputError(f"{path}: line {lineno}: unknown keyword {keyword!r}")
    if degree is None:
        raise InputError(f"{path}: file contains no 'degree' line")
    name = path.stem if name is None else name
    if "\t" in name:  # a name line with one has raised already
        raise InputError(f"{path}: file name {path.name!r} contains a tab, the report's field separator")
    return GroupSpec(name, degree, tuple(gens))


# Standard corpus: subgroup censuses of S4 and S5, named families up to
# order 300, one irreducible affine witness of order 75, and an order-294
# candidate whose classification is reported, not presumed.

_CYCLIC_NS = list(range(1, 65)) + [
    72, 75, 80, 81, 90, 96, 100, 105, 120, 125, 128, 144, 150, 160,
    180, 192, 200, 210, 216, 225, 240, 243, 250, 256, 270, 288, 300,
]
_DIHEDRAL_NS = list(range(3, 33)) + [36, 40, 45, 48, 50, 60, 64, 75, 100, 128, 150]
_QUATERNION_MS = list(range(2, 17)) + [18, 20, 24, 25, 32, 36, 50, 64, 75]

ROTATION_MATRIX = ((0, -1), (1, -1))  # order 3 in GL2(p) for any p
SWAP_MATRIX = ((0, 1), (1, 0))


def order75_witness() -> GroupSpec:
    """C5^2 : C3 with an irreducible order-3 action (no eigenvalue mod 5)."""
    return affine_semidirect(5, ROTATION_MATRIX)


def order294_candidate() -> GroupSpec:
    """C7^2 : S3 via a faithful irreducible 2-dimensional action mod 7: the
    rotation has eigenlines but the swap exchanges them."""
    spec = affine_semidirect(7, ROTATION_MATRIX, SWAP_MATRIX)
    return GroupSpec("C7^2:S3", spec.degree, spec.generators)


def standard_corpus(sn_levels: Sequence[int] = (4, 5)) -> list[GroupSpec]:
    """Named families up to order 300, censuses of the requested symmetric
    groups (default S4 and S5), and the two affine witnesses."""
    specs: list[GroupSpec] = []
    specs += [cyclic(n) for n in _CYCLIC_NS]
    specs += [dihedral(n) for n in _DIHEDRAL_NS]
    specs += [symmetric(n) for n in range(1, 6)]
    specs += [alternating(n) for n in range(3, 6)]
    specs += [quaternion_generalized(m) for m in _QUATERNION_MS]
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    s3, a4 = symmetric(3), alternating(4)
    d4, d5, q8 = dihedral(4), dihedral(5), quaternion_generalized(2)
    specs += [
        direct_product(c2, c2),
        direct_product(direct_product(c2, c2), c2),
        direct_product(c4, c2),
        direct_product(c3, c3),
        direct_product(s3, c2),
        direct_product(s3, c3),
        direct_product(s3, s3),
        direct_product(a4, c2),
        direct_product(a4, c3),
        direct_product(d4, c3),
        direct_product(q8, c3),
        direct_product(d5, c4),
    ]
    for n in sn_levels:
        specs += subgroups_of_symmetric(n)
    specs.append(order75_witness())
    specs.append(order294_candidate())
    return specs
