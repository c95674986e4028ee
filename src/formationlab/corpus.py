"""Corpus construction: named group families, affine semidirect builders,
subgroup censuses of small symmetric groups, and the group-file format.

Group files are line-oriented UTF-8 text:

    # comment
    degree N
    name STRING        (optional)
    gen CYCLES         (one line per generator)

The first non-comment line must be the degree; blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InputError
from .groups import GroupTable, _greedy_generators, close_generators
from .lattice import all_subgroups
from .perms import Permutation, format_cycles, parse_cycles
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
    "save_group",
    "order75_witness",
    "order294_candidate",
    "standard_corpus",
]


@dataclass(frozen=True)
class GroupSpec:
    """A named recipe for one corpus group: degree plus generator texts."""

    name: str
    degree: int
    generator_texts: tuple[str, ...]
    provenance: str  # named-family | sn-subgroup | user-file

    def generators(self) -> list[Permutation]:
        return [parse_cycles(t, self.degree) for t in self.generator_texts]


def build_group(spec: GroupSpec, *, order_bound: int | None = None) -> GroupTable:
    return close_generators(spec.degree, spec.generators(), order_bound=order_bound)


def _spec_from_perms(name: str, degree: int, perms: Sequence[Permutation], provenance="named-family") -> GroupSpec:
    return GroupSpec(name, degree, tuple(format_cycles(p) for p in perms), provenance)


def cyclic(n: int) -> GroupSpec:
    """C_n on n points; order n."""
    if n < 1:
        raise InputError(f"cyclic(n) needs n >= 1, got {n}")
    if n == 1:
        return GroupSpec("C1", 1, (), "named-family")
    rot = Permutation([i % n + 1 for i in range(1, n + 1)])
    return _spec_from_perms(f"C{n}", n, [rot])


def dihedral(n: int) -> GroupSpec:
    """Dihedral group on n points (rotation plus reflection); order 2n."""
    if n < 3:
        raise InputError(f"dihedral(n) needs n >= 3, got {n}")
    rot = Permutation([i % n + 1 for i in range(1, n + 1)])
    refl = Permutation([n - i for i in range(n)])
    return _spec_from_perms(f"Dih{n}", n, [rot, refl])


def symmetric(n: int) -> GroupSpec:
    """S_n on n points; order n!."""
    if n < 1:
        raise InputError(f"symmetric(n) needs n >= 1, got {n}")
    if n == 1:
        return GroupSpec("S1", 1, (), "named-family")
    swap = parse_cycles("(1 2)", n)
    if n == 2:
        return _spec_from_perms("S2", 2, [swap])
    cycle = Permutation([i % n + 1 for i in range(1, n + 1)])
    return _spec_from_perms(f"S{n}", n, [swap, cycle])


def alternating(n: int) -> GroupSpec:
    """A_n on n points for n >= 3; order n!/2."""
    if n < 3:
        raise InputError(f"alternating(n) needs n >= 3, got {n}")
    three = parse_cycles("(1 2 3)", n)
    if n == 3:
        return _spec_from_perms("A3", 3, [three])
    if n % 2 == 1:
        big = Permutation([i % n + 1 for i in range(1, n + 1)])
    else:
        big = Permutation([1] + [i + 1 for i in range(2, n)] + [2])  # (2 3 ... n)
    return _spec_from_perms(f"A{n}", n, [three, big])


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
    return _spec_from_perms(f"Q{4 * m}", 4 * m, [Permutation(mul_a), Permutation(mul_b)])


def direct_product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    """Product acting on disjoint point sets; order |a| * |b|."""
    degree = a.degree + b.degree
    perms = []
    for p in a.generators():
        perms.append(Permutation(tuple(p.images) + tuple(range(a.degree + 1, degree + 1))))
    for p in b.generators():
        perms.append(Permutation(tuple(range(1, a.degree + 1)) + tuple(v + a.degree for v in p.images)))
    return _spec_from_perms(f"{a.name}x{b.name}", degree, perms)


def _mat_mod(matrix, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = matrix
    return ((a % p, b % p), (c % p, d % p))


def _mat_mul(m1, m2, p: int):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p)


def _linear_group_order(matrices, p: int) -> int:
    ident = ((1, 0), (0, 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gen in matrices:
                prod = _mat_mul(m, gen, p)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


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

    t1 = Permutation(point((x + 1) % p, y) for y in range(p) for x in range(p))
    t2 = Permutation(point(x, (y + 1) % p) for y in range(p) for x in range(p))
    perms = [t1, t2]
    for (a, b), (c, d) in mats:
        perms.append(
            Permutation(point((a * x + b * y) % p, (c * x + d * y) % p) for y in range(p) for x in range(p))
        )
    k = _linear_group_order(mats, p)
    return _spec_from_perms(f"C{p}^2:L{k}", p * p, perms)


def subgroups_of_symmetric(n: int) -> list[GroupSpec]:
    """One spec per subgroup of S_n (bitmask-distinct, no isomorphism
    deduplication), with the greedy generators of each subgroup's mask, so
    the specs do not depend on how the lattice was enumerated.

    n = 6 gives 1455 subgroups of a 720-element group (a few seconds).
    """
    if not 1 <= n <= 6:
        raise InputError(f"subgroups_of_symmetric supports 1 <= n <= 6, got {n}")
    table = build_group(symmetric(n))
    lat = all_subgroups(table)
    specs = []
    for i, sub in enumerate(lat.subgroups):
        gens = _greedy_generators(table.mul, sub.mask_array())[1]
        perms = [table.elements[j] for j in gens]
        specs.append(_spec_from_perms(f"S{n}-sub{i:03d}-o{sub.order}", n, perms, "sn-subgroup"))
    return specs


def load_group(path) -> GroupSpec:
    """Parse a group file; errors carry 1-based line numbers."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    degree: int | None = None
    name = path.stem
    gens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if degree is None:
            if keyword != "degree":
                raise InputError(f"line {lineno}: expected 'degree N' first, got {line!r}")
            try:
                degree = int(rest)
            except ValueError:
                raise InputError(f"line {lineno}: bad degree {rest!r}")
            if degree < 1:
                raise InputError(f"line {lineno}: degree must be positive, got {degree}")
        elif keyword == "name":
            if not rest:
                raise InputError(f"line {lineno}: empty name")
            name = rest
        elif keyword == "gen":
            try:
                parse_cycles(rest, degree)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}")
            gens.append(format_cycles(parse_cycles(rest, degree)))
        else:
            raise InputError(f"line {lineno}: unknown keyword {keyword!r}")
    if degree is None:
        raise InputError("file contains no 'degree' line")
    return GroupSpec(name, degree, tuple(gens), "user-file")


def save_group(spec: GroupSpec, path) -> None:
    lines = [f"degree {spec.degree}", f"name {spec.name}"]
    lines += [f"gen {t}" for t in spec.generator_texts]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    return GroupSpec("C7^2:S3", spec.degree, spec.generator_texts, spec.provenance)


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
