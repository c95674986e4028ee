from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from formationlab.checkers import PREDICATE_KEYS
from formationlab.corpus import GroupSpec, build_group
from formationlab.groups import GroupTable, Subgroup, close_generators
from formationlab.perms import parse_cycles

from oracles import _greedy_generators

GOLDEN_DIR = Path(__file__).parent / "golden"


def group_of(degree: int, *cycle_texts: str):
    return close_generators(degree, [parse_cycles(t, degree) for t in cycle_texts])


def subgroup_generated(g: GroupTable, seed) -> Subgroup:
    """Least subgroup containing the given element indices."""
    seed_arr = np.zeros(g.order, np.bool_)
    seed_arr[list(seed)] = True
    return Subgroup(g, _greedy_generators(g.mul, seed_arr)[0])


def trivial_subgroup(g: GroupTable) -> Subgroup:
    mask = np.zeros(g.order, np.bool_)
    mask[0] = True
    return Subgroup(g, mask)


def sub_of(g: GroupTable, *cycle_texts: str) -> Subgroup:
    """The subgroup of g generated by permutations in cycle notation."""
    return subgroup_generated(g, [g.index_of(parse_cycles(t, g.degree)) for t in cycle_texts])


def write_group(spec: GroupSpec, path) -> None:
    """Write a group file that ``corpus.load_group`` reads back as ``spec``."""
    lines = [f"degree {spec.degree}", f"name {spec.name}"]
    lines += [f"gen {t}" for t in spec.generator_texts]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def golden_verdicts(file_name: str) -> dict[str, dict[str, bool]]:
    """Each group's six verdicts in a golden report under ``tests/golden``,
    by group name."""
    lines = (GOLDEN_DIR / file_name).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    verdicts = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split("\t")))
        verdicts[cells["name"]] = {key: cells[key] == "true" for key in PREDICATE_KEYS}
    return verdicts


def changed_rows(golden: bytes, raw: bytes) -> list[str]:
    """The names (first cell) of the report rows that differ from a golden
    report's, for a failure message."""
    pairs = zip(golden.decode().splitlines(), raw.decode().splitlines())
    return [new.split("\t", 1)[0] for old, new in pairs if old != new]


@pytest.fixture(scope="session")
def s3():
    return group_of(3, "(1 2)", "(1 2 3)")


@pytest.fixture(scope="session")
def s4():
    return group_of(4, "(1 2)", "(1 2 3 4)")


@pytest.fixture(scope="session")
def s5():
    return group_of(5, "(1 2)", "(1 2 3 4 5)")


@pytest.fixture(scope="session")
def a4():
    return group_of(4, "(1 2 3)", "(2 3 4)")


@pytest.fixture(scope="session")
def a5():
    return group_of(5, "(1 2 3)", "(1 2 3 4 5)")


@pytest.fixture(scope="session")
def klein():
    return group_of(4, "(1 2)(3 4)", "(1 3)(2 4)")


@pytest.fixture(scope="session")
def q8():
    from formationlab.corpus import quaternion_generalized

    return build_group(quaternion_generalized(2))


@pytest.fixture(scope="session")
def c6():
    return group_of(6, "(1 2 3 4 5 6)")
