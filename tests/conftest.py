from __future__ import annotations

import pytest

from formationlab.corpus import build_group
from formationlab.groups import close_generators
from formationlab.perms import parse_cycles


def group_of(degree: int, *cycle_texts: str):
    return close_generators(degree, [parse_cycles(t, degree) for t in cycle_texts])


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
